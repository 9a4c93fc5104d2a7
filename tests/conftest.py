"""Shared fixtures: two closed-form graphs and a random graph factory."""

import numpy as np
import pytest
import scipy.sparse as sp

from bipush import BipartiteGraph


@pytest.fixture
def g2() -> BipartiteGraph:
    """Two U nodes sharing one V node, unit weights.

    Hidden transition matrix is [[1/2, 1/2], [1/2, 1/2]]; at alpha = 0.15
    the walk scores from u1 are exactly (0.575, 0.425).
    """
    return BipartiteGraph(["u1", "u2"], ["v1"], [0, 1], [0, 0], [1.0, 1.0])


@pytest.fixture
def g3() -> BipartiteGraph:
    """Three edges u1-v1, u1-v2, u2-v2, unit weights.

    Hidden transition matrix is [[3/4, 1/4], [1/2, 1/2]]; at alpha = 0.15
    the walk-score rows are (46/63, 17/63) and (34/63, 29/63).
    """
    return BipartiteGraph(
        ["u1", "u2"], ["v1", "v2"], [0, 0, 1], [0, 1, 1], [1.0, 1.0, 1.0]
    )


def random_bigraph(
    rng: np.random.Generator,
    u_count: int | None = None,
    v_count: int | None = None,
    avg_degree: float | None = None,
    weight_hi: float = 10.0,
) -> BipartiteGraph:
    """A connected-enough random bipartite graph with positive weights.

    Every node gets at least one edge (a covering assignment), then extra
    edges fill up to the requested average U-side degree.
    """
    if u_count is None:
        u_count = int(rng.integers(10, 201))
    if v_count is None:
        v_count = int(rng.integers(10, 201))
    if avg_degree is None:
        avg_degree = float(rng.uniform(2.0, 20.0))
    want = int(round(avg_degree * u_count))
    edge_count = max(u_count, v_count, want)
    edge_count = min(edge_count, u_count * v_count)
    pairs = set()
    order = []
    # cover both sides so no node is isolated
    vs = rng.permutation(v_count)
    for i in range(max(u_count, v_count)):
        key = (i % u_count, int(vs[i % v_count]))
        if key not in pairs:
            pairs.add(key)
            order.append(key)
    while len(order) < edge_count:
        eu = rng.integers(0, u_count, size=edge_count)
        ev = rng.integers(0, v_count, size=edge_count)
        for a, b in zip(eu.tolist(), ev.tolist()):
            if (a, b) not in pairs:
                pairs.add((a, b))
                order.append((a, b))
                if len(order) == edge_count:
                    break
    edge_u = np.array([a for a, _ in order])
    edge_v = np.array([b for _, b in order])
    # weights strictly positive in (0, weight_hi]
    edge_w = weight_hi - rng.random(len(order)) * weight_hi * (1 - 1e-9)
    return BipartiteGraph(
        [f"u{i}" for i in range(u_count)],
        [f"v{j}" for j in range(v_count)],
        edge_u,
        edge_v,
        edge_w,
    )


def scipy_adj(g: BipartiteGraph, side: str = "u") -> sp.csr_matrix:
    """One side's raw-weight matrix as a scipy CSR matrix, built from the
    graph's own arrays: |U|x|V| for side "u", |V|x|U| for side "v"."""
    view = g.u_adj if side == "u" else g.v_adj
    return sp.csr_matrix((view.data, view.indices, view.indptr), shape=view.shape)
