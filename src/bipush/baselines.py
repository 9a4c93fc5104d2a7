"""Baseline query methods: random walks and plain power iteration, each
paired with the backward push kernel.

monte_carlo estimates forward scores by simulating restart walks with alias
sampling (O(1) per hop after an O(|E|) table build). mcsp_query adds walk
estimates to backward push estimates at half the error budget each;
pisp_query does the same with a truncated power-iteration forward pass.
Both baselines reuse the push_engine kernels rather than reimplementing
them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .bhpp_query import QueryResult, resolve_query
from .bigraph import BipartiteGraph
from .push_engine import power_iteration, required_iterations, selective_push
from .rng import substream


# Most walks a run without a deadline may take: about 15 minutes at the
# 1.1e6 walks/s measured on a 400k-edge graph. A deadline lifts the cap,
# because it stops the run itself.
MAX_WALKS = 10**9
WALK_BATCH = 1 << 17  # walks per batch, each from its own substream


class DeadlineExceeded(Exception):
    """A walk simulation ran past its deadline."""


@dataclass(frozen=True)
class AliasTables:
    """Per-edge-slot alias tables for both sides, aligned with the graph's
    CSR layout. alias entries are slot offsets local to their node's row."""

    u_prob: np.ndarray
    u_alias: np.ndarray
    v_prob: np.ndarray
    v_alias: np.ndarray


def _build_side(indptr, weights, count) -> tuple[np.ndarray, np.ndarray]:
    # Every slot starts certain and aliased to itself, its own offset within
    # its row; the slots left in `small` or `large` below keep that, and only
    # float roundoff leaves one in `small`.
    prob = np.ones(len(weights))
    alias = np.arange(len(weights), dtype=np.int64) - np.repeat(indptr[:-1], np.diff(indptr))
    for node in range(count):
        s, e = int(indptr[node]), int(indptr[node + 1])
        d = e - s
        if d == 1:
            continue
        w = weights[s:e]
        scaled = (w * (d / w.sum())).tolist()
        small = [i for i in range(d) if scaled[i] < 1.0]
        large = [i for i in range(d) if scaled[i] >= 1.0]
        while small and large:
            sm = small.pop()
            lg = large.pop()
            prob[s + sm] = scaled[sm]
            alias[s + sm] = lg
            scaled[lg] -= 1.0 - scaled[sm]
            if scaled[lg] < 1.0:
                small.append(lg)
            else:
                large.append(lg)
    return prob, alias


def build_alias(g: BipartiteGraph) -> AliasTables:
    """Alias tables for weight-proportional neighbor sampling on both sides."""
    u_prob, u_alias = _build_side(g.u_adj.indptr, g.u_adj.data, g.u_count)
    v_prob, v_alias = _build_side(g.v_adj.indptr, g.v_adj.data, g.v_count)
    return AliasTables(u_prob, u_alias, v_prob, v_alias)


def mc_walk_count(epsilon_f: float, p_f: float, u_count: int) -> int:
    """Walks needed for entrywise error epsilon_f with failure odds p_f.

    Bernstein-style: ceil(2 (1 + epsilon_f/3) ln(u_count / p_f) / epsilon_f^2),
    floored at one walk. Raises ValueError when the count overflows a float
    or p_f lies outside (0, 1).
    """
    if not 0 < epsilon_f < math.inf:
        raise ValueError("epsilon_f must be positive and finite")
    if not 0 < p_f < 1:
        raise ValueError("p_f must lie strictly between 0 and 1")
    if u_count < 1:
        raise ValueError("u_count must be at least 1")
    try:
        square = epsilon_f**2
    except OverflowError:  # epsilon_f above ~1e154 asks for far under one walk
        return 1
    raw = 2.0 * (1.0 + epsilon_f / 3.0) * math.log(u_count / p_f) / square if square else math.inf
    if not raw < math.inf:
        raise ValueError(f"the walk count for epsilon_f={epsilon_f!r} is too large to compute")
    return max(1, math.ceil(raw))


def _hop(prob, alias, adj, deg, cur, rng):
    """One weight-proportional neighbor draw for every walk in cur, along
    the rows of the side's CSR `adj`."""
    d = deg[cur]
    slot = (rng.random(cur.size) * d).astype(np.int64)  # < d since draws are < 1
    pos = adj.indptr[cur] + slot
    hit = rng.random(cur.size) < prob[pos]
    pos = np.where(hit, pos, adj.indptr[cur] + alias[pos])
    return adj.indices[pos].astype(np.int64)


def monte_carlo(
    g: BipartiteGraph,
    alias: AliasTables | None,
    source_u: int,
    alpha: float,
    epsilon_f: float,
    p_f: float,
    seed: int,
    deadline: float | None = None,
) -> np.ndarray:
    """Forward score estimates from restart walks; frequencies sum to one.

    Each walk stops with probability alpha before every hop (so staying put
    is possible) and otherwise takes the two-leg step U -> V -> U with
    weight-proportional draws. Batches of WALK_BATCH walks use named
    substreams of `seed`, so thread scheduling cannot change the result.
    `deadline` (time.perf_counter units) is checked between batches.
    Without one, a walk count over MAX_WALKS raises ValueError before any
    walk. `alias` None builds the tables after that check.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if not 0 <= source_u < g.u_count:
        raise ValueError(f"node index {source_u} out of range")
    n_walks = mc_walk_count(epsilon_f, p_f, g.u_count)
    if deadline is None and n_walks > MAX_WALKS:
        raise ValueError(
            f"{n_walks} walks exceed the cap of {MAX_WALKS} for a run without a "
            "deadline; raise epsilon or p_f"
        )
    if alias is None:
        alias = build_alias(g)
    counts = np.zeros(g.u_count, dtype=np.int64)
    done = 0
    batch_index = 0
    while done < n_walks:
        if deadline is not None and time.perf_counter() > deadline:
            raise DeadlineExceeded(
                f"walk budget exhausted after {done} of {n_walks} walks"
            )
        n = min(WALK_BATCH, n_walks - done)
        gen = substream(seed, "mc-batch", batch_index)
        cur = np.full(n, source_u, dtype=np.int64)
        while cur.size:
            stopping = gen.random(cur.size) < alpha
            counts += np.bincount(cur[stopping], minlength=g.u_count)
            cur = cur[~stopping]
            if cur.size == 0:
                break
            mid = _hop(alias.u_prob, alias.u_alias, g.u_adj, g.deg_u, cur, gen)
            cur = _hop(alias.v_prob, alias.v_alias, g.v_adj, g.deg_v, mid, gen)
        done += n
        batch_index += 1
    return counts / n_walks


def mcsp_query(
    g: BipartiteGraph,
    alias: AliasTables | None,
    query_u,
    alpha: float,
    epsilon: float,
    p_f: float = 1e-6,
    seed: int = 0,
    deadline: float | None = None,
) -> QueryResult:
    """Walks forward, pushes backward, half the error budget each.

    Two-sided guarantee: |true - score| <= epsilon entrywise with probability
    at least 1 - p_f (walk half two-sided, push half one-sided). `alias` and
    `deadline` pass to monte_carlo, which caps the walks of a run with no
    deadline.
    """
    def forward(q, half):
        fwd = monte_carlo(g, alias, q, alpha, half, p_f, seed, deadline=deadline)
        return fwd, {"n_walks": mc_walk_count(half, p_f, g.u_count)}

    return _split_budget("mcsp", g, query_u, alpha, epsilon, forward)


def pisp_query(g: BipartiteGraph, query_u, alpha: float, epsilon: float) -> QueryResult:
    """Power-iterates forward, pushes backward, half the error budget each.

    One-sided guarantee: 0 <= true - score <= epsilon entrywise.
    """
    def forward(q, half):
        depth = required_iterations(alpha, half, 1.0)
        start = np.zeros(g.u_count)
        start[q] = 1.0
        return power_iteration(g, start, alpha, depth), {"power_iterations": depth}

    return _split_budget("pisp", g, query_u, alpha, epsilon, forward)


def _split_budget(method, g, query_u, alpha, epsilon, forward) -> QueryResult:
    """A query that spends half of `epsilon` on `forward(q, half)`, which
    returns the forward scores and their phase trace, and half on the
    backward selective push; the scores are the two estimates added."""
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    q = resolve_query(g, query_u)
    half = epsilon / 2.0
    t0 = time.perf_counter()
    fwd, fwd_trace = forward(q, half)
    t1 = time.perf_counter()
    back = selective_push(g, q, alpha, half)
    t2 = time.perf_counter()
    return QueryResult(
        method=method,
        query_index=q,
        scores=fwd + back.ledger.estimate,
        epsilon=epsilon,
        timing={"forward": t1 - t0, "backward": t2 - t1, "total": t2 - t0},
        phase_trace={
            "forward": fwd_trace,
            "backward": {**back.phase_trace, "terminated_by": back.terminated_by},
        },
        u_labels=g.u_labels,
    )
