"""Two-way similarity queries: forward plus backward walk scores.

The score of node u_i for query u is the sum of the forward walk score
(walks from u landing on u_i) and the backward one (walks from u_i landing
on u). The two-hop walk is reversible, ws_i pi_i(u) = ws_u pi_u(i), so the
backward score is the forward one times ws_u / ws_i and one vector answers
a query: pi_push computes the forward scores and certifies their error
together with its reflection, and the query scales them by 1 + ws_u / ws_i.
The result underestimates the true score by at most epsilon entrywise and
never overestimates.

The index keeps only what a query cannot derive from the graph: alpha and
the graph fingerprint live in IndexMeta, built by build_index_meta and
persisted as JSON next to the graph cache.
"""

from __future__ import annotations

import json
import time
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bigraph import BipartiteGraph, DataError
from .push_engine import pi_push

META_VERSION = 1


@dataclass
class IndexMeta:
    """Query-independent per-graph parameters: the restart probability and
    the fingerprint of the graph they were built for. An alpha no query can
    run on raises DataError.
    """

    alpha: float
    graph_fingerprint: str

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DataError(f"index alpha must lie strictly between 0 and 1, got {self.alpha}")

    def check_graph(self, g: BipartiteGraph) -> None:
        """Raise DataError unless this metadata was built for graph g."""
        if self.graph_fingerprint != g.fingerprint:
            raise DataError(
                "index metadata does not match this graph (fingerprint mismatch); "
                "rebuild the index with preprocess"
            )


@dataclass
class QueryResult:
    """Scores plus the accounting needed to audit a query."""

    method: str
    query_index: int
    scores: np.ndarray
    epsilon: float
    timing: dict
    phase_trace: dict
    u_labels: Sequence[str] | None = None


def build_index_meta(g: BipartiteGraph, alpha: float = 0.15) -> IndexMeta:
    return IndexMeta(alpha=alpha, graph_fingerprint=g.fingerprint)


def save_meta(meta: IndexMeta, path) -> None:
    payload = {
        "format_version": META_VERSION,
        "alpha": meta.alpha,
        "graph_fingerprint": meta.graph_fingerprint,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_meta(path) -> IndexMeta:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read index metadata: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format_version") != META_VERSION:
        raise DataError("unsupported index metadata version")
    try:
        fields = dict(
            alpha=float(payload["alpha"]),
            graph_fingerprint=str(payload["graph_fingerprint"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed index metadata: {exc!r}") from None
    return IndexMeta(**fields)


def resolve_query(g: BipartiteGraph, query_u) -> int:
    """U index of a query given as a label or an index. Raises DataError for
    an unknown label, ValueError for an index outside [0, |U|)."""
    q = g.u_id(query_u) if isinstance(query_u, str) else int(query_u)
    if not 0 <= q < g.u_count:
        raise ValueError(f"node index {q} out of range")
    return q


def bhpp_query(g: BipartiteGraph, meta: IndexMeta, query_u, epsilon: float, round_hook=None) -> QueryResult:
    """Two-way scores for every U node, accurate to epsilon entrywise.

    query_u may be a label or a U index. One pi_push answers the query; its
    trace's backward_bound becomes the backward phase's residue_bound, and
    that phase does no work of its own. Raises DataError when the metadata
    was built for a different graph, when the scores come out non-finite,
    and when the two certified bounds sum to more than epsilon, which only
    an epsilon near float64's rounding floor brings about; ValueError when
    epsilon is not positive and finite.
    """
    meta.check_graph(g)
    q = resolve_query(g, query_u)

    t0 = time.perf_counter()
    fwd = pi_push(g, q, meta.alpha, epsilon, round_hook)
    scores = fwd.scores * (1.0 + g.ws_u[q] / g.ws_u)
    t1 = time.perf_counter()
    if not np.isfinite(scores).all():
        raise DataError(f"query {q} produced non-finite scores; the graph's weights are out of range")
    forward = {**fwd.phase_trace, "terminated_by": fwd.terminated_by}
    backward = {
        "selective_rounds": 0,
        "sequential_rounds": 0,
        "residue_bound": forward.pop("backward_bound"),
        "n_p": 0,
        "terminated_by": fwd.terminated_by,
    }
    bound = forward["residue_bound"] + backward["residue_bound"]
    if not bound <= epsilon:
        raise DataError(
            f"query {g.u_labels[q]!r} is certified only to {bound:g}, above epsilon "
            f"{epsilon:g}: float64 rounding cannot certify a finer epsilon"
        )
    return QueryResult(
        method="ssbipush",
        query_index=q,
        scores=scores,
        epsilon=epsilon,
        timing={"forward": t1 - t0, "total": t1 - t0},
        phase_trace={"backward": backward, "forward": forward},
        u_labels=g.u_labels,
    )


def topk(result: QueryResult, k: int, exclude_query: bool = False) -> list[tuple[str, float]]:
    """Top-k (label, score) pairs, scores descending, ties by ascending index."""
    if k <= 0:
        raise ValueError("k must be positive")
    neg = -result.scores
    # Only entries at or below the m-th smallest of neg can place. `not >`
    # keeps NaNs too, which the stable sort then puts last, as a full sort
    # would.
    m = min(k + bool(exclude_query), neg.size)
    cand = np.flatnonzero(~(neg > np.partition(neg, m - 1)[m - 1]))
    order = cand[np.argsort(neg[cand], kind="stable")]
    if exclude_query:
        order = order[order != result.query_index]
    order = order[:k]
    labels = result.u_labels
    return [
        (labels[i] if labels is not None else str(i), float(result.scores[i]))
        for i in order.tolist()
    ]
