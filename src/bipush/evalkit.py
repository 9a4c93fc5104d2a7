"""Offline evaluation: edge holdouts, ranking metrics, and the two study
pipelines (query rewriting ranked by co-click desirability, item
recommendation scored from neighbor similarities).

Ground truth for query rewriting is computed on the full graph; predicted
rankings only ever see the training split. Recommendation uses per-user
candidate lists of held-out positives plus sampled non-edges.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache

import numpy as np

from .baselines import build_alias, mcsp_query
from .bhpp_query import bhpp_query, build_index_meta
from .bigraph import BipartiteGraph, DataError
from .csr import CsrView
from .rng import substream


@dataclass
class EvalSplit:
    """Train graph plus held-out edges.

    train keeps every node of the original graph (same labels, same indices).
    test holds (u_index, v_index, weight) triples. candidates maps each
    stratified-side node with held-out edges to its ranking pool on the other
    side: held-out positives first, then sampled non-edges.
    """

    train: BipartiteGraph
    test: list[tuple[int, int, float]]
    candidates: dict[int, list[int]]
    side: str


@dataclass
class RankedJudgment:
    """A predicted ranking over a judged candidate set.

    ranking: candidate ids, best first; must be a permutation of the
    relevance keys. relevance: nonnegative graded ground truth per candidate.
    """

    ranking: list
    relevance: dict


def split_edges(
    g: BipartiteGraph,
    holdout_ratio: float,
    seed: int,
    side: str = "u",
    negatives: int = 100,
) -> EvalSplit:
    """Per-node stratified holdout: floor(ratio * degree) edges per node.

    Every node on the stratified side must have degree >= 2 so the training
    graph keeps it connected; an edge is skipped (quota allowing) when its
    other endpoint would drop to zero training degree. Deterministic in
    (seed, side).
    """
    if not 0.0 < holdout_ratio < 1.0:
        raise DataError("holdout_ratio must lie strictly between 0 and 1")
    if side not in ("u", "v"):
        raise DataError("side must be 'u' or 'v'")
    if negatives < 0:
        raise DataError("negatives must be nonnegative")

    eu = np.repeat(np.arange(g.u_count, dtype=np.int64), g.deg_u)
    ev = g.u_adj.indices.astype(np.int64)
    ew = g.u_adj.data

    if side == "u":
        strat_deg, strat_of = g.deg_u, eu
        other_deg, other_of = g.deg_v, ev
        n_strat, strat = g.u_count, g.u_adj
    else:
        strat_deg, strat_of = g.deg_v, ev
        other_deg, other_of = g.deg_u, eu
        n_strat, strat = g.v_count, g.v_adj
    if (strat_deg < 2).any():
        i = int(np.flatnonzero(strat_deg < 2)[0])
        lab = (g.u_labels if side == "u" else g.v_labels)[i]
        raise DataError(
            f"degree-1 node on the {side} side ({lab!r}); "
            "apply k_core_filter(g, 2) before splitting"
        )

    order = np.argsort(strat_of, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(strat_of, minlength=n_strat))))
    rng = substream(seed, "split", side)
    train_left = other_deg.astype(np.int64).copy()
    held = np.zeros(g.edge_count, dtype=bool)
    for node in range(n_strat):
        row = order[bounds[node] : bounds[node + 1]]
        quota = int(holdout_ratio * row.size)
        if quota == 0:
            continue
        for edge in row[rng.permutation(row.size)]:
            o = other_of[edge]
            if train_left[o] <= 1:
                continue  # protected: keep the other endpoint attached
            held[edge] = True
            train_left[o] -= 1
            quota -= 1
            if quota == 0:
                break

    test = [(int(eu[i]), int(ev[i]), float(ew[i])) for i in np.flatnonzero(held)]
    keep = ~held
    train = BipartiteGraph(g.u_labels, g.v_labels, eu[keep], ev[keep], ew[keep])

    # Ranking pools: per stratified node, held-out positives plus sampled
    # other-side nodes that occur in the test set but are not neighbors in
    # the ORIGINAL graph.
    test_strat = strat_of[held]
    test_other = other_of[held]
    # np.unique's sorted distinct values, by counting: np.unique imports
    # numpy.ma, which no CLI path needs.
    pool = np.flatnonzero(np.bincount(test_other))
    candidates: dict[int, list[int]] = {}
    neg_rng = substream(seed, "negatives", side)
    for node in np.flatnonzero(np.bincount(test_strat)).tolist():
        positives = sorted(int(x) for x in test_other[test_strat == node])
        sampled = []
        if negatives:
            # assume_unique keeps pool's ascending order, which the draws index.
            nbrs = strat.indices[strat.indptr[node] : strat.indptr[node + 1]]
            eligible = np.setdiff1d(pool, nbrs, assume_unique=True)
            if eligible.size:
                take = min(negatives, eligible.size)
                sampled = eligible[neg_rng.choice(eligible.size, size=take, replace=False)].tolist()
        candidates[node] = positives + sampled
    return EvalSplit(train, test, candidates, side)


def desirability_row(g: BipartiteGraph, qi: int, weighted_degree: bool = False) -> np.ndarray:
    """Co-neighbor affinity of every U node as a candidate for query qi.

    Entry qj sums qj's edge weights to neighbors shared with qi, divided by
    qj's neighbor count (or weight sum with weighted_degree=True).
    """
    u = g.u_adj
    mark = np.zeros(g.v_count)
    mark[u.indices[u.indptr[qi] : u.indptr[qi + 1]]] = 1.0
    return (u @ mark) / (g.ws_u if weighted_degree else g.deg_u)


def desirability(g: BipartiteGraph, qi: int, qj: int, weighted_degree: bool = False) -> float:
    """Co-neighbor affinity of candidate qj for query qi (see desirability_row)."""
    return float(desirability_row(g, qi, weighted_degree)[qj])


def ndcg_at_k(judgment: RankedJudgment, k: int) -> float:
    """Discounted cumulative gain at k over the ideal ordering; 0 when every
    candidate has zero relevance."""
    if k <= 0:
        raise ValueError("k must be positive")
    rel = judgment.relevance
    if set(judgment.ranking) != set(rel):
        raise DataError("ranking must be a permutation of the judged candidates")
    for grade in rel.values():
        if grade < 0:
            raise DataError("relevance grades must be nonnegative")
    dcg = sum(
        rel[c] / math.log2(pos + 2) for pos, c in enumerate(judgment.ranking[:k])
    )
    ideal = sorted(rel.values(), reverse=True)[:k]
    idcg = sum(grade / math.log2(pos + 2) for pos, grade in enumerate(ideal))
    return dcg / idcg if idcg > 0 else 0.0


def precision_recall_at_k(recommended, ground_truth, k: int) -> tuple[float, float]:
    """Hit fractions of the top-k list; empty ground truth gives recall 0
    (flagged with a warning)."""
    if k <= 0:
        raise ValueError("k must be positive")
    gt = set(ground_truth)
    hits = sum(1 for item in list(recommended)[:k] if item in gt)
    precision = hits / k
    if not gt:
        warnings.warn("empty ground truth: recall defined as 0", stacklevel=2)
        return precision, 0.0
    return precision, hits / len(gt)


def predict_score(v: int, ui: int, sim, s_size: int, split: EvalSplit) -> float:
    """Predicted affinity of other-side node v for item ui.

    sim(ui) must return ui's similarity row over all U nodes, computed on the
    training graph. The prediction averages v's training edge weights over
    the union of ui's s_size most similar peers (self excluded, ties by
    ascending index) and v's training neighbors, weighted by similarity;
    missing edges weigh zero, a zero denominator gives zero.
    """
    return _predict(*_ranked_row(sim, ui, s_size, split.train), *_rated(v, split.train))


def _ranked_row(sim, ui: int, s_size: int, g: BipartiteGraph) -> tuple[np.ndarray, np.ndarray]:
    """ui's similarity row and its s_size most similar peers, self excluded,
    ties by ascending index."""
    if s_size < 0:
        raise ValueError("s_size must be nonnegative")
    row = np.asarray(sim(ui), dtype=np.float64)
    if row.shape != (g.u_count,):
        raise ValueError("similarity row length must match the U side")
    order = np.argsort(-row, kind="stable")
    return row, order[order != ui][:s_size]


def _rated(v: int, g: BipartiteGraph) -> tuple[set, dict]:
    """v's neighbors in g, as a set and mapped to their edge weights."""
    v_adj = g.v_adj
    s, e = v_adj.indptr[v], v_adj.indptr[v + 1]
    rated = v_adj.indices[s:e].tolist()
    return set(rated), dict(zip(rated, v_adj.data[s:e].tolist()))


def _predict(row: np.ndarray, peers: np.ndarray, rated: set, weight_of: dict) -> float:
    """predict_score from a row and its peers, as _ranked_row gives them,
    and the other-side node's neighbors, as _rated gives them."""
    pool = set(peers.tolist()) | rated
    num = 0.0
    den = 0.0
    for uj in pool:
        s_ij = float(row[uj])
        num += s_ij * weight_of.get(uj, 0.0)
        den += s_ij
    return num / den if den != 0.0 else 0.0


# -- similarity plugs ----------------------------------------------------------


def jaccard_rows(g: BipartiteGraph):
    """Row callable: neighbor-set Jaccard coefficients against every U node.

    The shared-neighbor counts are the 0/1 adjacency times ui's neighbor
    indicator, as in desirability_row."""
    u = g.u_adj
    binary = CsrView(np.ones(g.edge_count), u.indices, u.indptr, u.shape)

    def row(ui: int) -> np.ndarray:
        mark = np.zeros(g.v_count)
        mark[u.indices[u.indptr[ui] : u.indptr[ui + 1]]] = 1.0
        inter = binary @ mark
        union = g.deg_u[ui] + g.deg_u - inter
        return inter / union

    return row


NAIVE_PPR_DEPTH = 20


def naive_ppr_rows(g: BipartiteGraph, alpha: float = 0.15):
    """Row callable: restart-walk scores truncated at NAIVE_PPR_DEPTH steps
    on the raw bipartite graph (single hops, both sides), restricted to the
    U side."""

    def row(ui: int) -> np.ndarray:
        base = np.zeros(g.u_count)
        base[ui] = 1.0
        on_u = base.copy()
        on_v = np.zeros(g.v_count)
        for _ in range(NAIVE_PPR_DEPTH):
            new_v = (1.0 - alpha) * (g.v_adj @ (on_u / g.ws_u))
            on_u = base + (1.0 - alpha) * (g.u_adj @ (on_v / g.ws_v))
            on_v = new_v
        return alpha * on_u

    return row


def similarity_rows(
    method: str,
    g: BipartiteGraph,
    epsilon: float = 1e-5,
    alpha: float = 0.15,
    seed: int = 0,
):
    """Similarity row factory for the pipelines; rows are memoized. mcsp
    walks with mcsp_query's default p_f."""
    if method == "ssbipush":
        meta = build_index_meta(g, alpha)

        def fresh(ui: int) -> np.ndarray:
            return bhpp_query(g, meta, ui, epsilon).scores

    elif method == "mcsp":
        alias = build_alias(g)

        def fresh(ui: int) -> np.ndarray:
            return mcsp_query(g, alias, ui, alpha, epsilon, seed=seed).scores

    elif method == "jaccard":
        fresh = jaccard_rows(g)
    elif method == "naive-ppr":
        fresh = naive_ppr_rows(g, alpha)
    else:
        raise DataError(f"unknown similarity method: {method!r}")
    return cache(fresh)


# -- pipelines -------------------------------------------------------------------


def _summarize(values) -> tuple[float, float, int]:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return float("nan"), float("nan"), 0
    return float(arr.mean()), float(arr.std(ddof=0)), int(arr.size)


def _map_ordered(fn, items, threads: int):
    """Apply fn over items, optionally with a thread pool, preserving order."""
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _study(train, items, judge, metrics, ks, methods, epsilon, alpha, seed, threads) -> list[dict]:
    """One row per (method, k, metric): the mean, deviation and count over
    items of judge(sim, item), which gives one tuple of metrics per k."""
    rows = []
    for method in methods:
        sim = similarity_rows(method, train, epsilon, alpha, seed)
        per_item = _map_ordered(lambda item: judge(sim, item), items, threads)
        for i, k in enumerate(ks):
            for j, metric in enumerate(metrics):
                mean, std, count = _summarize([scores[i][j] for scores in per_item])
                rows.append({"method": method, "k": k, "metric": metric,
                             "mean": mean, "stddev": std, "n": count})
    return rows


def qr_ndcg_eval(
    g: BipartiteGraph,
    holdout_ratio: float = 0.2,
    ks: tuple[int, ...] = (5, 10),
    n_queries: int = 100,
    methods: tuple[str, ...] = ("ssbipush", "jaccard", "naive-ppr"),
    epsilon: float = 1e-5,
    alpha: float = 0.15,
    seed: int = 0,
    weighted_degree: bool = False,
    threads: int = 1,
) -> list[dict]:
    """Query-rewriting study: rank other queries by train-graph similarity,
    judge against full-graph desirability, report NDCG@k per method."""
    split = split_edges(g, holdout_ratio, seed, side="u", negatives=0)
    n = min(n_queries, g.u_count)
    queries = substream(seed, "qr-queries").choice(g.u_count, size=n, replace=False).tolist()

    relevance_of = {}
    for qi in queries:
        row = desirability_row(g, qi, weighted_degree).tolist()
        relevance_of[qi] = {qj: row[qj] for qj in range(g.u_count) if qj != qi}

    def judge(sim, qi: int) -> list[tuple[float]]:
        order = np.argsort(-sim(qi), kind="stable")
        judgment = RankedJudgment([int(x) for x in order if x != qi], relevance_of[qi])
        return [(ndcg_at_k(judgment, k),) for k in ks]

    return _study(split.train, queries, judge, ("ndcg",), ks, methods, epsilon, alpha, seed, threads)


def rec_eval(
    g: BipartiteGraph,
    holdout_ratio: float = 0.2,
    ks: tuple[int, ...] = (5, 10),
    negatives: int = 100,
    s_size: int = 50,
    n_users: int = 100,
    methods: tuple[str, ...] = ("ssbipush", "jaccard", "naive-ppr"),
    epsilon: float = 1e-5,
    alpha: float = 0.15,
    seed: int = 0,
    threads: int = 1,
) -> list[dict]:
    """Item-recommendation study: per user, rank held-out positives among
    sampled non-edges by predicted score; report precision/recall@k."""
    split = split_edges(g, holdout_ratio, seed, side="v", negatives=negatives)
    users = sorted(split.candidates)
    if len(users) > n_users:
        chosen = substream(seed, "rec-users").choice(len(users), size=n_users, replace=False)
        users = [users[i] for i in sorted(chosen.tolist())]

    positives_of = {}
    for u_node, v_node, _w in split.test:
        positives_of.setdefault(v_node, set()).add(u_node)

    # Each item's row is ranked once per method, not once per (user, item) pair.
    rank_row = cache(lambda sim, item: _ranked_row(sim, item, s_size, split.train))

    def judge(sim, user: int) -> list[tuple[float, float]]:
        pool = split.candidates[user]
        rated = _rated(user, split.train)
        scored = [(_predict(*rank_row(sim, item), *rated), item) for item in pool]
        scored.sort(key=lambda t: (-t[0], t[1]))
        ranked = [item for _s, item in scored]
        return [precision_recall_at_k(ranked, positives_of[user], k) for k in ks]

    return _study(split.train, users, judge, ("precision", "recall"), ks, methods, epsilon, alpha,
                  seed, threads)
