"""Approximate two-way walk-similarity queries over weighted bipartite graphs."""

import os
from importlib import import_module

# bipush calls no BLAS routine, yet numpy's OpenBLAS starts a thread per extra
# core when it loads. Set before numpy is imported; a value already set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .baselines import (
    AliasTables,
    DeadlineExceeded,
    build_alias,
    mc_walk_count,
    mcsp_query,
    monte_carlo,
    pisp_query,
)
from .bhpp_query import (
    IndexMeta,
    QueryResult,
    bhpp_query,
    build_index_meta,
    load_meta,
    save_meta,
    topk,
)
from .bigraph import (
    BipartiteGraph,
    DataError,
    k_core_filter,
    load_edge_list,
    synth_bipartite,
)
from .push_engine import (
    PushOutcome,
    ResidueLedger,
    pi_push,
    power_iteration,
    required_iterations,
    selective_push,
    ss_push,
)
from .rng import substream

__version__ = "0.1.0"

__all__ = [
    "AliasTables",
    "BipartiteGraph",
    "DataError",
    "DeadlineExceeded",
    "EvalSplit",
    "IndexMeta",
    "PushOutcome",
    "QueryResult",
    "RankedJudgment",
    "ResidueLedger",
    "bhpp_query",
    "build_alias",
    "build_index_meta",
    "desirability",
    "jaccard_rows",
    "k_core_filter",
    "load_edge_list",
    "load_meta",
    "naive_ppr_rows",
    "mc_walk_count",
    "mcsp_query",
    "monte_carlo",
    "ndcg_at_k",
    "pi_push",
    "pisp_query",
    "power_iteration",
    "precision_recall_at_k",
    "predict_score",
    "qr_ndcg_eval",
    "rec_eval",
    "required_iterations",
    "save_meta",
    "selective_push",
    "similarity_rows",
    "split_edges",
    "ss_push",
    "substream",
    "synth_bipartite",
    "topk",
]

# Only the `eval-*` commands and the tests use these, so a cold command never
# imports evalkit: each name loads on first use (PEP 562).
_LAZY = (
    "EvalSplit",
    "RankedJudgment",
    "desirability",
    "jaccard_rows",
    "naive_ppr_rows",
    "ndcg_at_k",
    "precision_recall_at_k",
    "predict_score",
    "qr_ndcg_eval",
    "rec_eval",
    "similarity_rows",
    "split_edges",
)


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(".evalkit", __name__), name)
    globals()[name] = value
    return value
