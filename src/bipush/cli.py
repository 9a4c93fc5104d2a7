"""Command-line front end.

Subcommands: synth (generate a graph), preprocess (parse + index a graph),
query / topk (score a single query node), bench (timing and agreement across
methods), eval-qr / eval-rec (the two offline studies).

Every command is deterministic given its configuration and seed. Options can
also come from a key=value config file (--config); explicit flags win over
the file, the file wins over built-in defaults. Exit codes: 0 success,
1 usage error (an option out of range, found before any file is touched),
2 data error (an unwritable output or unreadable input included), 3 a bench
method was excluded by timeout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import nullcontext
from itertools import combinations
from pathlib import Path

import numpy as np

from .baselines import DeadlineExceeded, build_alias, mcsp_query, pisp_query
from .bhpp_query import (
    bhpp_query,
    build_index_meta,
    load_meta,
    save_meta,
    topk as topk_of,
)
from .bigraph import BipartiteGraph, DataError, k_core_filter, load_edge_list, synth_bipartite
from .rng import substream

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TIMEOUT = 3

METHODS = ("ssbipush", "mcsp", "pisp")
EVAL_METHODS = ("ssbipush", "mcsp", "jaccard", "naive-ppr")
FORMATS = ("tsv", "json-lines")


class UsageError(Exception):
    """Bad flags or config; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to our code
        raise UsageError(message)


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _list(conv):
    return lambda text: [conv(tok.strip()) for tok in text.split(",") if tok.strip()]


def _checked(conv, ok, rule):
    """A converter that parses with `conv`, then refuses a value `ok` rejects."""

    def convert(text: str):
        value = conv(text)
        if not ok(value):
            raise ValueError(f"{rule}, got {text!r}")
        return value

    return convert


def _one_of(names):
    return _checked(str, names.__contains__, f"must be one of {', '.join(names)}")


def _subset_of(names):
    return _checked(_list(str), lambda got: 0 < len(got) == len(set(got)) and set(got) <= set(names),
                    f"must list one or more of {', '.join(names)}, none twice")


_FRACTION = _checked(float, lambda x: 0.0 < x < 1.0, "must lie strictly between 0 and 1")
_COUNT = _checked(int, lambda n: n >= 1, "must be at least 1")

_REQUIRED = object()

# Option schema per command: dest -> (converter, default, help). Flags are
# registered from the same table, so config files and the parser agree, and
# each converter also checks its value's range. Each command takes only the
# shared options it reads.
_CONFIG = {"config": (str, None, "key=value config file; explicit flags win")}
_FORMAT = {"format": (_one_of(FORMATS), "tsv", "output encoding: tsv or json-lines")}
_SEED = {"seed": (int, 0, "root seed; all randomness derives from it")}
_THREADS = {"threads": (_COUNT, 1, "worker threads for batch commands (1 = serial)")}
_BATCH = {**_CONFIG, **_FORMAT, **_SEED, **_THREADS}
_RANK = {
    **_CONFIG,
    **_FORMAT,
    **_SEED,
    "index": (str, _REQUIRED, "directory written by preprocess"),
    "query": (str, _REQUIRED, "U-side query label"),
    "epsilon": (float, 1e-5, "entrywise score accuracy"),
    "method": (_one_of(METHODS), "ssbipush", "ssbipush, mcsp, or pisp"),
    "p_f": (float, 1e-6, "walk failure probability (mcsp)"),
}
# The two studies' shared options, in --help order: each study's own options
# come between these two groups.
_STUDY_INPUT = {
    **_BATCH,
    "graph": (str, _REQUIRED, "edge-list path"),
    "delimiter": (str, None, "column delimiter"),
    "default_weight": (float, None, "weight for two-column lines"),
    "kcore": (int, None, "apply k-core filtering first"),
    "holdout": (_FRACTION, 0.2, "held-out edge fraction"),
    "ks": (_checked(_list(int), lambda ks: min(ks, default=0) >= 1,
                    "must list one or more cutoffs, each at least 1"), [5, 10], "comma-separated cutoffs"),
}
_STUDY_SIM = {
    "methods": (_subset_of(EVAL_METHODS), ["ssbipush", "jaccard", "naive-ppr"], "similarities"),
    "epsilon": (float, 1e-5, "accuracy for push-based similarities"),
    "alpha": (_FRACTION, 0.15, "restart probability"),
}

_SCHEMAS: dict[str, dict] = {
    "synth": {
        **_CONFIG,
        **_SEED,
        "u_count": (int, _REQUIRED, "number of U-side nodes"),
        "v_count": (int, _REQUIRED, "number of V-side nodes"),
        "edge_count": (int, _REQUIRED, "number of distinct edges"),
        "weight_min": (float, 0.0, "weights drawn from (weight-min, weight-max]"),
        "weight_max": (float, 1.0, "upper weight bound"),
        "skew": (float, None, "power-law endpoint skew exponent"),
        "out": (str, _REQUIRED, "edge-list path to write"),
    },
    "preprocess": {
        **_CONFIG,
        "graph": (str, _REQUIRED, "edge-list path to parse"),
        "delimiter": (str, None, "column delimiter (default: any whitespace)"),
        "default_weight": (float, None, "weight for two-column lines"),
        "kcore": (int, None, "apply k-core filtering before indexing"),
        "alpha": (_FRACTION, 0.15, "restart probability"),
        "out_dir": (str, _REQUIRED, "directory for graph.bin and meta.json"),
    },
    "query": {
        **_RANK,
        "verbose": (_bool, False, "emit a trace record to stderr"),
    },
    "topk": {
        **_RANK,
        "k": (int, 10, "number of results"),
        "exclude_query": (_bool, False, "drop the query node from results"),
        "verbose": (_bool, False, "emit a trace record to stderr"),
    },
    "bench": {
        **_BATCH,
        "index": (str, _REQUIRED, "directory written by preprocess"),
        "methods": (_subset_of(METHODS), list(METHODS), "comma-separated methods"),
        "epsilons": (_checked(_list(float), len, "must list one or more accuracies"),
                     [1e-2, 1e-3, 1e-4], "comma-separated accuracies"),
        "queries": (_COUNT, 50, "number of sampled query nodes"),
        "p_f": (float, 1e-6, "walk failure probability (mcsp)"),
        "timeout": (float, 3600.0, "wall-clock seconds per query before exclusion"),
    },
    "eval-qr": {
        **_STUDY_INPUT,
        "queries": (_COUNT, 100, "number of sampled queries"),
        **_STUDY_SIM,
        "weighted_degree": (_bool, False, "weight-sum desirability denominator"),
    },
    "eval-rec": {
        **_STUDY_INPUT,
        "holdout": (_FRACTION, 0.2, "held-out edge fraction (per user)"),
        "negatives": (_checked(int, lambda n: n >= 0, "must be at least 0"), 100,
                      "sampled non-edges per user"),
        "s_size": (int, 50, "similar-item neighborhood size"),
        "users": (_COUNT, 100, "number of evaluated users"),
        **_STUDY_SIM,
    },
}


def build_parser() -> _Parser:
    parser = _Parser(prog="bipush", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command, schema in _SCHEMAS.items():
        p = sub.add_parser(command, add_help=True)
        for dest, (conv, _default, help_text) in schema.items():
            flag = "--" + dest.replace("_", "-")
            if conv is _bool:
                p.add_argument(flag, dest=dest, action="store_const", const=True,
                               default=None, help=help_text)
            else:
                p.add_argument(flag, dest=dest, type=str, default=None,
                               metavar="X", help=help_text)
    return parser


def _parse_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def make_config(command: str, namespace: argparse.Namespace) -> argparse.Namespace:
    schema = _SCHEMAS[command]
    file_values = {}
    if getattr(namespace, "config", None):
        file_values = _parse_config_file(namespace.config)
        unknown = set(file_values) - set(schema)
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    merged = {}
    for dest, (conv, default, _help) in schema.items():
        raw = getattr(namespace, dest, None)
        if raw is None and dest in file_values:
            raw = file_values[dest]
        if raw is None:
            if default is _REQUIRED:
                raise UsageError(f"missing required option --{dest.replace('_', '-')}")
            merged[dest] = default
            continue
        if isinstance(raw, str):
            try:
                merged[dest] = conv(raw)
            except ValueError as exc:
                raise UsageError(f"bad value for --{dest.replace('_', '-')}: {exc}") from None
        else:
            merged[dest] = raw
    return argparse.Namespace(command=command, **merged)


# -- output ---------------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_rows(rows: list[dict], columns: list[str], fmt: str, out, header: bool = True) -> None:
    """Write rows in tsv or json-lines; both encodings carry every column so
    they parse back to the same values."""
    if fmt == "json-lines":
        for row in rows:
            out.write(json.dumps({c: row.get(c) for c in columns}) + "\n")
    else:
        if header:
            out.write("#" + "\t".join(columns) + "\n")
        for row in rows:
            out.write("\t".join(_cell(row.get(c)) for c in columns) + "\n")


# -- commands ---------------------------------------------------------------------


def _load_index(index_dir: str) -> tuple[BipartiteGraph, "IndexMeta"]:
    d = Path(index_dir)
    graph_path = d / "graph.bin"
    meta_path = d / "meta.json"
    if not graph_path.exists() or not meta_path.exists():
        raise DataError(f"index directory {index_dir!r} needs graph.bin and meta.json")
    g = BipartiteGraph.load(graph_path)
    meta = load_meta(meta_path)
    meta.check_graph(g)
    return g, meta


def _load_graph(cfg) -> BipartiteGraph:
    g = load_edge_list(cfg.graph, delimiter=cfg.delimiter, default_weight=cfg.default_weight)
    if cfg.kcore is not None:
        g = k_core_filter(g, cfg.kcore)
    return g


def cmd_synth(cfg, out, err) -> int:
    g = synth_bipartite(
        cfg.u_count,
        cfg.v_count,
        cfg.edge_count,
        (cfg.weight_min, cfg.weight_max),
        degree_skew=cfg.skew,
        seed=cfg.seed,
    )
    # each label is decoded once, not once per edge
    u_labels, v_labels = list(g.u_labels), list(g.v_labels)
    with open(cfg.out, "w", encoding="utf-8") as fh:
        fh.write("# synthetic bipartite graph\n")
        u = g.u_adj
        for ui in range(g.u_count):
            for slot in range(u.indptr[ui], u.indptr[ui + 1]):
                fh.write(f"{u_labels[ui]}\t{v_labels[u.indices[slot]]}\t{float(u.data[slot])!r}\n")
    for key, value in (
        ("path", cfg.out),
        ("u_count", g.u_count),
        ("v_count", g.v_count),
        ("edge_count", g.edge_count),
        ("seed", cfg.seed),
    ):
        out.write(f"{key}={value}\n")
    return EXIT_OK


def cmd_preprocess(cfg, out, err) -> int:
    t0 = time.perf_counter()
    g = _load_graph(cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    g.save(out_dir / "graph.bin")
    meta = build_index_meta(g, alpha=cfg.alpha)
    build_seconds = time.perf_counter() - t0
    save_meta(meta, out_dir / "meta.json")
    for key, value in (
        ("u_count", g.u_count),
        ("v_count", g.v_count),
        ("edge_count", g.edge_count),
        ("alpha", meta.alpha),
        ("build_seconds", round(build_seconds, 6)),
        ("fingerprint", meta.graph_fingerprint),
    ):
        out.write(f"{key}={value}\n")
    return EXIT_OK


def _answer(method, g, meta, q, eps, p_f, seed, alias=None, deadline=None) -> "QueryResult":
    """Answer one query with `method`, one of METHODS as the schema checks.

    The query functions are read from this module's globals at call time, so
    a caller that rebinds `bhpp_query` or `pisp_query` here sees every query.
    mcsp builds alias tables unless `alias` is given; `seed` and `deadline`
    are its walk seed and wall-clock limit.
    """
    if method == "ssbipush":
        return bhpp_query(g, meta, q, eps)
    if method == "pisp":
        return pisp_query(g, q, meta.alpha, eps)
    return mcsp_query(g, alias, q, meta.alpha, eps, p_f, seed, deadline=deadline)


def _emit_trace(result, err) -> None:
    record = {
        "method": result.method,
        "query_index": result.query_index,
        "epsilon": result.epsilon,
        "timing": result.timing,
        "phase_trace": result.phase_trace,
    }
    err.write(json.dumps(record) + "\n")


def cmd_topk(cfg, out, err) -> int:
    """Ranked (label, score) lines; `query` has no --k or --exclude-query and
    so ranks every U node, the query included."""
    g, meta = _load_index(cfg.index)
    result = _answer(cfg.method, g, meta, cfg.query, cfg.epsilon, cfg.p_f, cfg.seed)
    pairs = topk_of(
        result, getattr(cfg, "k", g.u_count), exclude_query=getattr(cfg, "exclude_query", False)
    )
    rows = [{"label": lab, "score": score} for lab, score in pairs]
    emit_rows(rows, ["label", "score"], cfg.format, out, header=False)
    if cfg.verbose:
        _emit_trace(result, err)
    return EXIT_OK


def cmd_bench(cfg, out, err) -> int:
    # A deadline also lifts the walk cap, so the cell budget below, at most
    # timeout * queries, must be one that can pass.
    if not 0.0 < cfg.timeout * cfg.queries < math.inf:
        raise UsageError("--timeout must be positive and --timeout times --queries finite")
    g, meta = _load_index(cfg.index)
    rng = substream(cfg.seed, "bench-queries")
    n = min(cfg.queries, g.u_count)
    queries = rng.choice(g.u_count, size=n, replace=False).tolist()
    alias = build_alias(g) if "mcsp" in cfg.methods else None

    rows: list[dict] = []
    # Score vectors live only as long as an agreement row needs them: one
    # epsilon's worth, and none when a single method has nothing to compare.
    compare = len(cfg.methods) > 1
    for eps in cfg.epsilons:
        kept_scores: dict[str, list[np.ndarray]] = {}
        for method in cfg.methods:
            budget = cfg.timeout * n
            start = time.perf_counter()
            deadline = start + budget
            times: list[float] = []
            scores: list[np.ndarray] = []
            excluded = False

            def run_one(item):
                # The same wall-clock check for serial and threaded runs.
                if time.perf_counter() > deadline:
                    raise DeadlineExceeded(f"{method} passed its {budget} s budget")
                qi, q = item
                walk_seed = int(substream(cfg.seed, "bench-mc", qi).integers(0, 2**63))
                return _answer(method, g, meta, q, eps, cfg.p_f, walk_seed, alias, deadline)

            try:
                pool = None
                if cfg.threads > 1:  # a serial bench never loads concurrent.futures
                    from concurrent.futures import ThreadPoolExecutor

                    pool = ThreadPoolExecutor(max_workers=cfg.threads)
                with pool or nullcontext():
                    for r in (pool.map if pool else map)(run_one, enumerate(queries)):
                        times.append(r.timing["total"])
                        if compare:
                            scores.append(r.scores)
            except DeadlineExceeded:
                excluded = True

            arr = np.asarray(times)
            rows.append(
                {
                    "kind": "timing",
                    "method": method,
                    "epsilon": eps,
                    "mean_s": None if excluded else float(arr.mean()),
                    "stddev_s": None if excluded else float(arr.std(ddof=0)),
                    "n": len(times),
                    "excluded": excluded,
                }
            )
            if not excluded:
                kept_scores[method] = scores
        for a, b in combinations([m for m in cfg.methods if m in kept_scores], 2):
            diffs = [
                float(np.abs(sa - sb).max())
                for sa, sb in zip(kept_scores[a], kept_scores[b])
            ]
            bound = 2.0 * eps
            worst = max(diffs)
            rows.append(
                {
                    "kind": "agreement",
                    "method": f"{a}|{b}",
                    "epsilon": eps,
                    "max_abs_diff": worst,
                    "bound": bound,
                    "within": worst <= bound,
                }
            )
    columns = [
        "kind",
        "method",
        "epsilon",
        "mean_s",
        "stddev_s",
        "n",
        "excluded",
        "max_abs_diff",
        "bound",
        "within",
    ]
    emit_rows(rows, columns, cfg.format, out)
    return EXIT_TIMEOUT if any(r.get("excluded") for r in rows) else EXIT_OK


def cmd_eval(cfg, out, err) -> int:
    from . import evalkit

    g = _load_graph(cfg)
    shared = dict(holdout_ratio=cfg.holdout, ks=tuple(cfg.ks), methods=tuple(cfg.methods),
                  epsilon=cfg.epsilon, alpha=cfg.alpha, seed=cfg.seed, threads=cfg.threads)
    if cfg.command == "eval-qr":
        rows = evalkit.qr_ndcg_eval(g, n_queries=cfg.queries, weighted_degree=cfg.weighted_degree, **shared)
    else:
        rows = evalkit.rec_eval(g, negatives=cfg.negatives, s_size=cfg.s_size, n_users=cfg.users, **shared)
    emit_rows(rows, ["method", "k", "metric", "mean", "stddev", "n"], cfg.format, out)
    return EXIT_OK


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        try:
            namespace = parser.parse_args(argv)
        except SystemExit as exc:  # --help prints and exits
            return int(exc.code or 0)
        if not namespace.command:
            raise UsageError("a subcommand is required (see --help)")
        cfg = make_config(namespace.command, namespace)
        # Built per call, so a handler rebound on this module is the one run.
        handler = {
            "synth": cmd_synth,
            "preprocess": cmd_preprocess,
            "query": cmd_topk,
            "topk": cmd_topk,
            "bench": cmd_bench,
            "eval-qr": cmd_eval,
            "eval-rec": cmd_eval,
        }[cfg.command]
        return handler(cfg, out, err)
    except UsageError as exc:
        err.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (DataError, OSError) as exc:  # bad data, or a file that cannot be read or written
        err.write(f"data error: {exc}\n")
        return EXIT_DATA
    except ValueError as exc:  # an option value the library rejects, e.g. --k 0
        err.write(f"usage error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
