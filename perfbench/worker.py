"""Query process for the in-process workloads; started by run.py.

    python perfbench/worker.py CONFIG.json

Imports bipush from the checkout's `src`, measures its resident set right
after import, then runs one workload's set-up and closed loop and writes
`result.json` (plus `scores.bin` and, when traced, `spans.jsonl`) into the
configured output directory. It never holds the reference scores, so its
peak resident set is the program's own.

Modes: `serve` (warm graph, bhpp_query + topk), `batch` (bench calls) and,
for traced runs only, `cli` (the topk command replayed in-process).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import Tracer, children_of, self_time  # noqa: E402


def status_bytes(field: str) -> int:
    """VmRSS / VmHWM of this process, in bytes."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) * 1024
    raise RuntimeError(f"{field} not in /proc/self/status")


def checksum(scores) -> str:
    return hashlib.blake2b(np.ascontiguousarray(scores).tobytes(), digest_size=16).hexdigest()


def counts_of(method: str, trace: dict) -> dict:
    """The exact per-query work counts a phase trace carries."""
    back, fwd = trace["backward"], trace["forward"]
    out = {
        "backward_n_p": back["n_p"],
        "selective_rounds": back["selective_rounds"],
        "sequential_rounds": back["sequential_rounds"],
        "backward_terminated_by": back["terminated_by"],
        "power_iterations": fwd.get("power_iterations", 0),
    }
    if method == "ssbipush":
        out.update(
            forward_n_p=fwd["n_p"] - back["n_p"],
            forward_selective_rounds=fwd["selective_rounds"],
            forward_terminated_by=fwd["terminated_by"],
        )
    return out


def resident_bytes(g) -> int:
    """Bytes held by the graph object: its arrays, sparse matrices and label
    containers, each buffer counted once."""
    import scipy.sparse as sp

    seen, total = set(), 0

    def add(a):
        nonlocal total
        base = a
        while isinstance(base, np.ndarray) and base.base is not None:
            base = base.base
        if id(base) not in seen:
            seen.add(id(base))
            total += a.nbytes if base is a else getattr(base, "nbytes", a.nbytes)

    for value in vars(g).values():
        if isinstance(value, np.ndarray):
            add(value)
        elif sp.issparse(value):
            for a in (value.data, value.indices, value.indptr):
                add(a)
        elif isinstance(value, list):
            total += sys.getsizeof(value) + sum(sys.getsizeof(x) for x in value)
        elif isinstance(value, dict):
            total += sys.getsizeof(value)
    return total


class Worker:
    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.out = Path(cfg["out_dir"])
        self.trace = bool(cfg["trace"])
        self.tracer = Tracer() if self.trace else None
        self.result: dict = {"ops": [], "setup": []}
        self.sink = ScoreSink(self.out / "scores.bin")

    # -- helpers -------------------------------------------------------------------

    @contextlib.contextmanager
    def traced(self, on: bool, section: str, query_id=None):
        """One operation, with the tracing wrappers installed or not."""
        if not on:
            yield
            return
        self.tracer.section, self.tracer.query_id = section, query_id
        self.tracer.install()
        try:
            yield
        finally:
            self.tracer.uninstall()

    def loop_done(self, start: float, ops: list, covered: bool) -> bool:
        """Stop after the configured seconds, but only once every pool key
        ran and each tracing state has enough samples for a tail."""
        if time.perf_counter() - start < self.cfg["seconds"] or not covered:
            return False
        need = self.cfg["min_samples"]
        samples = [s for op in ops for s in op.get("samples", [op.get("t")])]
        if not self.trace:
            return len(samples) >= need
        traced = [s for op in ops if op["traced"] for s in op.get("samples", [op.get("t")])]
        return min(len(traced), len(samples) - len(traced)) >= need

    # -- set-up ----------------------------------------------------------------------

    def preprocess_in_process(self):
        """Traced runs build the index here, once untraced and once traced,
        so the sweep spans and the set-up overhead share one input."""
        from bipush import cli

        times = {}
        for on in (False, True):
            buf, err = io.StringIO(), io.StringIO()
            with self.traced(on, "sweep"):
                t0 = time.perf_counter()
                code = cli.main(["preprocess", "--graph", self.cfg["graph_tsv"], "--out-dir", self.cfg["index"]], out=buf, err=err)
                times["traced" if on else "untraced"] = time.perf_counter() - t0
            if code != 0:
                raise RuntimeError(f"preprocess exited {code}: {err.getvalue()}")
        self.result["preprocess_s"] = times

    def warm_setup(self, count: int):
        """Load start until the graph is warm: load + load_meta + one query."""
        from bipush import BipartiteGraph

        bq = sys.modules["bipush.bhpp_query"]  # looked up per call, so traced when installed
        index = Path(self.cfg["index"])
        for rep in range(count):
            on = self.trace and rep % 2 == 1
            g = meta = res = None  # release the previous graph before loading
            with self.traced(on, "setup", rep):
                t0 = time.perf_counter()
                g = BipartiteGraph.load(index / "graph.bin")
                meta = bq.load_meta(index / "meta.json")
                res = bq.bhpp_query(g, meta, self.cfg["pool"][0], self.cfg["epsilon"])
                bq.topk(res, self.cfg["k"], exclude_query=True)
                dt = time.perf_counter() - t0
            self.result["setup"].append({"t": dt, "traced": on})
        return g, meta

    # -- workloads -------------------------------------------------------------------

    def run_serve(self):
        bq = sys.modules["bipush.bhpp_query"]
        g, meta = self.warm_setup(self.cfg["setup_reps"])
        pool, eps, k = self.cfg["pool"], self.cfg["epsilon"], self.cfg["k"]
        ops = self.result["ops"]
        seen = set()
        start = time.perf_counter()
        i = 0
        while not self.loop_done(start, ops, len(seen) == len(pool)):
            q = pool[i % len(pool)]
            on = self.trace and i % 2 == 1
            op = {"q": q, "traced": on, "error": None}
            try:
                with self.traced(on, "loop", i):
                    t0 = time.perf_counter()
                    res = bq.bhpp_query(g, meta, q, eps)
                    pairs = bq.topk(res, k, exclude_query=True)
                    op["t"] = time.perf_counter() - t0
                op.update(self.sink.keep("ssbipush", g, eps, res), topk=pairs)
            except Exception as exc:  # a failed operation is counted, not fatal
                op.update(t=None, error=repr(exc))
            ops.append(op)
            seen.add(q)
            i += 1
        self.result["loop_s"] = time.perf_counter() - start
        self.result["rss_peak"] = status_bytes("VmHWM")
        if self.trace:
            self.result["resident_bytes"] = resident_bytes(g)

    def run_batch(self):
        from bipush import cli

        g, meta = self.warm_setup(self.cfg["setup_reps"])
        g = meta = None  # bench loads its own graph on every call
        ops = self.result["ops"]
        start = time.perf_counter()
        pair = 0
        while not self.loop_done(start, ops, pair > (1 if self.trace else 0)):
            on = self.trace and pair % 2 == 1
            for method in ("ssbipush", "pisp"):
                ops.append(self.bench_call(cli, method, on, len(ops)))
            pair += 1
        self.result["loop_s"] = time.perf_counter() - start
        self.result["rss_peak"] = status_bytes("VmHWM")
        if self.trace:
            g, meta = self.load()
            self.warm_all(g, meta)
            self.result["resident_bytes"] = resident_bytes(g)

    def bench_call(self, cli, method, on, op_id, section="loop", queries=None):
        argv = [
            "bench", "--index", self.cfg["index"], "--methods", method,
            "--epsilons", ",".join(repr(e) for e in self.cfg["epsilons"]),
            "--queries", str(queries or self.cfg["bench_queries"]), "--seed", str(self.cfg["bench_seed"]),
        ]
        buf, err = io.StringIO(), io.StringIO()
        captured: list = []
        restore = capture(cli, captured, self.sink)
        op = {"method": method, "asked": queries or self.cfg["bench_queries"], "traced": on, "error": None}
        try:
            with self.traced(on, section, op_id):
                t0 = time.perf_counter()
                code = cli.main(argv, out=buf, err=err)
                op["t"] = time.perf_counter() - t0
            op.update(exit=code, stdout=buf.getvalue(), stderr=err.getvalue())
        except Exception as exc:
            op.update(t=None, exit=None, error=repr(exc))
        finally:
            restore()
        op["queries"] = captured
        op["samples"] = [q["t"] for q in captured]
        return op

    def run_cli(self):
        """Traced runs only: `bipush topk` replayed in-process, alternating
        untraced and traced operations."""
        from bipush import cli

        bq = sys.modules["bipush.bhpp_query"]
        pool, ops = self.cfg["pool"], self.result["ops"]
        seen = set()
        start = time.perf_counter()
        i = 0
        while not self.loop_done(start, ops, len(seen) == len(pool)):
            q = pool[i % len(pool)]
            on = i % 2 == 1
            argv = ["topk", "--index", self.cfg["index"], "--query", q, "--epsilon", repr(self.cfg["epsilon"]),
                    "--k", str(self.cfg["k"]), "--exclude-query"]
            buf, err = io.StringIO(), io.StringIO()
            op = {"q": q, "traced": on, "error": None}
            try:
                with self.traced(on, "loop", i):
                    t0 = time.perf_counter()
                    code = cli.main(argv, out=buf, err=err)
                    op["t"] = time.perf_counter() - t0
                op.update(exit=code, stdout=buf.getvalue(), stderr=err.getvalue())
            except Exception as exc:
                op.update(t=None, exit=None, error=repr(exc))
            ops.append(op)
            seen.add(q)
            i += 1
        self.result["loop_s"] = time.perf_counter() - start
        # The printed top-k is checked by the parent; the full vectors and
        # the exact counts come from one more untraced query per pool node.
        g, meta = self.load()
        for q in pool:
            self.sink.keep("ssbipush", g, self.cfg["epsilon"], bq.bhpp_query(g, meta, q, self.cfg["epsilon"]))
        self.result["resident_bytes"] = resident_bytes(g)

    def probe(self):
        """Traced runs of cli-uniform and serve-uniform do not call the
        baselines or `bench`; one small traced bench call on the same index
        gives those layers a number. Its spans are kept apart ("probe")."""
        from bipush import cli

        self.sink.section = "probe"
        self.result["probe"] = self.bench_call(cli, "ssbipush,pisp", True, 0, section="probe", queries=2)

    def load(self):
        from bipush import BipartiteGraph, load_meta

        index = Path(self.cfg["index"])
        return BipartiteGraph.load(index / "graph.bin"), load_meta(index / "meta.json")

    def warm_all(self, g, meta):
        """Run both methods at every epsilon once, so every lazily built
        matrix the workload uses exists before the graph is measured."""
        from bipush import bhpp_query, pisp_query

        for eps in self.cfg["epsilons"]:
            bhpp_query(g, meta, self.cfg["pool"][0], eps)
            pisp_query(g, self.cfg["pool"][0], meta.alpha, eps)

    # -- outputs -----------------------------------------------------------------------

    def finish(self):
        self.result["keys"] = self.sink.close()
        if self.trace:
            spans = self.tracer.spans
            with open(self.out / "spans.jsonl", "w", encoding="utf-8") as fh:
                for s in spans:
                    fh.write(json.dumps(s[:7]) + "\n")
            self.result["layers"] = layer_metrics(spans)
        (self.out / "result.json").write_text(json.dumps(self.result), encoding="utf-8")


class ScoreSink:
    """Keeps the first score vector of every distinct (method, query,
    epsilon) for the parent's reference check, and the checksum and exact
    counts of every answer for the repeat check. Vectors go to disk as
    they arrive, in the generator's node order (label u<i> is row i), so
    the worker's resident set never holds them."""

    def __init__(self, path: Path):
        self.fh = open(path, "wb")
        self.keys: dict = {}
        self.order = None
        self.section = "loop"

    def keep(self, method: str, g, eps: float, res) -> dict:
        if self.order is None:
            self.order = np.array([int(label[1:]) for label in g.u_labels])
        key = (method, res.query_index, eps)
        rec = {"key": list(key), "checksum": checksum(res.scores), "counts": counts_of(method, res.phase_trace)}
        if key not in self.keys:
            ours = np.empty(len(self.order))
            ours[self.order] = res.scores
            self.fh.write(ours.tobytes())
            self.keys[key] = {**rec, "label": f"u{self.order[res.query_index]}", "row": len(self.keys),
                              "section": self.section}
        return rec

    def close(self) -> list:
        self.fh.close()
        return list(self.keys.values())


def capture(cli, captured: list, sink: ScoreSink):
    """Record each query `bench` answers: latency, checksum and counts.
    Calls go through the defining modules' attributes, so a tracer
    installed around them still sees every call."""
    baselines = sys.modules["bipush.baselines"]
    bq = sys.modules["bipush.bhpp_query"]  # the package re-exports a function of this name
    original = (cli.bhpp_query, cli.pisp_query)

    def ss(g, meta, q, eps, *args, **kwargs):
        t0 = time.perf_counter()
        res = bq.bhpp_query(g, meta, q, eps, *args, **kwargs)
        captured.append({"t": time.perf_counter() - t0, **sink.keep("ssbipush", g, eps, res)})
        return res

    def pisp(g, q, alpha, eps, *args, **kwargs):
        t0 = time.perf_counter()
        res = baselines.pisp_query(g, q, alpha, eps, *args, **kwargs)
        captured.append({"t": time.perf_counter() - t0, **sink.keep("pisp", g, eps, res)})
        return res

    cli.bhpp_query, cli.pisp_query = ss, pisp

    def restore():
        cli.bhpp_query, cli.pisp_query = original

    return restore


# -- per-layer metrics from spans ------------------------------------------------------


SECTIONS = ("loop", "setup", "sweep", "probe")


def layer_metrics(spans) -> dict:
    """Per-layer numbers, each from the first section that has its spans:
    the workload's own loop, then its set-up, the preprocess sweep, and
    last the probe. Times are per call, p50 unless noted. Returns
    {metric: (value, unit, section)}."""
    spans = [s for s in spans if s is not None]
    kids = children_of(spans)
    by_section = {sec: [s for s in spans if s[6] == sec] for sec in SECTIONS}
    out = {}

    def pick(name, where=None):
        for sec in SECTIONS:
            found = [s for s in by_section[sec] if s[1] == name and (where is None or where(s))]
            if found:
                return found, sec
        return [], None

    def put(metric, values, unit, sec, scale=1.0):
        if values:
            out[metric] = (statistics.median(values) * scale, unit, sec)

    def dur(s):
        return s[3] - s[2]

    parent_name = {s[0]: s[1] for s in spans}

    for metric, name in (("bigraph.load_edge_list_s", "bigraph.load_edge_list"), ("bigraph.save_s", "bigraph.save"),
                         ("bigraph.load_s", "bigraph.load"), ("bigraph.fingerprint_s", "bigraph.fingerprint"),
                         ("bhpp_query.build_index_meta_s", "bhpp_query.build_index_meta")):
        found, sec = pick(name)
        put(metric, [dur(s) for s in found], "s", sec)

    found, sec = pick("bhpp_query.bhpp_query", lambda s: s[7]["first"])
    put("bhpp_query.first_query_s", [dur(s) for s in found], "s", sec)

    queries, qsec = pick("bhpp_query.bhpp_query")
    kernel = {"push_engine.ss_push": [], "push_engine.pi_push": []}
    rounds = {"selective": [], "sequential": [], "forward-selective": []}
    power, self_ms = [], []
    pushed, round_time = 0, 0.0
    for q in queries:
        per = {k: 0.0 for k in kernel}
        per_round = {k: 0.0 for k in rounds}
        per_power = 0.0
        for k in kids.get(q[0], ()):
            if k[1] in per:
                per[k[1]] += dur(k)
                for r in kids.get(k[0], ()):
                    if r[1].startswith("round."):
                        per_round[r[1][6:]] += dur(r)
                        pushed += r[7]["n_p"]
                        round_time += dur(r)
                    elif r[1] == "push_engine.power_iteration":
                        per_power += dur(r)
        for k in kernel:
            kernel[k].append(per[k])
        for k in rounds:
            rounds[k].append(per_round[k])
        power.append(per_power)
        self_ms.append(dur(q) - sum(per.values()))
    put("bhpp_query.self_ms", self_ms, "ms", qsec, 1e3)
    # Kernel spans and their phase splits are per-call means, so the splits
    # add up to their kernel and a phase that runs in only some calls still
    # shows.
    for metric, values in (("push_engine.ss_push_ms", kernel["push_engine.ss_push"]),
                           ("push_engine.selective_ms", rounds["selective"]),
                           ("push_engine.sequential_ms", rounds["sequential"]),
                           ("push_engine.pi_push_ms", kernel["push_engine.pi_push"]),
                           ("push_engine.forward_selective_ms", rounds["forward-selective"]),
                           ("push_engine.power_iteration_ms", power)):
        if values:
            out[metric] = (statistics.fmean(values) * 1e3, "ms", qsec)
    if round_time > 0:
        out["push_engine.n_p_per_s"] = (pushed / round_time, "1/s", qsec)

    found, sec = pick("bhpp_query.topk")
    put("bhpp_query.topk_ms", [dur(s) for s in found], "ms", sec, 1e3)

    found, sec = pick("baselines.pisp_query")
    put("baselines.pisp_query_ms", [dur(s) for s in found], "ms", sec, 1e3)
    for metric, name in (("baselines.selective_push_ms", "push_engine.selective_push"),
                         ("baselines.power_iteration_ms", "push_engine.power_iteration")):
        found, sec = pick(name, lambda s: parent_name.get(s[4]) == "baselines.pisp_query")
        put(metric, [dur(s) for s in found], "ms", sec, 1e3)

    found, sec = pick("cli.main")
    put("cli.main_self_s", [self_time(s, kids) for s in found], "s", sec)
    found, sec = pick("cli.cmd_bench")
    put("cli.bench_self_s", [self_time(s, kids) for s in found], "s", sec)
    return out


def main() -> int:
    cfg = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = Path(cfg["src"]).resolve()
    sys.path.insert(0, str(src))
    import bipush
    import bipush.cli  # noqa: F401  (the import the CLI pays for)

    if not Path(bipush.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bipush imported from {bipush.__file__}, not from {src}")
    worker = Worker(cfg)
    worker.result["rss_after_import"] = status_bytes("VmRSS")
    if worker.trace:
        worker.preprocess_in_process()
    getattr(worker, "run_" + cfg["mode"])()
    if worker.trace and cfg["mode"] != "batch":
        worker.probe()
    worker.finish()
    return 0


if __name__ == "__main__":
    sys.exit(main())
