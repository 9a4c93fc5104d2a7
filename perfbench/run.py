#!/usr/bin/env python3
"""Benchmark of the bipush program: one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src`.
The benchmark generates its inputs from the seed, runs one closed loop with
a single client for S seconds, checks every output against an independent
reference, and prints one JSON object as its last line: end-to-end metrics
with `--trace 0`, per-layer metrics with `--trace 1`. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import reference  # noqa: E402

WORKLOADS = {
    "cli-uniform": {"skew": None, "epsilons": [1e-5], "pool": 8},
    "serve-uniform": {"skew": None, "epsilons": [1e-5], "pool": 32},
    "batch-skew": {"skew": inputs.SKEW, "epsilons": [1e-3, 1e-4], "pool": 1, "bench_queries": 16},
}
K = 10
SETUP_REPS = 3            # cold `preprocess` children (cli-uniform)
WARM_SETUP_REPS = 5       # warm set-ups in the query process
TRACE_SETUP_REPS = 4      # alternating untraced / traced
START_REPS = 5            # bare interpreter and import-only children
MIN_SAMPLES = 21          # so the tail percentile is never below the median
CHILD_TIMEOUT = 170.0


class SetupError(RuntimeError):
    """The workload could not be set up; no result is printed."""


def tail(samples):
    """The highest percentile with at least ten samples beyond it, and
    that percentile."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        raise SetupError(f"{n} samples leave no percentile with ten beyond it")
    return s[n - 11], 100.0 * (n - 10) / n


def run_child(argv, root: Path, env, log: Path):
    """Run one child to completion; wall seconds, exit code and stdout."""
    t0 = time.perf_counter()
    with open(log, "ab") as err:
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status = os.waitpid(proc.pid, 0)
            killer.cancel()
            killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return time.perf_counter() - t0, proc.returncode, out.decode("utf-8", "replace")


def source_digest(*dirs: Path) -> str:
    """sha256 over the Python sources of the program and the benchmark."""
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            h.update(path.relative_to(d.parent).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def parse_topk(stdout: str, k: int):
    pairs = []
    for line in stdout.splitlines():
        label, score = line.split("\t")
        if not label.startswith("u"):
            raise ValueError(f"not a U label: {label!r}")
        pairs.append((int(label[1:]), float(score)))
    if len(pairs) != k:
        raise ValueError(f"{len(pairs)} lines, expected {k}")
    return pairs


class Run:
    def __init__(self, args, root: Path):
        self.args = args
        self.root = root
        self.src = root / "src"
        self.spec = WORKLOADS[args.workload]
        self.trace = bool(args.trace)
        self.work = root / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
        self.work.mkdir(parents=True)
        self.index = self.work / "index"
        self.log = self.work / "children.log"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.src), os.environ.get("PYTHONPATH")]))
        self.report: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                             "trace": args.trace, "source_sha256": source_digest(self.src / "bipush", HERE)}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.worst_undershoot = 0.0

    # -- inputs and children --------------------------------------------------------

    def make_inputs(self):
        self.eu, self.ev, self.ew = inputs.make_edges(self.args.seed, self.spec["skew"])
        self.tsv = self.work / "graph.tsv"
        inputs.write_tsv(self.tsv, self.eu, self.ev, self.ew)
        self.pool = [f"u{i}" for i in inputs.query_pool(self.args.seed, self.spec["pool"])]
        self.report["inputs"] = [inputs.file_record(self.tsv)]
        self.report["query_pool"] = self.pool

    def host_speed(self, when: str):
        """Median time of one sparse mat-vec over the generated edges, in the
        benchmark's own code: a gauge of how fast the host ran just before
        and after the workload. It is reported beside the metrics, so a slow
        host phase can be told apart from a regression of the program."""
        m = sp.csr_matrix((self.ew, (self.eu, self.ev)), shape=(inputs.U_COUNT, inputs.V_COUNT))
        x = np.ones(inputs.V_COUNT)
        times = []
        for _ in range(60):
            t0 = time.perf_counter()
            m @ x
            times.append(time.perf_counter() - t0)
        self.report[f"host_spmv_ms_{when}"] = statistics.median(times) * 1e3

    def child(self, argv):
        return run_child([sys.executable, *argv], self.root, self.env, self.log)

    def cli(self, *argv):
        """A cold `bipush` process; also returns its peak resident bytes."""
        hwm = self.work / "hwm"
        wall, code, out = self.child([str(HERE / "cold.py"), str(hwm), *argv])
        return wall, code, out, int(hwm.read_text()) if hwm.exists() else 0

    def import_rss(self) -> int:
        """Resident bytes of a fresh process right after `import bipush.cli`."""
        _, code, out = self.child(["-c", "import bipush.cli; from pathlib import Path; print([l for l in "
                                   "Path('/proc/self/status').read_text().splitlines() if l.startswith('VmRSS:')][0])"])
        if code != 0:
            raise SetupError(f"import bipush.cli exited {code}; see {self.log}")
        return int(out.split()[1]) * 1024

    def preprocess(self):
        wall, code, out, _ = self.cli("preprocess", "--graph", str(self.tsv), "--out-dir", str(self.index))
        if code != 0 or f"edge_count={inputs.EDGE_COUNT}" not in out.splitlines():
            raise SetupError(f"preprocess exited {code}: {out!r}; see {self.log}")
        return wall

    def worker(self, mode: str):
        out_dir = self.work / "worker"
        out_dir.mkdir()
        cfg = {"src": str(self.src), "mode": mode, "trace": self.trace, "seconds": self.args.seconds,
               "graph_tsv": str(self.tsv), "index": str(self.index), "out_dir": str(out_dir),
               "pool": self.pool, "epsilon": self.spec["epsilons"][0], "epsilons": self.spec["epsilons"],
               "k": K, "setup_reps": TRACE_SETUP_REPS if self.trace else WARM_SETUP_REPS,
               "min_samples": MIN_SAMPLES,
               "bench_queries": self.spec.get("bench_queries", 2), "bench_seed": self.args.seed}
        cfg_path = self.work / "worker.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        _, code, _ = self.child([str(HERE / "worker.py"), str(cfg_path)])
        if code != 0:
            raise SetupError(f"worker exited {code}; see {self.log}:\n" + self.log.read_text(errors="replace")[-3000:])
        res = json.loads((out_dir / "result.json").read_text(encoding="utf-8"))
        res["scores"] = np.fromfile(out_dir / "scores.bin").reshape(len(res["keys"]), inputs.U_COUNT)
        return res

    # -- checks ------------------------------------------------------------------------

    def reference_for(self, labels, eps_min):
        self.ref = reference.Reference(self.eu, self.ev, self.ew, inputs.U_COUNT, inputs.V_COUNT)
        cols = sorted({int(lab[1:]) for lab in labels})
        block, self.tail_bound = self.ref.scores(cols, eps_min / 100.0)
        self.ref_col = {q: block[:, j] for j, q in enumerate(cols)}
        self.report["reference_tail"] = self.tail_bound

    def fail(self, why: str):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(why)

    def check_keys(self, res):
        """Check the score vector kept for every distinct (method, query,
        epsilon); returns {key: (ok, record)}."""
        verdict = {}
        for rec in res["keys"]:
            eps = rec["key"][2]
            ok, under = reference.check_scores(res["scores"][rec["row"]], self.ref_col[int(rec["label"][1:])],
                                               eps, self.tail_bound)
            self.worst_undershoot = max(self.worst_undershoot, under if ok else float("inf"))
            verdict[tuple(rec["key"])] = (ok, rec)
        return verdict

    def check_answer(self, verdict, answer, what: str) -> bool:
        """An answer passes when its key's kept vector is within bounds and
        its checksum and exact counts repeat those of the key's first
        answer bit for bit."""
        ok, rec = verdict[tuple(answer["key"])]
        if not ok:
            self.failures.append(f"{what}: scores outside [ref - eps, ref + tail]")
        elif answer["checksum"] != rec["checksum"]:
            self.failures.append(f"{what}: scores differ from the first answer to the same query")
            ok = False
        elif answer["counts"] != rec["counts"]:
            self.failures.append(f"{what}: work counts differ from the first answer to the same query")
            ok = False
        return ok

    def check_topk_text(self, label, code, stdout, first_out, what):
        if code != 0:
            return self.fail(f"{what}: exit code {code}")
        if first_out.setdefault(label, stdout) != stdout:
            return self.fail(f"{what}: output differs from the first run of {label}")
        try:
            pairs = parse_topk(stdout, K)
        except ValueError as exc:
            return self.fail(f"{what}: {exc}")
        q = int(label[1:])
        if not self.topk_ok(pairs, q):
            self.fail(f"{what}: top-k outside its bound")

    def topk_ok(self, pairs, q) -> bool:
        ok, under = reference.check_topk(pairs, self.ref_col[q], q, K, self.spec["epsilons"][0], self.tail_bound)
        self.worst_undershoot = max(self.worst_undershoot, under if ok else float("inf"))
        return ok

    # -- workloads --------------------------------------------------------------------

    def cli_uniform(self):
        setup = [self.preprocess() for _ in range(SETUP_REPS)]
        base_rss = statistics.median(self.import_rss() for _ in range(SETUP_REPS))
        eps = repr(self.spec["epsilons"][0])
        ops = []
        start = time.perf_counter()
        i = 0
        while (time.perf_counter() - start < self.args.seconds or i < max(MIN_SAMPLES, len(self.pool))):
            label = self.pool[i % len(self.pool)]
            wall, code, out, rss = self.cli("topk", "--index", str(self.index), "--query", label,
                                            "--epsilon", eps, "--k", str(K), "--exclude-query")
            ops.append((label, wall, code, out, rss))
            i += 1
        loop_s = time.perf_counter() - start
        self.reference_for(self.pool, self.spec["epsilons"][0])
        first_out: dict = {}
        for n, (label, _, code, out, _) in enumerate(ops):
            self.attempted += 1
            self.check_topk_text(label, code, out, first_out, f"topk op {n} ({label})")
        self.report["tripwire"] = {"topk_sha256": {lab: hashlib.sha256(o.encode()).hexdigest()
                                                   for lab, o in sorted(first_out.items())}}
        walls = [op[1] for op in ops]
        return self.e2e(setup, walls, len(ops) / loop_s,
                        (statistics.median(op[4] for op in ops) - base_rss) / inputs.EDGE_COUNT)

    def in_process(self, mode: str):
        self.preprocess()
        res = self.worker(mode)
        return res, self.checked_ops(res)

    def checked_ops(self, res):
        self.reference_for([rec["label"] for rec in res["keys"]] + self.pool, min(self.spec["epsilons"]))
        verdict = self.check_keys(res)
        samples, traced_samples = [], []
        first_out: dict = {}
        for n, op in enumerate(res["ops"]):
            self.attempted += 1
            what = f"op {n}"
            if op["error"]:
                self.fail(f"{what}: {op['error']}")
                continue
            if "stdout" in op and "queries" not in op:          # cli replay
                self.check_topk_text(op["q"], op["exit"], op["stdout"], first_out, what)
                (traced_samples if op["traced"] else samples).append(op["t"])
                continue
            if "queries" in op:                                 # bench call
                ok = self.bench_ok(op, verdict, what)
                (traced_samples if op["traced"] else samples).extend(q["t"] for q in op["queries"])
            else:                                               # serve query
                ok = self.check_answer(verdict, op, f"{what} {op['key']}")
                q = int(op["q"][1:])
                pairs = [(int(lab[1:]), s) for lab, s in op["topk"]]
                if ok and not self.topk_ok(pairs, q):
                    self.failures.append(f"{what}: top-k outside its bound")
                    ok = False
                (traced_samples if op["traced"] else samples).append(op["t"])
            if not ok:
                self.failed += 1
        if "probe" in res:
            self.attempted += 1
            if res["probe"]["error"] or not self.bench_ok(res["probe"], verdict, "probe"):
                self.failed += 1
        self.report["tripwire"] = {
            "counts": {f"{r['key'][0]} {r['label']} {r['key'][2]!r}": r["counts"] for r in res["keys"]},
            "checksums": {f"{r['key'][0]} {r['label']} {r['key'][2]!r}": r["checksum"] for r in res["keys"]},
        }
        return samples, traced_samples

    def bench_ok(self, op, verdict, what) -> bool:
        """Exit code 0, one unexcluded timing row per (method, epsilon) with
        every asked query answered, and every answer checked."""
        rows = [line.split("\t") for line in op["stdout"].splitlines() if line and not line.startswith("#")]
        timing = [r for r in rows if r[0] == "timing"]
        ok = (op["exit"] == 0 and len(timing) == len(self.spec["epsilons"]) * len(op["method"].split(","))
              and all(r[6] == "false" and int(r[5]) == op["asked"] for r in timing))
        if not ok:
            self.failures.append(f"{what}: bench exit {op['exit']} or bad rows: {op['stderr'][-200:]}")
        for q in op["queries"]:
            ok = self.check_answer(verdict, q, f"{what} {q['key']}") and ok
        return ok

    def serve_uniform(self):
        res, (samples, _) = self.in_process("serve")
        setup = [s["t"] for s in res["setup"]]
        return self.e2e(setup, samples, len(res["ops"]) / res["loop_s"],
                        (res["rss_peak"] - res["rss_after_import"]) / inputs.EDGE_COUNT)

    def batch_skew(self):
        res, (samples, _) = self.in_process("batch")
        setup = [s["t"] for s in res["setup"]]
        # Per-method split, reported beside the metrics (not a ratio of them).
        for method in ("ssbipush", "pisp"):
            calls = [op for op in res["ops"] if op["method"] == method and not op["error"]]
            times = [q["t"] for op in calls for q in op["queries"]]
            self.report[f"{method}_queries_per_s"] = len(times) / sum(op["t"] for op in calls)
            self.report[f"{method}_query_p50_ms"] = statistics.median(times) * 1e3
        return self.e2e(setup, samples, len(samples) / res["loop_s"],
                        (res["rss_peak"] - res["rss_after_import"]) / inputs.EDGE_COUNT)

    def e2e(self, setup, latencies, qps, rss):
        value, pct = tail(latencies)
        self.report["samples"] = {"setup": len(setup), "latency": len(latencies), "tail_percentile": pct}
        return {
            "setup_s": (statistics.median(setup), "s"),
            "query_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "query_tail_ms": (value * 1e3, "ms"),
            "queries_per_s": (qps, "1/s"),
            "rss_bytes_per_edge": (rss, "bytes"),
        }

    # -- traced run ----------------------------------------------------------------------

    def traced(self):
        bare = statistics.median(self.child(["-c", "pass"])[0] for _ in range(START_REPS))
        imported = statistics.median(self.child(["-c", "import bipush.cli"])[0] for _ in range(START_REPS))
        mode = self.args.workload.split("-")[0]
        res = self.worker(mode)
        samples, traced_samples = self.checked_ops(res)
        metrics = {"process.start_s": (bare, "s"), "import.s": (imported - bare, "s")}
        sections = {}
        for name, (value, unit, section) in res["layers"].items():
            metrics[name] = (value, unit)
            sections[name] = section
        self.report["layer_sections"] = sections
        e = inputs.EDGE_COUNT
        metrics["bigraph.cache_bytes_per_edge"] = ((self.index / "graph.bin").stat().st_size / e, "bytes")
        metrics["bigraph.resident_bytes_per_edge"] = (res["resident_bytes"] / e, "bytes")
        metrics.update(self.count_metrics([r for r in res["keys"] if r["section"] != "probe"]))
        metrics.update(self.overhead(res, samples, traced_samples))
        return metrics

    def count_metrics(self, keys):
        """Means over the distinct ssbipush queries, so they are exact for a
        seed however many operations the loop ran."""
        ss = [r["counts"] for r in keys if r["key"][0] == "ssbipush"]
        mean = lambda key: (statistics.fmean(c[key] for c in ss), "count")  # noqa: E731
        ends = [c[k] for c in ss for k in ("backward_terminated_by", "forward_terminated_by")]
        mix = {}
        for c in ss:
            for k in ("backward_terminated_by", "forward_terminated_by"):
                name = f"{k.split('_')[0]} {c[k]}"
                mix[name] = mix.get(name, 0) + 1
        self.report["terminated_by"] = mix
        return {
            "push_engine.backward_n_p": mean("backward_n_p"),
            "push_engine.forward_n_p": mean("forward_n_p"),
            "push_engine.selective_rounds": mean("selective_rounds"),
            "push_engine.sequential_rounds": mean("sequential_rounds"),
            "push_engine.forward_selective_rounds": mean("forward_selective_rounds"),
            "push_engine.power_iterations": mean("power_iterations"),
            "push_engine.budget_switch_share": (ends.count("budget-switch") / len(ends), "ratio"),
        }

    def overhead(self, res, samples, traced_samples):
        """Traced minus untraced for every end-to-end timing, measured on
        the same alternating operations, with the untraced base."""
        if self.args.workload == "cli-uniform":
            pre = res["preprocess_s"]
            setup = (pre["untraced"], pre["traced"])
        else:
            setup = tuple(statistics.median(s["t"] for s in res["setup"] if s["traced"] == on) for on in (False, True))
        busy = {on: [op["t"] for op in res["ops"] if op["traced"] == on] for on in (False, True)}
        qps = tuple(len(x) / sum(busy[on]) for on, x in ((False, samples), (True, traced_samples)))
        out = {}
        for name, unit, pair in (
            ("setup_s", "s", setup),
            ("query_p50_ms", "ms", (statistics.median(samples) * 1e3, statistics.median(traced_samples) * 1e3)),
            ("query_tail_ms", "ms", (tail(samples)[0] * 1e3, tail(traced_samples)[0] * 1e3)),
            ("queries_per_s", "1/s", qps),
        ):
            out[f"trace.{name}.untraced"] = (pair[0], unit)
            out[f"trace.{name}.traced"] = (pair[1], unit)
            out[f"trace.{name}.overhead_share"] = ((pair[1] - pair[0]) / pair[0], "ratio")
        return out

    # -- entry -----------------------------------------------------------------------------

    def run(self):
        self.make_inputs()
        self.host_speed("before")
        if self.trace:
            metrics = self.traced()
        else:
            metrics = getattr(self, self.args.workload.replace("-", "_"))()
        self.host_speed("after")
        if self.failed == 0 and not self.failures:
            self.tripwire_across_runs()
        correct = self.failed == 0 and not self.failures
        self.report.update(attempted=self.attempted, failed=self.failed, fail_rate=self.failed / max(1, self.attempted),
                           failures=self.failures, worst_undershoot_share_of_eps=self.worst_undershoot,
                           metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
        return correct, metrics

    def tripwire_across_runs(self):
        """The exact counts (or outputs) of one seed must repeat bit for bit
        on every run of the same sources; the first passing run records
        them."""
        record = {"inputs": self.report["inputs"], **self.report["tripwire"]}
        if self.trace:
            record["cache_bytes"] = (self.index / "graph.bin").stat().st_size
        state = (self.root / ".perfbench_out" / "tripwire"
                 / f"{self.args.workload}-seed{self.args.seed}-trace{self.args.trace}-{self.report['source_sha256'][:16]}.json")
        state.parent.mkdir(parents=True, exist_ok=True)
        if state.exists():
            if json.loads(state.read_text(encoding="utf-8")) != json.loads(json.dumps(record)):
                self.failures.append(f"exact counts or outputs differ from the earlier run recorded in {state.name}")
        else:
            state.write_text(json.dumps(record, indent=1), encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "bipush" / "cli.py").is_file():
        print(f"no bipush sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    run = Run(args, root)
    try:
        correct, metrics = run.run()
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(run.report, indent=1), encoding="utf-8")
    for rec in run.report["inputs"]:
        print(f"input {rec['file']} {rec['bytes']} bytes sha256 {rec['sha256']}")
    if "samples" in run.report:
        print("samples {latency} latency, tail = p{tail_percentile:.1f}".format(**run.report["samples"]))
    print(f"failed {run.failed} of {run.attempted}; worst undershoot {run.worst_undershoot:.3f} eps")
    print("host gauge: one sparse mat-vec took {host_spmv_ms_before:.3f} ms before the workload, "
          "{host_spmv_ms_after:.3f} ms after".format(**run.report))
    for method in ("ssbipush", "pisp"):
        if f"{method}_queries_per_s" in run.report:
            print(f"{method}: {run.report[method + '_queries_per_s']:.3f} queries/s over its bench calls, "
                  f"p50 {run.report[method + '_query_p50_ms']:.3f} ms per query")
    for why in run.failures:
        print("FAIL", why)
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
