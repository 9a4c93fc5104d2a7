"""The benchmark's traced path reads what a query reports.

perfbench's worker wraps the push kernels by name, times rounds by their
phase names and reads fixed keys from every phase trace, in untraced runs
too. It also iterates a graph's U labels and walks the graph's attributes.
These tests load the worker by path and run its tracer and readers over
real queries and a loaded graph, so a kernel, phase, trace key or graph
attribute they rely on cannot disappear unnoticed.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import bipush
import bipush.cli  # noqa: F401  (the tracer wraps cli.main too)
from bipush import BipartiteGraph, build_index_meta, synth_bipartite

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


@pytest.fixture(scope="module")
def worker():
    """perfbench/worker.py as a module; it puts its own directory on
    sys.path to import its tracer, which is undone afterwards."""
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
        sys.modules.pop("tracing", None)
    return module


@pytest.fixture(scope="module")
def traced_answers(worker):
    """ssbipush and pisp answers on a skew graph, run under the tracer with
    the workload loop's section, and the spans they left."""
    g = synth_bipartite(300, 300, 1200, (0.0, 10.0), degree_skew=1.2, seed=0)
    meta = build_index_meta(g)
    tracer = worker.Tracer()
    tracer.section = "loop"
    answers = []
    tracer.install()
    try:
        for q in (0, 30):
            tracer.query_id = q
            answers.append(("ssbipush", bipush.bhpp_query(g, meta, q, 1e-4)))
            answers.append(("pisp", bipush.pisp_query(g, q, meta.alpha, 1e-4)))
    finally:
        tracer.uninstall()
    return answers, tracer.spans


def test_layer_metrics_time_the_query_kernel(worker, traced_answers):
    _, spans = traced_answers
    metrics = worker.layer_metrics(spans)
    for name in ("push_engine.pi_push_ms", "push_engine.forward_selective_ms",
                 "push_engine.n_p_per_s", "bhpp_query.self_ms", "baselines.pisp_query_ms",
                 "baselines.selective_push_ms", "baselines.power_iteration_ms"):
        assert name in metrics
        assert metrics[name][2] == "loop"
    assert metrics["push_engine.pi_push_ms"][0] > 0.0
    # every round of a query is a child of its kernel span
    rounds = [s for s in spans if s[1].startswith("round.")]
    assert rounds and {s[1] for s in rounds} <= {"round.selective", "round.sequential",
                                                "round.forward-selective"}


def test_counts_of_reads_every_answer(worker, traced_answers):
    answers, _ = traced_answers
    for method, res in answers:
        counts = worker.counts_of(method, res.phase_trace)
        assert counts["backward_terminated_by"] in ("threshold-met", "budget-switch")
        if method == "ssbipush":
            fwd = res.phase_trace["forward"]
            assert counts["backward_n_p"] == 0
            assert counts["forward_n_p"] == fwd["n_p"] > 0
            assert counts["forward_selective_rounds"] == fwd["selective_rounds"]
            assert counts["power_iterations"] == fwd["power_iterations"]


def test_score_sink_and_resident_bytes_read_a_loaded_graph(worker, tmp_path):
    # The worker writes each score vector in generator order, reading the
    # generator index from every U label, and sizes the graph by walking
    # its attributes; both on a graph loaded from a cache, as the benchmark
    # loads it. Here U label u<i> sits at index perm[i], not i.
    shape = synth_bipartite(300, 300, 1200, (0.0, 10.0), degree_skew=1.2, seed=0)
    perm = np.random.default_rng(1).permutation(shape.u_count)
    u_labels = [None] * shape.u_count
    for i, at in enumerate(perm):
        u_labels[at] = f"u{i}"
    eu = perm[np.repeat(np.arange(shape.u_count), shape.deg_u)]
    BipartiteGraph(u_labels, shape.v_labels, eu, shape.u_indices, shape.u_weights).save(tmp_path / "graph.bin")
    g = BipartiteGraph.load(tmp_path / "graph.bin")
    res = bipush.bhpp_query(g, build_index_meta(g), "u7", 1e-4)

    sink = worker.ScoreSink(tmp_path / "scores.bin")
    rec = sink.keep("ssbipush", g, 1e-4, res)
    keys = sink.close()
    assert rec["checksum"] == worker.checksum(res.scores)
    assert keys[0]["label"] == "u7" and res.query_index == perm[7]
    written = np.fromfile(tmp_path / "scores.bin")
    np.testing.assert_array_equal(written, res.scores[perm])

    # at least the V side, which the load builds
    assert worker.resident_bytes(g) >= g.v_weights.nbytes + g.v_indices.nbytes
