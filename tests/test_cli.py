"""Command-line surface: round trips, encodings, config merge, exit codes."""

import hashlib
import io
import json
import math
import weakref

import numpy as np
import pytest

import bipush.baselines as baselines
from bipush import BipartiteGraph, mc_walk_count
from bipush.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_TIMEOUT,
    EXIT_USAGE,
    METHODS,
    main,
)
from test_perfbench_contract import worker  # noqa: F401  (perfbench's worker, a fixture)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def parse_tsv(text):
    """Read '#'-headed tsv back into dicts with json-equivalent values."""
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].lstrip("#").split("\t")
    rows = []
    for ln in lines[1:]:
        row = {}
        for key, cell in zip(header, ln.split("\t")):
            if cell == "":
                row[key] = None
            elif cell in ("true", "false"):
                row[key] = cell == "true"
            else:
                try:
                    row[key] = int(cell)
                except ValueError:
                    try:
                        row[key] = float(cell)
                    except ValueError:
                        row[key] = cell
        rows.append(row)
    return rows


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    graph = base / "g.tsv"
    code, _, err = run_cli(
        "synth", "--u-count", "40", "--v-count", "30", "--edge-count", "240",
        "--seed", "5", "--out", str(graph),
    )
    assert code == EXIT_OK, err
    idx = base / "idx"
    code, out, err = run_cli(
        "preprocess", "--graph", str(graph), "--out-dir", str(idx),
    )
    assert code == EXIT_OK, err
    return base, graph, idx, out


class TestSynthPreprocess:
    def test_synth_writes_the_pinned_file(self, index_dir):
        # seed 5's edge list, byte for byte as it has always been written
        _, graph, _, _ = index_dir
        digest = hashlib.sha256(graph.read_bytes()).hexdigest()
        assert digest == "34bbb22a1dd4a1a709be7bc323af2a3f552f59410f667e20848ae3ae64ae6621"

    def test_preprocess_reports_index_facts(self, index_dir):
        _, _, idx, out = index_dir
        facts = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert facts["u_count"] == "40"
        assert facts["edge_count"] == "240"
        assert facts["alpha"] == "0.15"
        assert (idx / "graph.bin").exists()
        assert (idx / "meta.json").exists()

    def test_preprocess_stores_only_what_a_query_cannot_derive(self, index_dir):
        _, _, idx, out = index_dir
        meta = json.loads((idx / "meta.json").read_text(encoding="utf-8"))
        assert set(meta) == {"format_version", "alpha", "graph_fingerprint"}
        keys = [line.split("=", 1)[0] for line in out.strip().splitlines()]
        assert keys == ["u_count", "v_count", "edge_count", "alpha", "build_seconds", "fingerprint"]

    def test_kcore_shrinks_graph(self, index_dir, tmp_path):
        base, graph, _, _ = index_dir
        code, out, err = run_cli(
            "preprocess", "--graph", str(graph), "--kcore", "2",
            "--out-dir", str(tmp_path / "core"),
        )
        assert code == EXIT_OK, err
        facts = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert int(facts["u_count"]) <= 40

    def test_preprocess_serializes_once(self, index_dir, tmp_path, monkeypatch):
        # graph.bin is the built graph's own cache buffer, written as it is,
        # and meta.json's fingerprint is that buffer's sha256
        _, graph, _, _ = index_dir
        real = BipartiteGraph._load
        built = []

        def recorded(g, buf):
            built.append(g)
            real(g, buf)

        monkeypatch.setattr(BipartiteGraph, "_load", recorded)
        out_dir = tmp_path / "idx"
        code, _, err = run_cli("preprocess", "--graph", str(graph), "--out-dir", str(out_dir))
        assert code == EXIT_OK, err
        [g] = built
        data = (out_dir / "graph.bin").read_bytes()
        assert data == g.to_bytes()
        assert np.shares_memory(g.u_weights, np.frombuffer(g.to_bytes(), np.uint8))
        meta = json.loads((out_dir / "meta.json").read_text(encoding="utf-8"))
        assert meta["graph_fingerprint"] == hashlib.sha256(data).hexdigest() == g.fingerprint


class TestQueryTopk:
    def test_query_emits_ranked_pairs(self, index_dir):
        _, _, idx, _ = index_dir
        code, out, err = run_cli(
            "query", "--index", str(idx), "--query", "u0", "--epsilon", "1e-4",
        )
        assert code == EXIT_OK, err
        lines = [ln.split("\t") for ln in out.strip().splitlines()]
        assert len(lines) == 40
        scores = [float(s) for _, s in lines]
        assert scores == sorted(scores, reverse=True)
        assert lines[0][0] == "u0"  # self scores highest

    def test_topk_json_lines_and_exclusion(self, index_dir):
        _, _, idx, _ = index_dir
        code, out, err = run_cli(
            "topk", "--index", str(idx), "--query", "u0", "--k", "3",
            "--format", "json-lines", "--exclude-query",
        )
        assert code == EXIT_OK, err
        rows = [json.loads(ln) for ln in out.strip().splitlines()]
        assert len(rows) == 3
        assert all(set(r) == {"label", "score"} for r in rows)
        assert "u0" not in {r["label"] for r in rows}

    def test_verbose_trace_goes_to_stderr(self, index_dir):
        _, _, idx, _ = index_dir
        code, out, err = run_cli(
            "topk", "--index", str(idx), "--query", "u1", "--k", "2", "--verbose",
        )
        assert code == EXIT_OK
        trace = json.loads(err)
        assert trace["method"] == "ssbipush"
        assert "phase_trace" in trace and "timing" in trace
        fwd, back = trace["phase_trace"]["forward"], trace["phase_trace"]["backward"]
        assert 0.0 <= fwd["power_tail_bound"] <= trace["epsilon"]
        # only a conjugate-gradient residual's floor can be negative
        assert fwd["tail_floor"] >= 0.0 or fwd["power_iterations"] > 0
        assert fwd["residue_bound"] >= 0.0 and back["residue_bound"] >= 0.0
        assert fwd["residue_bound"] + back["residue_bound"] <= trace["epsilon"]

    @pytest.mark.parametrize("method", METHODS)
    def test_verbose_record_keys_are_pinned(self, index_dir, worker, method):
        # The record is output: a key that comes or goes changes it. ssbipush
        # runs one kernel, timed and traced as its forward phase, with the
        # backward phase's bound read off it; a baseline runs both halves.
        _, _, idx, _ = index_dir
        code, _, err = run_cli("topk", "--index", str(idx), "--query", "u1", "--epsilon", "0.05",
                               "--method", method, "--seed", "9", "--verbose")
        assert code == EXIT_OK, err
        record = json.loads(err)
        backward = {"selective_rounds", "sequential_rounds", "n_p", "terminated_by"}
        timing, forward = {
            "ssbipush": ({"forward", "total"},
                         {"selective_rounds", "power_iterations", "depth_cap", "power_tail_bound",
                          "tail_floor", "residue_bound", "n_p", "terminated_by"}),
            "pisp": ({"forward", "backward", "total"}, {"power_iterations"}),
            "mcsp": ({"forward", "backward", "total"}, {"n_walks"}),
        }[method]
        if method == "ssbipush":
            backward.add("residue_bound")
        assert set(record) == {"method", "query_index", "epsilon", "timing", "phase_trace"}
        assert set(record["timing"]) == timing
        assert set(record["phase_trace"]) == {"forward", "backward"}
        assert set(record["phase_trace"]["forward"]) == forward
        assert set(record["phase_trace"]["backward"]) == backward
        # perfbench reads its per-query counts off the same trace
        assert worker.counts_of(method, record["phase_trace"])

    @pytest.mark.parametrize("fmt", ["tsv", "json-lines"])
    @pytest.mark.parametrize("method", ["ssbipush", "pisp", "mcsp"])
    def test_query_is_topk_over_every_node(self, index_dir, method, fmt):
        _, _, idx, _ = index_dir
        args = ("--index", str(idx), "--query", "u4", "--epsilon", "0.05",
                "--method", method, "--seed", "9", "--format", fmt)
        code_q, out_q, err_q = run_cli("query", *args)
        code_t, out_t, err_t = run_cli("topk", *args, "--k", "40")
        assert code_q == code_t == EXIT_OK, err_q + err_t
        assert out_q == out_t
        assert len(out_q.splitlines()) == 40

    @pytest.mark.parametrize("method", ["pisp", "mcsp"])
    def test_baseline_trace_is_plain_json(self, index_dir, method):
        _, _, idx, _ = index_dir
        code, _, err = run_cli(
            "query", "--index", str(idx), "--query", "u1", "--epsilon", "0.05",
            "--method", method, "--verbose",
        )
        assert code == EXIT_OK, err
        trace = json.loads(err)
        assert trace["method"] == method
        assert trace["query_index"] == 1

    def test_methods_agree_through_cli(self, index_dir):
        _, _, idx, _ = index_dir
        outputs = {}
        for method in ("ssbipush", "pisp", "mcsp"):
            code, out, err = run_cli(
                "query", "--index", str(idx), "--query", "u3",
                "--epsilon", "0.05", "--method", method, "--seed", "9",
            )
            assert code == EXIT_OK, err
            outputs[method] = {
                lab: float(s) for lab, s in
                (ln.split("\t") for ln in out.strip().splitlines())
            }
        for label in outputs["ssbipush"]:
            spread = [outputs[m][label] for m in outputs]
            assert max(spread) - min(spread) <= 0.1  # 2 eps across methods


class TestBench:
    def test_rows_parse_identically_in_both_formats(self, index_dir):
        _, _, idx, _ = index_dir
        args = (
            "bench", "--index", str(idx), "--methods", "ssbipush,pisp",
            "--epsilons", "1e-2,1e-3", "--queries", "4", "--seed", "2",
        )
        code_t, out_t, _ = run_cli(*args)
        code_j, out_j, _ = run_cli(*args, "--format", "json-lines")
        assert code_t == code_j == EXIT_OK
        tsv_rows = parse_tsv(out_t)
        json_rows = [json.loads(ln) for ln in out_j.strip().splitlines()]
        assert len(tsv_rows) == len(json_rows) == 2 * 2 + 2
        for a, b in zip(tsv_rows, json_rows):
            for key in ("kind", "method", "epsilon", "n", "excluded", "within", "bound"):
                assert a.get(key) == b.get(key), key

    def test_agreement_rows_within_bound(self, index_dir):
        _, _, idx, _ = index_dir
        code, out, err = run_cli(
            "bench", "--index", str(idx), "--methods", "ssbipush,pisp",
            "--epsilons", "1e-2", "--queries", "5", "--format", "json-lines",
        )
        assert code == EXIT_OK, err
        rows = [json.loads(ln) for ln in out.strip().splitlines()]
        agreements = [r for r in rows if r["kind"] == "agreement"]
        assert agreements and all(r["within"] for r in agreements)
        assert all(r["max_abs_diff"] <= r["bound"] for r in agreements)

    def test_timeout_exclusion_sets_exit_code(self, index_dir):
        _, _, idx, _ = index_dir
        code, out, err = run_cli(
            "bench", "--index", str(idx), "--methods", "mcsp",
            "--epsilons", "1e-4", "--queries", "3", "--timeout", "1e-9",
            "--format", "json-lines",
        )
        assert code == EXIT_TIMEOUT
        rows = [json.loads(ln) for ln in out.strip().splitlines()]
        assert rows[0]["excluded"] is True
        assert rows[0]["mean_s"] is None

    @pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf", "1e308"])
    def test_timeout_not_positive_and_finite_is_usage_error(self, index_dir, timeout, monkeypatch):
        # a deadline lifts the walk cap, and one that never passes would
        # start an uncapped run; it is refused before any alias table. At
        # 1e308 the budget for 3 queries overflows to inf.
        _, _, idx, _ = index_dir

        def no_tables(g):
            raise AssertionError("alias tables built for a refused run")

        monkeypatch.setattr("bipush.cli.build_alias", no_tables)
        code, out, err = run_cli(
            "bench", "--index", str(idx), "--methods", "mcsp", "--epsilons", "1e-7",
            "--queries", "3", "--timeout", timeout,
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error: ") and "--timeout" in err


    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_timeout_is_wall_clock_on_both_paths(self, index_dir, threads):
        _, _, idx, _ = index_dir
        args = ("bench", "--index", str(idx), "--methods", "ssbipush,pisp",
                "--epsilons", "1e-3", "--queries", "4", "--threads", threads)
        code, out, _ = run_cli(*args, "--timeout", "1e-9")
        assert code == EXIT_TIMEOUT
        assert all(r["excluded"] for r in parse_tsv(out) if r["kind"] == "timing")
        code, out, err = run_cli(*args, "--timeout", "3600")
        assert code == EXIT_OK, err

    def test_bench_calls_the_module_query_functions(self, index_dir, monkeypatch):
        # Callers that rebind cli.bhpp_query / cli.pisp_query see every query.
        import bipush.cli as cli

        seen = []

        def spy(name, real):
            def wrapper(*args, **kwargs):
                seen.append(name)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "bhpp_query", spy("ssbipush", cli.bhpp_query))
        monkeypatch.setattr(cli, "pisp_query", spy("pisp", cli.pisp_query))
        _, _, idx, _ = index_dir
        code, _, err = run_cli(
            "bench", "--index", str(idx), "--methods", "ssbipush,pisp",
            "--epsilons", "1e-2", "--queries", "3",
        )
        assert code == EXIT_OK, err
        assert sorted(seen) == ["pisp"] * 3 + ["ssbipush"] * 3

    @pytest.mark.parametrize("methods, most_alive", [("ssbipush", 1), ("ssbipush,pisp", 5)])
    def test_bench_keeps_scores_only_for_agreement_rows(self, index_dir, monkeypatch, methods, most_alive):
        # Before each query, count the score vectors of earlier queries that
        # are still alive. One method compares nothing, so only the previous
        # result is. Two methods hold one epsilon's vectors: the first
        # method's three and the second's so far.
        import bipush.cli as cli

        refs, alive = [], []

        def spy(real):
            def wrapper(*args, **kwargs):
                alive.append(sum(ref() is not None for ref in refs))
                res = real(*args, **kwargs)
                refs.append(weakref.ref(res.scores))
                return res
            return wrapper

        monkeypatch.setattr(cli, "bhpp_query", spy(cli.bhpp_query))
        monkeypatch.setattr(cli, "pisp_query", spy(cli.pisp_query))
        _, _, idx, _ = index_dir
        code, out, err = run_cli(
            "bench", "--index", str(idx), "--methods", methods,
            "--epsilons", "1e-2,1e-3", "--queries", "3",
        )
        assert code == EXIT_OK, err
        assert len(alive) == 6 * len(methods.split(","))
        assert max(alive) == most_alive
        agreement = [r for r in parse_tsv(out) if r["kind"] == "agreement"]
        assert len(agreement) == (2 if "," in methods else 0)
        assert all(r["within"] for r in agreement)

    def test_threaded_bench_matches_serial_bit_for_bit(self, tmp_path, monkeypatch):
        # The finish sums its inner products as numpy reductions, with no
        # BLAS threads to reorder them. On a skew graph with several
        # components, where every query runs conjugate-gradient steps, a
        # repeated query and a bench with two threads give the serial
        # answers bit for bit, scores and traces alike.
        import bipush.cli as cli

        graph, idx = tmp_path / "skew.tsv", tmp_path / "idx"
        code, _, err = run_cli("synth", "--u-count", "300", "--v-count", "300", "--edge-count", "1200",
                               "--skew", "1.2", "--seed", "0", "--out", str(graph))
        assert code == EXIT_OK, err
        code, _, err = run_cli("preprocess", "--graph", str(graph), "--out-dir", str(idx))
        assert code == EXIT_OK, err
        real = cli.bhpp_query
        answers = {}

        def record(threads):
            def wrapper(g, meta, q, eps):
                res = real(g, meta, q, eps)
                again = real(g, meta, q, eps)
                assert again.scores.tobytes() == res.scores.tobytes()
                assert again.phase_trace == res.phase_trace
                answers.setdefault(threads, {})[q] = (res.scores.tobytes(), res.phase_trace)
                return res
            return wrapper

        for threads in ("1", "2"):
            monkeypatch.setattr(cli, "bhpp_query", record(threads))
            code, _, err = run_cli("bench", "--index", str(idx), "--methods", "ssbipush", "--epsilons", "1e-4",
                                   "--queries", "8", "--threads", threads)
            assert code == EXIT_OK, err
        assert len(answers["1"]) == 8 and answers["1"] == answers["2"]
        assert all(trace["forward"]["power_iterations"] > 0 for _, trace in answers["1"].values())

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_exclusion_ignores_reported_query_times(self, index_dir, threads, monkeypatch):
        # Queries that report a huge time but finish fast stay within a
        # wall-clock budget; summing reported times would exclude them.
        import bipush.cli as cli

        real = cli.bhpp_query

        def slow_on_paper(*args, **kwargs):
            res = real(*args, **kwargs)
            res.timing["total"] = 1e6
            return res

        monkeypatch.setattr(cli, "bhpp_query", slow_on_paper)
        _, _, idx, _ = index_dir
        code, out, err = run_cli(
            "bench", "--index", str(idx), "--methods", "ssbipush", "--epsilons", "1e-3",
            "--queries", "4", "--threads", threads, "--timeout", "60",
        )
        assert code == EXIT_OK, err
        assert parse_tsv(out)[0]["excluded"] is False


class TestEvalCommands:
    def test_eval_qr_end_to_end(self, index_dir):
        _, graph, _, _ = index_dir
        code, out, err = run_cli(
            "eval-qr", "--graph", str(graph), "--kcore", "2",
            "--queries", "6", "--ks", "3,5", "--methods", "jaccard",
            "--seed", "3",
        )
        assert code == EXIT_OK, err
        rows = parse_tsv(out)
        assert {r["k"] for r in rows} == {3, 5}
        assert all(r["metric"] == "ndcg" for r in rows)

    def test_eval_rec_end_to_end(self, index_dir):
        _, graph, _, _ = index_dir
        code, out, err = run_cli(
            "eval-rec", "--graph", str(graph), "--kcore", "2",
            "--users", "5", "--ks", "4", "--negatives", "10",
            "--methods", "jaccard", "--seed", "4", "--format", "json-lines",
        )
        assert code == EXIT_OK, err
        rows = [json.loads(ln) for ln in out.strip().splitlines()]
        assert {r["metric"] for r in rows} == {"precision", "recall"}

    @pytest.mark.parametrize("argv", [
        (cmd, flag, n) for cmd, flag in (("eval-qr", "--queries"), ("eval-rec", "--users"))
        for n in ("0", "-1")
    ], ids=" ".join)
    def test_no_queries_is_usage_error(self, index_dir, argv):
        # refused like bench --queries, not answered with NaN rows or a
        # numpy error
        _, graph, _, _ = index_dir
        code, out, err = run_cli(*argv, "--graph", str(graph), "--methods", "jaccard")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error: ") and argv[1] in err
        assert "Traceback" not in err


class TestConfigAndErrors:
    def test_config_file_supplies_defaults(self, index_dir, tmp_path):
        _, _, idx, _ = index_dir
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# comment\nindex = {idx}\nquery = u2\nepsilon = 1e-3\n")
        code, out, _ = run_cli("query", "--config", str(cfg))
        assert code == EXIT_OK
        assert out.splitlines()[0].startswith("u2\t")

    def test_explicit_flag_beats_config(self, index_dir, tmp_path):
        _, _, idx, _ = index_dir
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"index = {idx}\nquery = u2\nepsilon = 1e-2\n")
        code, _, err = run_cli(
            "topk", "--config", str(cfg), "--query", "u7", "--k", "1",
            "--verbose", "--epsilon", "1e-5",
        )
        assert code == EXIT_OK
        trace = json.loads(err)
        assert trace["epsilon"] == 1e-5
        assert trace["query_index"] == 7

    def test_unknown_config_key_is_usage_error(self, index_dir, tmp_path):
        _, _, idx, _ = index_dir
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wibble = 3\n")
        code, _, err = run_cli("query", "--config", str(cfg), "--index", str(idx), "--query", "u0")
        assert code == EXIT_USAGE
        assert "wibble" in err

    @pytest.mark.parametrize("argv", [
        ("topk", "--threads", "2"),
        ("query", "--threads", "2"),
        ("preprocess", "--seed", "1"),
        ("preprocess", "--format", "tsv"),
        ("preprocess", "--tau", "5"),  # the probe depth is not settable
        ("synth", "--format", "tsv"),
        ("synth", "--threads", "2"),
        ("topk", "--format", "xml"),
    ], ids="".join)
    def test_option_the_command_does_not_read_is_usage_error(self, index_dir, tmp_path, argv):
        _, graph, idx, _ = index_dir
        given = {
            "synth": ("--u-count", "4", "--v-count", "4", "--edge-count", "8",
                      "--out", str(tmp_path / "g.tsv")),
            "preprocess": ("--graph", str(graph), "--out-dir", str(tmp_path / "idx")),
            "query": ("--index", str(idx), "--query", "u0"),
            "topk": ("--index", str(idx), "--query", "u0"),
        }[argv[0]]
        code, out, err = run_cli(*argv, *given)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error: ")
        assert list(tmp_path.iterdir()) == []  # a rejected command writes nothing

    def test_config_key_the_command_does_not_read_is_usage_error(self, index_dir, tmp_path):
        _, _, idx, _ = index_dir
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"index = {idx}\nquery = u0\nthreads = 2\n")
        code, out, err = run_cli("topk", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert out == ""
        assert "unknown config keys: threads" in err

    def test_missing_required_is_usage_error(self):
        code, _, err = run_cli("query", "--query", "u0")
        assert code == EXIT_USAGE
        assert "--index" in err

    def test_unknown_label_is_data_error(self, index_dir):
        _, _, idx, _ = index_dir
        code, _, err = run_cli("query", "--index", str(idx), "--query", "nope")
        assert code == EXIT_DATA

    def test_missing_index_directory_is_data_error(self, tmp_path):
        code, _, err = run_cli("query", "--index", str(tmp_path / "void"), "--query", "u0")
        assert code == EXIT_DATA
        assert "graph.bin" in err

    def test_missing_graph_file_is_data_error(self, tmp_path):
        code, out, err = run_cli(
            "preprocess", "--graph", str(tmp_path / "missing.tsv"), "--out-dir", str(tmp_path / "i"),
        )
        assert code == EXIT_DATA
        assert "missing.tsv" in err
        assert "Traceback" not in err

    def test_undecodable_graph_line_is_data_error(self, tmp_path):
        graph = tmp_path / "g.tsv"
        graph.write_bytes(b"a\tx\t1.0\nb\xff\tx\t1.0\n")
        code, out, err = run_cli("preprocess", "--graph", str(graph), "--out-dir", str(tmp_path / "i"))
        assert code == EXIT_DATA
        assert "line 2" in err
        assert "Traceback" not in err

    def test_unscorable_weight_range_is_data_error(self, tmp_path):
        graph = tmp_path / "g.tsv"
        graph.write_text("a\tx\t1e-300\nb\tx\t1.0\nb\ty\t1e300\nc\ty\t1.0\n")
        code, out, err = run_cli("preprocess", "--graph", str(graph), "--out-dir", str(tmp_path / "i"))
        assert code == EXIT_DATA
        assert "range" in err
        assert not (tmp_path / "i" / "graph.bin").exists()

    def test_corrupt_cache_label_is_data_error(self, index_dir, tmp_path):
        # the cache ends with the last V label; make its last byte invalid UTF-8
        _, _, idx, _ = index_dir
        bad = tmp_path / "bad"
        bad.mkdir()
        buf = bytearray((idx / "graph.bin").read_bytes())
        buf[-1] = 0xFF
        (bad / "graph.bin").write_bytes(bytes(buf))
        (bad / "meta.json").write_text((idx / "meta.json").read_text())
        code, out, err = run_cli("topk", "--index", str(bad), "--query", "u0")
        assert code == EXIT_DATA
        assert out == ""
        assert "UTF-8" in err

    def test_bad_option_value_is_usage_error(self, index_dir):
        _, _, idx, _ = index_dir
        code, _, err = run_cli("query", "--index", str(idx), "--query", "u0", "--epsilon", "soup")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ("topk", "--k", "0"),
        ("topk", "--epsilon", "0"),
        ("topk", "--method", "pisp", "--epsilon", "5e-324"),  # its half rounds to zero
        ("topk", "--method", "mcsp", "--p-f", "0"),
        ("bench", "--epsilons", "0"),
        ("bench", "--queries", "0"),
        ("preprocess", "--alpha", "1.5"),
        ("preprocess", "--tau", "-1"),
        # study options outside their range
        ("eval-qr", "--alpha", "1.5", "--methods", "naive-ppr"),
        ("eval-qr", "--alpha", "1.5", "--methods", "ssbipush"),
        ("eval-rec", "--alpha", "0"),
        ("eval-qr", "--holdout", "1.5"),
        ("eval-rec", "--holdout", "1.5"),
        ("eval-rec", "--negatives", "-1"),
    ], ids="".join)
    def test_value_the_library_rejects_is_usage_error(self, index_dir, tmp_path, argv):
        _, graph, idx, _ = index_dir
        given = {
            "preprocess": ("--graph", str(graph), "--out-dir", str(tmp_path / "idx")),
            "topk": ("--index", str(idx), "--query", "u0"),
            "bench": ("--index", str(idx), "--methods", "ssbipush,pisp"),
            "eval-qr": ("--graph", str(graph), "--kcore", "2", "--queries", "4"),
            "eval-rec": ("--graph", str(graph), "--kcore", "2", "--users", "4"),
        }[argv[0]]
        code, out, err = run_cli(*argv, *given)
        assert code == EXIT_USAGE
        assert err.startswith("usage error: ")
        assert "Traceback" not in err
        # a rejected preprocess writes neither graph.bin nor meta.json
        assert not (tmp_path / "idx").exists()

    def test_unknown_method_is_usage_error(self, index_dir):
        _, _, idx, _ = index_dir
        code, _, err = run_cli(
            "query", "--index", str(idx), "--query", "u0", "--method", "magic",
        )
        assert code == EXIT_USAGE

    def test_no_subcommand_is_usage_error(self):
        code, _, err = run_cli()
        assert code == EXIT_USAGE

    def test_help_exits_clean(self):
        code, _, _ = run_cli("--help")
        assert code == EXIT_OK

    def test_invalid_meta_is_data_error(self, index_dir, tmp_path):
        # a NaN alpha would turn every score NaN
        _, _, idx, _ = index_dir
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "graph.bin").write_bytes((idx / "graph.bin").read_bytes())
        payload = json.loads((idx / "meta.json").read_text())
        payload["alpha"] = float("nan")
        (bad / "meta.json").write_text(json.dumps(payload))
        code, out, err = run_cli("topk", "--index", str(bad), "--query", "u0")
        assert code == EXIT_DATA
        assert out == ""
        assert "alpha" in err

    @pytest.mark.parametrize("lam", [1.7, float("nan")])
    @pytest.mark.parametrize("mu", [0.05, float("nan")])
    def test_legacy_meta_with_mu_and_tau_answers_the_same(self, index_dir, tmp_path, mu, lam):
        # older indexes also stored the density proxy, the probe depth and
        # the column-sum bound; queries need none of them
        _, _, idx, _ = index_dir
        legacy = tmp_path / "legacy"
        legacy.mkdir()
        (legacy / "graph.bin").write_bytes((idx / "graph.bin").read_bytes())
        payload = json.loads((idx / "meta.json").read_text())
        payload.update(mu=mu, tau=79, **{"lambda": lam})
        (legacy / "meta.json").write_text(json.dumps(payload))
        args = ("--query", "u0", "--k", "40", "--epsilon", "1e-5")
        new = run_cli("topk", "--index", str(idx), *args)
        assert new[0] == EXIT_OK, new[2]
        assert run_cli("topk", "--index", str(legacy), *args) == new

    def test_mcsp_over_the_walk_cap_is_usage_error(self, index_dir, monkeypatch):
        # the default epsilon would need about 1.4e12 walks on 40 nodes; the
        # query is refused before any alias table is built
        _, _, idx, _ = index_dir

        def no_tables(g):
            raise AssertionError("alias tables built for a refused query")

        monkeypatch.setattr(baselines, "build_alias", no_tables)
        code, out, err = run_cli("topk", "--index", str(idx), "--query", "u0", "--method", "mcsp")
        assert code == EXIT_USAGE
        assert out == ""
        assert str(mc_walk_count(5e-6, 1e-6, 40)) in err
        assert str(baselines.MAX_WALKS) in err

    @pytest.mark.parametrize("argv", [
        *[("topk", "--method", m, "--epsilon", e)
          for m in ("ssbipush", "mcsp", "pisp") for e in ("nan", "inf")],
        # half of each is the walk half; its count overflows a float
        ("topk", "--method", "mcsp", "--epsilon", "1e-160"),
        ("topk", "--method", "mcsp", "--epsilon", "1e-300"),
        ("bench", "--methods", "mcsp", "--epsilons", "1e-160"),
        ("bench", "--methods", "ssbipush,pisp,mcsp", "--epsilons", "nan"),
    ], ids=" ".join)
    def test_epsilon_out_of_range_is_usage_error(self, index_dir, argv):
        # refused with a message naming epsilon, no traceback and no output
        _, _, idx, _ = index_dir
        query = ("--query", "u0") if argv[0] == "topk" else ()
        code, out, err = run_cli(*argv, "--index", str(idx), *query)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error: ") and "epsilon" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        (cmd, *method, "--p-f", p_f)
        for cmd, method in (("topk", ("--method", "mcsp")), ("query", ("--method", "mcsp")),
                            ("bench", ("--methods", "ssbipush,mcsp")))
        for p_f in ("1", "2")
    ], ids=" ".join)
    def test_p_f_of_one_or_more_is_usage_error(self, index_dir, argv):
        # refused with a message naming p_f, no traceback and no output
        _, _, idx, _ = index_dir
        one = ("--query", "u0", "--epsilon", "0.1")
        given = {"topk": one, "query": one, "bench": ("--epsilons", "0.1", "--queries", "3")}[argv[0]]
        code, out, err = run_cli(*argv, "--index", str(idx), *given)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error: ") and "p_f" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("eps", ["1e155", "1e200", "1e300"])
    def test_mcsp_at_a_huge_epsilon_takes_one_walk(self, index_dir, eps):
        # epsilon_f squared overflows a float; the bound asks for one walk
        _, _, idx, _ = index_dir
        code, out, err = run_cli("topk", "--index", str(idx), "--query", "u0",
                                 "--method", "mcsp", "--epsilon", eps, "--verbose")
        assert code == EXIT_OK, err
        assert len(out.splitlines()) == 10
        assert json.loads(err)["phase_trace"]["forward"]["n_walks"] == 1
        code, out, err = run_cli("bench", "--index", str(idx), "--methods", "mcsp",
                                 "--epsilons", eps, "--queries", "3")
        assert code == EXIT_OK, err
        assert parse_tsv(out)[0]["n"] == 3

    @pytest.mark.parametrize("method", ["pisp"])
    def test_subnormal_epsilon_answers(self, index_dir, method):
        # 1 / 1e-310 overflows a float; the iteration depth must not
        _, _, idx, _ = index_dir
        code, out, err = run_cli("topk", "--index", str(idx), "--query", "u0",
                                 "--method", method, "--epsilon", "1e-310")
        assert code == EXIT_OK, err
        assert "Traceback" not in err
        scores = [float(line.split("\t")[1]) for line in out.splitlines()]
        assert len(scores) == 10 and all(math.isfinite(s) for s in scores)

    @pytest.mark.parametrize("eps", ["1e-20", "1e-200", "1e-310", "5e-324"])
    def test_epsilon_below_rounding_is_data_error(self, index_dir, eps):
        # ssbipush certifies its bound; where rounding keeps it above
        # epsilon, the query is refused, not answered uncertified, down to
        # the smallest subnormal, which it does not halve
        _, _, idx, _ = index_dir
        code, out, err = run_cli("topk", "--index", str(idx), "--query", "u0", "--epsilon", eps)
        assert code == EXIT_DATA
        assert out == ""
        assert "Traceback" not in err
        assert f"above epsilon {float(eps):g}: float64 rounding cannot certify" in err

    @pytest.mark.parametrize("method", ["ssbipush", "pisp"])
    def test_stale_index_is_data_error(self, index_dir, tmp_path, method):
        # metadata from one graph must not answer queries on another
        base, graph, idx, _ = index_dir
        other = tmp_path / "other"
        g2 = tmp_path / "g2.tsv"
        code, _, _ = run_cli(
            "synth", "--u-count", "40", "--v-count", "30", "--edge-count", "240",
            "--seed", "77", "--out", str(g2),
        )
        assert code == EXIT_OK
        code, _, _ = run_cli("preprocess", "--graph", str(g2), "--out-dir", str(other))
        assert code == EXIT_OK
        # swap in the wrong metadata
        (other / "meta.json").write_text((idx / "meta.json").read_text())
        code, _, err = run_cli("query", "--index", str(other), "--query", "u0", "--method", method)
        assert code == EXIT_DATA
        assert "match" in err
        assert "rebuild" in err
