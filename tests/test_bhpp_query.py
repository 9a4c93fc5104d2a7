"""Two-direction query assembly and index metadata."""

import hashlib
import importlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bipush import (
    BipartiteGraph,
    DataError,
    IndexMeta,
    bhpp_query,
    build_index_meta,
    load_meta,
    pi_push,
    pisp_query,
    save_meta,
    synth_bipartite,
    topk,
)
from conftest import random_bigraph
from oracle import exact_bhpp, exact_hpp, exact_hpp_solve

ALPHA = 0.15


class TestIndexMeta:
    def test_save_load_round_trip(self, tmp_path):
        g = synth_bipartite(30, 25, 150, seed=7)
        meta = build_index_meta(g)
        path = tmp_path / "meta.json"
        save_meta(meta, path)
        loaded = load_meta(path)
        assert loaded.alpha == meta.alpha
        assert loaded.graph_fingerprint == meta.graph_fingerprint
        # nothing a query can derive from the graph is stored
        assert set(json.loads(path.read_text())) == {
            "format_version", "alpha", "graph_fingerprint",
        }

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "meta.json"
        path.write_text("{\"format_version\": 99}")
        with pytest.raises(DataError):
            load_meta(path)
        path.write_text("not json")
        with pytest.raises(DataError):
            load_meta(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("alpha", 1.5),
            ("alpha", 0.0),
            ("alpha", float("nan")),
            ("graph_fingerprint", None),  # None removes the key
        ],
    )
    def test_load_rejects_invalid_values(self, tmp_path, key, value):
        path = tmp_path / "meta.json"
        save_meta(build_index_meta(synth_bipartite(20, 20, 100, seed=7)), path)
        payload = json.loads(path.read_text())
        if value is None:
            del payload[key]
        else:
            payload[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError):
            load_meta(path)

    @pytest.mark.parametrize("lam", [-1.0, 0.0, float("nan"), float("inf")])
    def test_load_ignores_a_legacy_lambda(self, tmp_path, lam):
        # older indexes stored a column-sum bound that queries no longer
        # read, so no value of it, not even one they once rejected, matters
        g = synth_bipartite(20, 20, 100, seed=7)
        meta = build_index_meta(g)
        path = tmp_path / "meta.json"
        save_meta(meta, path)
        payload = json.loads(path.read_text())
        payload["lambda"] = lam
        path.write_text(json.dumps(payload))
        assert load_meta(path) == meta

    def test_build_runs_no_power_iteration(self, monkeypatch):
        # the metadata is the restart probability and the fingerprint; no
        # probe of the walk is run to build it
        import bipush.push_engine as pe

        def refuse(*args, **kwargs):
            raise AssertionError("preprocess ran a power iteration")

        monkeypatch.setattr(pe, "power_iteration", refuse)
        monkeypatch.setattr(pe, "_two_hop", refuse)
        g = synth_bipartite(30, 25, 150, seed=7)
        assert build_index_meta(g, 0.3) == IndexMeta(alpha=0.3, graph_fingerprint=g.fingerprint)

    def test_fingerprint_mismatch_rejected(self):
        g = synth_bipartite(20, 20, 100, seed=8)
        other = synth_bipartite(20, 20, 100, seed=9)
        meta = build_index_meta(other)
        with pytest.raises(DataError, match="rebuild"):
            bhpp_query(g, meta, 0, 1e-3)


class TestBhppQuery:
    def test_scores_within_one_sided_epsilon(self):
        rng = np.random.default_rng(10)
        for _ in range(6):
            g = random_bigraph(rng, int(rng.integers(10, 60)), int(rng.integers(10, 60)), 3.5)
            meta = build_index_meta(g)
            ref = exact_hpp(g, ALPHA, tol=1e-14)
            q = int(rng.integers(0, g.u_count))
            truth = exact_bhpp(ref, q)
            for eps in (1e-2, 1e-4):
                res = bhpp_query(g, meta, q, eps)
                diff = truth - res.scores
                assert diff.min() >= -1e-10
                assert diff.max() <= eps + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 6.0, 300.0, 600.0]),
        st.sampled_from(["hub", "lightest", "random"]),
        st.sampled_from([1e-3, 1e-5, 1e-7]),
    )
    def test_matches_dense_solve_on_hubs_and_wide_weights(self, seed, decades, at, eps):
        # Skewed graphs queried at their widest hub, at their smallest weight
        # sum or at a random node, with per-edge weights spread over up to
        # 600 decades: the backward half multiplies forward scores by
        # ws_q / ws_i, up to about 1e308 where the graph accepts the range.
        rng = np.random.default_rng(seed)
        u_count, v_count = (int(n) for n in rng.integers(5, 80, 2))
        edges = int(rng.integers(max(u_count, v_count), min(u_count * v_count, 4 * max(u_count, v_count)) + 1))
        g = synth_bipartite(u_count, v_count, edges, (1.0, 10.0), float(rng.uniform(1.0, 2.5)), seed)
        w = g.u_adj.data * 10.0 ** rng.uniform(-decades / 2, decades / 2, g.edge_count)
        try:
            g = BipartiteGraph(g.u_labels, g.v_labels, np.repeat(np.arange(g.u_count), g.deg_u), g.u_adj.indices, w)
        except DataError:
            assume(False)  # a weight-sum ratio past the float64 range
        q = {"hub": int(np.argmax(g.deg_u)), "lightest": int(np.argmin(g.ws_u)),
             "random": int(rng.integers(0, g.u_count))}[at]
        res = bhpp_query(g, build_index_meta(g), q, eps)
        pi = exact_hpp_solve(g, ALPHA)
        diff = pi[q, :] + pi[:, q] - res.scores
        assert diff.min() >= -1e-12
        assert diff.max() <= eps + 1e-12
        back, fwd = res.phase_trace["backward"], res.phase_trace["forward"]
        assert back["residue_bound"] + fwd["residue_bound"] <= res.epsilon

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 3),
        st.sampled_from([0.0, 30.0, 300.0]),
        st.sampled_from(["hub", "random"]),
        st.sampled_from([1e-4, 1e-6]),
    )
    def test_signed_residuals_keep_the_guarantee(self, seed, parts, decades, at, eps):
        # One to three skewed components, queried at their widest hub or at
        # random, with per-edge weights spread over up to 300 decades, at an
        # epsilon where conjugate-gradient steps run: their residuals take
        # both signs, the floor of their bracket can be negative, and the
        # scores still stay finite, nonnegative and within eps below the
        # truth, under a bound that is at most eps.
        rng = np.random.default_rng(seed)
        g = _disjoint_union([
            synth_bipartite(int(u), int(v), int(2 * max(u, v)), (1.0, 10.0), float(rng.uniform(1.0, 2.5)),
                            seed + k)
            for k, (u, v) in enumerate(rng.integers(4, 40, (parts, 2)))
        ])
        w = g.u_adj.data * 10.0 ** rng.uniform(-decades / 2, decades / 2, g.edge_count)
        try:
            g = BipartiteGraph(g.u_labels, g.v_labels, np.repeat(np.arange(g.u_count), g.deg_u), g.u_adj.indices, w)
        except DataError:
            assume(False)  # a weight-sum ratio past the float64 range
        q = int(np.argmax(g.deg_u)) if at == "hub" else int(rng.integers(0, g.u_count))
        res = bhpp_query(g, build_index_meta(g), q, eps)
        fwd, back = res.phase_trace["forward"], res.phase_trace["backward"]
        assume(fwd["power_iterations"] > 0)
        pi = exact_hpp_solve(g, ALPHA)
        diff = pi[q, :] + pi[:, q] - res.scores
        assert np.isfinite(res.scores).all() and res.scores.min() >= 0.0
        assert diff.min() >= -1e-12
        assert diff.max() <= eps + 1e-12
        assert fwd["residue_bound"] + back["residue_bound"] <= eps

    @pytest.mark.parametrize("eps", [1e-20, 1e-200, 1e-310, 5e-324])
    def test_epsilon_below_rounding_is_data_error(self, eps):
        # Rounding stops this graph's finish near 1e-19; a query asked for
        # less refuses instead of answering with a bound above epsilon, down
        # to the smallest subnormal, which the kernel takes whole.
        g = synth_bipartite(40, 30, 240, seed=5)
        with pytest.raises(DataError, match=rf"^query 'u0' is certified only to \S+, above epsilon {eps:g}: "):
            bhpp_query(g, build_index_meta(g), "u0", eps)

    def test_label_and_index_queries_agree(self):
        g = synth_bipartite(25, 20, 120, seed=11)
        meta = build_index_meta(g)
        by_idx = bhpp_query(g, meta, 3, 1e-4)
        by_label = bhpp_query(g, meta, g.u_labels[3], 1e-4)
        np.testing.assert_array_equal(by_idx.scores, by_label.scores)
        assert by_idx.query_index == by_label.query_index == 3

    def test_scores_decompose_into_directions(self):
        # the reported vector is exactly the forward scores plus their
        # reflection, the backward scores ws_q / ws_i times the forward ones
        g = synth_bipartite(40, 30, 250, seed=12)
        meta = build_index_meta(g)
        eps = 1e-4
        res = bhpp_query(g, meta, 5, eps)
        fwd = pi_push(g, 5, meta.alpha, eps)
        np.testing.assert_array_equal(res.scores, fwd.scores * (1.0 + g.ws_u[5] / g.ws_u))
        assert res.phase_trace["backward"]["residue_bound"] == fwd.phase_trace["backward_bound"]
        assert res.phase_trace["backward"]["n_p"] == 0

    def test_trace_and_timing_shape(self):
        g = synth_bipartite(20, 20, 100, seed=13)
        meta = build_index_meta(g)
        res = bhpp_query(g, meta, 0, 1e-3)
        assert res.method == "ssbipush"
        # one kernel runs, timed as the forward phase
        assert set(res.timing) == {"forward", "total"}
        assert res.timing["total"] == res.timing["forward"] >= 0.0
        for side in ("backward", "forward"):
            tr = res.phase_trace[side]
            assert "terminated_by" in tr and "n_p" in tr

    @pytest.mark.parametrize("eps", [0.0, -1e-3])
    def test_nonpositive_epsilon_rejected(self, eps):
        g = synth_bipartite(15, 15, 60, seed=14)
        with pytest.raises(ValueError, match="must be positive"):
            bhpp_query(g, build_index_meta(g), 0, eps)

    def test_non_finite_scores_rejected(self, monkeypatch):
        # the postcondition backs up the weight-range check in the graph;
        # the package exports a function of the same name as this module
        mod = importlib.import_module("bipush.bhpp_query")

        real_pi_push = mod.pi_push

        def nan_pi_push(*args, **kwargs):
            out = real_pi_push(*args, **kwargs)
            out.scores[1] = np.nan
            return out

        g = synth_bipartite(15, 15, 60, seed=16)
        meta = build_index_meta(g)
        monkeypatch.setattr(mod, "pi_push", nan_pi_push)
        with pytest.raises(DataError, match="non-finite"):
            bhpp_query(g, meta, 0, 1e-3)

    def test_round_hook_sees_one_phase(self):
        # one kernel answers a query: its rounds are all forward-selective
        g = synth_bipartite(30, 30, 200, seed=15)
        meta = build_index_meta(g)
        phases = []
        res = bhpp_query(g, meta, 0, 1e-5, round_hook=lambda ph, r, led: phases.append(ph))
        assert phases == ["forward-selective"] * res.phase_trace["forward"]["selective_rounds"]
        assert phases

    def test_threaded_queries_match_serial(self):
        # four threads share one cold graph: nothing is built lazily on the
        # kernel path, so their results equal a serial run's bit for bit
        buf = synth_bipartite(400, 300, 4000, (0, 10), degree_skew=1.0, seed=8).to_bytes()
        meta = build_index_meta(BipartiteGraph.from_bytes(buf))
        sources = list(range(0, 400, 25))

        def run(g, source):
            r = bhpp_query(g, meta, source, 1e-4)
            return r.scores, r.phase_trace

        serial_graph = BipartiteGraph.from_bytes(buf)
        serial = [run(serial_graph, s) for s in sources]
        g = BipartiteGraph.from_bytes(buf)
        keys = set(vars(g))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(lambda s: run(g, s), sources, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert set(vars(g)) - keys <= {"fingerprint"}
        for (s1, t1), (s2, t2) in zip(serial, threaded):
            assert s1.tobytes() == s2.tobytes()
            assert t1 == t2


# sha256 over the scores and phase_trace of the bhpp_query answers in
# TestBitIdentity, and over those of pisp_query on the same queries. A change
# that moves any of them re-pins its value and says why in CHANGES.md.
PINNED_DIGEST = "a1ba9890b9081d1a743488693bb651d2690a1b4fba5db7f6f2d30f904e10347d"
PINNED_PISP_DIGEST = "093d5ff6eddb0d979435a536efe408688a8beb01eb0cfca0bb144ffd8473ea64"


# sha256 over the scores and phase_trace of bhpp_query on a graph with two
# components, the trace's tail_floor left out. A change that moves it
# re-pins its value and says why in CHANGES.md.
PINNED_TWO_COMPONENT_DIGEST = "fd45be4878229aaec82222d70759f693c053187f206b58c8b5c4e44620f26a29"


def _disjoint_union(graphs):
    """One graph whose components are the given graphs, labels prefixed by
    their position."""
    u_labels, v_labels, eu, ev, w = [], [], [], [], []
    for k, g in enumerate(graphs):
        eu.append(np.repeat(np.arange(g.u_count), g.deg_u) + len(u_labels))
        ev.append(g.u_adj.indices + len(v_labels))
        w.append(g.u_adj.data)
        u_labels += [f"{k}.{label}" for label in g.u_labels]
        v_labels += [f"{k}.{label}" for label in g.v_labels]
    return BipartiteGraph(u_labels, v_labels, np.concatenate(eu), np.concatenate(ev), np.concatenate(w))


def _two_component_graph():
    """The uniform graph of _pinned_queries plus one isolated edge."""
    g = synth_bipartite(400, 300, 4000, (0.0, 10.0), seed=21)
    eu = np.append(np.repeat(np.arange(g.u_count), g.deg_u), g.u_count)
    ev = np.append(g.u_adj.indices, g.v_count)
    return BipartiteGraph([*g.u_labels, "iso"], [*g.v_labels, "iso_v"], eu, ev, np.append(g.u_adj.data, 1.0))


def _pinned_queries():
    """(graph, meta, query, epsilon) on a uniform and a skew-1.2 graph."""
    for skew, extra in ((None, [(1, 1e-1)]), (1.2, [])):
        g = synth_bipartite(400, 300, 4000, (0.0, 10.0), degree_skew=skew, seed=21)
        meta = build_index_meta(g)
        for q, eps in extra + [(q, e) for q in (1, 7, 99) for e in (1e-2, 1e-4, 1e-6)]:
            yield g, meta, q, eps


class TestBitIdentity:
    def test_scores_and_traces_are_pinned(self):
        h = hashlib.sha256()
        for g, meta, q, eps in _pinned_queries():
            r = bhpp_query(g, meta, q, eps)
            h.update(r.scores.tobytes())
            h.update(json.dumps(r.phase_trace, sort_keys=True).encode())
        assert h.hexdigest() == PINNED_DIGEST

    def test_floor_is_zero_on_a_graph_with_two_components(self):
        # The isolated edge holds no residue and no residual, so the floor
        # credited is 0 where the finish runs no conjugate-gradient step and
        # at most 0 where it does, every answer included, the isolated
        # node's own; without it the same graph credits a positive floor
        g = _two_component_graph()
        meta = build_index_meta(g)
        h = hashlib.sha256()
        for q in (1, 7, 99, 400):
            for eps in (1e-2, 1e-4, 1e-6):
                r = bhpp_query(g, meta, q, eps)
                fwd = r.phase_trace["forward"]
                floor = fwd.pop("tail_floor")
                assert floor == 0.0 if fwd["power_iterations"] == 0 else floor <= 0.0
                h.update(r.scores.tobytes())
                h.update(json.dumps(r.phase_trace, sort_keys=True).encode())
        assert h.hexdigest() == PINNED_TWO_COMPONENT_DIGEST
        connected = synth_bipartite(400, 300, 4000, (0.0, 10.0), seed=21)
        r = bhpp_query(connected, build_index_meta(connected), 1, 1e-6)
        assert r.phase_trace["forward"]["tail_floor"] > 0.0

    def test_pisp_scores_and_traces_are_pinned(self):
        # pisp's backward half runs the same rounds and push primitive
        h = hashlib.sha256()
        for g, meta, q, eps in _pinned_queries():
            r = pisp_query(g, q, meta.alpha, eps)
            h.update(r.scores.tobytes())
            h.update(json.dumps(r.phase_trace, sort_keys=True).encode())
        assert h.hexdigest() == PINNED_PISP_DIGEST


class TestTopk:
    def test_orders_by_score_descending(self):
        g = synth_bipartite(30, 25, 150, seed=16)
        meta = build_index_meta(g)
        res = bhpp_query(g, meta, 2, 1e-5)
        pairs = topk(res, 5)
        scores = [s for _, s in pairs]
        assert scores == sorted(scores, reverse=True)
        assert pairs[0][0] == g.u_labels[2]  # self similarity dominates

    def test_exclude_query_drops_self(self):
        g = synth_bipartite(30, 25, 150, seed=16)
        meta = build_index_meta(g)
        res = bhpp_query(g, meta, 2, 1e-5)
        labels = [lab for lab, _ in topk(res, 5, exclude_query=True)]
        assert g.u_labels[2] not in labels
        assert len(labels) == 5

    def test_ties_break_by_index_stably(self):
        from bipush import QueryResult

        res = QueryResult(
            method="x",
            query_index=0,
            scores=np.array([0.5, 0.25, 0.25, 0.25]),
            epsilon=1e-3,
            timing={},
            phase_trace={},
            u_labels=["a", "b", "c", "d"],
        )
        assert [lab for lab, _ in topk(res, 4)] == ["a", "b", "c", "d"]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1e-300, 1.0, float("nan")]),
                 min_size=1, max_size=30),
        st.data(),
        st.booleans(),
    )
    def test_selection_matches_a_full_stable_sort(self, values, data, exclude_query):
        # heavy ties at the cut, k past |U| and NaNs included
        from bipush import QueryResult

        scores = np.array(values)
        n = scores.size
        k = data.draw(st.integers(1, n + 2))
        q = data.draw(st.integers(0, n - 1))
        res = QueryResult("x", q, scores, 1e-3, {}, {}, None)
        order = np.argsort(-scores, kind="stable")
        if exclude_query:
            order = order[order != q]
        want = [str(i) for i in order[:k].tolist()]
        got = topk(res, k, exclude_query)
        assert [lab for lab, _ in got] == want
        np.testing.assert_array_equal([s for _, s in got], scores[order[:k]])

    def test_k_larger_than_graph_is_clipped(self):
        g = synth_bipartite(5, 5, 25, seed=17)
        meta = build_index_meta(g)
        res = bhpp_query(g, meta, 0, 1e-3)
        assert len(topk(res, 50)) == 5
