"""Graph construction, serialization, parsing, and synthesis."""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bipush import (
    BipartiteGraph,
    DataError,
    hidden_transition_entry,
    k_core_filter,
    load_edge_list,
    synth_bipartite,
)
from conftest import random_bigraph


class TestConstruction:
    def test_rejects_empty_sides(self):
        with pytest.raises(DataError):
            BipartiteGraph([], ["v1"], [], [], [])
        with pytest.raises(DataError):
            BipartiteGraph(["u1"], [], [], [], [])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(DataError):
            BipartiteGraph(["a", "a"], ["v1"], [0, 1], [0, 0], [1.0, 1.0])

    def test_rejects_label_on_both_sides(self):
        with pytest.raises(DataError):
            BipartiteGraph(["x"], ["x"], [0], [0], [1.0])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(DataError):
            BipartiteGraph(["u1"], ["v1"], [0, 0], [0, 0], [1.0, 2.0])
        # the repeated pair is not adjacent in input order
        with pytest.raises(DataError):
            BipartiteGraph(["u1", "u2"], ["v1", "v2"], [0, 1, 0], [0, 1, 0], [1.0, 1.0, 2.0])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(DataError):
            BipartiteGraph(["u1", "u2"], ["v1"], [0, 1], [0, 0], [1.0, 0.0])
        with pytest.raises(DataError):
            BipartiteGraph(["u1", "u2"], ["v1"], [0, 1], [0, 0], [1.0, -2.0])

    def test_rejects_isolated_node(self):
        with pytest.raises(DataError):
            BipartiteGraph(["u1", "u2"], ["v1"], [0], [0], [1.0])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(DataError):
            BipartiteGraph(["u1"], ["v1"], [1], [0], [1.0])

    def test_edge_order_does_not_change_the_graph(self):
        rng = np.random.default_rng(5)
        g = random_bigraph(rng, 20, 15, 4.0)
        eu = np.repeat(np.arange(g.u_count), np.diff(g.u_indptr))
        perm = rng.permutation(g.edge_count)
        shuffled = BipartiteGraph(
            list(g.u_labels),
            list(g.v_labels),
            eu[perm],
            g.u_indices[perm],
            g.u_weights[perm],
        )
        assert shuffled.fingerprint == g.fingerprint

    def test_from_edges_merges_duplicate_pairs(self):
        g = BipartiteGraph.from_edges(
            ["u1", "u2"],
            ["v1"],
            [(0, 0, 1.0), (0, 0, 2.5), (1, 0, 1.0)],
        )
        assert g.edge_count == 2
        assert g.ws_u[g.u_id("u1")] == pytest.approx(3.5)

    def test_label_lookup(self, g3):
        assert g3.u_id("u2") == 1
        assert g3.v_id("v1") == 0
        with pytest.raises(DataError):
            g3.u_id("v1")
        with pytest.raises(DataError):
            g3.v_id("zzz")


class TestDerivedMatrices:
    def test_steps_are_row_stochastic(self):
        rng = np.random.default_rng(11)
        g = random_bigraph(rng, 40, 30, 5.0)
        np.testing.assert_allclose(g.v_recv.T.sum(axis=1).A1, 1.0, atol=1e-12)
        np.testing.assert_allclose(g.u_recv.T.sum(axis=1).A1, 1.0, atol=1e-12)

    def test_receiver_normalized_slots(self):
        rng = np.random.default_rng(12)
        g = random_bigraph(rng, 25, 20, 4.0)
        # u_recv.data[slot] is the V-side receiving share w / ws(v) for that edge
        np.testing.assert_allclose(
            g.u_recv.data, g.u_weights / g.ws_v[g.u_indices], atol=0
        )
        np.testing.assert_allclose(
            g.v_recv.data, g.v_weights / g.ws_u[g.v_indices], atol=0
        )

    def test_matrices_reuse_the_graph_arrays(self):
        rng = np.random.default_rng(14)
        g = random_bigraph(rng, 25, 20, 4.0)
        assert np.shares_memory(g.u_recv.indices, g.u_indices)
        assert np.shares_memory(g.v_recv.indices, g.v_indices)
        np.testing.assert_array_equal(g.u_recv.indptr, g.u_indptr)
        np.testing.assert_array_equal(g.v_recv.indptr, g.v_indptr)

    def test_hidden_transition_matches_dense_product(self, g3):
        dense = (g3.v_recv.T @ g3.u_recv.T).toarray()
        expect = np.array([[0.75, 0.25], [0.5, 0.5]])
        np.testing.assert_allclose(dense, expect, atol=1e-15)
        for i in range(2):
            for j in range(2):
                assert hidden_transition_entry(g3, i, j) == pytest.approx(
                    expect[i, j], abs=1e-15
                )

    def test_hidden_transition_detailed_balance(self):
        # P(ui,uj) ws(ui) = P(uj,ui) ws(uj): shared mass is symmetric
        rng = np.random.default_rng(13)
        g = random_bigraph(rng, 15, 12, 3.0)
        for _ in range(30):
            i, j = rng.integers(0, g.u_count, size=2)
            lhs = hidden_transition_entry(g, int(i), int(j)) * g.ws_u[i]
            rhs = hidden_transition_entry(g, int(j), int(i)) * g.ws_u[j]
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


class TestSerialization:
    def test_round_trip_preserves_everything(self):
        rng = np.random.default_rng(21)
        g = random_bigraph(rng, 30, 25, 4.0)
        h = BipartiteGraph.from_bytes(g.to_bytes())
        assert h.u_labels == g.u_labels
        assert h.v_labels == g.v_labels
        np.testing.assert_array_equal(h.u_indptr, g.u_indptr)
        np.testing.assert_array_equal(h.u_indices, g.u_indices)
        np.testing.assert_array_equal(h.u_weights, g.u_weights)
        assert h.fingerprint == g.fingerprint

    def test_save_load_file(self, tmp_path, g3):
        path = tmp_path / "g.bin"
        g3.save(path)
        assert BipartiteGraph.load(path).fingerprint == g3.fingerprint

    def test_bad_magic_rejected(self, g2):
        buf = bytearray(g2.to_bytes())
        buf[:4] = b"NOPE"
        with pytest.raises(DataError):
            BipartiteGraph.from_bytes(bytes(buf))

    def test_truncation_rejected(self, g2):
        buf = g2.to_bytes()
        with pytest.raises(DataError):
            BipartiteGraph.from_bytes(buf[: len(buf) - 3])

    def test_trailing_garbage_rejected(self, g2):
        with pytest.raises(DataError):
            BipartiteGraph.from_bytes(g2.to_bytes() + b"\x00")

    @pytest.mark.parametrize("offset", [8, 16, 24], ids=["u_count", "v_count", "edge_count"])
    @pytest.mark.parametrize("count", [2**63, 2**64 - 1])
    def test_oversized_header_count_rejected(self, g2, offset, count):
        buf = bytearray(g2.to_bytes())
        buf[offset : offset + 8] = count.to_bytes(8, "little")
        with pytest.raises(DataError):
            BipartiteGraph.from_bytes(bytes(buf))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_random(self, seed):
        rng = np.random.default_rng(seed)
        g = random_bigraph(rng, int(rng.integers(2, 12)), int(rng.integers(2, 12)), 2.0)
        assert BipartiteGraph.from_bytes(g.to_bytes()).fingerprint == g.fingerprint


class TestEdgeListParsing:
    def test_parses_comments_and_blank_lines(self):
        text = "# header\n\nu1 v1 2.0\nu2 v1 1.5\n"
        g = load_edge_list(io.StringIO(text))
        assert g.u_count == 2 and g.v_count == 1
        assert g.ws_v[0] == pytest.approx(3.5)

    def test_delimiter_and_default_weight(self):
        g = load_edge_list(io.StringIO("a,b\nc,b\n"), delimiter=",", default_weight=2.0)
        assert g.edge_count == 2
        assert g.ws_v[g.v_id("b")] == pytest.approx(4.0)

    def test_two_columns_without_default_weight_fails(self):
        with pytest.raises(DataError, match="line 1"):
            load_edge_list(io.StringIO("a b\n"))

    def test_bad_weight_names_line(self):
        with pytest.raises(DataError, match="line 2"):
            load_edge_list(io.StringIO("a b 1.0\na c oops\n"))

    def test_label_on_both_sides_names_line(self):
        with pytest.raises(DataError, match="line 2"):
            load_edge_list(io.StringIO("a b 1.0\nb a 1.0\n"))

    def test_reads_path_and_binary_handle(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("u1\tv1\t1.0\nu2\tv1\t3.0\n")
        from_path = load_edge_list(p)
        with open(p, "rb") as fh:
            from_handle = load_edge_list(fh)
        assert from_path.fingerprint == from_handle.fingerprint


class TestKCore:
    def test_peels_below_threshold(self):
        # u3 and v3 hang off the 2-core by a single edge each
        g = BipartiteGraph(
            ["u1", "u2", "u3"],
            ["v1", "v2", "v3"],
            [0, 0, 1, 1, 2, 0],
            [0, 1, 0, 1, 0, 2],
            [1.0] * 6,
        )
        core = k_core_filter(g, 2)
        assert sorted(core.u_labels) == ["u1", "u2"]
        assert sorted(core.v_labels) == ["v1", "v2"]
        assert core.edge_count == 4

    def test_k1_returns_graph_unchanged(self, g3):
        assert k_core_filter(g3, 1) is g3

    def test_empty_core_raises(self, g2):
        with pytest.raises(DataError, match="k-core is empty"):
            k_core_filter(g2, 3)

    def test_matches_iterative_reference(self):
        rng = np.random.default_rng(31)
        g = random_bigraph(rng, 30, 30, 3.0)
        core = k_core_filter(g, 2)
        # reference: peel sets until stable
        eu = np.repeat(np.arange(g.u_count), np.diff(g.u_indptr))
        edges = {(int(a), int(b)) for a, b in zip(eu, g.u_indices)}
        while True:
            du = {}
            dv = {}
            for a, b in edges:
                du[a] = du.get(a, 0) + 1
                dv[b] = dv.get(b, 0) + 1
            drop_u = {a for a, d in du.items() if d < 2}
            drop_v = {b for b, d in dv.items() if d < 2}
            if not drop_u and not drop_v:
                break
            edges = {
                (a, b) for a, b in edges if a not in drop_u and b not in drop_v
            }
        kept_u = sorted({g.u_labels[a] for a, _ in edges})
        assert sorted(core.u_labels) == kept_u
        assert core.edge_count == len(edges)


class TestSynth:
    def test_deterministic_and_well_formed(self):
        a = synth_bipartite(50, 40, 300, (0.0, 10.0), seed=9)
        b = synth_bipartite(50, 40, 300, (0.0, 10.0), seed=9)
        assert a.fingerprint == b.fingerprint
        assert a.edge_count == 300
        assert a.u_weights.min() > 0.0
        assert a.u_weights.max() <= 10.0

    def test_different_seeds_differ(self):
        a = synth_bipartite(50, 40, 300, seed=1)
        b = synth_bipartite(50, 40, 300, seed=2)
        assert a.fingerprint != b.fingerprint

    def test_dense_request_is_exactly_filled(self):
        g = synth_bipartite(6, 5, 30, seed=3)
        assert g.edge_count == 30  # complete bipartite graph

    def test_skew_changes_degree_spread(self):
        flat = synth_bipartite(200, 200, 2000, seed=4)
        skew = synth_bipartite(200, 200, 2000, degree_skew=2.0, seed=4)
        assert skew.deg_u.max() > flat.deg_u.max()

    def test_too_many_edges_rejected(self):
        with pytest.raises(DataError):
            synth_bipartite(3, 3, 10, seed=0)
