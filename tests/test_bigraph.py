"""Graph construction, serialization, parsing, and synthesis."""

import gc
import hashlib
import io
import itertools
import re
import struct
import tracemalloc
from collections.abc import Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bipush.bigraph as bigraph
import bipush.push_engine as pe
from bipush import (
    BipartiteGraph,
    DataError,
    bhpp_query,
    build_index_meta,
    k_core_filter,
    load_edge_list,
    synth_bipartite,
)
from bipush.csr import CsrView
from conftest import random_bigraph, scipy_adj


def hidden_transition_entry(g: BipartiteGraph, ui: int, uj: int) -> float:
    """One entry of the implicit U-to-U two-hop transition matrix: over the
    V nodes adjacent to both ui and uj, the probability of stepping
    ui -> v -> uj with both hops weight-proportional."""
    a0, a1 = g.u_indptr[ui], g.u_indptr[ui + 1]
    b0, b1 = g.u_indptr[uj], g.u_indptr[uj + 1]
    total = 0.0
    i, j = a0, b0
    while i < a1 and j < b1:
        vi, vj = g.u_indices[i], g.u_indices[j]
        if vi < vj:
            i += 1
        elif vi > vj:
            j += 1
        else:
            total += (g.u_weights[i] / g.ws_u[ui]) * (g.u_weights[j] / g.ws_v[vi])
            i += 1
            j += 1
    return float(total)


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
        # the cache's row check rejects it, as it would in a loaded file
        with pytest.raises(DataError, match="repeat an edge"):
            BipartiteGraph(["u1"], ["v1"], [0, 0], [0, 0], [1.0, 2.0])
        # the repeated pair is not adjacent in input order
        with pytest.raises(DataError, match="repeat an edge"):
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

    def test_rejects_unscorable_weight_range(self):
        # weight sums 1e-300 and 1e300 on one side: their ratio overflows and
        # the forward kernel would return NaN scores
        with pytest.raises(DataError, match="range"):
            BipartiteGraph(
                ["a", "b", "c"], ["x", "y"], [0, 1, 1, 2], [0, 0, 1, 1],
                [1e-300, 1.0, 1e300, 1.0],
            )

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

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_weight_sums_are_bincounts_over_300_decades(self, seed):
        # Each sum adds its row's weights left to right from 0.0, bit for bit
        # as np.bincount over the edges' row ids, however wide the spread.
        rng = np.random.default_rng(seed)
        shape = random_bigraph(rng, int(rng.integers(2, 15)), int(rng.integers(1, 15)), 4.0)
        eu = np.repeat(np.arange(shape.u_count), shape.deg_u)
        w = 10.0 ** rng.uniform(-150.0, 150.0, shape.edge_count)
        w[[0, -1]] = 1e-150, 1e150
        g = BipartiteGraph(shape.u_labels, shape.v_labels, eu, shape.u_indices, w)
        for h in (g, BipartiteGraph.from_bytes(g.to_bytes())):
            for ws, rows, n in ((h.ws_u, eu, h.u_count), (h.ws_v, h.u_indices, h.v_count)):
                expect = np.bincount(rows, weights=h.u_weights, minlength=n)
                assert ws.dtype == expect.dtype and ws.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("triples", [
        [(1, 0, 1.0), (0, 1, 1.0)],
        [(0, 0, 1.0), (1, 0, 1.0), (0, 1, 1.0)],
    ])
    def test_from_edges_keeps_out_of_range_pairs_apart(self, triples):
        # (1, 0) and (0, 1) share the key u*|V|+v = 1 for |V| = 1; merging on
        # it would hide the out-of-range V index from the range check
        with pytest.raises(DataError, match="out of range"):
            BipartiteGraph.from_edges(["a", "b"], ["x"], triples)

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
        np.testing.assert_allclose(scipy_adj(g, "u").sum(axis=1).A1 / g.ws_u, 1.0, atol=1e-12)
        np.testing.assert_allclose(scipy_adj(g, "v").sum(axis=1).A1 / g.ws_v, 1.0, atol=1e-12)

    def test_receiver_normalized_slots(self, monkeypatch):
        # pushing unit mass from one row hands each receiver its share
        # w / ws(receiver) of that edge, on both push paths, whether the row
        # is masked in or is the one positive residue
        rng = np.random.default_rng(12)
        g = random_bigraph(rng, 25, 20, 4.0)
        for limit in (10.0, -1.0):  # always scatter, always mat-vec
            monkeypatch.setattr(pe, "_SCATTER_LIMIT", limit)
            for mat, mat_t, deg, ws in ((g.u_adj, g.v_adj, g.deg_u, g.ws_v),
                                        (g.v_adj, g.u_adj, g.deg_v, g.ws_u)):
                for row, mask in itertools.product(range(mat.shape[0]), (False, True)):
                    r = np.full(mat.shape[0], 0.5 if mask else 0.0)
                    r[row] = 1.0
                    out = np.zeros(mat.shape[1])
                    n_p, rows, pushed = pe._push_rows(mat, mat_t, deg, r, out, 1.0, ws,
                                                      r > 0.5 if mask else None)
                    # taking the pushed amounts off r clears the row alone
                    assert n_p == deg[row]
                    left = r.copy()
                    left[rows] -= pushed
                    r[row] = 0.0
                    np.testing.assert_array_equal(left, r)
                    nbrs = mat.indices[mat.indptr[row] : mat.indptr[row + 1]]
                    expect = np.zeros(mat.shape[1])
                    expect[nbrs] = mat.data[mat.indptr[row] : mat.indptr[row + 1]] / ws[nbrs]
                    np.testing.assert_allclose(out, expect, atol=0)

    def test_v_side_is_the_sorted_transpose(self):
        # reference: the U-side edges re-sorted by (v, u)
        rng = np.random.default_rng(15)
        g = random_bigraph(rng, 30, 25, 4.0)
        eu = np.repeat(np.arange(g.u_count), g.deg_u)
        order = np.lexsort((eu, g.u_indices))
        expect_indptr = np.concatenate(([0], np.cumsum(np.bincount(g.u_indices))))
        for got, expect in (
            (g.v_indptr, expect_indptr),
            (g.v_indices, eu[order].astype(np.int32)),
            (g.v_weights, g.u_weights[order]),
        ):
            assert got.dtype == expect.dtype
            assert got.tobytes() == expect.tobytes()

    def test_matrices_reuse_the_graph_arrays(self):
        rng = np.random.default_rng(14)
        g = random_bigraph(rng, 25, 20, 4.0)
        assert np.shares_memory(g.u_adj.data, g.u_weights)
        assert np.shares_memory(g.v_adj.data, g.v_weights)
        assert np.shares_memory(g.u_adj.indices, g.u_indices)
        assert np.shares_memory(g.v_adj.indices, g.v_indices)
        np.testing.assert_array_equal(g.u_adj.indptr, g.u_indptr)
        np.testing.assert_array_equal(g.v_adj.indptr, g.v_indptr)

    @pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
    def test_only_two_edge_length_float_buffers(self, loaded):
        # the weights are stored once per side; no query adds a normalized copy
        rng = np.random.default_rng(16)
        g = random_bigraph(rng, 30, 25, 4.0)
        if loaded:
            g = BipartiteGraph.from_bytes(g.to_bytes())
        bhpp_query(g, build_index_meta(g), 0, 1e-4)

        def root(a):
            while isinstance(a, np.ndarray) and a.base is not None:
                a = a.base
            return a

        arrays = [
            a for value in vars(g).values()
            for a in ((value.data, value.indices, value.indptr) if isinstance(value, CsrView) else (value,))
        ]
        buffers = {
            id(root(a)) for a in arrays
            if isinstance(a, np.ndarray) and a.dtype == np.float64 and a.size == g.edge_count
        }
        assert buffers == {id(root(g.u_weights)), id(root(g.v_weights))}

    def test_hidden_transition_matches_dense_product(self, g3):
        u_step = scipy_adj(g3, "u").toarray() / g3.ws_u[:, None]
        v_step = scipy_adj(g3, "v").toarray() / g3.ws_v[:, None]
        dense = u_step @ v_step
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

    @pytest.mark.parametrize("build, size, digest", [
        (lambda: synth_bipartite(50, 40, 300, (0.0, 5.0), degree_skew=1.0, seed=0), 5018,
         "b76897b4ae7ffec9be999b5dbea7a945d8c216f19e5049192f4fc7afc8d87587"),
        (lambda: BipartiteGraph(["é", "ü1", "𝔘"], ["v", "ß"], [0, 1, 2, 2, 0], [0, 1, 0, 1, 1],
                                [1.0, 2.5, 0.5, 3.0, 1e-3]), 184,
         "aa14d3e36d3bb60831307c8ec99c2c83876469387a24b46e29cdb826fe52e5f9"),
    ], ids=["synth", "multibyte-labels"])
    def test_cache_bytes_are_pinned(self, build, size, digest):
        # A round trip cannot see a layout change made alike in the writer
        # and the reader, and every meta.json holds a hash of these bytes.
        buf = build().to_bytes()
        assert (len(buf), hashlib.sha256(buf).hexdigest()) == (size, digest)

    def test_constructed_graph_is_views_into_its_cache(self, g3):
        buf = g3.to_bytes()
        h = BipartiteGraph.from_bytes(buf)
        assert set(vars(g3)) - {"fingerprint"} == set(vars(h)) - {"fingerprint"}
        data = np.frombuffer(buf, np.uint8)
        for g in (g3, h):
            for a in (g.u_weights, g.u_indptr, g.u_indices, g.u_labels.offsets):
                assert np.shares_memory(a, data) and not a.flags.writeable

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

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.text(max_size=4), min_size=4, max_size=24, unique=True),
    )
    def test_round_trip_is_exact(self, seed, names):
        rng = np.random.default_rng(seed)
        u_count = int(rng.integers(1, len(names)))
        shape = random_bigraph(rng, u_count, len(names) - u_count, 3.0)
        g = BipartiteGraph(
            names[:u_count],
            names[u_count:],
            np.repeat(np.arange(shape.u_count), shape.deg_u),
            shape.u_indices,
            shape.u_weights,
        )
        buf = g.to_bytes()
        h = BipartiteGraph.from_bytes(buf)
        assert h.to_bytes() == buf
        assert (h.u_labels, h.v_labels) == (g.u_labels, g.v_labels) == (names[:u_count], names[u_count:])
        assert [h.u_id(x) for x in names[:u_count]] == [g.u_id(x) for x in names[:u_count]] == list(range(u_count))
        assert [h.v_id(x) for x in names[u_count:]] == [g.v_id(x) for x in names[u_count:]] == list(
            range(len(names) - u_count))
        for name in (
            "u_indptr", "u_indices", "u_weights", "v_indptr", "v_indices",
            "v_weights", "ws_u", "ws_v", "deg_u", "deg_v",
        ):
            a, b = getattr(h, name), getattr(g, name)
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name

    def test_fingerprint_hashes_the_loaded_bytes(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(22)
        path = tmp_path / "g.bin"
        random_bigraph(rng, 30, 25, 4.0).save(path)
        buf = path.read_bytes()

        def refuse(self):
            raise AssertionError("a loaded graph must not re-serialize to hash")

        monkeypatch.setattr(BipartiteGraph, "to_bytes", refuse)
        digest = hashlib.sha256(buf).hexdigest()
        assert BipartiteGraph.load(path).fingerprint == digest
        assert BipartiteGraph.from_bytes(buf).fingerprint == digest

    def test_load_sorts_no_edges_and_reconstructs_nothing(self, monkeypatch):
        # The load sorts labels, to check and look them up, but no array as
        # long as the edges, and it never rebuilds the graph.
        g = synth_bipartite(30, 20, 400, (1.0, 2.0), seed=7)
        buf = g.to_bytes()
        sorted_sizes = []

        def refuse(*args, **kwargs):
            raise AssertionError("from_bytes must not call this")

        def recorded(sort):
            def checked(a, *args, **kwargs):
                sorted_sizes.append(np.size(a))
                return sort(a, *args, **kwargs)
            return checked

        monkeypatch.setattr(BipartiteGraph, "__init__", refuse)
        for name in ("lexsort", "unique"):
            monkeypatch.setattr(np, name, refuse)
        for name in ("sort", "argsort"):
            monkeypatch.setattr(np, name, recorded(getattr(np, name)))
        assert BipartiteGraph.from_bytes(buf).fingerprint == g.fingerprint
        assert sorted_sizes and max(sorted_sizes) <= g.u_count + g.v_count < g.edge_count

    def test_v1_cache_asks_for_preprocess(self, g2):
        buf = bytearray(g2.to_bytes())
        buf[4:8] = (1).to_bytes(4, "little")
        with pytest.raises(DataError, match="rerun `bipush preprocess`"):
            BipartiteGraph.from_bytes(bytes(buf))

    @pytest.mark.parametrize(
        "override",
        [
            {"indices": [1, 0, 0, 1]},
            {"indices": [0, 0, 0, 1]},
            {"indices": [0, 1, -1, 1]},
            {"indices": [0, 1, 0, 2]},
            {"indptr": [0, 5, 4]},
            {"weights": [1.0, float("nan"), 1.0, 1.0]},
            {"weights": [1.0, 0.0, 1.0, 1.0]},
            {"v_labels": ["v1", "v2", "v3"]},
            {"offsets": [0, 2, 1, 6, 8]},
            {"offsets": [0, 2, 4, 6, 9]},
            {"offsets": [0, 2, 4, 9, 8]},
            {"u_labels": ["u1", b"\xff\xfe"]},
            {"u_labels": ["u1", "u1"]},
            {"u_labels": ["v1", "u2"]},
            {"version": 1},
        ],
        ids=[
            "unsorted-row", "repeated-pair", "negative-index", "index-out-of-range",
            "indptr-decreases", "nan-weight", "zero-weight", "isolated-v-node",
            "offsets-decrease", "offsets-past-end", "offset-past-end-midway",
            "invalid-utf8", "duplicate-label", "label-on-both-sides", "v1-header",
        ],
    )
    def test_corrupt_v2_cache_rejected(self, override):
        # a well-formed cache for u1-{v1,v2}, u2-{v1,v2} is accepted
        BipartiteGraph.from_bytes(_v2_cache())
        with pytest.raises(DataError):
            BipartiteGraph.from_bytes(_v2_cache(**override))

    UNSORTED = "graph cache rows are unsorted or repeat an edge"

    @pytest.mark.parametrize(
        "case, message",
        [
            ("first-edge", UNSORTED),
            ("last-edge", UNSORTED),
            ("before-block-edge", UNSORTED),
            ("at-block-edge", UNSORTED),
            ("after-block-edge", UNSORTED),
            ("nan-last-weight", "edge weights must be positive and finite"),
            ("isolated-v-node", "isolated node on V side: 'v200'"),
        ],
    )
    def test_corrupt_cache_past_one_block_rejected(self, case, message):
        # Every U node joins all 200 V nodes, in rows of 200 edges, so no
        # row starts near the block edge; the cache spans three blocks.
        block = bigraph._BLOCK
        u_count = (2 * block) // 200 + 2
        fields = dict(
            u_labels=[f"u{i}" for i in range(u_count)],
            v_labels=[f"v{j}" for j in range(200)],
            indptr=np.arange(u_count + 1) * 200,
            indices=np.tile(np.arange(200), u_count),
            weights=np.random.default_rng(5).uniform(1.0, 2.0, 200 * u_count),
        )
        assert BipartiteGraph.from_bytes(_v2_cache(**fields)).edge_count > 2 * block
        # a step that repeats the edge before it, at the named edge
        at = {"first-edge": 1, "last-edge": fields["indices"].size - 1, "before-block-edge": block - 1,
              "at-block-edge": block, "after-block-edge": block + 1}.get(case)
        if at is not None:
            assert at % 200 != 0
            fields["indices"][at] = fields["indices"][at - 1]
        elif case == "nan-last-weight":
            fields["weights"][-1] = np.nan
        else:
            fields["v_labels"].append("v200")
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            BipartiteGraph.from_bytes(_v2_cache(**fields))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 7))
    def test_blocks_of_a_few_edges_change_nothing(self, seed, block):
        # With blocks of a few edges, rows and row starts fall across block
        # edges everywhere. Loading and building still give every array bit
        # for bit, the weight sums those of np.bincount over the edges, and
        # a repeated edge anywhere in a row is still found.
        rng = np.random.default_rng(seed)
        shape = random_bigraph(rng, int(rng.integers(1, 15)), int(rng.integers(1, 15)), 3.0)
        eu = np.repeat(np.arange(shape.u_count), shape.deg_u)
        w = 10.0 ** rng.uniform(-8.0, 8.0, shape.edge_count)
        g = BipartiteGraph(shape.u_labels, shape.v_labels, eu, shape.u_indices, w)
        buf = g.to_bytes()
        with mock.patch.object(bigraph, "_BLOCK", block):
            graphs = [
                BipartiteGraph.from_bytes(buf),
                BipartiteGraph(shape.u_labels, shape.v_labels, eu, shape.u_indices, w),
            ]
        expect = dict(
            ws_u=np.bincount(eu, weights=g.u_weights, minlength=g.u_count),
            ws_v=np.bincount(g.u_indices, weights=g.u_weights, minlength=g.v_count),
            deg_v=np.bincount(g.u_indices, minlength=g.v_count),
        )
        for h in graphs:
            for name in ("u_indptr", "u_indices", "u_weights", "v_indptr", "v_indices",
                         "v_weights", "ws_u", "ws_v", "deg_u", "deg_v"):
                a, b = getattr(h, name), getattr(g, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
                if name in expect:
                    assert a.tobytes() == expect[name].tobytes(), name

        inner = np.setdiff1d(np.arange(1, g.edge_count), g.u_indptr)
        if inner.size:
            at = int(rng.choice(inner))
            indices = g.u_indices.copy()
            indices[at] = indices[at - 1]
            bad = _v2_cache(g.u_labels, g.v_labels, g.u_indptr, indices, g.u_weights)
            with mock.patch.object(bigraph, "_BLOCK", block), pytest.raises(DataError, match=self.UNSORTED):
                BipartiteGraph.from_bytes(bad)


class TestBuildMemory:
    """Past the arrays a graph keeps, checking and deriving it allocates no
    more for four times the edges: its temporaries are block-sized."""

    @staticmethod
    def transient(run) -> int:
        """Bytes allocated at run()'s peak beyond those still held when it
        returns."""
        tracemalloc.start()
        try:
            kept = run()  # noqa: F841 -- held until the reading below
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - current

    @pytest.fixture(scope="class")
    def graphs(self):
        # the same 400 x 400 nodes; 20000 and 80000 edges, both past a block
        return [synth_bipartite(400, 400, edges, (1.0, 10.0), seed=3) for edges in (20000, 80000)]

    def assert_flat(self, extra, graphs):
        small, big = graphs
        assert min(g.edge_count for g in graphs) > bigraph._BLOCK
        # under one byte for each added edge; an edge-length temporary
        # costs at least one
        assert extra[1] - extra[0] < big.edge_count - small.edge_count, extra

    def test_load(self, graphs):
        bufs = [g.to_bytes() for g in graphs]
        self.assert_flat([self.transient(lambda: BipartiteGraph.from_bytes(b)) for b in bufs], graphs)

    def test_constructor_load(self, graphs, monkeypatch):
        # The constructor's own sort and packing need edge-length arrays;
        # the load it shares with from_bytes must not.
        load = BipartiteGraph._load
        extra = []

        def traced(g, buf):
            extra.append(self.transient(lambda: load(g, buf)))

        monkeypatch.setattr(BipartiteGraph, "_load", traced)
        for g in graphs:
            BipartiteGraph(g.u_labels, g.v_labels, np.repeat(np.arange(g.u_count), g.deg_u),
                           g.u_indices, g.u_weights)
        self.assert_flat(extra, graphs)

    def test_load_keeps_no_object_per_label(self):
        # one edge per node, so the labels are most of what a graph holds;
        # past the arrays derived from the edges and weight sums, the labels
        # may keep a few bytes each (their sorted order), not an object each
        g = synth_bipartite(20000, 20000, 20000, seed=3)
        buf = g.to_bytes()
        tracemalloc.start()
        try:
            h = BipartiteGraph.from_bytes(buf)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = [*vars(h).values(), *(getattr(adj, name) for adj in (h.u_adj, h.v_adj)
                                      for name in ("data", "indices", "indptr"))]
        owned = {id(a): a.nbytes for a in arrays if isinstance(a, np.ndarray) and a.base is None}
        labels = h.u_count + h.v_count
        assert held - sum(owned.values()) <= 8 * labels + 4096, (held, owned)

    def test_a_few_long_labels_keep_the_load_small(self):
        # three 1 MB labels that differ only in their last byte, and one on
        # the V side, among thousands of short ones: no label is padded to
        # the longest, and long ones are compared a few at a time
        long = "x" * (1 << 20)
        shape = synth_bipartite(3000, 3000, 6000, seed=4)
        u_labels = [*(long + c for c in "abc"), *(f"u{i}" for i in range(3, 3000))]
        v_labels = [long + "é", *(f"v{i}" for i in range(1, 3000))]
        buf = BipartiteGraph(u_labels, v_labels, np.repeat(np.arange(3000), shape.deg_u),
                             shape.u_indices, shape.u_weights).to_bytes()
        tracemalloc.start()
        try:
            g = BipartiteGraph.from_bytes(buf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.u_id(long + "b") == 1 and g.v_labels[0] == long + "é"
        assert peak < 1.5 * len(buf), (peak, len(buf))


def _v2_cache(
    u_labels=("u1", "u2"),
    v_labels=("v1", "v2"),
    indptr=(0, 2, 4),
    indices=(0, 1, 0, 1),
    weights=(1.0, 2.0, 3.0, 4.0),
    offsets=None,
    version=2,
):
    """A graph cache assembled field by field from the documented layout."""
    labels = [x if isinstance(x, bytes) else x.encode() for x in (*u_labels, *v_labels)]
    if offsets is None:
        offsets = np.concatenate(([0], np.cumsum([len(b) for b in labels])))
    return b"".join([
        struct.pack("<4sIQQQ", b"BPGR", version, len(u_labels), len(v_labels), len(indices)),
        np.asarray(weights, dtype="<f8").tobytes(),
        np.asarray(indptr, dtype="<i8").tobytes(),
        np.asarray(offsets, dtype="<i8").tobytes(),
        np.asarray(indices, dtype="<i4").tobytes(),
        *labels,
    ])


def _built(u_labels=("u1", "u2"), v_labels=("v1", "v2"), indptr=(0, 2, 4), indices=(0, 1, 0, 1),
           weights=(1.0, 2.0, 3.0, 4.0)):
    """The graph `_v2_cache` with the same fields describes, built by the
    constructor instead of loaded."""
    eu = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    return BipartiteGraph(list(u_labels), list(v_labels), eu, indices, weights)


class TestLabelErrors:
    """Every label check names the same fault in the same words, whether
    the graph is loaded from a cache or built from label lists."""

    BOTH = "label appears on both sides: "
    DUPLICATE = "duplicate node label within one side"

    @pytest.fixture(params=["cache", "constructor"])
    def build(self, request):
        if request.param == "cache":
            return lambda **fields: BipartiteGraph.from_bytes(_v2_cache(**fields))
        return _built

    @pytest.mark.parametrize("fields, message", [
        (dict(u_labels=["u1", "u1"]), DUPLICATE),
        (dict(v_labels=["v2", "v2"]), DUPLICATE),
        # a duplicate is named before a label on both sides
        (dict(u_labels=["x", "x"], v_labels=["v1", "x"]), DUPLICATE),
        (dict(u_labels=["v2", "u2"]), BOTH + "'v2'"),
        # the smallest shared label by code point, not by UTF-16 unit or length
        (dict(u_labels=["\U0001F600", "｡"], v_labels=["｡", "\U0001F600"]), BOTH + repr("｡")),
        (dict(u_labels=["b", "ab"], v_labels=["ab", "b"]), BOTH + "'ab'"),
        (dict(u_labels=["u1", "\x00"], v_labels=["\x00", "u1"]), BOTH + repr("\x00")),
        # a shared label is named before an isolated node
        (dict(v_labels=["v1", "u1", "v3"]), BOTH + "'u1'"),
        (dict(v_labels=["v1", "v2", "v3"]), "isolated node on V side: 'v3'"),
        (dict(indptr=(0, 4, 4), indices=(0, 1, 2, 3), v_labels=["v1", "v2", "v3", "v4"]),
         "isolated node on U side: 'u2'"),
        # weights are checked before labels
        (dict(u_labels=["u1", "u1"], weights=(1.0, float("nan"), 1.0, 1.0)),
         "edge weights must be positive and finite"),
    ], ids=["duplicate-u", "duplicate-v", "duplicate-before-shared", "shared", "shared-astral",
            "shared-longer-is-smaller", "shared-nul", "shared-before-isolated", "isolated-v",
            "isolated-u", "weights-before-labels"])
    def test_message(self, build, fields, message):
        with pytest.raises(DataError) as info:
            build(**fields)
        assert str(info.value) == message

    @pytest.mark.parametrize("fields, reason", [
        (dict(u_labels=["u1", b"\xff\xfe"]), "invalid start byte"),
        (dict(v_labels=["v1", b"v\xe2\x82"]), "unexpected end of data"),
        (dict(u_labels=[b"\xed\xa0\x80", "u2"]), "invalid continuation byte"),
        # the first bad label gives the reason
        (dict(u_labels=[b"u\xe2\x82", b"\xff"]), "unexpected end of data"),
        # label offsets that cut "é" in two: the blob alone is valid UTF-8
        (dict(u_labels=["ué", "u2"], offsets=[0, 2, 5, 7, 9]), "unexpected end of data"),
        (dict(u_labels=["ué", "u2"], offsets=[0, 2, 2, 7, 9]), "unexpected end of data"),
        # a bad label is found before bad weights
        (dict(u_labels=["u1", b"\xff"], weights=(1.0, float("nan"), 1.0, 1.0)), "invalid start byte"),
    ], ids=["invalid-start", "truncated", "surrogate", "first-bad-label", "offset-cuts-character",
            "offset-cuts-before-empty-label", "before-weights"])
    def test_cache_label_not_utf8(self, fields, reason):
        with pytest.raises(DataError) as info:
            BipartiteGraph.from_bytes(_v2_cache(**fields))
        assert str(info.value) == f"graph cache label is not valid UTF-8: {reason}"

    def test_trailing_nul_is_part_of_the_label(self, build):
        g = build(u_labels=["a", "a\x00"], v_labels=["\x00", ""])
        assert list(g.u_labels) == ["a", "a\x00"]
        assert list(g.v_labels) == ["\x00", ""]
        assert [g.u_id("a"), g.u_id("a\x00"), g.v_id("\x00"), g.v_id("")] == [0, 1, 0, 1]
        with pytest.raises(DataError) as info:
            g.u_id("a\x00\x00")
        assert str(info.value) == "unknown U-side label: 'a\\x00\\x00'"

    @pytest.mark.parametrize("side, label, message", [
        ("u", "zz", "unknown U-side label: 'zz'"),
        ("u", "v1", "unknown U-side label: 'v1'"),
        ("v", "u1", "unknown V-side label: 'u1'"),
        ("v", "", "unknown V-side label: ''"),
        ("u", 0, "unknown U-side label: 0"),
        ("u", b"u1", "unknown U-side label: b'u1'"),
        ("v", "v\ud800", "unknown V-side label: 'v\\ud800'"),
    ])
    def test_unknown_label(self, build, side, label, message):
        g = build()
        with pytest.raises(DataError) as info:
            (g.u_id if side == "u" else g.v_id)(label)
        assert str(info.value) == message

    @pytest.mark.parametrize("u_labels, v_labels, message", [
        (["a", 1], ["x"], "U-side label is not a string: 1"),
        (["a", "b"], [b"x"], "V-side label is not a string: b'x'"),
        (["a", "b\ud800"], ["x"], "U-side label cannot be encoded as UTF-8: 'b\\ud800'"),
        (["a", "b"], ["\udcff"], "V-side label cannot be encoded as UTF-8: '\\udcff'"),
    ], ids=["int-label", "bytes-label", "lone-surrogate-u", "lone-surrogate-v"])
    def test_constructor_rejects_labels_it_cannot_store(self, u_labels, v_labels, message):
        # such a graph used to build, then fail in fingerprint or save
        with pytest.raises(DataError) as info:
            BipartiteGraph(u_labels, v_labels, [0, 1], [0, 0], [1.0, 2.0])
        assert str(info.value) == message

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.text(alphabet="ab\x00é\U0001F600", max_size=10), min_size=2, max_size=40, unique=True),
           st.data(), st.sampled_from([5, 16, bigraph._CHUNK]))
    def test_matches_a_dict_and_set_reference(self, labels, data, chunk):
        # Short and long labels, with at most one label added again to
        # either side, against the checks as dicts and sets make them; a
        # small chunk splits the UTF-8 check inside characters and the label
        # compares into many pieces.
        u_count = data.draw(st.integers(1, len(labels) - 1))
        u, v = labels[:u_count], labels[u_count:]
        for again in data.draw(st.lists(st.sampled_from(labels), max_size=1)):
            side = data.draw(st.sampled_from([u, v]))
            side.insert(data.draw(st.integers(0, len(side))), again)
        if len(set(u)) < len(u) or len(set(v)) < len(v):
            expect = self.DUPLICATE
        elif set(u) & set(v):
            expect = self.BOTH + repr(min(set(u) & set(v)))
        else:
            expect = None
        m = max(len(u), len(v))  # edges (i mod |U|, i mod |V|) cover every node once or more
        edges = sorted({(i % len(u), i % len(v)) for i in range(m)})
        fields = dict(u_labels=u, v_labels=v, indices=[b for _, b in edges], weights=[1.0] * len(edges),
                      indptr=np.searchsorted([a for a, _ in edges], np.arange(len(u) + 1)))
        with mock.patch.object(bigraph, "_CHUNK", chunk):
            for build in (lambda: BipartiteGraph.from_bytes(_v2_cache(**fields)), lambda: _built(**fields)):
                if expect is not None:
                    with pytest.raises(DataError) as info:
                        build()
                    assert str(info.value) == expect
                    continue
                g = build()
                assert g.u_labels == u and g.v_labels == v
                assert [g.u_id(x) for x in u] == list(range(len(u)))
                assert [g.v_id(x) for x in v] == list(range(len(v)))
                for x in (*v, *(y + "a" for y in u), "\x00" * 11):
                    if x not in u:
                        with pytest.raises(DataError):
                            g.u_id(x)

    def test_lookup_matches_position(self, build):
        labels = ["\U0001F600", "｡", "b", "ab", "a", "\x7f", "é", "e"]
        g = build(u_labels=labels[:4], v_labels=labels[4:], indptr=(0, 1, 2, 3, 4), indices=(0, 1, 2, 3),
                  weights=(1.0, 2.0, 3.0, 4.0))
        assert list(g.u_labels) == labels[:4] and list(g.v_labels) == labels[4:]
        assert [g.u_id(x) for x in labels[:4]] == [0, 1, 2, 3]
        assert [g.v_id(x) for x in labels[4:]] == [0, 1, 2, 3]


class TestLabelTable:
    @pytest.fixture(params=["cache", "constructor"])
    def g(self, request):
        g = synth_bipartite(700, 600, 3000, seed=8)
        return BipartiteGraph.from_bytes(g.to_bytes()) if request.param == "cache" else g

    def test_reads_like_a_list(self, g):
        expect = [f"u{i}" for i in range(g.u_count)]
        table = g.u_labels
        assert isinstance(table, bigraph.LabelTable) and isinstance(table, Sequence)
        assert len(table) == g.u_count and list(table) == expect
        assert table == expect and expect == table and table != expect[:-1] and table != g.v_labels
        assert table[0] == "u0" and table[-1] == expect[-1] and table[np.int32(5)] == "u5"
        assert list(reversed(table)) == expect[::-1]
        for bad in (g.u_count, -g.u_count - 1):
            with pytest.raises(IndexError):
                table[bad]
        for bad in (1.0, slice(0, 2)):
            with pytest.raises(TypeError):
                table[bad]
        assert "u17" in table and "v17" not in table and 17 not in table
        assert table.index("u17") == 17
        with pytest.raises(ValueError):
            table.index("v17")
        assert table.count("u3") == 1

    def test_every_label_is_found_where_it_is(self, g):
        for table, lookup in ((g.u_labels, g.u_id), (g.v_labels, g.v_id)):
            assert [lookup(label) for label in table] == list(range(len(table)))

    def test_a_table_builds_the_same_graph_as_its_list(self, g):
        eu = np.repeat(np.arange(g.u_count), g.deg_u)
        a = BipartiteGraph(g.u_labels, g.v_labels, eu, g.u_indices, g.u_weights)
        b = BipartiteGraph(list(g.u_labels), list(g.v_labels), eu, g.u_indices, g.u_weights)
        assert a.to_bytes() == b.to_bytes() == g.to_bytes()


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

    def test_duplicate_pairs_merge_by_summing(self):
        g = load_edge_list(io.StringIO("a x 1.0\na x 2.0\nb x 1.0\n"))
        assert g.edge_count == 2
        assert g.ws_u[g.u_id("a")] == 3.0

    @pytest.mark.parametrize("text, message", [
        ("a x 1.0\nb x 1.0 2.0\n", "line 2: expected 2 or 3 columns, got 4"),
        ("a x 0\n", "line 1: weight must be positive, got 0.0"),
        ("a x -1\n", "line 1: weight must be positive, got -1.0"),
        ("a x nan\n", "line 1: weight must be positive, got nan"),
        ("a x inf\n", "line 1: weight must be positive, got inf"),
        # the first bad line wins
        ("a x 1.0\nb x 0\nc x 1 1 1\n", "line 2: weight must be positive, got 0.0"),
        # a label that is new on both sides in one line reaches the constructor
        ("a a 1.0\n", "label appears on both sides: 'a'"),
    ], ids=["4-columns", "weight-0", "weight-negative", "weight-nan", "weight-inf",
            "first-bad-line", "both-sides-one-line"])
    def test_rejection_message(self, text, message):
        with pytest.raises(DataError) as info:
            load_edge_list(io.StringIO(text))
        assert str(info.value) == message

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_dict_merge_reference(self, data):
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=12, unique=True,
        ))
        edges = []
        for a, b in pairs:
            for _ in range(data.draw(st.integers(1, 20))):
                edges.append((f"u{a}", f"v{b}", data.draw(st.floats(1e-5, 1e5))))
        edges = data.draw(st.permutations(edges))
        lines = []
        for ul, vl, w in edges:
            lines.append(data.draw(st.sampled_from(["", "# note\n", "\n", " \t\n"])))
            sep = data.draw(st.sampled_from([" ", "\t", "  "]))
            lines.append(f"{ul}{sep}{vl}\t{w!r}\n")
        # reference: labels in first-seen order, weights summed in file order
        u_index, v_index, merged = {}, {}, {}
        for ul, vl, w in edges:
            key = (u_index.setdefault(ul, len(u_index)), v_index.setdefault(vl, len(v_index)))
            merged[key] = merged.get(key, 0.0) + w
        eu, ev = zip(*merged)
        ref = BipartiteGraph(list(u_index), list(v_index), eu, ev, list(merged.values()))
        assert load_edge_list(io.StringIO("".join(lines))).to_bytes() == ref.to_bytes()

    def test_invalid_utf8_names_line(self):
        with pytest.raises(DataError, match="line 2: not valid UTF-8"):
            load_edge_list(io.BytesIO(b"a x 1.0\nb\xff x 1.0\n"))

    def test_binary_handle_stays_open(self):
        fh = io.BytesIO(b"a x 1.0\nb x 2.0\n")
        load_edge_list(fh)
        gc.collect()
        assert not fh.closed

    def test_missing_path_is_data_error(self, tmp_path):
        missing = tmp_path / "missing.tsv"
        with pytest.raises(DataError, match="missing.tsv"):
            load_edge_list(missing)

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

    @pytest.mark.parametrize("seed", [1, 2])
    def test_returns_graph_itself_when_no_node_falls_below_k(self, seed):
        g = synth_bipartite(200, 150, 2400, (0.0, 3.0), seed=seed)
        k = int(min(g.deg_u.min(), g.deg_v.min()))
        assert k >= 2
        assert k_core_filter(g, k) is g
        assert k_core_filter(g, k + 1) is not g

    def test_empty_core_raises(self, g2):
        with pytest.raises(DataError, match="k-core is empty"):
            k_core_filter(g2, 3)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("graph", ["uniform31", "uniform32", "uniform33", "skew"])
    def test_matches_iterative_reference(self, graph, k):
        if graph == "skew":
            g = synth_bipartite(60, 50, 240, degree_skew=1.2, seed=4)
        else:
            # average degree k + 1 leaves a core that is neither empty nor whole
            g = random_bigraph(np.random.default_rng(int(graph[-2:])), 30, 30, k + 1.0)
        # reference: peel sets until stable
        eu = np.repeat(np.arange(g.u_count), np.diff(g.u_indptr))
        edges = {(int(a), int(b)) for a, b in zip(eu, g.u_indices)}
        while True:
            du = {}
            dv = {}
            for a, b in edges:
                du[a] = du.get(a, 0) + 1
                dv[b] = dv.get(b, 0) + 1
            drop_u = {a for a, d in du.items() if d < k}
            drop_v = {b for b, d in dv.items() if d < k}
            if not drop_u and not drop_v:
                break
            edges = {
                (a, b) for a, b in edges if a not in drop_u and b not in drop_v
            }
        assert edges, "the case should keep a non-empty core"
        core = k_core_filter(g, k)
        core_eu = np.repeat(np.arange(core.u_count), np.diff(core.u_indptr))
        assert {(core.u_labels[a], core.v_labels[b]) for a, b in zip(core_eu, core.u_indices)} == {
            (g.u_labels[a], g.v_labels[b]) for a, b in edges
        }
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

    @staticmethod
    def _set_based(u_count, v_count, edge_count, weight_range, degree_skew, seed):
        """The generator's draws deduplicated pair by pair through a set, in
        the order they are drawn."""
        rng = np.random.default_rng(seed)
        p = {}
        if degree_skew is not None:
            for n in (u_count, v_count):
                p[n] = (np.arange(n) + 1.0) ** (-degree_skew)
                p[n] /= p[n].sum()

        def draw(count, n):
            return rng.integers(0, count, size=n) if degree_skew is None else rng.choice(count, size=n, p=p[count])

        m = max(u_count, v_count)
        us = np.concatenate([rng.permutation(u_count), draw(u_count, m - u_count)])
        vs = np.concatenate([rng.permutation(v_count), draw(v_count, m - v_count)])
        rng.shuffle(vs)
        pairs = {}  # insertion-ordered

        def take(batch):
            for pair in batch:
                if len(pairs) < edge_count:
                    pairs.setdefault(pair, None)

        take(zip(us.tolist(), vs.tolist()))
        if len(pairs) < edge_count and edge_count > (u_count * v_count) // 4:
            take(divmod(c, v_count) for c in rng.permutation(u_count * v_count).tolist())
        while len(pairs) < edge_count:
            n = max(2 * (edge_count - len(pairs)), 256)
            take(zip(draw(u_count, n).tolist(), draw(v_count, n).tolist()))
        lo, hi = weight_range
        ew = hi - rng.random(edge_count) * (hi - lo)
        eu, ev = np.array(list(pairs)).T
        return BipartiteGraph([f"u{i}" for i in range(u_count)], [f"v{i}" for i in range(v_count)], eu, ev, ew)

    @pytest.mark.parametrize("shape", [
        (50, 40, 300, (0.0, 5.0), 1.0, 0),
        (300, 300, 1200, (0.0, 10.0), 1.2, 0),
        (400, 300, 4000, (0.0, 10.0), None, 21),
        (10, 10, 100, (0.0, 1.0), None, 0),
        (7, 3, 15, (0.0, 1.0), None, 1),
        (20, 12, 100, (1.0, 2.0), 2.0, 4),
        (1, 5, 5, (0.0, 1.0), None, 0),
    ], ids=str)
    def test_matches_set_based_deduplication(self, shape):
        # the batched dedup keeps the same pairs in the same order and makes
        # the same draws, sparse, skewed and dense requests alike
        assert synth_bipartite(*shape).to_bytes() == self._set_based(*shape).to_bytes()

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
