"""Offline evaluation: splits, metrics, similarity plugs, pipelines."""

import hashlib
import math

import numpy as np
import pytest

import bipush.evalkit as evalkit
from bipush import (
    BipartiteGraph,
    DataError,
    k_core_filter,
    RankedJudgment,
    desirability,
    jaccard_rows,
    naive_ppr_rows,
    ndcg_at_k,
    precision_recall_at_k,
    predict_score,
    qr_ndcg_eval,
    rec_eval,
    similarity_rows,
    split_edges,
    synth_bipartite,
)
from bipush.evalkit import desirability_row
from bipush.rng import substream
from conftest import random_bigraph


class TestNdcg:
    def test_single_relevant_item_ranked_second(self):
        # dcg = 1/log2(3), ideal = 1/log2(2); pinned high-precision value
        j = RankedJudgment(ranking=["a", "b"], relevance={"a": 0.0, "b": 1.0})
        assert ndcg_at_k(j, 2) == pytest.approx(0.63092975357145744, abs=1e-15)

    def test_ideal_ranking_scores_one(self):
        rng = np.random.default_rng(1)
        grades = rng.random(10)
        items = list(range(10))
        ranking = [items[i] for i in np.argsort(-grades)]
        j = RankedJudgment(ranking=ranking, relevance=dict(zip(items, grades)))
        assert ndcg_at_k(j, 10) == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_relevance_gives_zero(self):
        j = RankedJudgment(ranking=[0, 1], relevance={0: 0.0, 1: 0.0})
        assert ndcg_at_k(j, 2) == 0.0

    def test_rejects_non_permutation(self):
        j = RankedJudgment(ranking=[0, 1], relevance={0: 1.0})
        with pytest.raises(DataError, match="permutation"):
            ndcg_at_k(j, 2)

    def test_rejects_negative_grades(self):
        j = RankedJudgment(ranking=[0], relevance={0: -0.5})
        with pytest.raises(DataError):
            ndcg_at_k(j, 1)

    def test_k_truncates_both_rankings(self):
        # worst item first; at k=1 the score is 0, at k=3 it recovers
        j = RankedJudgment(ranking=[2, 0, 1], relevance={0: 2.0, 1: 1.0, 2: 0.0})
        assert ndcg_at_k(j, 1) == 0.0
        assert 0.0 < ndcg_at_k(j, 3) < 1.0


class TestPrecisionRecall:
    def test_counting_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            universe = rng.permutation(50)
            k = int(rng.integers(1, 20))
            gt = set(rng.choice(50, size=rng.integers(1, 30), replace=False).tolist())
            rec = universe.tolist()
            p, r = precision_recall_at_k(rec, gt, k)
            hits = len(set(rec[:k]) & gt)
            assert p * k == pytest.approx(hits)
            assert r * len(gt) == pytest.approx(hits)

    def test_empty_ground_truth_warns(self):
        with pytest.warns(UserWarning, match="empty ground truth"):
            p, r = precision_recall_at_k([1, 2, 3], [], 2)
        assert (p, r) == (0.0, 0.0)


class TestSplitEdges:
    def _edge_multiset(self, g):
        eu = np.repeat(np.arange(g.u_count), np.diff(g.u_adj.indptr))
        return {
            (int(a), int(b), float(w))
            for a, b, w in zip(eu, g.u_adj.indices, g.u_adj.data)
        }

    def test_partition_is_exact(self):
        rng = np.random.default_rng(3)
        g = k_core_filter(random_bigraph(rng, 30, 25, 4.0), 2)
        split = split_edges(g, 0.3, seed=4, side="u", negatives=10)
        train_set = self._edge_multiset(split.train)
        test_set = set(split.test)
        assert train_set | test_set == self._edge_multiset(g)
        assert not train_set & test_set

    def test_quota_and_protection(self):
        rng = np.random.default_rng(5)
        g = k_core_filter(random_bigraph(rng, 40, 30, 5.0), 2)
        ratio = 0.25
        split = split_edges(g, ratio, seed=6, side="u", negatives=0)
        held_per_u = np.zeros(g.u_count, dtype=int)
        for a, _, _ in split.test:
            held_per_u[a] += 1
        assert (held_per_u <= (ratio * g.deg_u).astype(int)).all()
        # every node on both sides keeps at least one training edge
        assert split.train.deg_u.min() >= 1
        assert split.train.deg_v.min() >= 1

    def test_candidates_contain_positives_and_clean_negatives(self):
        rng = np.random.default_rng(7)
        g = k_core_filter(random_bigraph(rng, 30, 30, 4.0), 2)
        split = split_edges(g, 0.3, seed=8, side="u", negatives=15)
        original = {(a, b) for a, b, _ in (
            (int(x), int(y), 0) for x, y in zip(
                np.repeat(np.arange(g.u_count), np.diff(g.u_adj.indptr)), g.u_adj.indices
            )
        )}
        held = {}
        for a, b, _ in split.test:
            held.setdefault(a, set()).add(b)
        for node, pool in split.candidates.items():
            assert held[node] <= set(pool)
            for item in pool:
                if item not in held[node]:
                    assert (node, item) not in original

    @pytest.mark.parametrize("skew", [None, 1.2])
    @pytest.mark.parametrize("side", ["u", "v"])
    def test_candidates_match_a_set_based_reference(self, skew, side):
        # per node: held-out positives in ascending order, then negatives
        # drawn with the split's own substream from the held-out other-side
        # nodes that are not its neighbours in the original graph, ascending
        g = k_core_filter(synth_bipartite(300, 250, 3000, (0.0, 10.0), degree_skew=skew, seed=5), 2)
        split = split_edges(g, 0.2, seed=5, side=side, negatives=20)
        eu = np.repeat(np.arange(g.u_count), g.deg_u).tolist()
        ev = g.u_adj.indices.tolist()
        strat, other = (eu, ev) if side == "u" else (ev, eu)
        neigh = {}
        for s, o in zip(strat, other):
            neigh.setdefault(s, set()).add(o)
        held = {}
        for a, b, _ in split.test:
            s, o = (a, b) if side == "u" else (b, a)
            held.setdefault(s, []).append(o)
        pool = sorted({o for items in held.values() for o in items})
        rng = substream(5, "negatives", side)
        expect = {}
        for node in sorted(held):
            eligible = [o for o in pool if o not in neigh[node]]
            picks = rng.choice(len(eligible), size=min(20, len(eligible)), replace=False)
            expect[node] = sorted(held[node]) + [eligible[i] for i in picks]
        assert split.candidates == expect

    def test_no_negatives_builds_no_pool(self, monkeypatch):
        # eval-qr splits with no negatives: the pools are the held-out
        # positives alone, and no node's eligible set is ever computed
        g = k_core_filter(synth_bipartite(300, 250, 3000, (0.0, 10.0), seed=5), 2)

        def refused(*args, **kwargs):
            raise AssertionError("setdiff1d called with no negatives to draw")

        monkeypatch.setattr(np, "setdiff1d", refused)
        split = split_edges(g, 0.2, seed=5, side="u", negatives=0)
        held = {}
        for a, b, _ in split.test:
            held.setdefault(a, []).append(b)
        assert split.candidates == {node: sorted(items) for node, items in held.items()}

    def test_v_side_stratification(self):
        rng = np.random.default_rng(9)
        g = k_core_filter(random_bigraph(rng, 25, 20, 4.0), 2)
        split = split_edges(g, 0.3, seed=10, side="v", negatives=5)
        assert split.side == "v"
        for node in split.candidates:
            assert 0 <= node < g.v_count  # keyed by V index

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(11)
        g = k_core_filter(random_bigraph(rng, 20, 20, 4.0), 2)
        a = split_edges(g, 0.25, seed=12)
        b = split_edges(g, 0.25, seed=12)
        c = split_edges(g, 0.25, seed=13)
        assert a.test == b.test
        assert a.candidates == b.candidates
        assert a.test != c.test

    def test_degree_one_node_rejected_with_hint(self, g2):
        # u1 and u2 each have a single edge
        with pytest.raises(DataError, match="k_core_filter"):
            split_edges(g2, 0.5, seed=0)

    def test_bad_ratio_rejected(self, g3):
        for ratio in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(DataError):
                split_edges(g3, ratio, seed=0)


class TestDesirability:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            g = random_bigraph(rng, int(rng.integers(5, 30)), int(rng.integers(5, 30)), 3.0)
            eu = np.repeat(np.arange(g.u_count), np.diff(g.u_adj.indptr))
            nbr = {}
            wt = {}
            for a, b, w in zip(eu.tolist(), g.u_adj.indices.tolist(), g.u_adj.data.tolist()):
                nbr.setdefault(a, set()).add(b)
                wt[(a, b)] = w
            qi, qj = rng.integers(0, g.u_count, size=2)
            shared = nbr[int(qi)] & nbr[int(qj)]
            plain = sum(wt[(int(qj), b)] for b in shared) / g.deg_u[qj]
            weighted = sum(wt[(int(qj), b)] for b in shared) / g.ws_u[qj]
            assert desirability(g, int(qi), int(qj), False) == pytest.approx(plain, abs=1e-12)
            assert desirability(g, int(qi), int(qj), True) == pytest.approx(weighted, abs=1e-12)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_row_matches_brute_force(self, weighted):
        # Summing the shared weights in ascending V order, as the sparse
        # product does, gives the same bits.
        rng = np.random.default_rng(17)
        for _ in range(10):
            g = random_bigraph(rng, int(rng.integers(5, 30)), int(rng.integers(5, 30)), 3.0)
            eu = np.repeat(np.arange(g.u_count), np.diff(g.u_adj.indptr))
            wt = dict(zip(zip(eu.tolist(), g.u_adj.indices.tolist()), g.u_adj.data.tolist()))
            nbr = {}
            for a, b in wt:
                nbr.setdefault(a, set()).add(b)
            qi = int(rng.integers(0, g.u_count))
            denom = g.ws_u if weighted else g.deg_u
            want = [
                sum(wt[(qj, b)] for b in sorted(nbr[qi] & nbr[qj])) / denom[qj]
                for qj in range(g.u_count)
            ]
            assert desirability_row(g, qi, weighted).tolist() == want


class TestPredictScore:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(15)
        g = k_core_filter(random_bigraph(rng, 20, 15, 4.0), 2)
        split = split_edges(g, 0.3, seed=16, side="v", negatives=5)
        sim = similarity_rows("jaccard", split.train)
        train = split.train
        for v in list(split.candidates)[:5]:
            for ui in split.candidates[v][:4]:
                row = sim(ui)
                order = np.argsort(-row, kind="stable")
                peers = [i for i in order.tolist() if i != ui][:3]
                s, e = train.v_adj.indptr[v], train.v_adj.indptr[v + 1]
                rated = dict(zip(train.v_adj.indices[s:e].tolist(), train.v_adj.data[s:e].tolist()))
                pool = set(peers) | set(rated)
                num = sum(row[j] * rated.get(j, 0.0) for j in pool)
                den = sum(row[j] for j in pool)
                want = num / den if den != 0 else 0.0
                assert predict_score(v, ui, sim, 3, split) == pytest.approx(want, abs=1e-12)

    def test_zero_denominator_gives_zero(self, g3):
        split = None

        class FakeSplit:
            train = g3

        zero_sim = lambda ui: np.zeros(g3.u_count)
        assert predict_score(0, 0, zero_sim, 2, FakeSplit()) == 0.0


class TestSimilarityPlugs:
    def test_jaccard_closed_form(self, g3):
        row = jaccard_rows(g3)(0)
        # u1 has {v1,v2}, u2 has {v2}: intersection 1, union 2
        np.testing.assert_allclose(row, [1.0, 0.5], atol=1e-15)

    def test_jaccard_matches_neighbor_sets(self):
        g = synth_bipartite(40, 30, 200, (0.0, 5.0), degree_skew=1.2, seed=3)
        nbrs = [set(g.u_adj.indices[g.u_adj.indptr[i] : g.u_adj.indptr[i + 1]].tolist()) for i in range(g.u_count)]
        rows = jaccard_rows(g)
        for ui in range(g.u_count):
            expect = [len(nbrs[ui] & n) / len(nbrs[ui] | n) for n in nbrs]
            np.testing.assert_array_equal(rows(ui), expect)

    def test_naive_ppr_rows_are_subprobability(self):
        rng = np.random.default_rng(17)
        g = random_bigraph(rng, 15, 15, 3.0)
        row = naive_ppr_rows(g)(0)
        assert row.min() >= 0.0
        assert row.sum() <= 1.0 + 1e-12
        assert row[0] == max(row)

    def test_push_and_walk_methods_agree(self):
        g = synth_bipartite(20, 20, 100, seed=18)
        a = similarity_rows("ssbipush", g, epsilon=1e-4)(3)
        b = similarity_rows("mcsp", g, epsilon=0.05, seed=19)(3)
        assert np.abs(a - b).max() <= 0.05 + 1e-4

    def test_rows_are_memoized(self):
        g = synth_bipartite(10, 10, 40, seed=20)
        sim = similarity_rows("ssbipush", g, epsilon=1e-3)
        assert sim(2) is sim(2)

    def test_unknown_method_rejected(self, g3):
        with pytest.raises(DataError, match="unknown similarity"):
            similarity_rows("cosine", g3)


STUDY_METHODS = ("ssbipush", "mcsp", "jaccard", "naive-ppr")


def row_digest(rows):
    """sha256 over repr of every row value, in row and column order."""
    return hashlib.sha256(repr([list(r.values()) for r in rows]).encode()).hexdigest()


@pytest.fixture(scope="module")
def corpus_graph():
    return synth_bipartite(60, 50, 400, (0.0, 5.0), seed=21)


class TestPipelines:
    def test_qr_rows_schema_and_range(self, corpus_graph):
        rows = qr_ndcg_eval(
            corpus_graph,
            holdout_ratio=0.2,
            ks=(3, 5),
            n_queries=10,
            methods=("jaccard", "naive-ppr"),
            seed=22,
        )
        assert len(rows) == 4  # 2 methods x 2 cutoffs
        for r in rows:
            assert set(r) == {"method", "k", "metric", "mean", "stddev", "n"}
            assert r["metric"] == "ndcg"
            assert 0.0 <= r["mean"] <= 1.0
            assert r["n"] == 10

    def test_qr_threads_do_not_change_results(self, corpus_graph):
        kw = dict(holdout_ratio=0.2, ks=(5,), n_queries=8,
                  methods=("jaccard",), seed=23)
        serial = qr_ndcg_eval(corpus_graph, threads=1, **kw)
        pooled = qr_ndcg_eval(corpus_graph, threads=3, **kw)
        assert serial == pooled

    def test_rec_rows_schema_and_identity(self, corpus_graph):
        rows = rec_eval(
            corpus_graph,
            holdout_ratio=0.25,
            ks=(5,),
            negatives=20,
            s_size=10,
            n_users=8,
            methods=("jaccard",),
            seed=24,
        )
        metrics = {r["metric"] for r in rows}
        assert metrics == {"precision", "recall"}
        for r in rows:
            assert 0.0 <= r["mean"] <= 1.0
            assert r["n"] == 8

    def test_rec_threads_do_not_change_results(self, corpus_graph):
        kw = dict(holdout_ratio=0.25, ks=(5,), negatives=15, s_size=8,
                  n_users=6, methods=("naive-ppr",), seed=25)
        serial = rec_eval(corpus_graph, threads=1, **kw)
        pooled = rec_eval(corpus_graph, threads=3, **kw)
        assert serial == pooled

    def test_rec_ranks_each_item_once_per_method(self, corpus_graph, monkeypatch):
        # predict_score's peers come from a sort of the item's whole row;
        # the study sorts each item's row once per method, not once for
        # every user whose pool holds the item
        real = evalkit._ranked_row
        calls = []

        def counted(sim, ui, s_size, g):
            calls.append((sim, ui))
            return real(sim, ui, s_size, g)

        monkeypatch.setattr(evalkit, "_ranked_row", counted)
        rec_eval(corpus_graph, ks=(3,), negatives=15, s_size=8, n_users=10,
                 methods=("jaccard", "naive-ppr"), seed=28)
        assert calls and len(calls) == len(set(calls))
        assert len({sim for sim, _ in calls}) == 2

    def test_push_scores_flow_through_pipeline(self, corpus_graph):
        # scores from the push engine must be usable end to end
        rows = qr_ndcg_eval(
            corpus_graph,
            holdout_ratio=0.2,
            ks=(5,),
            n_queries=6,
            methods=("ssbipush",),
            epsilon=1e-4,
            seed=26,
        )
        assert rows[0]["mean"] > 0.0

    # Golden pins over all four methods: a changed score, ranking, row order
    # or last float bit changes the digest, with or without a thread pool.
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("weighted_degree, want", [
        (False, "8faf69c6824bf4f36a01b448e3e6a2b628ff4bcf0ac7cbd987d38bcc44ab525f"),
        (True, "bae3f241f1459fb756496a82578d5d198324ddec62c21779b2c114e926ed5bd9"),
    ])
    def test_qr_values_are_pinned(self, corpus_graph, threads, weighted_degree, want):
        rows = qr_ndcg_eval(corpus_graph, ks=(3, 10), n_queries=12, methods=STUDY_METHODS,
                            epsilon=0.05, seed=27, weighted_degree=weighted_degree, threads=threads)
        assert row_digest(rows) == want

    @pytest.mark.parametrize("threads", [1, 2])
    def test_rec_values_are_pinned(self, corpus_graph, threads):
        rows = rec_eval(corpus_graph, ks=(3, 10), negatives=15, s_size=8, n_users=10,
                        methods=STUDY_METHODS, epsilon=0.05, seed=28, threads=threads)
        assert row_digest(rows) == "5e83f9ab06be5830241636cbfd0f95a1da18d9d2ce1b536d52cfca72b3680d2c"
