"""Walk-based and hybrid baselines: sampling, concentration, determinism."""

import time

import numpy as np
import pytest
from scipy import stats

import bipush.baselines as baselines
from bipush import (
    DeadlineExceeded,
    build_alias,
    build_index_meta,
    bhpp_query,
    mc_walk_count,
    mcsp_query,
    monte_carlo,
    pisp_query,
    synth_bipartite,
)
from conftest import random_bigraph
from oracle import exact_bhpp, exact_hpp

ALPHA = 0.15


class TestWalkCount:
    def test_frozen_values(self):
        # pinned against a high-precision recomputation of
        # ceil(2 (1 + eps/3) ln(n / p_f) / eps^2)
        assert mc_walk_count(0.1, 1e-6, 1000) == 4283
        assert mc_walk_count(0.02, 1e-6, 2) == 73027

    def test_monotone_in_each_argument(self):
        assert mc_walk_count(0.05, 1e-6, 100) > mc_walk_count(0.1, 1e-6, 100)
        assert mc_walk_count(0.1, 1e-9, 100) > mc_walk_count(0.1, 1e-6, 100)
        assert mc_walk_count(0.1, 1e-6, 10**6) > mc_walk_count(0.1, 1e-6, 100)

    def test_at_least_one_walk(self):
        assert mc_walk_count(10.0, 0.5, 2) >= 1

    @pytest.mark.parametrize("eps", [1e154, 1e155, 1e200, 1e300, 1.7976931348623157e308])
    def test_huge_epsilon_takes_one_walk(self, eps):
        # eps^2 overflows a float from about 1.34e154 on
        assert mc_walk_count(eps, 1e-6, 40) == 1

    def test_count_is_an_int_or_refused_by_name(self):
        # down to about 1e-154 the count is a (huge) int; below, it
        # overflows a float and the refusal names epsilon_f
        assert isinstance(mc_walk_count(1e-150, 1e-6, 40), int)
        for eps in (1e-154, 1e-160, 1e-300, 5e-324, float("nan"), float("inf"), 0.0):
            with pytest.raises(ValueError, match="epsilon_f"):
                mc_walk_count(eps, 1e-6, 40)

    @pytest.mark.parametrize("p_f", [0.0, -0.5, 1.0, 2.0, float("nan"), float("inf")])
    def test_p_f_must_lie_strictly_between_0_and_1(self, p_f):
        # at p_f >= 1 the log term ln(n / p_f) shrinks and the guarantee
        # would hold with probability 1 - p_f <= 0
        with pytest.raises(ValueError, match="p_f must lie strictly between 0 and 1"):
            mc_walk_count(0.1, p_f, 40)
        g = synth_bipartite(15, 15, 60, seed=14)
        with pytest.raises(ValueError, match="p_f"):
            mcsp_query(g, None, 0, ALPHA, 0.1, p_f=p_f)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_queries_refuse_a_non_finite_epsilon(self, eps):
        g = synth_bipartite(15, 15, 60, seed=14)
        meta = build_index_meta(g)
        for run in (lambda: bhpp_query(g, meta, 0, eps),
                    lambda: pisp_query(g, 0, ALPHA, eps),
                    lambda: mcsp_query(g, None, 0, ALPHA, eps)):
            with pytest.raises(ValueError, match="epsilon must be positive and finite"):
                run()


class TestAliasTables:
    def test_sampling_matches_weights(self):
        # chi-square on a single high-degree row; wrong tables would be
        # rejected at p = 1e-3 with overwhelming probability
        rng = np.random.default_rng(0)
        g = random_bigraph(rng, 8, 40, 20.0)
        alias = build_alias(g)
        row = int(np.argmax(g.deg_u))
        lo, hi = g.u_adj.indptr[row], g.u_adj.indptr[row + 1]
        weights = g.u_adj.data[lo:hi]
        n = 200_000
        slots = (rng.random(n) * (hi - lo)).astype(np.int64)
        pos = lo + slots
        hit = rng.random(n) < alias.u_prob[pos]
        pos = np.where(hit, pos, lo + alias.u_alias[pos])
        counts = np.bincount(pos - lo, minlength=hi - lo)
        expected = weights / weights.sum() * n
        res = stats.chisquare(counts, expected)
        assert res.pvalue > 1e-3

    def test_single_edge_row_is_certain(self, g2):
        alias = build_alias(g2)
        # every U row has one edge; probability must be exactly one
        np.testing.assert_array_equal(alias.u_prob, 1.0)


class TestMonteCarlo:
    def test_frequencies_sum_to_one(self, g3):
        alias = build_alias(g3)
        est = monte_carlo(g3, alias, 0, ALPHA, 0.1, 1e-3, seed=1)
        assert est.sum() == pytest.approx(1.0, abs=1e-12)
        assert est.min() >= 0.0

    def test_concentrates_on_closed_form(self, g2):
        alias = build_alias(g2)
        est = monte_carlo(g2, alias, 0, ALPHA, 0.02, 1e-6, seed=2)
        assert np.abs(est - np.array([0.575, 0.425])).max() <= 0.02

    def test_deterministic_per_seed(self, g3):
        alias = build_alias(g3)
        a = monte_carlo(g3, alias, 0, ALPHA, 0.1, 1e-3, seed=5)
        b = monte_carlo(g3, alias, 0, ALPHA, 0.1, 1e-3, seed=5)
        c = monte_carlo(g3, alias, 0, ALPHA, 0.1, 1e-3, seed=6)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        # also across batches, each drawn from its own substream
        assert mc_walk_count(0.01, 1e-3, g3.u_count) > baselines.WALK_BATCH
        np.testing.assert_array_equal(monte_carlo(g3, alias, 0, ALPHA, 0.01, 1e-3, seed=7),
                                      monte_carlo(g3, alias, 0, ALPHA, 0.01, 1e-3, seed=7))

    def test_deadline_raises(self, g3):
        alias = build_alias(g3)
        with pytest.raises(DeadlineExceeded):
            monte_carlo(g3, alias, 0, ALPHA, 0.001, 1e-6, seed=8, deadline=time.perf_counter())

    def test_walk_cap_without_deadline(self, g3, monkeypatch):
        # eps 1e-6 asks for about 2.9e13 walks: refused up front, before any
        # alias table is built; a deadline lifts the cap and ends the run
        n = mc_walk_count(1e-6, 1e-6, g3.u_count)
        assert n > baselines.MAX_WALKS

        def no_tables(g):
            raise AssertionError("alias tables built for a refused run")

        monkeypatch.setattr(baselines, "build_alias", no_tables)
        with pytest.raises(ValueError, match=f"{n} walks exceed the cap of {baselines.MAX_WALKS}"):
            monte_carlo(g3, None, 0, ALPHA, 1e-6, 1e-6, seed=8)
        with pytest.raises(DeadlineExceeded):
            monte_carlo(g3, build_alias(g3), 0, ALPHA, 1e-6, 1e-6, seed=8,
                        deadline=time.perf_counter() + 0.05)

    def test_rejects_bad_source(self, g3):
        alias = build_alias(g3)
        with pytest.raises(ValueError):
            monte_carlo(g3, alias, 99, ALPHA, 0.1, 1e-3, seed=0)


class TestMcspQuery:
    def test_two_sided_epsilon(self):
        rng = np.random.default_rng(20)
        g = random_bigraph(rng, 20, 20, 4.0)
        alias = build_alias(g)
        ref = exact_hpp(g, ALPHA, tol=1e-14)
        eps = 0.1
        res = mcsp_query(g, alias, 3, ALPHA, eps, p_f=1e-6, seed=21)
        truth = exact_bhpp(ref, 3)
        assert np.abs(truth - res.scores).max() <= eps
        assert res.method == "mcsp"
        assert res.phase_trace["forward"]["n_walks"] == mc_walk_count(eps / 2, 1e-6, g.u_count)

    def test_accepts_labels(self):
        g = synth_bipartite(10, 10, 40, seed=22)
        alias = build_alias(g)
        res = mcsp_query(g, alias, g.u_labels[4], ALPHA, 0.2, seed=23)
        assert res.query_index == 4


class TestPispQuery:
    def test_one_sided_epsilon(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            g = random_bigraph(rng, int(rng.integers(8, 40)), int(rng.integers(8, 40)), 3.0)
            ref = exact_hpp(g, ALPHA, tol=1e-14)
            q = int(rng.integers(0, g.u_count))
            for eps in (0.1, 1e-3):
                res = pisp_query(g, q, ALPHA, eps)
                diff = exact_bhpp(ref, q) - res.scores
                assert diff.min() >= -1e-11
                assert diff.max() <= eps + 1e-12

    def test_trace_names_iteration_depth(self):
        g = synth_bipartite(15, 15, 60, seed=31)
        res = pisp_query(g, 0, ALPHA, 1e-2)
        assert res.method == "pisp"
        assert res.phase_trace["forward"]["power_iterations"] > 0


@pytest.mark.parametrize("bad", ["u_count", -1])
@pytest.mark.parametrize("method", ["ssbipush", "pisp", "mcsp"])
def test_query_index_out_of_range_is_value_error(g3, method, bad):
    q = g3.u_count if bad == "u_count" else bad
    run = {
        "ssbipush": lambda: bhpp_query(g3, build_index_meta(g3, ALPHA), q, 1e-2),
        "pisp": lambda: pisp_query(g3, q, ALPHA, 1e-2),
        "mcsp": lambda: mcsp_query(g3, build_alias(g3), q, ALPHA, 0.5),
    }[method]
    with pytest.raises(ValueError, match="out of range"):
        run()
