"""Dense reference scorer: two independent constructions must agree."""

import numpy as np
import pytest

from conftest import random_bigraph
from oracle import exact_bhpp, exact_hpp, exact_hpp_solve

ALPHA = 0.15


class TestClosedForms:
    def test_two_node_shared_neighbor(self, g2):
        # exact: alpha e (I - (1-alpha) P)^-1 with P = [[.5,.5],[.5,.5]]
        ref = exact_hpp(g2, ALPHA)
        np.testing.assert_allclose(ref.pi[0], [0.575, 0.425], atol=1e-13)
        np.testing.assert_allclose(ref.pi[1], [0.425, 0.575], atol=1e-13)

    def test_three_edge_path(self, g3):
        ref = exact_hpp(g3, ALPHA)
        np.testing.assert_allclose(ref.pi[0], [46 / 63, 17 / 63], atol=1e-13)
        np.testing.assert_allclose(ref.pi[1], [34 / 63, 29 / 63], atol=1e-13)

    def test_symmetric_scores_from_rows(self, g3):
        ref = exact_hpp(g3, ALPHA)
        beta = exact_bhpp(ref, 0)
        np.testing.assert_allclose(beta, [2 * 46 / 63, 17 / 63 + 34 / 63], atol=1e-13)


class TestSeriesVersusSolve:
    def test_doubling_matches_linear_solve(self):
        # truncated-series doubling and the direct solve are independent
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_bigraph(rng, int(rng.integers(5, 60)), int(rng.integers(5, 60)), 3.0)
            ref = exact_hpp(g, ALPHA, tol=1e-13)
            solved = exact_hpp_solve(g, ALPHA)
            assert np.abs(ref.pi - solved).max() <= 1e-11

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(8)
        g = random_bigraph(rng, 40, 30, 4.0)
        ref = exact_hpp(g, ALPHA)
        np.testing.assert_allclose(ref.pi.sum(axis=1), 1.0, atol=1e-10)
        assert ref.pi.min() >= 0.0

    def test_remainder_bound_is_one_sided(self):
        # truncation only undercounts: 0 <= solve - series <= reported bound
        rng = np.random.default_rng(9)
        g = random_bigraph(rng, 25, 25, 3.0)
        ref = exact_hpp(g, ALPHA, tol=1e-6)
        solved = exact_hpp_solve(g, ALPHA)
        diff = solved - ref.pi
        assert diff.min() >= -1e-12
        assert diff.max() <= ref.bound + 1e-12

    def test_tol_controls_bound(self):
        rng = np.random.default_rng(10)
        g = random_bigraph(rng, 20, 20, 3.0)
        assert exact_hpp(g, ALPHA, tol=1e-4).bound <= 1e-4
        assert exact_hpp(g, ALPHA, tol=1e-12).bound <= 1e-12

    def test_width_cap_enforced(self, g2):
        from bipush import DataError

        with pytest.raises(DataError):
            exact_hpp(g2, ALPHA, cap=1)
        with pytest.raises(DataError):
            exact_hpp_solve(g2, ALPHA, cap=1)
