"""Push kernels: one-sided accuracy, conservation, budgets, determinism."""

import math
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

import bipush.push_engine as pe
from bipush import (
    BipartiteGraph,
    ResidueLedger,
    bhpp_query,
    build_index_meta,
    exact_hpp,
    exact_hpp_solve,
    pi_push,
    power_iteration,
    required_iterations,
    selective_push,
    ss_push,
    synth_bipartite,
)
from conftest import random_bigraph, scipy_adj

ALPHA = 0.15


def hub_graph(n: int = 50):
    """One hub adjacent to every V node; each V node pinned to its own leaf.

    Pushing from the hub floods all residues at once, so the selective phase
    makes no progress relative to its cost and the push budget trips.
    """
    from bipush import BipartiteGraph

    u_labels = ["hub"] + [f"leaf{i}" for i in range(n)]
    v_labels = [f"v{j}" for j in range(n)]
    eu = [0] * n + list(range(1, n + 1))
    ev = list(range(n)) + list(range(n))
    return BipartiteGraph(u_labels, v_labels, eu, ev, [1.0] * (2 * n))


def heavy_pendant_graph(n: int = 5, heavy: float = 1e6):
    """A unit-weight K_{n,n} around the target c0, plus one V node that joins
    c0 to a pendant U node by an edge of weight `heavy`.

    Each push of c0 hands the pendant a residue of about 1/heavy, too small
    to push, yet a fixed share of the ws-weighted mass. The weighted mass
    then stops falling while the clique keeps pushing, so the backward
    budget runs out.
    """
    u_labels = [f"c{i}" for i in range(n)] + ["pendant"]
    v_labels = [f"d{j}" for j in range(n)] + ["link"]
    eu = [i for i in range(n) for _ in range(n)] + [0, n]
    ev = [j for _ in range(n) for j in range(n)] + [n, n]
    return BipartiteGraph(u_labels, v_labels, eu, ev, [1.0] * (n * n + 1) + [heavy])


def dense_walk(g, dtype=np.float64):
    """The hidden U-to-U walk matrix P, dense."""
    w = scipy_adj(g).toarray().astype(dtype)
    return (w / g.ws_u[:, None]) @ (w.T / g.ws_v[:, None])


def entry_depth(g, src, eps):
    """The depth pi_push prices at entry, from the unit residue at src: the
    smallest k with tau^k (1-alpha) (min(1, ws_max w) + ws(src) w) <= eps,
    w being the width of r / ws(src), at the rate pe._cg_rate gives."""
    rate = pe._cg_rate(ALPHA)
    ws_src = float(g.ws_u[src])
    r = ResidueLedger.initial(g, src).residue_u
    w = float(r.max()) / ws_src - float(r.min()) / ws_src
    bound = min(1.0, float(g.ws_u.max()) * w) + ws_src * w
    return required_iterations(ALPHA, eps, (1.0 - ALPHA) / rate * bound, rate)


def is_connected(g) -> bool:
    w = scipy_adj(g)
    adj = sp.bmat([[None, w], [w.T, None]])
    return connected_components(adj, directed=False)[0] == 1


def check_finish(g, src, eps, out, p=None, rate=None):
    """Recompute a switched pi_push's finish from its final residues with a
    dense P. If the bracket of r / ws(u) at the switch certifies the tail
    past alpha x, the finish runs no step and credits its floor. Otherwise
    conjugate gradients in the 1/ws inner product run from alpha x until
    the bracket of T(rho) read off their residual rho certifies both
    halves, within the cap: the smallest k with
    4 (ws_max + ws_u) ||rho_0||_{1/ws} tau^k <= alpha^1.5 sqrt(ws_min) eps.
    The replay runs in long double; a given `p` is
    dense_walk(g, np.longdouble). It must take the program's steps, but
    its iterates need not be the program's: with weights over many decades
    the two precisions round CG onto different paths. The bounds and the
    floor must be those of the residual of the program's own last iterate,
    recomputed in long double, so they hold for the scores it returns.
    `rate` stands in for tau where a test prices the finish at another
    rate. Returns whether the bracket at the switch certified the tail."""
    trace = out.phase_trace
    ws, ws_max, ws_src = g.ws_u, float(g.ws_u.max()), float(g.ws_u[src])
    r = out.ledger.residue_u
    x = x64 = ws / ws_src * r
    hi, lo = float(r.max()) / ws_src, float(r.min()) / ws_src
    tail = (1 - ALPHA) * (min(float(x.sum()), ws_max * (hi - lo)) + ws_src * (hi - lo))
    assert trace["residue_bound"] + trace["backward_bound"] == trace["power_tail_bound"] <= eps
    if tail <= eps:
        assert (trace["power_iterations"], trace["depth_cap"]) == (0, 0)
        assert trace["power_tail_bound"] == pytest.approx(tail, rel=1e-12)
        assert trace["tail_floor"] == pytest.approx(lo, rel=1e-12)
        return True
    p = dense_walk(g, np.longdouble) if p is None else p
    ws = g.ws_u.astype(np.longdouble)
    x = ws / ws_src * r

    def residual(y):
        return ALPHA * x - y + (1 - ALPHA) * (y @ p)

    def bounds(rho):
        # the forward and backward gaps over the lower end of T(rho) / alpha
        q = rho / ws
        low = np.maximum(q.min() * ws, rho[rho < 0].sum())
        gap = (np.minimum(q.max() * ws, rho[rho > 0].sum()) - low) / ALPHA
        return gap.max() + (ws_src / ws * gap).max(), gap.max(), q.min()

    def norm2(z):
        return (z * z / ws).sum()

    tau = (1 - math.sqrt(ALPHA)) / (1 + math.sqrt(ALPHA)) if rate is None else rate
    y = ALPHA * x
    res = d = residual(y)
    steps = cap = 0
    # no cap when alpha x itself certifies
    while bounds(res)[0] > eps and (
            4 * (ws_max + ws_src) * math.sqrt(norm2(res)) * tau ** cap > ALPHA ** 1.5 * math.sqrt(ws.min()) * eps):
        cap += 1
    while bounds(res)[0] > eps:
        assert steps < cap
        ad = d - (1 - ALPHA) * (d @ p)
        a = norm2(res) / (d * ad / ws).sum()
        y, new = y + a * d, res - a * ad
        d, res = new + norm2(new) / norm2(res) * d, new
        steps += 1
    assert (trace["power_iterations"], trace["depth_cap"]) == (steps, cap)
    # The finish is deterministic, so a rerun on the same x reaches the same
    # last iterate, and its last walk step is the one of that iterate's
    # residual.
    with mock.patch.object(pe, "_two_hop", wraps=pe._two_hop) as hop:
        pe._cg_finish(g, x64, ALPHA, eps, ws_src)
    total, fwd, floor = bounds(residual(hop.call_args.args[1].astype(np.longdouble)))
    # the program's residual is a difference of nearly equal vectors in
    # float64, so it agrees with the long double one to a few digits only
    assert trace["power_tail_bound"] == pytest.approx(total, rel=1e-3)
    assert trace["residue_bound"] == pytest.approx(fwd, rel=1e-3)
    assert trace["tail_floor"] == pytest.approx(floor, rel=1e-3)
    return False


class TestRequiredIterations:
    def test_frozen_values(self):
        # pinned against a high-precision recomputation of
        # ceil(log(mass/eps) / log(1/(1-alpha))) - 1
        assert required_iterations(0.15, 0.1, 1.0) == 14
        assert required_iterations(0.15, 1e-4, 0.5) == 52
        assert required_iterations(0.15, 1.0, 1.0) == 0

    def test_zero_mass_needs_no_iterations(self):
        assert required_iterations(0.15, 1e-6, 0.0) == 0
        assert required_iterations(0.15, 1e-6, -1.0) == 0

    def test_subnormal_epsilon_has_a_finite_depth(self):
        # mass / epsilon_f overflows a float here; the depth is read off the
        # difference of the logs instead
        rate = math.log(1.0 / (1.0 - ALPHA))
        for eps, mass in ((1e-310, 1.0), (5e-324, 1.0), (5e-324, 1e300)):
            t = required_iterations(ALPHA, eps, mass)
            need = math.log(mass) - math.log(eps)
            assert t * rate < need <= (t + 1) * rate

    def test_depth_suffices(self):
        # after t iterations the dropped tail is rate^(t+1) * mass, at power
        # iteration's rate 1-alpha by default and at any rate given
        tau = pe._cg_rate(ALPHA)
        for rate in (None, tau):
            for eps in (0.1, 1e-3, 1e-7):
                t = required_iterations(ALPHA, eps, 1.0, rate)
                shrink = 1 - ALPHA if rate is None else rate
                assert shrink ** (t + 1) <= eps
                assert t == 0 or shrink ** t > eps

    def test_conjugate_gradient_rate(self):
        # (1 - sqrt(alpha)) / (1 + sqrt(alpha)): 0.4417 at alpha 0.15, and
        # far fewer steps than power iteration for the same deficit
        tau = pe._cg_rate(ALPHA)
        assert tau == pytest.approx(0.44165, abs=1e-5)
        assert required_iterations(ALPHA, 1e-4, 1.0, tau) == 11
        assert required_iterations(ALPHA, 1e-4, 1.0) == 56

    @pytest.mark.parametrize("rate", [0.0, 1.0, -0.5, float("nan")])
    def test_rate_outside_the_open_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError, match="rate"):
            required_iterations(ALPHA, 1e-4, 1.0, rate)


class TestPowerIteration:
    def test_two_node_closed_form(self, g2):
        # 0.85^151 ~ 2e-11, so depth 150 supports a 1e-9 tolerance
        start = np.array([1.0, 0.0])
        out = power_iteration(g2, start, ALPHA, 150)
        np.testing.assert_allclose(out, [0.575, 0.425], atol=1e-9)

    def test_truncation_is_one_sided(self):
        rng = np.random.default_rng(3)
        g = random_bigraph(rng, 30, 25, 3.0)
        ref = exact_hpp(g, ALPHA)
        start = np.zeros(g.u_count)
        start[4] = 1.0
        for t in (0, 3, 10, 40):
            out = power_iteration(g, start, ALPHA, t)
            diff = ref.pi[4] - out
            assert diff.min() >= -1e-12
            assert diff.max() <= (1 - ALPHA) ** (t + 1) + 1e-12

    def test_linear_in_start_vector(self):
        rng = np.random.default_rng(4)
        g = random_bigraph(rng, 20, 20, 3.0)
        a = rng.random(g.u_count)
        b = rng.random(g.u_count)
        lhs = power_iteration(g, a + 2.0 * b, ALPHA, 15)
        rhs = power_iteration(g, a, ALPHA, 15) + 2.0 * power_iteration(g, b, ALPHA, 15)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestSelectivePush:
    def test_estimates_are_one_sided(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_bigraph(rng, int(rng.integers(5, 50)), int(rng.integers(5, 50)), 3.0)
            ref = exact_hpp(g, ALPHA, tol=1e-14)
            target = int(rng.integers(0, g.u_count))
            for eps_b in (1e-2, 1e-5):
                out = selective_push(g, target, ALPHA, eps_b)
                diff = ref.pi[:, target] - out.ledger.estimate
                assert diff.min() >= -1e-11
                assert diff.max() <= eps_b + 1e-12
                assert out.terminated_by == "threshold-met"

    def test_loose_threshold_means_no_work(self, g2):
        # initial residue is 1.0 at the target; strictly-greater test at 1.0
        out = selective_push(g2, 0, ALPHA, 1.0)
        assert out.phase_trace["selective_rounds"] == 0
        assert out.ledger.n_p == 0
        assert out.ledger.estimate.sum() == 0.0

    def test_estimates_grow_monotonically(self):
        rng = np.random.default_rng(6)
        g = random_bigraph(rng, 30, 30, 4.0)
        snaps = []
        selective_push(g, 0, ALPHA, 1e-7, round_hook=lambda ph, r, led: snaps.append(led.estimate.copy()))
        for earlier, later in zip(snaps, snaps[1:]):
            assert (later - earlier).min() >= 0.0

    def test_rejects_bad_parameters(self, g2):
        with pytest.raises(ValueError):
            selective_push(g2, 0, ALPHA, 0.0)
        with pytest.raises(ValueError):
            selective_push(g2, 0, 1.0, 1e-3)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1e-5]))
    def test_conservation_at_round_boundaries(self, seed, eps_b):
        # estimate plus residue-weighted true scores reproduces the truth
        # exactly whenever the V side is flushed
        rng = np.random.default_rng(seed)
        g = random_bigraph(rng, int(rng.integers(3, 25)), int(rng.integers(3, 25)), 2.5)
        ref = exact_hpp(g, ALPHA, tol=1e-14)
        target = int(rng.integers(0, g.u_count))
        col = ref.pi[:, target]

        def check(phase, rounds, led):
            assert np.abs(led.residue_v).max() == 0.0
            recon = led.estimate + ref.pi @ led.residue_u
            assert np.abs(recon - col).max() <= 1e-10

        selective_push(g, target, ALPHA, eps_b, round_hook=check)


class TestSsPush:
    def test_budget_switch_on_hub_graph(self):
        # a weight hub holds the weighted mass the selective rounds cannot
        # reach, tripping the budget
        g = heavy_pendant_graph()
        out = ss_push(g, 0, ALPHA, 1e-7)
        assert out.terminated_by == "budget-switch"
        assert out.phase_trace["sequential_rounds"] > 0
        ref = exact_hpp(g, ALPHA, tol=1e-14)
        diff = ref.pi[:, 0] - out.ledger.estimate
        assert diff.min() >= -1e-11
        assert diff.max() <= 1e-7 + 1e-12

    def test_hub_target_keeps_a_positive_budget(self):
        # One round from the hub leaves a raw residue mass above 1, where a
        # budget on log(1 / raw mass) would be negative. The ws-weighted
        # budget stays positive, so the rounds finish on their thresholds
        # with the work of plain selective pushing.
        g = hub_graph(50)
        masses = []
        out = ss_push(g, 0, ALPHA, 1e-5, round_hook=lambda ph, r, led: masses.append(led.residue_u.sum()))
        assert masses[0] > 1.0
        assert out.terminated_by == "threshold-met"
        assert out.phase_trace["sequential_rounds"] == 0
        assert out.ledger.n_p == selective_push(g, 0, ALPHA, 1e-5).ledger.n_p

    def test_exit_reasons_are_exhaustive(self):
        rng = np.random.default_rng(8)
        seen = set()
        for _ in range(15):
            g = random_bigraph(rng, int(rng.integers(5, 40)), int(rng.integers(5, 40)), 3.0)
            out = ss_push(g, 0, ALPHA, float(rng.choice([1e-2, 1e-5, 1e-8])))
            seen.add(out.terminated_by)
            assert out.terminated_by in {"threshold-met", "budget-switch"}
        assert "threshold-met" in seen

    def test_matches_selective_push_when_budget_unused(self):
        rng = np.random.default_rng(9)
        g = random_bigraph(rng, 25, 25, 4.0)
        a = selective_push(g, 3, ALPHA, 1e-4)
        b = ss_push(g, 3, ALPHA, 1e-4)
        if b.terminated_by == "threshold-met":
            np.testing.assert_array_equal(a.ledger.estimate, b.ledger.estimate)
            assert a.ledger.n_p == b.ledger.n_p

    def test_final_residues_cleared(self):
        rng = np.random.default_rng(10)
        for _ in range(8):
            g = random_bigraph(rng, int(rng.integers(5, 40)), int(rng.integers(5, 40)), 3.0)
            eps_b = float(rng.choice([1e-3, 1e-6]))
            out = ss_push(g, 0, ALPHA, eps_b)
            led = out.ledger
            assert np.abs(led.residue_v).max() == 0.0
            if out.terminated_by != "budget-switch":
                assert led.residue_u.max() <= eps_b
            else:
                # sequential exit guarantees small max residue or small mass
                assert led.residue_u.max() <= eps_b or led.residue_u.sum() <= eps_b


class TestDualPathEquivalence:
    def test_scatter_and_matrix_paths_agree(self, monkeypatch):
        rng = np.random.default_rng(11)
        g1 = random_bigraph(rng, 40, 35, 4.0)
        target = 7

        monkeypatch.setattr(pe, "_SCATTER_LIMIT", 10.0)  # always scatter
        scatter = ss_push(g1, target, ALPHA, 1e-6)
        monkeypatch.setattr(pe, "_SCATTER_LIMIT", -1.0)  # always matrix
        matrix = ss_push(g1, target, ALPHA, 1e-6)

        # summation order differs between the paths, so agreement is to
        # machine precision; the integer work accounting must match exactly
        np.testing.assert_allclose(scatter.ledger.estimate, matrix.ledger.estimate, atol=1e-13)
        np.testing.assert_allclose(scatter.ledger.residue_u, matrix.ledger.residue_u, atol=1e-13)
        assert scatter.ledger.n_p == matrix.ledger.n_p

    def test_runs_are_deterministic(self):
        g = synth_bipartite(80, 70, 500, seed=12)
        a = ss_push(g, 5, ALPHA, 1e-8)
        b = ss_push(g, 5, ALPHA, 1e-8)
        np.testing.assert_array_equal(a.ledger.estimate, b.ledger.estimate)
        assert a.phase_trace == b.phase_trace


class TestPiPush:
    @staticmethod
    def _check(g, src, out, exact=None):
        """Forward scores within residue_bound of the truth, their reflection
        within backward_bound, and the two bounds within the query's eps."""
        pi = exact_hpp_solve(g, ALPHA) if exact is None else exact
        trace = out.phase_trace
        fwd = pi[src, :] - out.scores
        back = pi[:, src] - out.scores * (g.ws_u[src] / g.ws_u)
        assert fwd.min() >= -1e-12 and back.min() >= -1e-12
        assert fwd.max() <= trace["residue_bound"] + 1e-12
        assert back.max() <= trace["backward_bound"] + 1e-12

    def test_forward_scores_one_sided_from_identity_seed(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            g = random_bigraph(rng, int(rng.integers(5, 50)), int(rng.integers(5, 50)), 3.0)
            ref = exact_hpp(g, ALPHA, tol=1e-14)
            src = int(rng.integers(0, g.u_count))
            for eps in (1e-3, 1e-5):
                out = pi_push(g, src, ALPHA, eps)
                diff = ref.pi[src, :] - out.scores
                assert diff.min() >= -1e-11
                assert diff.max() <= eps + 1e-12
                trace = out.phase_trace
                assert trace["residue_bound"] + trace["backward_bound"] <= eps

    @pytest.mark.parametrize("eps", [0.0, -1e-3, float("nan"), float("inf")])
    def test_epsilon_not_positive_and_finite_rejected(self, g3, eps):
        with pytest.raises(ValueError, match="must be positive"):
            pi_push(g3, 0, ALPHA, eps)

    def test_budget_exit_finishes_with_power_iterations(self):
        # pushing from u4 of a skewed graph stops paying before the certified
        # depth reaches zero; conjugate-gradient steps then finish the
        # residue tail
        g = synth_bipartite(300, 300, 1200, (0.0, 10.0), degree_skew=1.2, seed=0)
        out = pi_push(g, 4, ALPHA, 1e-4)
        assert out.terminated_by == "budget-switch"
        assert out.phase_trace["power_iterations"] > 0
        self._check(g, 4, out)

    @pytest.mark.parametrize("graph, src, eps, rounds, n_p", [
        (hub_graph(50), 0, 1e-7, 1, 150),
        (synth_bipartite(300, 300, 3000, (0.0, 10.0), degree_skew=1.2, seed=2), 2, 1e-2, 7, 35454),
    ], ids=["hub", "skew"])
    def test_switches_once_certified_depth_is_zero(self, graph, src, eps, rounds, n_p):
        # once the residues certify the tail with no conjugate-gradient step,
        # one more round would cost n_p and buy nothing; on the connected hub
        # graph one round leaves every residue within a hair of the others,
        # so the floor alone certifies the tail, and on a connected skew
        # graph seven rounds do at a loose epsilon
        out = pi_push(graph, src, ALPHA, eps)
        trace = out.phase_trace
        assert (trace["selective_rounds"], trace["power_iterations"], trace["depth_cap"]) == (rounds, 0, 0)
        assert out.ledger.n_p == n_p
        assert trace["residue_bound"] + trace["backward_bound"] <= eps
        assert (trace["tail_floor"] > 0.0) == is_connected(graph)
        assert check_finish(graph, src, eps, out)
        self._check(graph, src, out)

    def test_no_round_at_entry_depth_zero(self):
        # at an epsilon whose tail is certified from the unit residue itself
        # the kernel pushes nothing and returns alpha at the source
        g = synth_bipartite(400, 300, 4000, (0.0, 10.0), degree_skew=1.2, seed=21)
        phases = []
        out = pi_push(g, 0, ALPHA, 1.8,
                      round_hook=lambda ph, r, led: phases.append(ph))
        trace = out.phase_trace
        assert phases == [] and out.ledger.n_p == 0
        assert (trace["selective_rounds"], trace["power_iterations"]) == (0, 0)
        np.testing.assert_array_equal(np.flatnonzero(out.scores), [0])
        assert out.scores[0] == ALPHA
        self._check(g, 0, out)

    def test_cost_rule_switches_once_rounds_stop_paying(self):
        # On a skewed graph the rounds stop paying for themselves, priced at
        # the rate of conjugate gradients, after one round. The steps
        # certify the tail 8 steps before their cap.
        g = synth_bipartite(300, 300, 1200, (0.0, 10.0), degree_skew=1.2, seed=0)
        src, eps = 30, 1e-4
        out = pi_push(g, src, ALPHA, eps)
        trace = out.phase_trace
        assert out.terminated_by == "budget-switch"
        assert (trace["selective_rounds"], trace["power_iterations"], trace["depth_cap"]) == (1, 10, 18)
        check_finish(g, src, eps, out)
        self._check(g, src, out)

    def test_cost_rule_alone_stops_rounds_that_keep_paying(self, monkeypatch):
        # The pendant's weight sum is 2e5 times the clique's, and each round
        # from u1 hands it a residue under a share of the largest, never
        # pushed, that holds a growing share of the ws-weighted mass. Priced
        # at conjugate gradients' rate, the rounds stop paying after two.
        # Priced at power iteration's, they keep taking iterations off the
        # certified depth for what they cost, while the weighted mass falls
        # ever slower; each round that another follows still lowers the
        # depth, so the cost rule stops them within the depth priced at
        # entry, and the finish after them is certified as any other.
        g = heavy_pendant_graph()
        trace = pi_push(g, 1, ALPHA, 1e-3).phase_trace
        assert (trace["selective_rounds"], trace["power_iterations"]) == (2, 2)
        monkeypatch.setattr(pe, "_cg_rate", lambda alpha: 1.0 - alpha)
        out = pi_push(g, 1, ALPHA, 1e-3)
        trace = out.phase_trace
        d0 = entry_depth(g, 1, 1e-3)
        assert (trace["selective_rounds"], trace["power_iterations"], trace["depth_cap"], d0) == (8, 2, 117, 46)
        assert trace["selective_rounds"] <= d0
        assert out.ledger.n_p == 401 <= 2 * g.edge_count * (d0 + 1)
        assert out.ledger.residue_u[-1] < pe._PUSH_SHARE * out.ledger.residue_u.max()
        check_finish(g, 1, 1e-3, out, rate=1.0 - ALPHA)
        self._check(g, 1, out)

    def test_rounds_priced_against_the_finish_they_save(self):
        # Priced at power iteration's rate, pushing from u6 here ran 40
        # rounds (74.8|E| of n_p), and the last of them raised the certified
        # depth again before 4 power iterations finished. Priced at the rate
        # of the conjugate gradients that finish now, the second round no
        # longer pays for itself.
        g = synth_bipartite(100, 100, 300, (0.0, 10.0), degree_skew=1.2, seed=0)
        eps = 1e-4
        out = pi_push(g, 6, ALPHA, eps)
        trace = out.phase_trace
        assert (trace["selective_rounds"], trace["power_iterations"]) == (1, 11)
        assert out.ledger.n_p == 82
        check_finish(g, 6, eps, out)
        self._check(g, 6, out)

    def test_finish_restarts_from_the_true_residual_past_its_cap(self, monkeypatch):
        # With the cap forced to one step, every run of steps ends at its cap
        # uncertified, and the finish restarts from the recomputed residual
        # until that certifies: steepest descent, slower than conjugate
        # gradients, and certified all the same.
        g = synth_bipartite(300, 300, 1200, (0.0, 10.0), degree_skew=1.2, seed=0)
        src, eps = 30, 1e-4
        free = pi_push(g, src, ALPHA, eps).phase_trace["power_iterations"]
        monkeypatch.setattr(pe, "_cg_steps", lambda *args: 1)
        out = pi_push(g, src, ALPHA, eps)
        trace = out.phase_trace
        assert trace["power_iterations"] == trace["depth_cap"] > free
        assert trace["residue_bound"] + trace["backward_bound"] <= eps
        self._check(g, src, out)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["random", "wide-weights", "hub"]),
        st.sampled_from([1e-4, 1e-7, 1e-10]),
    )
    def test_certified_depth_keeps_guarantee(self, seed, shape, eps):
        # The finish's conjugate-gradient steps never exceed the
        # power-iteration depth the residue mass and max residue alone ask
        # for; both halves stay within their bounds below the truth, and
        # the bounds within eps.
        rng = np.random.default_rng(seed)
        if shape == "hub":
            g = hub_graph(int(rng.integers(3, 40)))
        else:
            g = random_bigraph(rng, int(rng.integers(3, 30)), int(rng.integers(3, 30)),
                               float(rng.uniform(1.5, 6.0)))
        if shape == "wide-weights":
            # per-edge weights spread over six decades
            w = g.u_weights * np.exp(rng.uniform(0.0, np.log(1e6), g.edge_count))
            g = BipartiteGraph(g.u_labels, g.v_labels, np.repeat(np.arange(g.u_count), g.deg_u),
                               g.u_indices, w)
        src = int(rng.integers(0, g.u_count))
        out = pi_push(g, src, ALPHA, eps)
        self._check(g, src, out)
        trace = out.phase_trace
        assert trace["residue_bound"] + trace["backward_bound"] <= eps
        assert out.terminated_by == "budget-switch"
        r = out.ledger.residue_u
        mass = float((g.ws_u / g.ws_u[src] * r).sum())
        assert trace["power_iterations"] <= required_iterations(ALPHA, eps, mass + float(r.max()))
        assert 0.0 <= trace["power_tail_bound"] <= eps

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([None, 1.2, 2.0]),
        st.sampled_from([1e-2, 1e-5, 1e-8, 1e-12]),
    )
    def test_cost_rule_bounds_the_rounds(self, seed, skew, eps):
        # A round runs only at a positive priced depth, and the next only if
        # its n_p, at least 1, was at most 2|E| times the drop in depth: so
        # at most d0 rounds, d0 being the depth priced at entry, at most
        # 2|E| of n_p each, and d0 logarithmic in 1/eps.
        rng = np.random.default_rng(seed)
        u_count, v_count = (int(n) for n in rng.integers(5, 201, 2))
        edges = int(rng.integers(max(u_count, v_count), min(u_count * v_count, 4 * max(u_count, v_count)) + 1))
        g = synth_bipartite(u_count, v_count, edges, (0.0, 10.0), degree_skew=skew, seed=seed)
        src = int(rng.integers(0, g.u_count))
        depths = []

        def priced(*args):
            depths.append(required_iterations(*args))
            return depths[-1]

        with mock.patch.object(pe, "required_iterations", priced):
            out = pi_push(g, src, ALPHA, eps)
        d0 = entry_depth(g, src, eps)
        # the kernel's first priced depth is the one the test computes
        assert depths[0] == d0
        trace = out.phase_trace
        assert trace["selective_rounds"] <= d0
        assert out.ledger.n_p <= 2 * g.edge_count * (d0 + 1)
        tau = pe._cg_rate(ALPHA)
        assert d0 <= math.ceil(math.log(2.0 * (1.0 - ALPHA) / (tau * eps)) / math.log(1.0 / tau))

    def test_certified_depth_below_mass_depth(self):
        # On a uniform graph the bracket certifies the tail where the
        # residue mass would ask for 69 iterations: the residues left at the
        # switch lie so close together that the floor covers all but eps.
        g = synth_bipartite(2000, 2000, 40000, (0.0, 10.0), seed=7)
        src, eps = 0, 5e-6
        out = pi_push(g, src, ALPHA, eps)
        assert out.terminated_by == "budget-switch"
        mass = float((g.ws_u / g.ws_u[src] * out.ledger.residue_u).sum())
        assert out.phase_trace["depth_cap"] < required_iterations(ALPHA, eps, mass) == 69
        assert out.phase_trace["power_tail_bound"] <= eps
        assert out.phase_trace["tail_floor"] > 0.0
        check_finish(g, src, eps, out)
        # 300 terms leave a tail under 0.85^301 < 1e-20
        start = np.zeros(g.u_count)
        start[src] = 1.0
        diff = power_iteration(g, start, ALPHA, 300) - out.scores
        assert diff.min() >= -1e-12
        assert diff.max() <= out.phase_trace["residue_bound"] + 1e-12

    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7])
    @pytest.mark.parametrize("skew, edges, seed", [(None, 1500, 4), (1.2, 1500, 4), (1.2, 3000, 2)],
                             ids=["uniform", "skew", "skew-connected"])
    def test_power_iterations_stop_on_their_own_certificate(self, skew, edges, seed, eps):
        # The finish stops at the first conjugate-gradient step whose
        # residual's bracket certifies both halves within eps, and never runs
        # past the cap certified from the residual at the start; the steps
        # are recomputed here with a dense P. The skew-1.2 graph with 1500
        # edges has more than one component, so the residual is 0 off the
        # source's and its floor is at most 0; the other two are connected,
        # and a finish there that runs no step credits a positive floor.
        g = synth_bipartite(300, 300, edges, (0.0, 10.0), degree_skew=skew, seed=seed)
        exact = exact_hpp_solve(g, ALPHA)
        p = dense_walk(g, np.longdouble)
        for src in (0, 7, 150):
            out = pi_push(g, src, ALPHA, eps)
            trace = out.phase_trace
            self._check(g, src, out, exact)
            assert trace["power_iterations"] <= trace["depth_cap"]
            assert trace["power_tail_bound"] <= eps
            if not is_connected(g):
                assert trace["tail_floor"] <= 0.0
            elif trace["power_iterations"] == 0:
                assert trace["tail_floor"] > 0.0
            check_finish(g, src, eps, out, p)

    def test_certificate_stops_below_the_cap(self):
        # On a connected skewed graph the pushing from u150 stops paying
        # after five rounds, while one residue still stands far above the
        # rest. The cap certified from the residual at the start is 14
        # steps; after 3 the bracket of the residual certifies the tail.
        g = synth_bipartite(300, 300, 3000, (0.0, 10.0), degree_skew=1.2, seed=2)
        src, eps = 150, 1e-3
        out = pi_push(g, src, ALPHA, eps)
        trace = out.phase_trace
        assert out.terminated_by == "budget-switch"
        assert (trace["selective_rounds"], trace["power_iterations"], trace["depth_cap"]) == (5, 3, 14)
        assert trace["power_tail_bound"] <= eps
        check_finish(g, src, eps, out)
        self._check(g, src, out)

    def test_each_round_pushes_above_a_share_of_the_largest_residue(self):
        # Replaying every round from the unit residue with the threshold
        # _PUSH_SHARE times the largest U residue before it reproduces the
        # ledger the kernel hands its hook, bit for bit.
        runs = [
            (hub_graph(50), 0, 1e-7),
            (synth_bipartite(300, 300, 1200, (0.0, 10.0), degree_skew=1.2, seed=0), 30, 1e-4),
            (synth_bipartite(300, 300, 3000, (0.0, 10.0), degree_skew=1.2, seed=2), 150, 1e-3),
            (heavy_pendant_graph(), 1, 1e-3),
        ]
        for g, src, eps in runs:
            snaps = []
            out = pi_push(g, src, ALPHA, eps, round_hook=lambda ph, r, led: snaps.append(
                (led.residue_u.copy(), led.residue_v.copy(), led.estimate.copy(), led.n_p)))
            assert len(snaps) == out.phase_trace["selective_rounds"] > 0
            replay = ResidueLedger.initial(g, src)
            for r_u, r_v, est, n_p in snaps:
                largest = float(replay.residue_u.max())
                pe._round(g, replay, pe._PUSH_SHARE * largest, ALPHA)
                np.testing.assert_array_equal(replay.residue_u, r_u)
                np.testing.assert_array_equal(replay.residue_v, r_v)
                np.testing.assert_array_equal(replay.estimate, est)
                assert replay.n_p == n_p

    @pytest.mark.parametrize("share", [0.0, 0.5, 0.9])
    def test_any_share_keeps_the_guarantee(self, monkeypatch, share):
        # The share only sets how much each round pushes; the finish
        # certifies whatever residues the rounds leave, so every share in
        # [0, 1) answers within eps on both sides.
        monkeypatch.setattr(pe, "_PUSH_SHARE", share)
        g = synth_bipartite(300, 300, 1200, (0.0, 10.0), degree_skew=1.2, seed=0)
        exact = exact_hpp_solve(g, ALPHA)
        for src, eps in ((30, 1e-4), (4, 1e-6)):
            out = pi_push(g, src, ALPHA, eps)
            trace = out.phase_trace
            assert out.terminated_by == "budget-switch"
            assert trace["residue_bound"] + trace["backward_bound"] <= eps
            self._check(g, src, out, exact)


class TestBracket:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 6.0, 30.0]), st.booleans())
    def test_two_hop_keeps_z_over_ws_within_its_bracket(self, seed, decades, signed):
        # The walk is reversible, so (z P)_j / ws_j is a convex combination
        # of the values z_i / ws_i: one step never lowers their minimum and
        # never raises their maximum, up to rounding, over weights spread
        # across up to 30 decades too. That holds for a signed z, such as a
        # conjugate-gradient residual, as well, and as the rows of P sum to
        # 1, (z P)_j lies between -sum z^- and sum z^+.
        rng = np.random.default_rng(seed)
        g = random_bigraph(rng, int(rng.integers(2, 40)), int(rng.integers(2, 40)),
                           float(rng.uniform(1.0, 5.0)))
        w = g.u_weights * 10.0 ** rng.uniform(-decades / 2, decades / 2, g.edge_count)
        g = BipartiteGraph(g.u_labels, g.v_labels, np.repeat(np.arange(g.u_count), g.deg_u), g.u_indices, w)
        p, ws = dense_walk(g), g.ws_u
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=1e-12)
        np.testing.assert_allclose(ws[:, None] * p, (ws[:, None] * p).T, rtol=1e-12, atol=0)
        z = rng.random(g.u_count) * 10.0 ** rng.uniform(-3, 3, g.u_count)
        z[rng.random(g.u_count) < 0.3] = 0.0
        if signed:
            z[rng.random(g.u_count) < 0.5] *= -1.0
        step = pe._two_hop(g, z)
        # signed sums round relative to their largest term, not their value
        scale = 1e-12 if signed else 0.0
        np.testing.assert_allclose(step, z @ p, rtol=1e-12, atol=scale * np.abs(z @ p).max())
        before, after = z / ws, step / ws
        if signed:
            lo_slack = hi_slack = scale * np.abs(before).max()
        else:
            lo_slack, hi_slack = 1e-12 * before.min(), 1e-12 * before.max()
        assert after.min() >= before.min() - lo_slack
        assert after.max() <= before.max() + hi_slack
        mass = 1e-12 * np.abs(z).sum()
        assert step.min() >= z[z < 0].sum() - mass
        assert step.max() <= z[z > 0].sum() + mass

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["uniform", "hub", "30-decades"]),
        st.sampled_from([1e-3, 1e-5, 1e-7]),
    )
    # a float64 replay of this finish misread its bound by 1.7e-3
    @example(seed=221, shape="30-decades", eps=1e-5)
    # float64 and long double CG took the same 13 steps here, yet ended on
    # iterates whose bounds differ by 7%
    @example(seed=192, shape="30-decades", eps=1e-7)
    def test_floor_keeps_guarantee_on_connected_graphs(self, seed, shape, eps):
        # On a connected graph the finish credits the floor of the dropped
        # tail; both halves stay below the truth, within the bounds left
        # over the floor, and the bounds within eps.
        rng = np.random.default_rng(seed)
        if shape == "hub":
            g = hub_graph(int(rng.integers(3, 40)))
        else:
            u_count, v_count = (int(n) for n in rng.integers(5, 60, 2))
            edges = min(u_count * v_count, 4 * max(u_count, v_count))
            g = synth_bipartite(u_count, v_count, edges, (0.0, 10.0), seed=seed)
        if shape == "30-decades":
            w = g.u_weights * 10.0 ** rng.uniform(-15, 15, g.edge_count)
            g = BipartiteGraph(g.u_labels, g.v_labels, np.repeat(np.arange(g.u_count), g.deg_u),
                               g.u_indices, w)
        assume(is_connected(g))
        q = int(rng.integers(0, g.u_count))
        pi = exact_hpp_solve(g, ALPHA)
        meta = build_index_meta(g)
        res = bhpp_query(g, meta, q, eps)
        diff = pi[q, :] + pi[:, q] - res.scores
        bound = res.phase_trace["backward"]["residue_bound"] + res.phase_trace["forward"]["residue_bound"]
        assert diff.min() >= -1e-12
        assert diff.max() <= bound + 1e-12
        assert bound <= eps
        out = pi_push(g, q, ALPHA, eps)
        TestPiPush._check(g, q, out, pi)
        check_finish(g, q, eps, out)


class TestLoopContract:
    def test_hook_runs_once_per_round_and_never_for_no_round(self):
        # Every switch rule is asked before each round, so every round
        # pushes (n_p strictly grows from its value at kernel entry), the
        # hook's round numbers count 1, 2, ... per phase up to the trace's
        # round count, and a run met at entry neither runs nor reports one.
        hub = hub_graph(50)
        skew = synth_bipartite(300, 300, 1200, (0.0, 10.0), degree_skew=1.2, seed=0)
        runs = [
            (selective_push, (skew, 0, ALPHA, 1e-6),
             {"selective": "selective_rounds"}),
            (ss_push, (heavy_pendant_graph(), 0, ALPHA, 1e-7),
             {"selective": "selective_rounds", "sequential": "sequential_rounds"}),
            (pi_push, (hub, 0, ALPHA, 1e-7),
             {"forward-selective": "selective_rounds"}),
            (pi_push, (skew, 30, ALPHA, 1e-4),
             {"forward-selective": "selective_rounds"}),
        ]
        for kernel, args, phases in runs:
            calls = []
            out = kernel(*args, round_hook=lambda ph, r, led: calls.append((ph, r, led.n_p)))
            n_p = [0] + [c[2] for c in calls]
            assert all(later > earlier for earlier, later in zip(n_p, n_p[1:]))
            for phase, key in phases.items():
                rounds = [r for ph, r, _ in calls if ph == phase]
                assert rounds == list(range(1, out.phase_trace[key] + 1))
            assert {ph for ph, _, _ in calls} <= set(phases)
            assert out.phase_trace["selective_rounds"] > 0

        calls = []

        def hook(*args):
            calls.append(args)

        out = selective_push(skew, 0, ALPHA, 2.0, round_hook=hook)
        assert out.phase_trace["selective_rounds"] == 0 and out.ledger.n_p == 0
        # the bracket of the unit residue certifies an epsilon of 2: the
        # switch rule fires at entry, and the finish runs no step
        out = pi_push(skew, 3, ALPHA, 2.0, round_hook=hook)
        assert out.phase_trace["selective_rounds"] == out.phase_trace["power_iterations"] == 0
        assert out.ledger.n_p == 0
        np.testing.assert_array_equal(np.flatnonzero(out.scores), [3])
        assert calls == []
