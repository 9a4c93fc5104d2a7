"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The corpus-based criteria compare the push kernels against a dense reference
scorer computed by two independent constructions (truncated series and a
direct linear solve), which agree to 1e-11 (see test_oracle.py).
"""

import time

import numpy as np
import pytest

from bipush import (
    DeadlineExceeded,
    bhpp_query,
    build_alias,
    build_index_meta,
    desirability,
    mcsp_query,
    monte_carlo,
    ndcg_at_k,
    pi_push,
    pisp_query,
    precision_recall_at_k,
    predict_score,
    RankedJudgment,
    required_iterations,
    similarity_rows,
    split_edges,
    ss_push,
    synth_bipartite,
    topk,
)
from bipush.bigraph import BipartiteGraph, k_core_filter
from conftest import random_bigraph
from oracle import exact_bhpp, exact_hpp

ALPHA = 0.15
CORPUS_SIZE = 200
EPSILONS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


@pytest.fixture(scope="module")
def corpus():
    """200 random graphs (|U|,|V| in [10,200], 2-20 avg degree, weights in
    (0,10]) with dense reference scores and query metadata."""
    rng = np.random.default_rng(2026)
    out = []
    for _ in range(CORPUS_SIZE):
        g = random_bigraph(rng)
        out.append((g, exact_hpp(g, ALPHA, tol=1e-12), build_index_meta(g)))
    return out


@pytest.fixture(scope="module")
def small_corpus():
    """20 graphs with |U| <= 50 for the per-round invariant check."""
    rng = np.random.default_rng(404)
    out = []
    for _ in range(20):
        g = random_bigraph(rng, int(rng.integers(10, 51)), int(rng.integers(10, 51)))
        out.append((g, exact_hpp(g, ALPHA, tol=1e-12)))
    return out


@pytest.fixture(scope="module")
def query_rng():
    return np.random.default_rng(515)


def test_criterion_01_two_way_scores_within_epsilon(corpus, query_rng):
    # end-to-end: 0 - 1e-9 <= reference - reported <= epsilon, every node,
    # every epsilon in {1e-2 .. 1e-6}
    worst_lo, worst_hi = 0.0, 0.0
    for g, ref, meta in corpus:
        q = int(query_rng.integers(0, g.u_count))
        truth = exact_bhpp(ref, q)
        for eps in EPSILONS:
            res = bhpp_query(g, meta, q, eps)
            diff = truth - res.scores
            worst_lo = min(worst_lo, float(diff.min()))
            worst_hi = max(worst_hi, float(diff.max()) / eps)
            assert diff.min() >= -1e-9
            assert diff.max() <= eps
            # the certificate, both halves of one vector, bounds the error
            bound = (res.phase_trace["backward"]["residue_bound"]
                     + res.phase_trace["forward"]["residue_bound"])
            assert bound <= eps
            assert diff.max() <= bound + 1e-9
    print(
        f"criterion 1 PASS: {CORPUS_SIZE} graphs x {len(EPSILONS)} epsilons, "
        f"undershoot floor {worst_lo:.2e}, worst error {worst_hi:.1%} of eps"
    )


def test_criterion_02_backward_estimates_within_eps_b(corpus, query_rng):
    worst = 0.0
    for g, ref, _ in corpus:
        target = int(query_rng.integers(0, g.u_count))
        col = ref.pi[:, target]
        for eps_b in (1e-3, 1e-5):
            out = ss_push(g, target, ALPHA, eps_b)
            diff = col - out.ledger.estimate
            worst = max(worst, float(diff.max()) / eps_b)
            assert diff.min() >= -1e-9
            assert diff.max() <= eps_b
            # the certificate from the final residues bounds the error
            assert out.phase_trace["residue_bound"] <= eps_b
            assert diff.max() <= out.phase_trace["residue_bound"] + 1e-9
    print(f"criterion 2 PASS: backward error at most {worst:.1%} of eps_b")


def test_criterion_03_forward_scores_within_eps_f(corpus, query_rng):
    worst = 0.0
    for g, ref, meta in corpus:
        src = int(query_rng.integers(0, g.u_count))
        row = ref.pi[src, :]
        for eps_f in (1e-3, 1e-5):
            out = pi_push(g, src, ALPHA, eps_f)
            diff = row - out.scores
            worst = max(worst, float(diff.max()) / eps_f)
            assert diff.min() >= -1e-9
            assert diff.max() <= eps_f
            assert out.phase_trace["power_tail_bound"] <= eps_f
            # the certificate from the final residues bounds the error
            assert out.phase_trace["residue_bound"] <= eps_f
            assert diff.max() <= out.phase_trace["residue_bound"] + 1e-9
    print(f"criterion 3 PASS: forward error at most {worst:.1%} of eps_f")


def test_criterion_04_conservation_at_every_round(small_corpus, query_rng):
    # estimate + residue-weighted true scores must reproduce the true column
    # at every round boundary
    worst = 0.0
    boundaries = 0
    for g, ref in small_corpus:
        target = int(query_rng.integers(0, g.u_count))
        col = ref.pi[:, target]
        seen = []

        def check(phase, rounds, led, col=col, ref=ref, seen=seen):
            assert np.abs(led.residue_v).max() == 0.0
            gap = np.abs(led.estimate + ref.pi @ led.residue_u - col).max()
            seen.append(float(gap))
            assert gap <= 1e-9

        ss_push(g, target, ALPHA, 1e-4, round_hook=check)
        assert seen, "round hook never ran"
        boundaries += len(seen)
        worst = max(worst, max(seen))
    print(
        f"criterion 4 PASS: {boundaries} boundaries on 20 graphs, "
        f"worst identity gap {worst:.2e}"
    )


def test_criterion_05_weight_scaled_symmetry(corpus):
    worst = 0.0
    for g, ref, _ in corpus[:100]:
        scaled = ref.pi / g.ws_u[None, :]
        gap = float(np.abs(scaled - scaled.T).max())
        worst = max(worst, gap)
        assert gap <= 1e-9
        # hence the two-way score is one row scaled: pi[u, :] + pi[:, u] =
        # pi[u, :] * (1 + ws_u / ws)
        for u in range(g.u_count):
            two_way = ref.pi[u, :] + ref.pi[:, u]
            np.testing.assert_allclose(ref.pi[u, :] * (1.0 + g.ws_u[u] / g.ws_u), two_way, rtol=1e-12, atol=0)
    print(f"criterion 5 PASS: 100 graphs, worst symmetry gap {worst:.2e}")


def test_criterion_07_iteration_count_pin():
    got = required_iterations(0.15, 0.1, 1.0)
    assert got == 14
    print(f"criterion 7 PASS: required_iterations(0.15, 0.1, 1) = {got}")


def test_criterion_08_walk_concentration(g2):
    # closed form (0.575, 0.425); at most 1 of 50 seeded runs may exceed
    # the eps_f = 0.02 bound
    alias = build_alias(g2)
    truth = np.array([0.575, 0.425])
    violations = 0
    worst = 0.0
    for seed in range(50):
        est = monte_carlo(g2, alias, 0, ALPHA, 0.02, 1e-6, seed=seed)
        err = float(np.abs(est - truth).max())
        worst = max(worst, err)
        if err > 0.02:
            violations += 1
    assert violations <= 1
    print(
        f"criterion 8 PASS: {violations} of 50 runs violated 0.02 "
        f"(worst error {worst:.4f})"
    )


def test_criterion_09_directional_efficiency():
    # timing shape on a 100k-edge graph, 50 queries: the two-way push should
    # be cheapest at loose accuracy and no slower than the power-iteration
    # hybrid at tight accuracy; the walk hybrid times out at 1e-6
    g = synth_bipartite(5000, 5000, 100_000, (0.0, 10.0), seed=99)
    meta = build_index_meta(g)
    alias = build_alias(g)
    rng = np.random.default_rng(606)
    queries = rng.choice(g.u_count, size=50, replace=False).tolist()

    def mean_time(fn):
        times = [fn(q).timing["total"] for q in queries]
        return float(np.mean(times))

    reports = []

    def require_not_slower(label, mine, other_label, other):
        if mine <= other:
            return
        overshoot = (mine - other) / other
        line = (
            f"criterion 9 NOTE: {label} mean {mine * 1e3:.2f}ms above "
            f"{other_label} {other * 1e3:.2f}ms by {overshoot:.1%}"
        )
        if overshoot < 0.10:
            reports.append(line + " (< 10%, reported, not failed)")
        else:
            pytest.fail(line)

    eps = 1e-2
    ss_loose = mean_time(lambda q: bhpp_query(g, meta, q, eps))
    pisp_loose = mean_time(lambda q: pisp_query(g, q, ALPHA, eps))
    mcsp_loose = mean_time(lambda q: mcsp_query(g, alias, q, ALPHA, eps, seed=7))
    require_not_slower("two-way push @1e-2", ss_loose, "power-iterate+push", pisp_loose)
    require_not_slower("two-way push @1e-2", ss_loose, "walk+push", mcsp_loose)

    eps = 1e-6
    ss_tight = mean_time(lambda q: bhpp_query(g, meta, q, eps))
    pisp_tight = mean_time(lambda q: pisp_query(g, q, ALPHA, eps))
    require_not_slower("two-way push @1e-6", ss_tight, "power-iterate+push", pisp_tight)
    with pytest.raises(DeadlineExceeded):
        mcsp_query(
            g, alias, queries[0], ALPHA, eps, seed=7,
            deadline=time.perf_counter() + 0.5,
        )

    for line in reports:
        print(line)
    print(
        "criterion 9 PASS: @1e-2 "
        f"push {ss_loose * 1e3:.2f}ms <= pi {pisp_loose * 1e3:.2f}ms, "
        f"walk {mcsp_loose * 1e3:.2f}ms; @1e-6 "
        f"push {ss_tight * 1e3:.2f}ms <= pi {pisp_tight * 1e3:.2f}ms, "
        "walk timeout-excluded"
    )


def test_criterion_10_residual_mass_monotone_in_eps_b():
    # the degree-weighted residual mass at the forward handoff must not
    # grow as the backward threshold tightens
    sweeps = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    shapes = [
        synth_bipartite(400, 300, 3000, (0.0, 10.0), seed=101),
        synth_bipartite(200, 500, 2500, (0.0, 10.0), degree_skew=1.5, seed=102),
        synth_bipartite(600, 600, 2400, (0.0, 10.0), seed=103),
    ]
    for gi, g in enumerate(shapes):
        q = 0
        gammas = []
        for eps_b in sweeps:
            led = ss_push(g, q, ALPHA, eps_b).ledger
            gammas.append(float((g.ws_u / g.ws_u[q] * led.residue_u).sum()))
        for a, b in zip(gammas, gammas[1:]):
            assert b <= a + 1e-12
        print(f"criterion 10 graph {gi}: gamma sweep {['%.3e' % x for x in gammas]}")
    print("criterion 10 PASS: residual mass non-increasing on 3 graphs")


def test_criterion_11_evaluation_self_consistency(query_rng):
    # ideal ranking scores 1; counting identity precision*k = hits =
    # recall*|GT|; desirability and prediction match brute force to 1e-12
    rng = query_rng
    for _ in range(20):
        n = int(rng.integers(2, 12))
        grades = rng.random(n)
        ranking = list(np.argsort(-grades))
        j = RankedJudgment(ranking=ranking, relevance=dict(enumerate(grades)))
        assert ndcg_at_k(j, n) == pytest.approx(1.0, abs=1e-12)

        k = int(rng.integers(1, 8))
        universe = rng.permutation(30).tolist()
        gt = set(rng.choice(30, size=int(rng.integers(1, 10)), replace=False).tolist())
        p, r = precision_recall_at_k(universe, gt, k)
        hits = len(set(universe[:k]) & gt)
        assert p * k == pytest.approx(hits, abs=1e-12)
        assert r * len(gt) == pytest.approx(hits, abs=1e-12)

    worst_d, worst_p = 0.0, 0.0
    for i in range(50):
        g = random_bigraph(rng, int(rng.integers(8, 25)), int(rng.integers(8, 25)), 4.0)
        eu = np.repeat(np.arange(g.u_count), np.diff(g.u_adj.indptr))
        nbr: dict[int, set] = {}
        wt: dict[tuple, float] = {}
        for a, b, w in zip(eu.tolist(), g.u_adj.indices.tolist(), g.u_adj.data.tolist()):
            nbr.setdefault(int(a), set()).add(int(b))
            wt[(int(a), int(b))] = float(w)
        qi, qj = (int(x) for x in rng.integers(0, g.u_count, size=2))
        shared = nbr[qi] & nbr[qj]
        brute = sum(wt[(qj, b)] for b in shared) / g.deg_u[qj]
        gap = abs(desirability(g, qi, qj) - brute)
        worst_d = max(worst_d, gap)
        assert gap <= 1e-12

        try:
            core = k_core_filter(g, 2)
        except Exception:
            continue
        split = split_edges(core, 0.3, seed=i, side="v", negatives=5)
        if not split.candidates:
            continue
        sim = similarity_rows("jaccard", split.train)
        v = next(iter(split.candidates))
        ui = split.candidates[v][0]
        row = sim(ui)
        order = np.argsort(-row, kind="stable")
        peers = [x for x in order.tolist() if x != ui][:4]
        tr = split.train
        s, e = tr.v_adj.indptr[v], tr.v_adj.indptr[v + 1]
        rated = dict(zip(tr.v_adj.indices[s:e].tolist(), tr.v_adj.data[s:e].tolist()))
        pool = set(peers) | set(rated)
        num = sum(row[x] * rated.get(x, 0.0) for x in pool)
        den = sum(row[x] for x in pool)
        brute_p = num / den if den != 0 else 0.0
        gap = abs(predict_score(v, ui, sim, 4, split) - brute_p)
        worst_p = max(worst_p, gap)
        assert gap <= 1e-12
    print(
        f"criterion 11 PASS: brute-force gaps desirability {worst_d:.2e}, "
        f"prediction {worst_p:.2e}"
    )
