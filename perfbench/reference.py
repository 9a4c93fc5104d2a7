"""Independent reference scores and the output checks that feed fail_rate.

The reference is built from the generated edge arrays, never from the
program's graph object. With W the |U|x|V| weight matrix and ws the
weight sums, the hidden walk matrix is P = D_u^-1 W D_v^-1 W^T, and the
walk score matrix is Pi = alpha * sum_l (1-alpha)^l P^l. A query u needs
row u (forward) and column u (backward) of Pi; both are power-iterated for
a whole block of queries at once until the entrywise tail of the dropped
terms is at most `tail`.

Tail bounds after summing terms l = 0..t (so the next term is t+1):
- backward: P is row-stochastic, so max(P y) <= max(y) and every later
  column term is at most max(P^(t+1) e_u) entrywise;
- forward: P is reversible (ws_i P_ij = ws_j P_ji), so z = x / ws obeys
  z_(l+1) = P z_l and every later row term is at most ws_j * max(z_(t+1)),
  and never more than 1 because each row term is a distribution.
Each geometric tail then sums to (1-alpha)^(t+1) times that bound.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

ALPHA = 0.15
# Allowance for float rounding in the program's own sums when comparing a
# score with its bound; far below every epsilon the workloads use.
ROUNDING = 1e-12


class Reference:
    def __init__(self, eu, ev, ew, u_count: int, v_count: int):
        w = sp.csr_matrix((ew, (eu, ev)), shape=(u_count, v_count))
        self.ws_u = np.asarray(w.sum(axis=1)).ravel()
        ws_v = np.asarray(w.sum(axis=0)).ravel()
        a_u = sp.diags(1.0 / self.ws_u) @ w              # U -> V step
        a_v = sp.diags(1.0 / ws_v) @ w.T.tocsr()         # V -> U step
        self.a_u = a_u.tocsr()
        self.a_v = a_v.tocsr()
        self.a_u_t = a_u.T.tocsr()
        self.a_v_t = a_v.T.tocsr()
        self.u_count = u_count

    def scores(self, queries: list[int], tail: float):
        """Reference two-way scores, one column per query, and the bound on
        how far each true score can lie above its reference value."""
        n, b = self.u_count, len(queries)
        x = np.zeros((n, b))
        x[queries, np.arange(b)] = 1.0
        y = x.copy()
        fwd = ALPHA * x
        bwd = ALPHA * x
        decay = 1.0 - ALPHA
        scale = ALPHA
        ws_max = float(self.ws_u.max())
        while True:
            x = self.a_v_t @ (self.a_u_t @ x)
            y = self.a_u @ (self.a_v @ y)
            scale *= decay
            # decay^(t+1) * bound; scale == ALPHA * decay^(t+1) here.
            fwd_bound = np.minimum(1.0, ws_max * (x / self.ws_u[:, None]).max(axis=0))
            left = (scale / ALPHA) * (fwd_bound + y.max(axis=0))
            if left.max() <= tail:
                return fwd + bwd, float(left.max())
            fwd += scale * x
            bwd += scale * y


def check_scores(s, ref, epsilon: float, tail: float) -> tuple[bool, float]:
    """`ref - epsilon <= s <= ref + tail` entrywise, no NaN. Returns the
    verdict and the worst undershoot as a share of epsilon."""
    s = np.asarray(s, dtype=np.float64)
    if s.shape != ref.shape or not np.isfinite(s).all():
        return False, float("nan")
    under = float((ref - s).max())
    ok = under <= epsilon + ROUNDING and bool((s <= ref + tail + ROUNDING).all())
    return ok, under / epsilon


def check_topk(pairs, ref, query: int, k: int, epsilon: float, tail: float) -> tuple[bool, float]:
    """Printed (index, score) pairs of a top-k answer that excludes the
    query: each score within its bound, and no omitted node whose reference
    score exceeds the k-th printed score by more than epsilon. Returns the
    verdict and the worst undershoot as a share of epsilon."""
    idx = np.array([i for i, _ in pairs], dtype=np.int64)
    val = np.array([v for _, v in pairs], dtype=np.float64)
    if len(pairs) != k or query in idx or np.unique(idx).size != k or not np.isfinite(val).all():
        return False, float("nan")
    under = float((ref[idx] - val).max())
    omitted = np.ones(ref.size, dtype=bool)
    omitted[idx] = False
    omitted[query] = False
    ok = (under <= epsilon + ROUNDING and bool((val <= ref[idx] + tail + ROUNDING).all())
          and bool(ref[omitted].max() <= val.min() + epsilon + ROUNDING))
    return ok, under / epsilon
