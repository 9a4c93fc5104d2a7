"""Dense brute-force reference for the hidden walk scores.

Materializes the full U-to-U transition matrix (forbidden for the real
kernels, fine for a reference) and evaluates the restart-walk series to a
requested truncation tolerance. Intended for tests and diagnostics on small
graphs; refuses anything wider than the configured cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bigraph import BipartiteGraph, DataError


@dataclass(frozen=True)
class DenseHpp:
    """Dense score table. pi[i, j] approximates the stationary visit
    probability of node j for a restart walk started at node i; every entry
    underestimates the true value by at most `bound`."""

    pi: np.ndarray
    alpha: float
    bound: float


def _transition(g: BipartiteGraph) -> np.ndarray:
    """Dense U-to-U transition diag(1/ws_u) U_raw diag(1/ws_v) V_raw: the
    U->V step times the V->U step, built from the raw weights alone."""
    import scipy.sparse as sp  # only here, to keep it off the CLI's imports

    u_adj = sp.csr_matrix((g.u_weights, g.u_indices, g.u_indptr), shape=(g.u_count, g.v_count))
    v_adj = sp.csr_matrix((g.v_weights, g.v_indices, g.v_indptr), shape=(g.v_count, g.u_count))
    u_step = sp.diags(1.0 / g.ws_u) @ u_adj
    v_step = sp.diags(1.0 / g.ws_v) @ v_adj
    return (u_step @ v_step).toarray()


def exact_hpp(g: BipartiteGraph, alpha: float, tol: float = 1e-12, cap: int = 2000) -> DenseHpp:
    """Truncated-series reference scores for every source node at once.

    Uses the doubling identity S_{2t+1} = S_t + A^{t+1} S_t on the geometric
    series in A = (1-alpha) P, stopping once the dropped tail (1-alpha)^{t+1}
    is at most tol. Entrywise: 0 <= true - computed <= bound <= tol.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if g.u_count > cap:
        raise DataError(
            f"graph too wide for the dense reference: {g.u_count} > cap={cap}"
        )
    P = _transition(g)
    A = (1.0 - alpha) * P
    S = np.eye(g.u_count)
    M = A.copy()
    rem = 1.0 - alpha
    while rem > tol:
        S = S + M @ S
        M = M @ M
        rem = rem * rem
    return DenseHpp(pi=alpha * S, alpha=alpha, bound=rem)


def exact_hpp_solve(g: BipartiteGraph, alpha: float, cap: int = 2000) -> np.ndarray:
    """Independent reference path: solve the linear fixed point directly.

    Row i solves pi_i = alpha e_i + (1-alpha) pi_i P, i.e.
    Pi = alpha (I - (1-alpha) P)^{-1}. No shared code with exact_hpp beyond
    the transition matrix.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if g.u_count > cap:
        raise DataError(
            f"graph too wide for the dense reference: {g.u_count} > cap={cap}"
        )
    P = _transition(g)
    n = g.u_count
    system = np.eye(n) - (1.0 - alpha) * P
    # Pi @ system = alpha I  =>  system^T @ Pi^T = alpha I.
    return np.linalg.solve(system.T, alpha * np.eye(n)).T


def exact_bhpp(ref: DenseHpp, u: int) -> np.ndarray:
    """Reference two-way scores for source u: row u plus column u."""
    return ref.pi[u, :] + ref.pi[:, u]
