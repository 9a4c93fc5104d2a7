"""Residue-push kernels for restart walks over the implicit two-hop graph.

All kernels maintain a ledger of per-node residues and settled estimates.
The backward family (selective_push, ss_push) answers "how often does a walk
from u_i land on the fixed target u": each round settles alpha times the
residue of every over-threshold U-node into its estimate and scatters the
remaining (1-alpha) share onto incident V-nodes, normalized by the receiving
node's weight sum; V-nodes then flush their whole residue back to U the same
way, without the (1-alpha) factor, because no restart decision happens
mid-hop. The conservation law

    true(i) = estimate(i) + sum_j true(j) * residue_u(j)

holds at every round boundary (V residues zero) and is what the tests probe.

Both halves of a round are one primitive, `_push_rows`: add scale times the
rows a mask selects (over-threshold U nodes, positive V nodes) of a
raw-weight matrix (g.u_adj for the U half, g.v_adj for the V half),
weighted by the pushed residues, into the other side's residues, dividing
each receiver's total by its weight sum (g.ws_v, g.ws_u). It scatters slot
by slot while the pushed rows are a small share of the edges and otherwise
gathers the dense masked residues in one sparse mat-vec through the
receiving side's own CSR (g.v_adj for the U half, g.u_adj for the V half),
which sums in the same order as the transpose would. The V half pushes
every positive residue, so it hands its residues to the mat-vec as they
are.

Every kernel runs the same loop of thresholded rounds, `_rounds`, which stops
when no U residue exceeds the kernel's stop threshold, where it has one, or
when the kernel's switch rule says so. It asks both before every round, the
first included, so no round pushes nothing and a kernel met at entry runs
none. ss_push switches on the paper's budget: selective pushing has
stopped paying for itself once n_p (degree sum of every node pushed so
far) exceeds 2|E| log_{1/(1-alpha)}(1 / ratio), where ratio is the
ws-weighted residue mass sum_i ws(u_i) r(u_i) over its value at entry.
ss_push then switches to sequential rounds that push every positive
residue.

pi_push answers a two-way query with one ledger. The two-hop chain is
reversible with respect to ws (ws_i P_ij = ws_j P_ji), so ws(u_i) pi_i(u) =
ws(u) pi_u(i): backward residues and estimates convert to forward ones
through the ratio ws(u_i)/ws(u), and the backward scores are the forward
ones scaled by ws(u)/ws(u_i), their error included. pi_push pushes the
unit ledger at u, each round the U residues above a fixed share of the
largest, in the style of SpeedPPR's epochs (Wu, Gan, Wei, Zhang, SIGMOD
2021). No threshold ends its rounds; its switch rule does, and then the
transformed residues x still owe the forward scores
y* = alpha sum_l (1-alpha)^l x P^l, the solution of
y (I - (1-alpha) P) = alpha x, and a finish supplies them.

Reversibility also brackets every walk: for any z, signed or not,
(z P)_j / ws_j = sum_i P_ji z_i / ws_i is a convex combination of the
values z_i / ws_i, so it lies between their minimum lo and maximum hi, and
as P's rows sum to 1, (z P)_j lies between -sum z^- and sum z^+. Both
hold for every z P^l, so T(z) = alpha sum_l (1-alpha)^l z P^l obeys

    max(lo ws_j, -sum z^-) <= T(z)_j <= min(hi ws_j, sum z^+).

The finish credits the lower end, which keeps the scores one-sided, and
certifies what is left: the largest gap for the forward half, and the
largest ws(u) / ws_j times it for the backward half, the forward one
scaled by ws(u) / ws(u_i). At the switch z = x is nonnegative and lo and
hi are those of r / ws(u): if (1-alpha) * (min(sum x, ws_max (hi - lo)) +
ws(u) (hi - lo)), the bracket of the tail past alpha x, is at most eps,
the finish is alpha x plus the floor (1-alpha) lo ws and runs no step.
Otherwise it runs conjugate gradients (Hestenes and Stiefel, 1952) from
y = alpha x. The operator y -> y (I - (1-alpha) P) is self-adjoint in
<a, c> = sum a_i c_i / ws_i, by reversibility again, with its spectrum in
[alpha, 1], P being similar to a positive semidefinite matrix whose
spectrum lies in [0, 1]. CG therefore shrinks the energy norm of the error
by tau = (1 - sqrt(alpha)) / (1 + sqrt(alpha)) a step or more. Every exit
is certified on the recomputed residual rho = alpha x - y + (1-alpha) y P,
for y* - y = rho (I - (1-alpha) P)^-1 = T(rho) / alpha: the scores gain
the bracket's lower end over alpha, clipped so that no score is negative
(the true ones are not), and the bounds are its gaps over alpha. lo may be
negative here. The steps stop once the two bounds sum to at most eps,
read off CG's updated residual after each step and confirmed on the
recomputed one. In exact arithmetic ||rho_k||_{1/ws} <= 2 tau^k
||rho_0||_{1/ws} / sqrt(alpha), and |rho_i| / ws_i <= ||rho||_{1/ws} /
sqrt(ws_min), so the finish certifies by the smallest k with
4 (ws_max + ws(u)) ||rho_0||_{1/ws} tau^k <= alpha^(3/2) sqrt(ws_min) eps,
a step count logarithmic in 1/eps. That k is the cap. Where rounding
leaves the cap uncertified, CG restarts from the recomputed residual as
long as that lowers its energy; once rounding stops it falling (an eps
near the float64 floor) the finish returns the bound it certified, above
eps.

pi_push switches on cost. A CG step costs 2|E| of n_p, and a round
boundary prices the finish at tau: its a-priori depth is the smallest k
with tau^k (1-alpha) (min(sum x, ws_max w) + ws(u) w) <= eps, w being the
width (max r - min r) / ws(u), so depth 0 is the bracket exit. Before each
round pi_push switches once the last round's n_p exceeded 2|E| times the
drop in that depth, or once the depth is zero, at entry included. That
rule alone bounds the pushing. A round runs only at a positive depth and
pushes at least one edge, and the next one runs only if that n_p was at
most 2|E| times the drop in depth, so each round that another follows
lowers the depth by at least 1. Hence there are at most d0 rounds, d0
being the depth priced at entry. A round pushes each node at most once,
so it costs at most 2|E|, and n_p is at most 2|E| (d0 + 1). At entry x is
the unit vector at u and the width is 1 / ws(u), so
d0 <= ceil(log_{1/tau}(2 (1-alpha) / (tau eps))); with the finish's cap
the work is O(|E| log 1/eps), the order of the paper's bound.

Cost model: every push adds the pushed node's degree to n_p, and the
kernels' actual work is proportional to n_p. Rounds run over the whole
active set at once. This is exact, not approximate: a U-push only writes
V residues and vice versa, so within a round the qualifying set is fixed
and any processing order produces the same sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csr import row_slots as _row_slots

# Gather/scatter when the active rows hold under this fraction of all edges;
# full sparse mat-vec otherwise. Any positive fraction is correct; this one
# keeps per-round cost tracking n_p instead of |E|. A scatter holds about
# 32 bytes per pushed edge, and over a tenth of the edges it breaks even
# with the whole mat-vec on a skewed 400k-edge graph and costs 1.4 against
# 0.8 ms on a uniform one (2-vCPU VM).
_SCATTER_LIMIT = 0.1

# pi_push pushes, each round, the U residues above this share of the
# largest one, as SpeedPPR's epochs do. Any share in [0, 1) is correct,
# because the finish certifies whatever residues are left; the share only
# sets the work.
_PUSH_SHARE = 0.1


@dataclass
class ResidueLedger:
    """Mutable push state: residues on both sides, settled estimates on U,
    and the monotone operation counter n_p."""

    residue_u: np.ndarray
    residue_v: np.ndarray
    estimate: np.ndarray
    n_p: int = 0

    @classmethod
    def initial(cls, g, target_u: int) -> "ResidueLedger":
        if not 0 <= target_u < g.u_count:
            raise ValueError(f"node index {target_u} out of range")
        r_u = np.zeros(g.u_count)
        r_u[target_u] = 1.0
        return cls(r_u, np.zeros(g.v_count), np.zeros(g.u_count), 0)


@dataclass
class PushOutcome:
    """Result of one kernel run. `scores` is set by forward kernels only."""

    ledger: ResidueLedger
    phase_trace: dict
    terminated_by: str
    scores: np.ndarray | None = None


def required_iterations(alpha: float, epsilon_f: float, mass: float, rate: float | None = None) -> int:
    """Iteration depth t with truncation deficit at most epsilon_f.

    Each iteration shrinks the deficit by `rate`, power iteration's 1-alpha
    by default, so the deficit after t of them is rate^(t+1) * mass and
    t = max(0, ceil(log_{1/rate}(mass / epsilon_f)) - 1). Where the ratio
    leaves the float range (a subnormal epsilon_f) its log is taken as a
    difference of logs.
    """
    _check_alpha(alpha)
    if epsilon_f <= 0:
        raise ValueError("epsilon_f must be positive")
    rate = 1.0 - alpha if rate is None else rate
    if not 0.0 < rate < 1.0:
        raise ValueError("rate must lie strictly between 0 and 1")
    if mass <= 0:
        return 0
    ratio = mass / epsilon_f
    log_ratio = math.log(ratio) if 0.0 < ratio < math.inf else math.log(mass) - math.log(epsilon_f)
    return max(0, math.ceil(log_ratio / math.log(1.0 / rate)) - 1)


def _cg_rate(alpha: float) -> float:
    """Conjugate gradients' worst-case rate on y (I - (1-alpha) P) = b:
    (1 - sqrt(alpha)) / (1 + sqrt(alpha)), from the condition number
    1 / alpha of an operator whose spectrum lies in [alpha, 1]."""
    _check_alpha(alpha)
    root = math.sqrt(alpha)
    return (1.0 - root) / (1.0 + root)


def power_iteration(g, start: np.ndarray, alpha: float, t: int) -> np.ndarray:
    """Truncated restart-walk series from the start distribution.

    Returns alpha * sum_{l=0..t} (1-alpha)^l start P^l without forming P:
    each term routes through the V side over the raw-weight matrices,
    dividing by the sending side's weight sums at each hop.
    """
    _check_alpha(alpha)
    if t < 0:
        raise ValueError("iteration count must be nonnegative")
    base = np.asarray(start, dtype=np.float64)
    if base.shape != (g.u_count,):
        raise ValueError("start vector length must match the U side")
    acc = base.copy()
    for _ in range(int(t)):
        acc = base + (1.0 - alpha) * _two_hop(g, acc)
    return alpha * acc


def _two_hop(g, z: np.ndarray) -> np.ndarray:
    """z P for the hidden U-to-U walk: one hop to V and one back, each
    dividing by the sending side's weight sums."""
    return g.u_adj @ ((g.v_adj @ (z / g.ws_u)) / g.ws_v)


def selective_push(g, target_u: int, alpha: float, epsilon_b: float, round_hook=None) -> PushOutcome:
    """Backward pushing until every U residue is at most epsilon_b.

    Estimates settle only upward; at exit 0 <= true - estimate <= epsilon_b
    entrywise for the target's incoming scores.
    """
    _check_alpha(alpha)
    if epsilon_b <= 0:
        raise ValueError("epsilon_b must be positive")
    led = ResidueLedger.initial(g, target_u)
    rounds, _ = _rounds(g, led, alpha, epsilon_b, epsilon_b, "selective", round_hook)
    trace = {"selective_rounds": rounds, "sequential_rounds": 0, "n_p": led.n_p}
    return PushOutcome(led, trace, "threshold-met")


def ss_push(g, target_u: int, alpha: float, epsilon_b: float, round_hook=None) -> PushOutcome:
    """Budgeted backward pushing: selective rounds, then sequential fallback.

    Selective rounds run as in selective_push; at each round boundary, if all
    residues cleared the threshold the kernel returns, otherwise it compares
    n_p against the paper's budget 2|E| log_{1/(1-alpha)}(1 / ratio), ratio
    being the ws-weighted residue mass over ws(target), and on exhaustion
    switches to sequential rounds (threshold zero) until every residue is at
    most epsilon_b. The ratio starts at 1 and never grows, because a push of
    residue r at u_i takes alpha * ws(u_i) * r off the weighted mass and
    moves the rest, so the budget is never negative, hub targets included;
    at entry it is 0 and so is n_p, which lets the first round run. Either
    way the exit guarantees max residue <= epsilon_b, hence the epsilon_b
    accuracy of the estimates; the trace's residue_bound is that max residue
    (hidden-walk rows sum to 1, so it bounds the error).
    """
    _check_alpha(alpha)
    if epsilon_b <= 0:
        raise ValueError("epsilon_b must be positive")
    led = ResidueLedger.initial(g, target_u)
    w_ratio = g.ws_u / g.ws_u[target_u]

    def spent() -> bool:
        ratio = float((w_ratio * led.residue_u).sum())
        return led.n_p > 2.0 * g.edge_count * math.log(1.0 / ratio) / math.log(1.0 / (1.0 - alpha))

    sel_rounds, met = _rounds(g, led, alpha, epsilon_b, epsilon_b, "selective", round_hook, spent)
    seq_rounds = 0
    if not met:
        # Sequential rounds: push every positive residue, no thresholding.
        seq_rounds, _ = _rounds(g, led, alpha, 0.0, epsilon_b, "sequential", round_hook)
    trace = {
        "selective_rounds": sel_rounds,
        "sequential_rounds": seq_rounds,
        "residue_bound": float(led.residue_u.max()),
        "n_p": led.n_p,
    }
    return PushOutcome(led, trace, "threshold-met" if met else "budget-switch")


def pi_push(g, source_u: int, alpha: float, epsilon: float, round_hook=None) -> PushOutcome:
    """Forward scores for source_u, certified together with their reflection.

    Pushes the unit ledger at source_u, each round the U residues above
    _PUSH_SHARE of the largest, until the switch rule fires, then finishes
    the transformed residues x = ws(u_i)/ws(u) * r(u_i) (see the module
    docstring for the switch rule, the finish and its certificate). The
    trace's residue_bound certifies the forward scores (0 <= true - score
    <= residue_bound) and its backward_bound the backward ones read off
    them: they are the halves of what the finish left uncertain, and
    power_tail_bound, their sum, is at most epsilon. tail_floor is the lo
    of the bracket whose lower end the scores were credited: that of x / ws
    when the bracket at the switch certifies the tail with no step, and
    min rho / ws of the final residual rho, which may be negative,
    otherwise. power_iterations counts the conjugate-gradient steps run and
    depth_cap the step by which exact arithmetic certifies (0 when none
    ran). The finish returns whatever bound it certified, which rounding
    can leave above an epsilon near the float64 floor; bhpp_query refuses
    such a query.
    """
    _check_alpha(alpha)
    if not 0.0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    led = ResidueLedger.initial(g, source_u)

    ws = g.ws_u
    ws_src = float(ws[source_u])
    w_ratio = ws / ws_src
    ws_max = float(ws.max())
    mass = 1.0  # sum x
    rate = _cg_rate(alpha)

    def halves(w: float) -> tuple[float, float]:
        # The forward and backward bounds on one term of the series, over
        # its (1-alpha)^l, once its floor is credited: w is the width
        # hi - lo of the values z[j] / ws_j.
        return min(mass, ws_max * w), ws_src * w

    def bracket() -> tuple[float, float]:
        # hi and lo of x / ws = r / ws(u) at the current residues.
        r = led.residue_u
        return float(r.max()) / ws_src, float(r.min()) / ws_src

    def priced_depth() -> int:
        # The finish starts from alpha x, which leaves (1-alpha) times the
        # bracket's bound, and each conjugate-gradient step takes rate off
        # that: the smallest k with rate^k (1-alpha) bound <= eps.
        hi, lo = bracket()
        return required_iterations(alpha, epsilon, (1.0 - alpha) / rate * sum(halves(hi - lo)), rate)

    depth = priced_depth()
    round_start = 0

    def spent() -> bool:
        # A conjugate-gradient step costs 2|E| of n_p: switch once the last
        # round's n_p outweighs the steps it took off the certified depth,
        # or no round can take any off (all residues zero included).
        nonlocal mass, depth, round_start
        mass = float((w_ratio * led.residue_u).sum())
        prev_depth = depth
        depth = priced_depth()
        cost = led.n_p - round_start
        round_start = led.n_p
        return depth == 0 or cost > 2 * g.edge_count * (prev_depth - depth)

    # No residue threshold ends the rounds: only the switch rule does.
    rounds, _ = _rounds(g, led, alpha, lambda r: _PUSH_SHARE * float(r.max()), -math.inf,
                        "forward-selective", round_hook, spent)
    x = w_ratio * led.residue_u
    scores = w_ratio * led.estimate
    hi, lo = bracket()
    fwd_tail, back_tail = ((1.0 - alpha) * h for h in halves(hi - lo))
    steps = cap = 0
    if fwd_tail + back_tail <= epsilon:
        # The tail past alpha x lies above (1-alpha) lo ws entrywise, and
        # the bracket certifies the rest: credit that floor.
        scores = scores + alpha * x + ((1.0 - alpha) * lo) * ws
    else:
        y, steps, cap, lo, fwd_tail, back_tail = _cg_finish(g, x, alpha, epsilon, ws_src)
        # The true scores are nonnegative, so clipping keeps them
        # one-sided.
        scores = np.maximum(scores + y, 0.0)
    trace = {
        "selective_rounds": rounds,
        "power_iterations": steps,
        "depth_cap": cap,
        "power_tail_bound": fwd_tail + back_tail,
        "tail_floor": lo,
        "residue_bound": fwd_tail,
        "backward_bound": back_tail,
        "n_p": led.n_p,
    }
    return PushOutcome(led, trace, "budget-switch", scores=scores)


def _cg_finish(g, x: np.ndarray, alpha: float, epsilon: float, ws_src: float):
    """Solve y (I - (1-alpha) P) = alpha x by conjugate gradients from
    y = alpha x, in the inner product <a, c> = sum a_i c_i / ws_i, and
    certify on the recomputed residual (module docstring). Returns the
    scores y with the certified floor credited, the steps run, the cap, the
    floor lo and the forward and backward bounds."""
    ws = g.ws_u
    ax = alpha * x
    # ws(u) <a, c>: CG's steps are ratios of inner products, so scaling
    # them all by ws(u) changes none of them, and it keeps every term of
    # these sums at most about 1, whatever the weights' range.
    scale = ws_src / ws

    def inner(a, c):
        return float((a * scale * c).sum())

    def residual(y):
        return ax - y + (1.0 - alpha) * _two_hop(g, y)

    def certify(rho):
        # y* - y = T(rho) / alpha with T(rho)_j between low_j and high_j;
        # returns low, lo and the forward and backward gaps left over it.
        q = rho / ws
        lo, hi = float(q.min()), float(q.max())
        low = np.maximum(lo * ws, float(np.minimum(rho, 0.0).sum()))
        width = np.minimum(hi * ws, float(np.maximum(rho, 0.0).sum())) - low
        return low, lo, float(width.max()) / alpha, ws_src / alpha * float((width / ws).max())

    def energy(y, rho):
        # Twice CG's quadratic, -<y, alpha x + rho>: the squared energy norm
        # of the error up to a constant, which no step raises.
        return -inner(y, ax + rho)

    y, steps, cap, level = ax, 0, 0, math.inf
    rho = residual(y)
    low, lo, fwd, back = certify(rho)
    # Past the cap only rounding leaves the finish uncertified: restart from
    # the true residual while that still lowers the energy.
    while fwd + back > epsilon and (now := energy(y, rho)) < level:
        level = now
        cap = steps + _cg_steps(alpha, epsilon, rho, ws, ws_src)
        r = p = rho
        rr = inner(r, r)
        while steps < cap and rr > 0.0:
            ap = p - (1.0 - alpha) * _two_hop(g, p)
            pap = inner(p, ap)
            a = rr / pap if pap > 0.0 else math.inf
            if not math.isfinite(a):
                break
            y = y + a * p
            r = r - a * ap
            steps += 1
            if sum(certify(r)[2:]) <= epsilon:
                break
            rr, rr_prev = inner(r, r), rr
            p = r + (rr / rr_prev) * p
        rho = residual(y)
        low, lo, fwd, back = certify(rho)
    return y + low / alpha, steps, cap, lo, fwd, back


def _cg_steps(alpha: float, epsilon: float, rho: np.ndarray, ws: np.ndarray, ws_src: float) -> int:
    """Steps after which conjugate gradients from residual rho certify in
    exact arithmetic: the smallest k with
    4 (ws_max + ws_src) ||rho||_{1/ws} tau^k <= alpha^(3/2) sqrt(ws_min) eps,
    tau being _cg_rate(alpha). Taken in logs, so no weight range and no
    subnormal epsilon overflows it."""
    q = np.abs(rho / ws)
    m = float(q.max())
    if m == 0.0:
        return 0
    ws_max, ws_min = float(ws.max()), float(ws.min())
    log_norm = math.log(m) + 0.5 * math.log(float((ws * (q / m) ** 2).sum()))
    log_need = (math.log(4.0 * (1.0 + ws_src / ws_max)) + math.log(ws_max) + log_norm
                - 1.5 * math.log(alpha) - 0.5 * math.log(ws_min) - math.log(epsilon))
    return max(0, math.ceil(log_need / -math.log(_cg_rate(alpha))))


# -- round primitives ---------------------------------------------------------


def _check_alpha(alpha):
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")


def _rounds(g, led: ResidueLedger, alpha: float, push_above, stop_at, phase: str,
            round_hook=None, spent=None) -> tuple[int, bool]:
    """Run rounds that push U residues above `push_above`, a threshold or a
    function of the U residues that returns one, until no residue exceeds
    `stop_at` (returns rounds, True) or the switch rule `spent()` fires
    (returns rounds, False). Both are asked before every round, the first
    included, so a run met at entry runs no round. Every round that runs
    pushes, as push_above never exceeds stop_at or, where it is a function,
    lies below the largest residue, which the switch rule keeps positive."""
    rounds = 0
    while (led.residue_u > stop_at).any():
        if spent is not None and spent():
            return rounds, False
        _round(g, led, push_above(led.residue_u) if callable(push_above) else push_above, alpha)
        rounds += 1
        if round_hook is not None:
            round_hook(phase, rounds, led)
    return rounds, True


def _round(g, led: ResidueLedger, threshold, alpha: float) -> None:
    """One boundary-to-boundary round: push over-threshold U nodes, then
    flush all positive V residues."""
    r = led.residue_u
    n_p, rows, pushed = _push_rows(g.u_adj, g.v_adj, g.deg_u, r, led.residue_v, 1.0 - alpha, g.ws_v,
                                   r > threshold)
    led.estimate[rows] += alpha * pushed
    r[rows] -= pushed
    led.n_p += n_p + _push_rows(g.v_adj, g.u_adj, g.deg_v, led.residue_v, r, 1.0, g.ws_u)[0]
    led.residue_v[:] = 0.0


def _push_rows(mat, mat_t, deg, r, out, scale: float, ws, mask=None):
    """out += scale * (sum_k r[k] * mat[k, :]) / ws over the rows k in mask
    (every positive entry of the nonnegative r when mask is None), with ws
    the receivers' weight sums and mat_t the CSR of mat's transpose (the
    other side's matrix). Returns the degree sum of the pushed rows (their
    n_p) and `rows, pushed`, such that r[rows] -= pushed takes exactly the
    pushed residues off r: the row indices and their residues when it
    scattered, an Ellipsis and r zeroed outside the mask when it gathered
    by mat-vec."""
    active = r > 0.0 if mask is None else mask
    deg_sum = int(deg @ active)
    if deg_sum <= _SCATTER_LIMIT * mat.nnz:
        rows = np.flatnonzero(active)
        amounts = r[rows]
        slots = _row_slots(mat.indptr, rows, deg)
        contrib = scale * mat.data[slots] * np.repeat(amounts, deg[rows])
        out += np.bincount(mat.indices[slots], weights=contrib, minlength=out.size) / ws
        return deg_sum, rows, amounts
    pushed = r if mask is None else np.where(mask, r, 0.0)
    out += scale * (mat_t @ pushed) / ws
    return deg_sum, ..., pushed
