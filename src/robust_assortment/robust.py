"""Worst-case expected revenue over a KL ball, via the concave 1-D dual.

The dual of one assortment is phi(lam) = -lam*log E_P[exp(-r/lam)] - lam*rho
on (0, r_max/rho], with phi'(lam) = KL(q_lam || P) - rho for the exponential
tilt q_lam ~ P*exp(-r/lam).  ``_dual_batch`` solves it for many assortments
at once (one zero-padded row each) with log-sum-exp shifts and a safeguarded
Newton iteration on log(lam).  The independent primal oracle bisects the tilt
parameter itself until the KL constraint is active.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import RadiusInfeasibleError
from .model import (
    ChoiceDistribution,
    MnlModel,
    V0,
    as_assortment,
    choice_probabilities,
    nominal_expected_revenue,
    total_weight,
)
from .radius import ZERO_RADIUS, RadiusSpec

#: Lower end of the dual search bracket, relative to r_max.
_LAMBDA_FLOOR = 1e-12
#: Matrix entries the dual kernel works on at once, which bounds its scratch memory.
_BLOCK_ENTRIES = 1 << 14
#: Newton stops once a step in log(lam) is below this, relative to the bracket's scale.
_STEP_TOL = 1e-10
_MAX_ITER = 200


def kl_divergence(q, p) -> float:
    """KL(q || p) with the conventions 0*log(0/.) = 0 and q>0,p=0 -> inf."""
    q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
    mask = q > 0.0
    q, p = q[mask], p[mask]
    if (p <= 0.0).any():
        return math.inf
    return float(np.sum(q * np.log(q / p)))


def _log_probs(P: np.ndarray) -> np.ndarray:
    """Elementwise log, with -inf for the zero padding."""
    return np.log(P, out=np.full(P.shape, -np.inf), where=P > 0.0)


def _moments(logp: np.ndarray, R: np.ndarray, lam: np.ndarray):
    """Per row: log E_P[exp(-r/lam)] (log-sum-exp), tilt q_lam, KL(q_lam||P), Var_q(r)."""
    q = R / -lam[:, None]
    q += logp
    zmax = q.max(axis=1)
    q -= zmax[:, None]
    np.exp(q, out=q)
    total = q.sum(axis=1)
    q /= total[:, None]
    log_m = zmax + np.log(total)
    mean = np.einsum("ij,ij->i", q, R)
    dev = R - mean[:, None]
    return log_m, q, -log_m - mean / lam, np.einsum("ij,ij,ij->i", q, dev, dev)


def _revenues_of(model: MnlModel, items) -> np.ndarray:
    """Revenues aligned with the choice support (0, *items)."""
    return np.concatenate(([0.0], model.revenues[np.asarray(items, dtype=np.intp) - 1]))


def dual_objective(model: MnlModel, items, lam: float, rho_val: float) -> float:
    """Dual criterion -lam*log E_{P(.|S)}[exp(-r/lam)] - lam*rho_val at lam > 0."""
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    dist = choice_probabilities(model, items)
    revs = _revenues_of(model, dist.support[1:])
    log_m = _moments(_log_probs(dist.probs[None, :]), revs[None, :], np.array([float(lam)]))[0]
    return -lam * float(log_m[0]) - lam * rho_val


def _solve_block(logp: np.ndarray, R: np.ndarray, rho: np.ndarray, r_max: float):
    """(lam*, log E_P[exp(-r/lam*)], q_lam*) of each row, for radii rho > 0.

    phi' = KL(q_lam || P) - rho decreases in lam: rows with phi' <= 0 at the
    floor (infinite radii among them) or >= 0 at the cap stop there.  The rest
    run Newton from the cap on u = log(lam) for g = log(KL/rho), which has the
    sign of phi' and dg/du = -Var_q(r)/(lam^2 KL); the log straightens the
    KL ~ e^{-2u} tail.  Steps leaving the sign bracket [lo, hi] bisect it.
    """
    n = rho.size
    out = (np.empty(n), np.empty(n), np.empty(R.shape))
    lo = np.full(n, math.log(_LAMBDA_FLOOR * r_max))
    hi = np.maximum(math.log(r_max) - np.log(rho), lo)  # a cap below the floor is clamped
    # floor and cap in one pass over the block stacked twice
    u = np.concatenate((lo, hi))
    lam = np.exp(u)
    log_m, q, kl, var = _moments(np.concatenate((logp, logp)), np.concatenate((R, R)), lam)
    idx = np.arange(n)
    at_floor = kl[:n] <= rho
    settled = at_floor | (kl[n:] >= rho)
    pick = np.where(at_floor, idx, idx + n)
    for dst, src in zip(out, (lam, log_m, q)):
        dst[settled] = src[pick[settled]]
    pick = pick[~settled]
    u, lam, log_m, q, kl, var = (a[pick] for a in (u, lam, log_m, q, kl, var))
    idx, logp, R, rho, lo, hi = (a[~settled] for a in (idx, logp, R, rho, lo, hi))
    tol = _STEP_TOL * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
    for _ in range(_MAX_ITER):
        if idx.size == 0:
            break
        above = kl > rho
        lo = np.where(above, u, lo)
        hi = np.where(above, hi, u)
        pos = kl > 0.0
        num = np.log(kl / rho, out=np.zeros(idx.size), where=pos) * kl * lam * lam
        # the Newton step is num/var; it is taken only when it stays inside the bracket
        newton = pos & (np.abs(num) < var * (hi - lo))
        step = np.divide(num, var, out=np.zeros(idx.size), where=newton)
        stop = (newton & (np.abs(step) <= tol)) | (hi - lo <= tol)
        u_next = u + step
        u_next = np.where(newton & (u_next > lo) & (u_next < hi), u_next, 0.5 * (lo + hi))
        if stop.any():
            for dst, src in zip(out, (lam, log_m, q)):
                dst[idx[stop]] = src[stop]
            go = ~stop
            u_next, idx, logp, R, rho, lo, hi, tol = (
                a[go] for a in (u_next, idx, logp, R, rho, lo, hi, tol))
            if idx.size == 0:
                break
        u = u_next
        lam = np.exp(u)
        log_m, q, kl, var = _moments(logp, R, lam)
    else:
        for dst, src in zip(out, (lam, log_m, q)):
            dst[idx] = src
    return out


def _dual_batch(P: np.ndarray, R: np.ndarray, rho: np.ndarray, r_max: float):
    """(values, lambda_star, tilt) of many assortments, one row of P and R each.

    A row holds a set's choice probabilities or revenues, no-purchase first,
    zero-padded; ``rho`` is inf where the varying radius is infeasible.  Blocks
    of at most ``_BLOCK_ENTRIES`` entries keep scratch memory flat in the
    batch size.  Radii below ``ZERO_RADIUS`` give the nominal revenue (lambda
    inf, tilt P); negative optima are floored to 0 with lambda_star = 0.
    """
    values = np.einsum("ij,ij->i", P, R)
    lam_star = np.full(rho.size, math.inf)
    tilt = P.copy()
    rows = np.nonzero(rho >= ZERO_RADIUS)[0]
    per_block = max(1, _BLOCK_ENTRIES // (2 * P.shape[1]))  # _solve_block stacks a block twice
    for start in range(0, rows.size, per_block):
        blk = rows[start:start + per_block]
        lam_star[blk], log_m, tilt[blk] = _solve_block(_log_probs(P[blk]), R[blk], rho[blk], r_max)
        values[blk] = -lam_star[blk] * (log_m + rho[blk])
    negative = values < 0.0
    values[negative], lam_star[negative] = 0.0, 0.0
    return values, lam_star, tilt


def robust_values(model: MnlModel, sets, spec: RadiusSpec) -> np.ndarray:
    """Robust revenues of nonempty assortments, given as rows of 1-based item ids
    right-padded with 0, in one kernel call; infeasible varying radii score 0."""
    sets = np.asarray(sets)
    P = np.zeros((sets.shape[0], sets.shape[1] + 1))
    R = np.zeros_like(P)
    offered = sets > 0
    P[:, 1:][offered] = model.attractions[sets[offered] - 1]
    R[:, 1:][offered] = model.revenues[sets[offered] - 1]
    # model.assortment_weight's sum, so the radii equal spec.radius's bit for bit
    weights = [total_weight(row.tolist()) for row in P[:, 1:]]
    P[:, 0] = V0
    P /= np.array(weights)[:, None]
    rho = np.array([spec.radius_from_weight(weight) for weight in weights])
    return _dual_batch(P, R, rho, model.r_max)[0]


@dataclass(frozen=True)
class DualEvaluation:
    """Robust expected revenue with its dual optimizer and a primal certificate."""

    value: float
    lambda_star: float
    radius: float
    worst_case: ChoiceDistribution

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "lambda_star": None if math.isinf(self.lambda_star) else self.lambda_star,
            "radius": None if math.isinf(self.radius) else self.radius,
            "worst_case": self.worst_case.to_dict(),
        }


def _tilted(probs, revs, beta: float):
    """Exponentially tilted distribution q_beta(i) ~ P(i) * exp(-beta*r_i)."""
    w = [p * math.exp(-beta * r) if p > 0.0 else 0.0 for p, r in zip(probs, revs)]
    z = math.fsum(w)
    return [x / z for x in w]


def _tilt_to_kl(probs, revs, rho_val: float, tol: float = 1e-13, max_iter: int = 200):
    """Tilt until KL(q_beta || P) = rho_val; returns (q, revenue of q).

    Falls back to the infinite-tilt limit (all mass on zero-revenue choices)
    when the ball is large enough to contain it.
    """
    nominal = math.fsum(p * r for p, r in zip(probs, revs))
    if rho_val <= 0.0:
        return list(probs), nominal
    zero_mass = math.fsum(p for p, r in zip(probs, revs) if r == 0.0)
    if rho_val >= -math.log(zero_mass) - 1e-15:
        q = [p / zero_mass if r == 0.0 else 0.0 for p, r in zip(probs, revs)]
        return q, 0.0

    def kl_at(beta: float) -> float:
        return kl_divergence(_tilted(probs, revs, beta), probs)

    hi = 1.0
    for _ in range(400):
        if kl_at(hi) > rho_val:
            break
        hi *= 2.0
    lo = 0.0
    for _ in range(max_iter):
        if hi - lo <= tol * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        if kl_at(mid) < rho_val:
            lo = mid
        else:
            hi = mid
    beta = 0.5 * (lo + hi)
    q = _tilted(probs, revs, beta)
    return q, math.fsum(qi * r for qi, r in zip(q, revs))


def primal_robust_revenue_oracle(model: MnlModel, items, rho_val: float) -> float:
    """Minimum expected revenue over the KL ball, solved on the primal side.

    Candidate minimizers are exponential tilts of the conditional choice
    distribution; the KL divergence of the tilt is continuous and
    nondecreasing in the tilt parameter, so bisection makes the constraint
    active (or the infinite-tilt limit applies when the ball contains it).
    """
    items = as_assortment(items, model.n_items)
    if rho_val < 0.0:
        raise ValueError("rho_val must be nonnegative")
    dist = choice_probabilities(model, items)
    revs = [0.0] + [float(model.revenues[i - 1]) for i in items]
    _, value = _tilt_to_kl(list(dist.probs), revs, rho_val)
    return value


def robust_revenue(
    model: MnlModel,
    items,
    spec: RadiusSpec,
    tol: float = 1e-9,
    allow_degenerate: bool = False,
) -> DualEvaluation:
    """Robust expected revenue of ``items`` under the given radius rule.

    Solves the dual sup over lambda in [0, r_max/radius] as a batch of one in
    the dual kernel and attaches a worst-case certificate inside the ball.  A
    radius below ``ZERO_RADIUS`` degenerates to the nominal expected revenue;
    with ``allow_degenerate`` an infeasible varying radius gives value 0 and
    a certificate with all mass on zero-revenue choices.
    """
    items = as_assortment(items, model.n_items)
    try:
        rho_val = spec.radius(model, items)
    except RadiusInfeasibleError:
        if not allow_degenerate:
            raise
        rho_val = math.inf
    dist = choice_probabilities(model, items)
    if rho_val < ZERO_RADIUS:
        return DualEvaluation(value=nominal_expected_revenue(model, items),
                              lambda_star=math.inf, radius=rho_val, worst_case=dist)

    revs = _revenues_of(model, items)
    values, lam, tilt = _dual_batch(dist.probs[None, :], revs[None, :],
                                    np.array([rho_val]), model.r_max)
    value, lam_star, q = float(values[0]), float(lam[0]), tilt[0]
    # The certificate: the kernel's tilt at an interior optimum attains the
    # value; at the bracket's ends the KL constraint can be inactive in the
    # tilting family, and then the tilt is bisected until it is active.
    if not (0.0 < lam_star < math.inf and kl_divergence(q, dist.probs) <= rho_val + 1e-8
            and math.fsum(q * revs) <= value + tol):
        q, _ = _tilt_to_kl(dist.probs.tolist(), revs.tolist(), rho_val)
    worst = ChoiceDistribution(support=dist.support, probs=np.array(q))
    return DualEvaluation(value=value, lambda_star=lam_star, radius=rho_val, worst_case=worst)

