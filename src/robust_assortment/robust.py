"""Worst-case expected revenue over a KL ball, via the concave 1-D dual.

The dual of one assortment is phi(lam) = -lam*log E_P[exp(-r/lam)] - lam*rho
on (0, r_max/rho], with phi'(lam) = KL(q_lam || P) - rho for the exponential
tilt q_lam ~ P*exp(-r/lam).  ``_dual_batch`` solves it for many assortments
at once (one set per column of a block) with log-sum-exp shifts and a
safeguarded Newton iteration on log(lam).  The independent primal oracle
bisects the tilt parameter itself until the KL constraint is active.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (LAMBDA_FLOOR, ChoiceDistribution, MnlModel, as_assortment, choice_columns,
                    column_sums, nominal_revenues)
from .radius import ZERO_RADIUS, RadiusSpec

#: Matrix entries the dual kernel works on at once, which bounds its scratch memory.
_BLOCK_ENTRIES = 1 << 14
#: Newton stops once a step in log(lam) is below this.  The tilt's KL error is
#: first-order in the last step, so the bound is absolute, not relative to log(lam).
_STEP_TOL = 1e-10
_MAX_ITER = 200
#: The reference tilt bisects beta to this width, relative to max(1, beta), in at most
#: _TILT_MAX_ITER steps.
_TILT_TOL = 1e-13
_TILT_MAX_ITER = 200


def kl_columns(Q, p) -> np.ndarray:
    """KL(q || p) of each column q of ``Q`` against the column ``p``, with the
    conventions 0*log(0/.) = 0 and q>0,p=0 -> inf: ``column_sums`` of q*log(q/p),
    so a column has the same bits alone, with zero entries or anywhere in any batch."""
    Q, p = np.asarray(Q, dtype=float), np.asarray(p, dtype=float)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        return column_sums(np.where(Q > 0.0, Q * np.log(Q / p), 0.0))


def kl_divergence(q, p) -> float:
    """KL(q || p): the one-column case of ``kl_columns``."""
    return float(kl_columns(np.asarray(q, dtype=float)[:, None], p)[0])


def _moments(logp: np.ndarray, R: np.ndarray, lam: np.ndarray):
    """Per column (one set each): log E_P[exp(-r/lam)], tilt q_lam, KL(q_lam||P), Var_q(r)."""
    q = R / -lam
    q += logp
    zmax = q.max(axis=0)
    q -= zmax
    np.exp(q, out=q)
    total = column_sums(q)
    q /= total
    log_m = zmax + np.log(total)
    mean = column_sums(q * R)
    dev = R - mean
    return log_m, q, -log_m - mean / lam, column_sums(q * dev * dev)


def _solve_block(logp: np.ndarray, R: np.ndarray, rho: np.ndarray, r_max: float):
    """(lam*, log E_P[exp(-r/lam*)], q_lam*) of each column, for radii rho > 0.

    phi' = KL(q_lam || P) - rho decreases in lam: columns with phi' <= 0 at the
    floor (infinite radii among them) or >= 0 at the cap stop there, in round
    one, and leave the block.  The rest run Newton from the cap on u = log(lam)
    for g = log(KL/rho), which has the sign of phi' and dg/du = -Var_q(r)/(lam^2 KL);
    the log straightens the KL ~ e^{-2u} tail.  Steps leaving the sign bracket
    [lo, hi] bisect it.  A column that stops later keeps its u, and each column's
    moments are its own arithmetic, so every later round recomputes its results
    bit for bit; they are read once, when the last column stops.
    """
    n = rho.size
    lo = np.full(n, math.log(LAMBDA_FLOOR * r_max))
    hi = np.maximum(math.log(r_max) - np.log(rho), lo)  # a cap below the floor is clamped
    # floor and cap in one pass over the block placed twice side by side
    u = np.concatenate((lo, hi))
    lam = np.exp(u)
    log_m, q, kl, var = _moments(np.concatenate((logp, logp), axis=1),
                                 np.concatenate((R, R), axis=1), lam)
    at_floor = kl[:n] <= rho
    pick = np.where(at_floor, np.arange(n), np.arange(n, 2 * n))
    u, lam, log_m, q, kl, var = (a.take(pick, axis=-1) for a in (u, lam, log_m, q, kl, var))
    out = (lam, log_m, q)
    run = np.flatnonzero(~at_floor & (kl < rho))
    if run.size < n:  # one compaction, only when it drops a column
        u, lam, log_m, q, kl, var, logp, R, rho, lo, hi = (
            a.take(run, axis=-1) for a in (u, lam, log_m, q, kl, var, logp, R, rho, lo, hi))
    done, num, step = np.zeros(run.size, dtype=bool), np.empty(run.size), np.empty(run.size)
    for _ in range(_MAX_ITER - 1):  # after _MAX_ITER rounds of moments every column stops
        above = kl > rho
        np.copyto(lo, u, where=above)
        np.copyto(hi, u, where=~above)
        pos = kl > 0.0
        num.fill(0.0)
        np.log(kl / rho, out=num, where=pos)
        num *= kl
        num *= lam
        num *= lam
        # the Newton step is num/var; it is taken only when it stays inside the bracket
        width = hi - lo
        newton = pos & (np.abs(num) < var * width)
        step.fill(0.0)
        np.divide(num, var, out=step, where=newton)
        done |= (newton & (np.abs(step) <= _STEP_TOL)) | (width <= _STEP_TOL)
        if done.all():
            break
        u_next = u + step
        np.copyto(u, np.where(newton & (u_next > lo) & (u_next < hi), u_next, 0.5 * (lo + hi)),
                  where=~done)
        lam = np.exp(u)
        log_m, q, kl, var = _moments(logp, R, lam)
    for dst, src in zip(out, (lam, log_m, q)):
        dst[..., run] = src
    return out


def _dual_batch(P: np.ndarray, R: np.ndarray, rho: np.ndarray, r_max: float):
    """(values, lambda_star, tilt) of many assortments, one column of P and R each.

    A column holds a set's choice probabilities or revenues, no purchase first,
    zero-padded below; ``rho`` is inf where the varying radius is infeasible.
    ``r_max`` bounds every column's revenues.
    Radii below ``ZERO_RADIUS`` give the nominal revenue (lambda inf, tilt P);
    negative optima are floored to 0 with lambda_star = 0.  The other columns go
    in blocks of at most ``_BLOCK_ENTRIES`` entries, in the order given, each
    trimmed to its widest set.  A set's sums add down its own column and every
    other step is elementwise, so its results have the same bits alone, padded,
    or anywhere in any batch.
    """
    values = nominal_revenues(P, R)
    lam_star = np.full(rho.size, math.inf)
    tilt = P.copy()
    sets = np.flatnonzero(rho >= ZERO_RADIUS)
    per_block = max(1, _BLOCK_ENTRIES // (2 * P.shape[0]))  # _solve_block stacks a block twice
    for blk in (sets[start:start + per_block] for start in range(0, sets.size, per_block)):
        w = np.flatnonzero(P.take(blk, axis=1).any(axis=1))[-1] + 1  # the block's widest set
        Pb, Rb = (A[:w].take(blk, axis=1) for A in (P, R))
        logp = np.log(Pb, out=np.full(Pb.shape, -np.inf), where=Pb > 0.0)  # -inf for padding
        lam_star[blk], log_m, q = _solve_block(logp, Rb, rho[blk], r_max)
        tilt[:w, blk] = q
        values[blk] = -lam_star[blk] * (log_m + rho[blk])
    negative = values < 0.0
    values[negative], lam_star[negative] = 0.0, 0.0
    return values, lam_star, tilt


def robust_values(model: MnlModel, sets, spec: RadiusSpec) -> np.ndarray:
    """Robust revenues of assortments, given as rows of 1-based item ids padded
    with 0 (see ``choice_columns``), in one kernel call; infeasible varying radii
    and all-zero rows (the empty set) score 0."""
    P, R, weights = choice_columns(model, sets)
    return _dual_batch(P, R, spec.radii_from_weights(weights), model.r_max)[0]


@dataclass(frozen=True)
class DualEvaluation:
    """Robust expected revenue with its dual optimizer and a primal certificate."""

    value: float
    lambda_star: float
    radius: float
    worst_case: ChoiceDistribution


def _tilted(probs, revs, beta: float):
    """Exponentially tilted distribution q_beta(i) ~ P(i) * exp(-beta*r_i)."""
    w = [p * math.exp(-beta * r) if p > 0.0 else 0.0 for p, r in zip(probs, revs)]
    z = math.fsum(w)
    return [x / z for x in w]


def _tilt_to_kl(probs, revs, rho_val: float):
    """Tilt until KL(q_beta || P) = rho_val; returns (q, revenue of q).

    The primal oracle's reference solver, in plain Python with ``fsum``.
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
    for _ in range(_TILT_MAX_ITER):
        if hi - lo <= _TILT_TOL * max(1.0, hi):
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
    if rho_val < 0.0:
        raise ValueError("rho_val must be nonnegative")
    P, R, _ = choice_columns(model, [as_assortment(items, model.n_items)])
    return _tilt_to_kl(P[:, 0].tolist(), R[:, 0].tolist(), rho_val)[1]


def robust_revenue(model: MnlModel, items, spec: RadiusSpec,
                   allow_degenerate: bool = False) -> DualEvaluation:
    """Robust expected revenue of ``items`` under the given radius rule.

    Solves the dual sup over lambda in [0, r_max/radius] as a batch of one in
    the dual kernel, as ``robust_values`` does, and attaches a worst-case
    certificate inside the ball: the kernel's tilt, which is P below
    ``ZERO_RADIUS`` (lambda_star inf).  Where the value is floored at 0
    (lambda_star 0) the tilt need not attain it; if the ball holds P
    restricted to its zero-revenue choices (no purchase among them), that is
    the certificate.  Otherwise the kernel stopped at its lambda floor, whose
    tilt lies inside the ball and earns at most ``LAMBDA_FLOOR * r_max *
    radius``.  With ``allow_degenerate`` an infeasible varying radius gives
    value 0 and the zero-revenue certificate; without it, it raises.
    """
    items = as_assortment(items, model.n_items)
    P, R, weights = choice_columns(model, [items])
    rho_val = float(spec.radii_from_weights(weights)[0])
    if rho_val == math.inf and not allow_degenerate:
        spec.radius(model, items)  # raises the RadiusInfeasibleError that names the set
    values, lam, tilt = _dual_batch(P, R, np.array([rho_val]), model.r_max)
    value, lam_star, q = float(values[0]), float(lam[0]), tilt[:, 0]
    if lam_star == 0.0:
        zero = np.where(R[:, 0] == 0.0, P[:, 0], 0.0)
        if rho_val >= -math.log(zero.sum()) - 1e-15:  # the slack forgives the log's last bits
            q = zero / zero.sum()
    worst = ChoiceDistribution(support=(0, *items), probs=q)
    return DualEvaluation(value=value, lambda_star=lam_star, radius=rho_val, worst_case=worst)
