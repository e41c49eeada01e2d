"""Location and scatter estimators: classical, coordinatewise, M, S, MCD, MVE.

All estimators that admit a weighted-mean representation report normalized
weights (summing to one) on the result, so mu equals the weighted average of
the rows to numerical precision.  Randomized searches (S multistart, MCD, MVE)
take an integer seed and draw candidate subsets by index only, which makes a
run on X and a run on A X + b with the same seed walk through matched subsets
and come out affine-equivariant up to float error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import (InvalidData, RhoSpec, SingularScatter, _bisquare_from_p,
                       _bisquare_into, _brentq, _dist_sq, _factor, calibrate_c,
                       mahalanobis_sq, rho, rho_sq_into, spd_cholesky, truncation_sq,
                       weight)
from .rng import substream


class EstimationError(RuntimeError):
    """The estimator could not produce a result on this input."""


class AllPointsRejected(EstimationError):
    """Every observation received weight zero."""


class DegenerateData(EstimationError):
    """Input too concentrated or too small for the estimator."""


@dataclass
class LocationScatter:
    """Estimate record: center, scatter (coord_s: per-column scale), diagnostics."""

    mu: np.ndarray
    sigma: np.ndarray | None
    converged: bool = True
    iterations: int = 0
    objective: float = float("nan")
    weights: np.ndarray | None = None
    subset: np.ndarray | None = None
    scale: np.ndarray | None = None

    def to_dict(self, estimator: str | None = None, seed: int | None = None) -> dict:
        d = {
            "mu": [float(v) for v in np.atleast_1d(self.mu)],
            "sigma": None if self.sigma is None else
                     [[float(v) for v in row] for row in np.atleast_2d(self.sigma)],
            "objective": float(self.objective) if math.isfinite(self.objective) else None,
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
        }
        if self.scale is not None:
            d["scale"] = [float(v) for v in self.scale]
        if estimator is not None:
            d["estimator"] = estimator
        if seed is not None:
            d["seed"] = int(seed)
        return d


def _as_data(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise DegenerateData("expected a nonempty (n, d) data matrix")
    if not np.all(np.isfinite(x)):
        raise InvalidData("data holds NaN or infinite cells")
    return x


def sample_mean(x) -> LocationScatter:
    """Sample mean with the sample covariance when n >= d + 1."""
    x = _as_data(x)
    n, d = x.shape
    mu = x.mean(axis=0)
    sigma = np.cov(x, rowvar=False).reshape(d, d) if n >= d + 1 else None
    obj = float("nan")
    if sigma is not None:
        sign, logdet = np.linalg.slogdet(sigma)
        obj = float(sign * math.exp(logdet)) if sign > 0 else float("nan")
    return LocationScatter(mu=mu, sigma=sigma, objective=obj,
                           weights=np.full(n, 1.0 / n))


def coord_median(x) -> np.ndarray:
    """Columnwise median (midpoint rule for even counts)."""
    return np.median(_as_data(x), axis=0)


# ---------------------------------------------------------------------------
# M-scale: solve mean rho(r / s) = b for s > 0 on nonnegative residuals r.

# m_scale's relative tolerance on the root and its bracket
_M_SCALE_RTOL = 1e-13


def m_scale(r: np.ndarray, spec: RhoSpec, b: float, guess: float | None = None) -> float:
    """The scale s > 0 that solves mean rho(r / s) = b, by Brent's method.

    mean rho(r / s) falls from the share of nonzero residuals at s -> 0 to that
    of infinite ones as s grows, so a root exists only when r has no NaN, more
    than a share b nonzero and less than b infinite; otherwise DegenerateData.
    The bracket comes from one of two searches.  Cold (no guess): from
    median(r > 0) / c (max(r < inf) / c if that is inf), halve the lower end
    and double the upper end until the ends straddle the root.  Warm, from a
    guess > 0 such as the previous scale of a fixed-point iteration: step out
    from the guess by a relative 1e-3 that grows fourfold each time, so a guess
    near the root gives a bracket about 1e-3 wide and Brent needs few loss
    passes.  Both brackets and the tolerances xtol = 1e-13 lo and rtol = 1e-13
    are relative, so the solve does not depend on the units of r (scaling r by
    a scales the brackets and the root by a); their roots agree to about 1e-13.
    """
    r = np.asarray(r, dtype=float)
    n_nan, n_inf = np.count_nonzero(np.isnan(r)), np.count_nonzero(np.isinf(r))
    if n_nan or n_inf >= b * r.size:
        raise DegenerateData(f"non-finite squared distances: {n_nan} NaN and {n_inf} "
                             f"infinite of {r.size} residuals leave no scale root")
    positive = r > 0.0
    # as s -> 0 the mean tends to the fraction of nonzero residuals
    if np.count_nonzero(positive) <= b * r.size:
        raise DegenerateData("too many zero residuals for the scale constraint")
    # excess keeps each scale's value: _brentq evaluates the bracket ends again,
    # and both bracket searches start from one point.  No reference cycle runs
    # through the closure, so its two residual-sized buffers are freed when
    # m_scale returns; held until a garbage collection, as in a cycle, they
    # raised the pipeline benchmark's peak memory by about 8 MB
    t, work, values = np.empty_like(r), np.empty_like(r), {}

    def excess(s: float) -> float:
        if s not in values:
            np.divide(r, s, out=t)
            loss = _bisquare_into(spec.c, "squared-distance", t, t, work, 0)
            values[s] = float(np.mean(loss)) - b
        return values[s]

    # (r / s)^2 overflows to inf past 1.3e154: the loss is then 1, as at an
    # infinite residual
    with np.errstate(over="ignore"):
        if guess is None:
            # np.median's value: the middle order statistic, or the mean of the two
            pos = r[positive]
            k = pos.size // 2
            if pos.size % 2:
                median = float(np.partition(pos, k)[k])
            else:
                part = np.partition(pos, (k - 1, k))
                median = float((part[k - 1] + part[k]) / 2.0)
            median = median if median < math.inf else float(pos[pos < math.inf].max())
            lo = hi = median / spec.c
            for _ in range(200):
                if excess(lo) > 0.0:
                    break
                lo /= 2.0
            for _ in range(200):
                if excess(hi) < 0.0:
                    break
                hi *= 2.0
        else:
            lo = hi = float(guess)
            step = 1e-3
            for _ in range(200):
                if not excess(lo) > 0.0:
                    lo = guess / (1.0 + step)
                elif not excess(hi) < 0.0:
                    hi = guess * (1.0 + step)
                else:
                    break
                step *= 4.0
        return _brentq(excess, lo, hi, xtol=_M_SCALE_RTOL * lo, rtol=_M_SCALE_RTOL, maxiter=200)


# coord_s: iterations per column, and the step tolerance relative to the scale
_COORD_S_MAX_ITER, _COORD_S_TOL = 200, 1e-11


def coord_s(x, spec: RhoSpec, bp: float = 0.5) -> LocationScatter:
    """Columnwise univariate S-estimates of location and scale.

    Per column: minimize s(m) subject to mean rho((x - m)/s) = bp, by
    alternating the scale solve with a location step.  The plain step is the
    fixed-point map g(m): the weighted mean at the scale solved at m.  Every
    second iteration extrapolates the last two plain steps instead (Aitken's
    delta-squared, a secant step on g(m) - m): with r the ratio of the step
    from g(m) to that from m, the step is (g(m) - m) / (1 - r).  It is taken
    only when |r| < 1, so when g contracts there, and when the scale solved
    at its end is no larger than the current one, as a plain step never
    raises it; otherwise the plain step.  The iteration stops once a step is
    below 1e-11 times the scale, or after 200 iterations.  Each scale solve
    after the first is warm-started at the column's previous scale.
    """
    x = _as_data(x)
    n, d = x.shape
    if spec.convention != "scaled-distance":
        raise ValueError("coord_s requires a scaled-distance loss")
    if not 0.0 < bp <= 0.5:
        raise ValueError("bp must lie in (0, 0.5]")
    mu = np.empty(d)
    scale = np.empty(d)
    worst_iters = 0
    converged = True
    # a scaled residual past 1.3e154 squares to inf in weight, whose value
    # there is 0, as at an infinite residual
    with np.errstate(over="ignore"):
        for j in range(d):
            col = x[:, j]
            vals, counts = np.unique(col, return_counts=True)
            if counts.max() >= n / 2.0 or vals.size < 2:
                raise DegenerateData(f"column {j} is too concentrated for an S-scale")
            m = float(np.median(col))
            s = m_scale(np.abs(col - m), spec, bp)
            last = None  # the previous step if it was plain; the next one extrapolates from it
            it = 0
            for it in range(1, _COORD_S_MAX_ITER + 1):
                w = weight(spec, (col - m) / s)
                if w.sum() <= 0.0:
                    raise AllPointsRejected(f"column {j}: all weights vanished")
                step = float(w @ col / w.sum()) - m
                s_step = None  # the scale at m + step, when already solved
                if last:
                    r = step / last
                    if abs(r) < 1.0:
                        jump = step / (1.0 - r)
                        s_jump = m_scale(np.abs(col - (m + jump)), spec, bp, guess=s)
                        if s_jump <= s:
                            step, s_step = jump, s_jump
                    last = None
                else:
                    last = step
                m += step
                s = s_step if s_step is not None else m_scale(np.abs(col - m), spec, bp, guess=s)
                if abs(step) < _COORD_S_TOL * s:
                    break
            else:
                converged = False
            worst_iters = max(worst_iters, it)
            mu[j] = m
            scale[j] = s
    return LocationScatter(mu=mu, sigma=None, scale=scale, iterations=worst_iters,
                           converged=converged)


# ---------------------------------------------------------------------------
# Multivariate M-location with a fixed preliminary scatter.

# m_location's step tolerance, relative to 1 + max |mu|
_M_TOL = 1e-12


def m_location(x, sigma, spec: RhoSpec, start=None, max_iter: int = 500) -> LocationScatter:
    """Location M-estimate: solve mean_i psi(d^2(x_i, mu, sigma)) (x_i - mu) = 0.

    The data are whitened once: with sigma = L L^T and the start m0
    (coordinatewise median by default), z_i = L^-1 (x_i - m0), and the
    iteration runs on nu = L^-1 (mu - m0).  There d_i^2 = |z_i - nu|^2 and the
    estimating function is F(nu) = sum_i psi_i (z_i - nu).

    Each iteration tries the Newton step J^-1 F, where
    J = sum_i psi_i I + 2 sum_i psi'_i (z_i - nu)(z_i - nu)^T comes from the
    closed-form psi_sq_prime.  It takes that step only when J is positive
    definite, the step is short enough to trust and it lowers |F|.  Otherwise
    it takes the weighted-mean step F / sum_i psi_i, the plain fixed-point
    iteration.  J varies over distances like the truncation radius r of the
    loss, so a step is trusted when |J^-1 F| sum_i psi_i / lambda_min(J) is at
    most r / 2 (a Kantorovich-style bound).  Far from a root, where J is
    nearly singular, the bound keeps the weighted-mean steps, and with them
    the root the fixed-point iteration would reach.

    The stopping rule is the fixed-point iteration's: the step in mu falls
    below 1e-12 (relative to 1 + max |mu|) and the residual |F| / n, which is
    the estimating equation in the Mahalanobis norm of sigma, is below 1e-9.
    The result carries converged=False when the residual test fails.  That norm
    does not change when x scales by a and sigma by a^2, and the iteration
    only stops early once it holds, so neither does converged.
    """
    x = _as_data(x)
    n, d = x.shape
    sigma = np.asarray(sigma, dtype=float)
    low = spd_cholesky(sigma)
    m0 = coord_median(x) if start is None else np.asarray(start, dtype=float)
    reach = 0.5 * math.sqrt(truncation_sq(spec))
    # z is (d, n), row a holding whitened coordinate a of every point, solved
    # in place by forward substitution so that each row stays contiguous
    z = np.empty((d, n))
    np.subtract(x.T, m0[:, None], out=z)
    for a in range(d):
        for b in range(a):
            z[a] -= low[a, b] * z[b]
        z[a] /= low[a, a]
    # with z, the only n-sized arrays: each candidate step overwrites them, so
    # the state at the previous iterate is kept only as nu, sum w and F
    d2, w, work = np.empty(n), np.empty(n), np.empty(n)
    overflow = False  # whether the last evaluate met a distance that overflows

    def evaluate(nu: np.ndarray) -> tuple[float, np.ndarray]:
        """Fill d2 and w = psi(d2) at nu; return sum w and F(nu)."""
        nonlocal overflow
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(z[0], nu[0], out=d2)
            np.multiply(d2, d2, out=d2)
            for a in range(1, d):
                np.subtract(z[a], nu[a], out=work)
                np.multiply(work, work, out=work)
                np.add(d2, work, out=d2)
            rho_sq_into(spec, d2, w, work, derivative=1)
        wsum = float(w.sum())
        # psi is 0 wherever p == 0, except where d2 overflows to inf on the
        # squared-distance law: p^2 d2 is NaN there, and so is psi'
        overflow = not math.isfinite(wsum)
        if overflow:
            np.copyto(w, 0.0, where=work == 0.0)
            wsum = float(w.sum())
        return wsum, z @ w - wsum * nu

    def newton_step(nu: np.ndarray, wsum: float, f: np.ndarray) -> np.ndarray | None:
        """J^-1 F at nu, or None when it is not to be trusted; overwrites w.
        psi' is built from the p that evaluate(nu) left in work."""
        with np.errstate(invalid="ignore"):  # NaN at an inf distance, zeroed next
            g = _bisquare_from_p(spec.c, spec.convention, d2, w, work, 2)
        if overflow:
            np.copyto(g, 0.0, where=work == 0.0)
        jac = np.empty((d, d))
        for a in range(d):  # row a of sum g (z - nu)(z - nu)^T, no (d, n) temporary
            np.subtract(z[a], nu[a], out=work)
            np.multiply(work, g, out=work)
            jac[a] = z @ work - nu * work.sum()
        jac *= 2.0
        jac.flat[::d + 1] += wsum
        lam = np.linalg.eigvalsh(jac)[0]
        if not lam > 0.0:
            return None
        step = np.linalg.solve(jac, f)
        return step if np.linalg.norm(step) * wsum / lam <= reach else None

    nu = np.zeros(d)
    wsum, f = evaluate(nu)
    it = 0
    for it in range(1, max_iter + 1):
        if not wsum > 0.0:
            raise AllPointsRejected("every point fell beyond the loss truncation")
        prev, prev_wsum, prev_f = nu, wsum, f
        newton = newton_step(nu, wsum, f)
        if newton is not None:
            nu = prev + newton
            wsum, f = evaluate(nu)
        if newton is None or not (wsum > 0.0 and np.linalg.norm(f) < np.linalg.norm(prev_f)):
            nu = prev + prev_f / prev_wsum
            wsum, f = evaluate(nu)
        step = float(np.max(np.abs(low @ (nu - prev))))
        # the step test depends on the units of x, the whitened residual does not
        if (step < _M_TOL * (1.0 + float(np.max(np.abs(m0 + low @ nu))))
                and np.linalg.norm(f) / n < 1e-9):
            break
    residual = float(np.linalg.norm(f)) / n
    obj = float(np.mean(_bisquare_from_p(spec.c, spec.convention, d2, d2, work, 0)))
    if wsum > 0.0:
        w /= wsum
    return LocationScatter(mu=m0 + low @ nu, sigma=sigma, converged=residual < 1e-9,
                           iterations=it, objective=obj,
                           weights=w if wsum > 0.0 else None)


# ---------------------------------------------------------------------------
# Multivariate S-estimator.

def _elemental_starts(x: np.ndarray, n_starts: int, rng: np.random.Generator) -> np.ndarray:
    """Random (or exhaustive, when fewer exist) index subsets of size d + 1, as
    the rows of a (k, d + 1) array."""
    n, d = x.shape
    size = d + 1
    if math.comb(n, size) <= n_starts:
        starts = list(itertools.combinations(range(n), size))
    else:
        starts = [rng.choice(n, size=size, replace=False) for _ in range(n_starts)]
    return np.array(starts, dtype=np.intp).reshape(-1, size)


def _moments(sub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and sample covariance of the rows of sub, computed the way np.cov
    computes them, so bit for bit the same; dev @ dev.T is one symmetric
    rank-k update, so the covariance is exactly symmetric.  A (k, h, d) stack
    gives k moments, each bit for bit its own call's."""
    m = sub.mean(axis=-2)
    dev = np.swapaxes(sub - m[..., None, :], -1, -2)
    cov = dev @ np.swapaxes(dev, -1, -2)
    cov *= np.true_divide(1, sub.shape[-2] - 1)
    return m, cov


def _chol_logdet(low: np.ndarray) -> np.ndarray:
    """log det of the scatter, or of each in a stack, from its Cholesky factor."""
    return 2.0 * np.log(np.diagonal(low, axis1=-2, axis2=-1)).sum(axis=-1)


def _factor_each(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors of a (k, d, d) stack and a mask of those _factor
    accepts.  numpy factors a stack in one call but rejects it whole, so a
    rejected stack is factored again one matrix at a time."""
    try:
        return _factor(cov), np.ones(len(cov), dtype=bool)
    except SingularScatter:
        pass
    low, ok = np.zeros_like(cov), np.ones(len(cov), dtype=bool)
    for i, c in enumerate(cov):
        try:
            low[i] = _factor(c)
        except SingularScatter:
            ok[i] = False
    return low, ok


def _elemental_moments(x: np.ndarray, idx: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_moments of the rows idx[i] of x for each row of the (k, size) index
    array idx, with the covariances' Cholesky factors, in the order of idx;
    subsets whose covariance _factor rejects are left out, since the
    searches' distances need the factor."""
    m, cov = _moments(x[idx])
    low, ok = _factor_each(cov)
    return m[ok], cov[ok], low[ok]


def _mad_start(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = coord_median(x)
    mad = np.median(np.abs(x - m), axis=0) / 0.6744897501960817
    mad = np.where(mad > 0, mad, np.std(x, axis=0) + 1e-12)
    return m, np.diag(mad**2)


# S: iterations and step tolerance per start, and the first start's MCD starts
_S_MAX_ITER, _S_TOL, _S_MCD_STARTS = 200, 1e-10, 50


def s_estimate(x, spec: RhoSpec, bp: float = 0.5, n_starts: int = 20,
               seed: int = 0) -> LocationScatter:
    """S-estimate: minimize det(Sigma) subject to mean rho(d_i) = bp.

    The loss must use the scaled-distance convention; distances enter it
    directly (the scale s0 = 1 is absorbed into c).  Each start runs a
    fixed-point iteration: weighted mean, u-weighted shape update, and an
    exact rescale back onto the constraint.  The determinant is monotone
    along the iteration; a float-level increase stops that start, and so do
    a step below 1e-10 and 200 iterations.  The starts run in order (the MCD
    fit from 50 starts, the coordinatewise median and MAD, then the elemental
    subsets), and a start whose iterate comes within 1e-6 of an optimum an
    earlier start reached stops there as a duplicate that cannot win
    (_near_known).  Above 600 rows, where every iteration passes over all of
    them, the radius is 1e-2, which stops a duplicate about five iterations
    sooner; the start is then already well inside the optimum's basin, where
    the iteration contracts towards it.  The start with the smallest determinant then iterates on
    until its step is below 1e-12.
    """
    x = _as_data(x)
    n, d = x.shape
    if spec.convention != "scaled-distance":
        raise ValueError("s_estimate requires a scaled-distance loss")
    if not 0.0 < bp <= 0.5:
        raise ValueError("bp must lie in (0, 0.5]")
    if n < d + 1:
        raise DegenerateData("need at least d + 1 rows")
    rng = substream(seed, 0)

    starts: list[tuple[np.ndarray, np.ndarray]] = []
    try:
        init = mcd(x, n_starts=_S_MCD_STARTS, seed=seed ^ 1)
        starts.append((init.mu, init.sigma))
    except EstimationError:
        pass
    # a start whose scatter overflows (the MAD start's std, where the MAD is 0,
    # or an elemental subset's moments) fails at its checked distances
    with np.errstate(over="ignore"):
        starts.append(_mad_start(x))
        m, cov, _ = _elemental_moments(x, _elemental_starts(x, n_starts, rng))
    starts.extend(zip(m, cov))

    # known: the centres of the optima reached so far and the inverses of
    # their scatters' Cholesky factors
    best, failures = None, {}  # each distinct reason a start failed, in order
    known = (np.empty((0, d)), np.empty((0, d, d)))
    radius = _NEAR_LARGE if n > _SCREEN_ABOVE else _NEAR
    for m0, c0 in starts:
        try:
            fit = _s_iterate(x, spec, bp, m0, c0, _S_TOL, known, radius)
        except (SingularScatter, DegenerateData) as exc:
            failures[str(exc)] = None
            continue  # this start's scatter went singular or its distances overflowed
        if fit is None:
            continue  # every weight vanished, or a known optimum was reached
        known = (np.concatenate((known[0], fit[0][None])),
                 np.concatenate((known[1], np.linalg.inv(_factor(fit[1]))[None])))
        if best is None or fit[2] < best[2]:
            best = fit
    if best is None:
        raise DegenerateData("no S start produced a solution: "
                             + ("; ".join(failures) or "every weight vanished"))
    # only the winner iterates on to a step of 1e-12, which takes it past the
    # stopping error of the start that found it
    m, sigma, _, it = best
    refined = _s_iterate(x, spec, bp, m, sigma, 1e-12)
    if refined is None:
        raise DegenerateData("every point fell beyond the loss truncation")
    m, sigma, logdet, more = refined
    dist = np.sqrt(np.maximum(mahalanobis_sq(x, m, sigma), 0.0))
    w = weight(spec, dist)
    wsum = w.sum()
    constraint_res = abs(float(np.mean(rho(spec, dist))) - bp)
    # the weighted-mean equation in the Mahalanobis norm of sigma: scale-free
    mean_res = math.sqrt(mahalanobis_sq((w[:, None] * (x - m)).sum(axis=0) / wsum, 0.0, sigma))
    return LocationScatter(mu=m, sigma=sigma, converged=constraint_res < 1e-8 and mean_res < 1e-8,
                           iterations=it + more, objective=logdet, weights=w / wsum)


def _step_below(step: np.ndarray, m: np.ndarray, low: np.ndarray, tol: float) -> bool:
    """|step| < tol (1 + |m|), both in the Mahalanobis norm of the scatter
    whose Cholesky factor is low, which does not change when x scales by a
    and the scatter by a^2."""
    m2, step2 = _dist_sq(np.stack((m, step)), 0.0, low)
    bound = tol * (1.0 + math.sqrt(m2))
    return step2 < bound * bound


# the radius within which an S start counts as having reached a known optimum
# (_near_known): _NEAR up to _SCREEN_ABOVE rows, _NEAR_LARGE above
_NEAR, _NEAR_LARGE = 1e-6, 1e-2


def _near_known(m: np.ndarray, sigma: np.ndarray, known: tuple[np.ndarray, np.ndarray],
                radius: float = _NEAR) -> bool:
    """Whether (m, sigma) lies within radius of one of the optima in known, a
    stack of centres m* and of the inverses of their scatters' Cholesky
    factors L*.  Within means |L*^-1 (m - m*)| < radius and every eigenvalue
    of L*^-1 sigma L*^-T within radius of 1.  Under x -> A x + b,
    L* becomes A L* Q with Q orthogonal, so both tests are affine-invariant."""
    centres, inv = known
    if not len(centres):
        return False
    z = inv @ (m - centres)[..., None]
    gap = np.einsum("kij,kij->k", z, z)
    shape = inv @ sigma @ np.swapaxes(inv, -1, -2)
    spread = np.abs(np.linalg.eigvalsh(shape) - 1.0).max(axis=-1)
    return bool(np.any((gap < radius * radius) & (spread < radius)))


def _s_iterate(x, spec, b, m, sigma, tol, known=None, radius=_NEAR) -> tuple | None:
    """At most _S_MAX_ITER S fixed-point iterations from (m, sigma): (m,
    sigma, log det sigma, iterations) where the step falls below tol, or None
    when every weight vanishes or an iterate comes within radius of an optimum in known
    (_near_known); raises SingularScatter or DegenerateData when the scatter
    goes singular on the way or m_scale finds no root.

    Past the checked first distances, the iterations work on the (d, n)
    transpose of x, so that every pass over the data runs along rows of
    length n: the weighted mean is one matrix-vector product, each shape is
    one symmetric rank-k update, so exactly symmetric, and is factored once,
    and the distances under shape * s^2 are those under the shape divided by
    s.  Each M-scale solve after the first in the loop is warm-started at the
    previous iteration's scale."""
    dist = np.sqrt(np.maximum(mahalanobis_sq(x, m, sigma), 0.0))
    s = m_scale(dist, spec, b)
    sigma = sigma * s**2
    dist /= s
    logdet_prev = float(_chol_logdet(_factor(sigma)))
    xt = np.ascontiguousarray(x.T)
    guess = None
    it = 0
    # a row past 1.3e154 in the shape's norm squares to an inf distance (z *= z),
    # which m_scale counts as a loss of 1 and weight gives weight 0
    with np.errstate(over="ignore"):
        for it in range(1, _S_MAX_ITER + 1):
            w = weight(spec, dist)
            wsum = w.sum()
            if not wsum > 0.0:
                return None
            m_new = xt @ w / wsum
            dev = xt - m_new[:, None]
            u = dev * np.sqrt(w)
            shape = np.dot(u, u.T)
            z = np.matmul(np.linalg.inv(_factor(shape)), dev, out=u)  # u is not needed again
            z *= z
            dist = np.sqrt(np.maximum(z.sum(axis=0), 0.0))
            s = guess = m_scale(dist, spec, b, guess=guess)
            dist /= s
            sigma_new = shape * s**2
            if known is not None and _near_known(m_new, sigma_new, known, radius):
                return None
            low = _factor(sigma_new)
            logdet = float(_chol_logdet(low))
            if logdet > logdet_prev + 1e-10:
                break  # determinant rose past float noise: fixed point reached
            small_step = _step_below(m_new - m, m_new, low, tol)
            drop = logdet_prev - logdet
            m, sigma, logdet_prev = m_new, sigma_new, logdet
            if small_step and drop < 1e-11:
                break
    return m, sigma, logdet_prev, it


# ---------------------------------------------------------------------------
# Minimum covariance determinant.

def _concentrate(x: np.ndarray, m: np.ndarray, low: np.ndarray, h: int) -> tuple:
    """One concentration step for k chains at once: for chain i, the h points
    closest to m[i] in the Mahalanobis distance of the scatter whose Cholesky
    factor is low[i], as a (k, h) array of sorted indices, and a mask of the
    chains that have an h-th distance.  Ties at the h-th distance go to the
    smallest indices, as a stable sort would order them.  The selection is a
    partition per row, linear in n, not a sort; the tie count runs only when
    some chain has more than h points at or below its h-th distance.  NaNs
    sort last, so a chain with more than n - h NaN distances (they overflow)
    has no h-th distance: it is masked out, its row holding rows 0..h-1."""
    k, n = len(m), len(x)
    d2 = _dist_sq(x, m[:, None, :], low)
    kth = np.partition(d2, h - 1, axis=1)[:, h - 1:h]
    ok = ~np.isnan(kth[:, 0])
    if not ok.all():
        d2[~ok], kth[~ok] = 0.0, 0.0
    keep = d2 <= kth
    if np.count_nonzero(keep) != k * h:
        below = d2 < kth
        ties = d2 == kth
        room = h - np.count_nonzero(below, axis=1)
        keep = below | (ties & (np.cumsum(ties, axis=1) <= room[:, None]))
    return np.flatnonzero(keep).reshape(k, h) - np.arange(0, k * n, n)[:, None], ok


def c_step(x: np.ndarray, m: np.ndarray, sigma: np.ndarray, h: int) -> np.ndarray:
    """One concentration step: the h points closest to (m, sigma) in
    Mahalanobis distance, as sorted indices, with _concentrate's tie rule.

    A private path for the searches: sigma must be an exactly symmetric
    positive definite matrix (as _moments builds), factored by _factor and
    used by _dist_sq without mahalanobis_sq's checks."""
    sub, ok = _concentrate(x, m[None], _factor(sigma)[None], h)
    if not ok[0]:
        _no_chain_left(np.array([np.nan]))
    return sub[0]


def _no_chain_left(logdet: np.ndarray):
    """Raise DegenerateData for a search with no chain left: NaN log dets mark
    chains dropped for non-finite distances, inf ones exact fits."""
    if np.isnan(logdet).any():
        raise DegenerateData("non-finite squared distances: the data overflow the "
                             "Mahalanobis distances of the MCD chains")
    raise DegenerateData("exact fit: every MCD chain reached a subset on a hyperplane "
                         "(singular covariance, determinant 0), which mcd does not report")


def _mcd_chains(x: np.ndarray, m: np.ndarray, low: np.ndarray, h: int, max_csteps: int):
    """Concentrate k chains in lockstep from their starts (m, low), stacked.

    Every chain steps while its determinant drops by more than 1e-12 in log;
    one without an h-th distance (_concentrate) or whose new scatter _factor
    rejects is dropped.  Returns per chain the last log det that dropped
    (NaN and inf for chains dropped for each of these reasons), its moments
    and subset, and whether max_csteps cut it while it still dropped."""
    k, d = m.shape
    logdet = np.full(k, np.inf)
    best_m, cov = np.empty((k, d)), np.empty((k, d, d))
    subset = np.empty((k, h), dtype=np.intp)
    live = np.arange(k)  # the chains still stepping, at (m, low)
    for _ in range(max_csteps):
        if live.size == 0:
            break
        sub, ok = _concentrate(x, m, low, h)
        with np.errstate(over="ignore"):  # an overflowing covariance ends its chain
            m, cov_new = _moments(np.take(x, sub, axis=0))  # x[sub], in a quarter of the time
        low, factored = _factor_each(cov_new)
        if not (ok & factored).all():
            logdet[live[~factored]], logdet[live[~ok]] = np.inf, np.nan
            ok &= factored
            sub, m, cov_new, low, live = (a[ok] for a in (sub, m, cov_new, low, live))
        ld = _chol_logdet(low)
        dropped = ld < logdet[live] - 1e-12
        sub, m, cov_new, low, ld, live = (a[dropped] for a in
                                          (sub, m, cov_new, low, ld, live))
        logdet[live], best_m[live], cov[live], subset[live] = ld, m, cov_new, sub
    cut = np.zeros(k, dtype=bool)
    cut[live] = True
    return logdet, best_m, cov, subset, cut


# FAST-MCD's selective iteration (Rousseeuw and Van Driessen 1999): above
# _SCREEN_ABOVE rows every start first takes _SCREEN_CSTEPS C-steps on a
# sample of at most _SCREEN_ROWS rows, and only the _SCREEN_KEEP best of them
# go on to concentrate on the full data.
_SCREEN_ABOVE, _SCREEN_ROWS, _SCREEN_KEEP, _SCREEN_CSTEPS = 600, 1500, 10, 2


def _chunk(x: np.ndarray) -> int:
    """Chains stepped in lockstep at once: about 2^16 distances per C-step."""
    n, d = x.shape
    return max(1, 2**16 // (n * d))


def _screen(x: np.ndarray, m: np.ndarray, low: np.ndarray, h: int,
            rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The starts (m, low) that go on to the full data, in start order.

    Every start takes _SCREEN_CSTEPS C-steps on one sample: _SCREEN_ROWS rows
    drawn from rng and sorted, or all rows when there are no more than that,
    with the subset size scaled to h_s = max(d + 1, ceil(h n_s / n)).  The
    _SCREEN_KEEP chains with the lowest finite log dets are kept, ties going
    to the lower start index, each from the moments it reached."""
    n, d = x.shape
    sample = x
    if n > _SCREEN_ROWS:
        sample = x[np.sort(rng.choice(n, size=_SCREEN_ROWS, replace=False))]
    h_s = max(d + 1, -(-h * len(sample) // n))
    chunk = _chunk(sample)
    chains = [_mcd_chains(sample, m[lo:lo + chunk], low[lo:lo + chunk], h_s, _SCREEN_CSTEPS)
              for lo in range(0, len(m), chunk)]
    logdet = np.concatenate([c[0] for c in chains])
    order = np.argsort(logdet, kind="stable")
    keep = np.sort(order[np.isfinite(logdet[order])][:_SCREEN_KEEP])
    if not keep.size:
        _no_chain_left(logdet)
    m_s, cov_s = (np.concatenate([c[i] for c in chains])[keep] for i in (1, 2))
    return m_s, _factor(cov_s)


def mcd(x, h: int | None = None, n_starts: int = 500, seed: int = 0,
        max_csteps: int = 100) -> LocationScatter:
    """Minimum covariance determinant via concentration steps.

    Each start concentrates to a determinant fixed point: take the h points
    with the smallest Mahalanobis distances (ties keep the smallest indices,
    see _concentrate), recompute moments, repeat while the determinant
    drops.  The starts step in lockstep, in chunks of about 2^16 distances,
    as in FAST-MCD (Rousseeuw and Van Driessen 1999).  Up to 600 rows each
    chain's result is that of running it alone.  Above 600 rows, FAST-MCD's
    selective iteration screens the starts first (_screen): each takes 2
    C-steps on a sample of at most 1,500 rows, drawn after the starts from
    the same stream, and only the 10 best chains concentrate on the full
    data, from where the sample left them.  Candidates merge by (objective,
    start index), so results do not depend on evaluation order.  iterations
    counts the elemental starts tried, and converged refers to the full-data
    chain that won.

    A chain whose h-subset has a covariance that the Cholesky factorization
    rejects is dropped.  Such a subset lies on a hyperplane: an exact fit,
    with determinant 0, the smallest there is, which mcd does not report as
    its optimum.  When every chain ends this way, as can happen for h = d + 1
    on data with duplicated rows, mcd raises DegenerateData with a message
    that names the exact fit.  A chain whose distances overflow to NaN is
    dropped too (_concentrate), and if it was one, the message names them.
    """
    x = _as_data(x)
    n, d = x.shape
    if h is None:
        h = (n + d + 1) // 2
    if not d + 1 <= h <= n:
        raise DegenerateData(f"subset size h={h} must lie in [d+1, n]")

    if h == n:  # the sample estimate, with the log det as every other fit reports it
        est = sample_mean(x)
        sign, logdet = np.linalg.slogdet(est.sigma)
        est.objective = float(logdet) if sign > 0 else float("nan")
        est.subset = np.arange(n)
        return est

    rng = substream(seed, 0)
    m0, low0 = np.empty((0, d)), np.empty((0, d, d))
    attempts = 0
    max_attempts = 20 * max(n_starts, 1)
    while len(m0) < n_starts and attempts < max_attempts:
        # draw the starts still missing: a singular elemental subset is drawn again
        k = min(n_starts - len(m0), max_attempts - attempts)
        attempts += k
        with np.errstate(over="ignore"):  # an overflowing start never becomes the result
            m, _, low = _elemental_moments(
                x, np.array([rng.choice(n, size=d + 1, replace=False) for _ in range(k)]))
        m0, low0 = np.concatenate((m0, m)), np.concatenate((low0, low))
    tried = len(m0)
    if not tried:
        raise DegenerateData("all MCD starts hit singular subsets")
    if n > _SCREEN_ABOVE:
        m0, low0 = _screen(x, m0, low0, h, rng)

    best_logdet = np.inf
    best, ends = None, []
    chunk = _chunk(x)
    for lo in range(0, len(m0), chunk):
        chains = _mcd_chains(x, m0[lo:lo + chunk], low0[lo:lo + chunk], h, max_csteps)
        ends.append(chains[0])
        for logdet, m, cov, subset, cut in zip(*chains):
            if logdet < best_logdet - 1e-14:
                best_logdet = logdet
                best = (m, cov, subset, cut)
    if best is None:
        _no_chain_left(np.concatenate(ends))
    m, cov, subset, cut = best
    weights = np.zeros(n)
    weights[subset] = 1.0 / h
    return LocationScatter(mu=m, sigma=cov, converged=not cut, iterations=tried,
                           objective=float(best_logdet), weights=weights,
                           subset=subset)


# ---------------------------------------------------------------------------
# Minimum volume ellipsoid.

def mve(x, n_trials: int = 500, seed: int = 0) -> LocationScatter:
    """Minimum volume ellipsoid by elemental search.

    Each (d+1)-point subset proposes a shape; the ellipsoid is inflated until
    it covers ceil((n+d+1)/2) points, and the smallest-volume proposal wins.
    The sample-covariance shape always enters as the final candidate, so the
    result is never worse than the classical ellipsoid at the same coverage.
    """
    x = _as_data(x)
    n, d = x.shape
    if n < d + 1:
        raise DegenerateData("need at least d + 1 rows")
    cover = math.ceil((n + d + 1) / 2)
    rng = substream(seed, 0)

    # the sample covariance enters as the last candidate
    m, cov, low = (np.concatenate(parts) for parts in zip(
        _elemental_moments(x, _elemental_starts(x, n_trials, rng)),
        _elemental_moments(x, np.arange(n)[None])))
    if not len(m):
        raise DegenerateData("all MVE subsets were singular")
    chunk = _chunk(x)
    m2 = np.concatenate([
        np.partition(_dist_sq(x, m[lo:lo + chunk, None], low[lo:lo + chunk]), cover - 1,
                     axis=1)[:, cover - 1] for lo in range(0, len(m), chunk)])
    logdet = _chol_logdet(low)

    best_logvol = np.inf
    best = None
    for i in range(len(m)):
        if m2[i] <= 0.0:
            continue
        logvol = 0.5 * float(logdet[i]) + 0.5 * d * math.log(m2[i])
        if logvol < best_logvol - 1e-14:
            best_logvol = logvol
            best = (m[i], cov[i] * m2[i])
    if best is None:
        if not np.isfinite(m2).all():
            raise DegenerateData("non-finite squared distances: the data overflow the "
                                 "Mahalanobis distances of the MVE candidates")
        raise DegenerateData("no MVE candidate covered the target count")
    try:
        volume = math.exp(best_logvol)
    except OverflowError:
        raise DegenerateData(f"the MVE volume overflows: the data give the smallest "
                             f"ellipsoid a log volume of {best_logvol:.6g}") from None
    m, sigma = best
    return LocationScatter(mu=m, sigma=sigma, converged=True, iterations=len(logdet),
                           objective=volume)


# ---------------------------------------------------------------------------
# The registry: the one place that names the estimators and says how each is
# called.  Fits look estimators up by module name at call time, so rebinding a
# name (a monkeypatch, a tracer) reaches every fit.

@dataclass(frozen=True)
class Estimator:
    """fit(x, rho=, bp=, starts=, seed=) -> LocationScatter, plus the
    defaults callers resolve: subset starts or trials (None without a search),
    and the loss: None, "univariate" (c calibrated at d = 1) or "multivariate"
    (at the data dimension), on its default convention."""

    fit: Callable[..., LocationScatter]
    starts: int | None = None
    loss: str | None = None
    convention: str = "scaled-distance"

    def rho(self, d: int, bp: float = 0.5, convention: str | None = None,
            c: float | None = None) -> RhoSpec | None:
        """The loss for d-column data; resolve it once per run, not per fit."""
        if self.loss is None:
            return None
        convention = convention or self.convention
        if c is None:
            c = calibrate_c(1 if self.loss == "univariate" else d, bp, convention=convention)
        return RhoSpec(c=c, convention=convention)

    def __call__(self, x, rho: RhoSpec | None = None, bp: float = 0.5,
                 starts: int | None = None, seed: int = 0) -> LocationScatter:
        if self.loss is not None and rho is None:
            raise ValueError("this estimator needs a loss (rho)")
        return self.fit(x, rho=rho, bp=bp, seed=seed,
                        starts=self.starts if starts is None else starts)


ESTIMATORS: dict[str, Estimator] = {
    "mean": Estimator(lambda x, **_: sample_mean(x)),
    "coord_median": Estimator(lambda x, **_: LocationScatter(mu=coord_median(x), sigma=None)),
    "coord_s": Estimator(lambda x, rho, bp, **_: coord_s(x, rho, bp=bp), loss="univariate"),
    # M-location at the MCD plug-in scatter
    "m": Estimator(lambda x, rho, seed, **_: m_location(x, mcd(x, seed=seed).sigma, rho),
                   loss="multivariate", convention="squared-distance"),
    "s": Estimator(lambda x, rho, bp, starts, seed, **_:
                   s_estimate(x, rho, bp=bp, n_starts=starts, seed=seed),
                   starts=20, loss="multivariate"),
    "mcd": Estimator(lambda x, starts, seed, **_: mcd(x, n_starts=starts, seed=seed), starts=500),
    "mve": Estimator(lambda x, starts, seed, **_: mve(x, n_trials=starts, seed=seed), starts=500),
}
