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
from scipy.optimize import brentq

from .numerics import (InvalidData, RhoSpec, SingularScatter, default_c,
                       mahalanobis_sq, rho, rho_inverse, rho_sq_into,
                       spd_cholesky, truncation_sq, weight)
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

def m_scale(r: np.ndarray, spec: RhoSpec, b: float, rtol: float = 1e-13) -> float:
    r = np.asarray(r, dtype=float)
    pos = r[r > 0.0]
    # as s -> 0 the mean tends to the fraction of nonzero residuals
    if pos.size <= b * r.size:
        raise DegenerateData("too many zero residuals for the scale constraint")

    def excess(s: float) -> float:
        return float(np.mean(rho(spec, r / s))) - b

    med = float(np.median(pos))
    lo = hi = max(med / spec.c, 1e-12)
    for _ in range(200):
        if excess(lo) > 0.0:
            break
        lo /= 2.0
    for _ in range(200):
        if excess(hi) < 0.0:
            break
        hi *= 2.0
    return float(brentq(excess, lo, hi, rtol=rtol, maxiter=200))


def coord_s(x, spec: RhoSpec, bp: float = 0.5, max_iter: int = 200,
            tol: float = 1e-11) -> LocationScatter:
    """Columnwise univariate S-estimates of location and scale.

    Per column: minimize s(m) subject to mean rho((x - m)/s) = bp, by
    alternating the scale solve with a weighted-mean location step.
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
    for j in range(d):
        col = x[:, j]
        vals, counts = np.unique(col, return_counts=True)
        if counts.max() >= n / 2.0 or vals.size < 2:
            raise DegenerateData(f"column {j} is too concentrated for an S-scale")
        m = float(np.median(col))
        s = m_scale(np.abs(col - m), spec, bp)
        it = 0
        for it in range(1, max_iter + 1):
            w = weight(spec, (col - m) / s)
            if w.sum() <= 0.0:
                raise AllPointsRejected(f"column {j}: all weights vanished")
            m_new = float(w @ col / w.sum())
            s = m_scale(np.abs(col - m_new), spec, bp)
            step = abs(m_new - m)
            m = m_new
            if step < tol * max(1.0, s):
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

def m_location(x, sigma, spec: RhoSpec, start=None, max_iter: int = 500,
               tol: float = 1e-12) -> LocationScatter:
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
    below tol (relative to 1 + max |mu|) and the residual |F| / n, which is the
    estimating equation in the Mahalanobis norm of sigma, is below 1e-9.  The
    result carries converged=False when the residual test fails.  That norm
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

    def evaluate(nu: np.ndarray) -> tuple[float, np.ndarray]:
        """Fill d2 and w = psi(d2) at nu; return sum w and F(nu)."""
        np.subtract(z[0], nu[0], out=d2)
        np.multiply(d2, d2, out=d2)
        for a in range(1, d):
            np.subtract(z[a], nu[a], out=work)
            np.multiply(work, work, out=work)
            np.add(d2, work, out=d2)
        rho_sq_into(spec, d2, w, work, derivative=1)
        wsum = float(w.sum())
        return wsum, z @ w - wsum * nu

    def newton_step(nu: np.ndarray, wsum: float, f: np.ndarray) -> np.ndarray | None:
        """J^-1 F at nu, or None when it is not to be trusted; overwrites w."""
        g = rho_sq_into(spec, d2, w, work, derivative=2)
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
        if (step < tol * (1.0 + float(np.max(np.abs(m0 + low @ nu))))
                and np.linalg.norm(f) / n < 1e-9):
            break
    residual = float(np.linalg.norm(f)) / n
    obj = float(np.mean(rho_sq_into(spec, d2, d2, work)))
    if wsum > 0.0:
        w /= wsum
    return LocationScatter(mu=m0 + low @ nu, sigma=sigma, converged=residual < 1e-9,
                           iterations=it, objective=obj,
                           weights=w if wsum > 0.0 else None)


# ---------------------------------------------------------------------------
# Multivariate S-estimator.

def _elemental_starts(x: np.ndarray, n_starts: int, rng: np.random.Generator):
    """Random (or exhaustive, when fewer exist) index subsets of size d + 1."""
    n, d = x.shape
    size = d + 1
    total = math.comb(n, size)
    if total <= n_starts:
        yield from (np.array(c) for c in itertools.combinations(range(n), size))
        return
    for _ in range(n_starts):
        yield rng.choice(n, size=size, replace=False)


def _subset_moments(x: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    sub = x[idx]
    m = sub.mean(axis=0)
    cov = np.cov(sub, rowvar=False).reshape(x.shape[1], x.shape[1])
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return None
    return m, cov


def _mad_start(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = coord_median(x)
    mad = np.median(np.abs(x - m), axis=0) / 0.6744897501960817
    mad = np.where(mad > 0, mad, np.std(x, axis=0) + 1e-12)
    return m, np.diag(mad**2)


def s_estimate(x, spec: RhoSpec, bp: float = 0.5, n_starts: int = 20, seed: int = 0,
               max_iter: int = 200, tol: float = 1e-10,
               mcd_starts: int = 50) -> LocationScatter:
    """S-estimate: minimize det(Sigma) subject to mean rho(d_i) = bp.

    The loss must use the scaled-distance convention; distances enter it
    directly (the scale s0 = 1 is absorbed into c).  Each start runs a
    fixed-point iteration: weighted mean, u-weighted shape update, and an
    exact rescale back onto the constraint.  The determinant is monotone
    along the iteration; a float-level increase stops that start.
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
        init = mcd(x, n_starts=mcd_starts, seed=seed ^ 1)
        starts.append((init.mu, init.sigma))
    except EstimationError:
        pass
    starts.append(_mad_start(x))
    for idx in _elemental_starts(x, n_starts, rng):
        mom = _subset_moments(x, idx)
        if mom is not None:
            starts.append(mom)

    best: LocationScatter | None = None
    for m0, c0 in starts:
        try:
            result = _s_from_start(x, spec, bp, m0, c0, max_iter, tol)
        except (SingularScatter, DegenerateData):
            continue  # this start's scatter went singular
        if result is None:
            continue
        if best is None or result.objective < best.objective:
            best = result
    if best is None:
        raise DegenerateData("no S start produced a nonsingular solution")
    return best


def _step_below(step: np.ndarray, m: np.ndarray, sigma: np.ndarray, tol: float) -> bool:
    """|step| < tol (1 + |m|), both in the Mahalanobis norm of sigma, which
    does not change when x scales by a and sigma by a^2."""
    bound = tol * (1.0 + math.sqrt(mahalanobis_sq(m, 0.0, sigma)))
    return mahalanobis_sq(step, 0.0, sigma) < bound * bound


def _s_from_start(x, spec, b, m, sigma, max_iter, tol) -> LocationScatter | None:
    """The S fixed point from one start, or None; raises SingularScatter or
    DegenerateData when the scatter goes singular on the way."""
    dist = np.sqrt(np.maximum(mahalanobis_sq(x, m, sigma), 0.0))
    sigma = sigma * m_scale(dist, spec, b)**2
    logdet_prev = float(np.linalg.slogdet(sigma)[1])
    it = 0
    for it in range(1, max_iter + 1):
        dist = np.sqrt(np.maximum(mahalanobis_sq(x, m, sigma), 0.0))
        w = weight(spec, dist)
        wsum = w.sum()
        if not wsum > 0.0:
            return None
        m_new = (w[:, None] * x).sum(axis=0) / wsum
        dev = x - m_new
        shape = (w[:, None] * dev).T @ dev
        dist_shape = np.sqrt(np.maximum(mahalanobis_sq(x, m_new, shape), 0.0))
        s = m_scale(dist_shape, spec, b)
        sigma_new = shape * s**2
        logdet = float(np.linalg.slogdet(sigma_new)[1])
        if logdet > logdet_prev + 1e-10:
            break  # determinant rose past float noise: fixed point reached
        small_step = _step_below(m_new - m, m_new, sigma_new, tol)
        drop = logdet_prev - logdet
        m, sigma, logdet_prev = m_new, sigma_new, logdet
        if small_step and drop < 1e-11:
            break

    # polish: enforce the scale constraint exactly, then refresh the
    # weighted-mean identity until both residuals sit at solver precision
    for _ in range(60):
        dist = np.sqrt(np.maximum(mahalanobis_sq(x, m, sigma), 0.0))
        s = m_scale(dist, spec, b)
        sigma = sigma * s**2
        w = weight(spec, dist / s)
        wsum = w.sum()
        if not wsum > 0.0:
            return None
        m_new = (w[:, None] * x).sum(axis=0) / wsum
        step = m_new - m
        m = m_new
        if _step_below(step, m, sigma, 1e-12):
            break
    dist = np.sqrt(np.maximum(mahalanobis_sq(x, m, sigma), 0.0))
    w = weight(spec, dist)
    wsum = w.sum()
    if not wsum > 0.0:
        return None
    constraint_res = abs(float(np.mean(rho(spec, dist))) - b)
    # the weighted-mean equation in the Mahalanobis norm of sigma: scale-free
    mean_res = math.sqrt(mahalanobis_sq((w[:, None] * (x - m)).sum(axis=0) / wsum, 0.0, sigma))
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0:
        return None
    converged = constraint_res < 1e-8 and mean_res < 1e-8
    return LocationScatter(mu=m, sigma=sigma, converged=converged, iterations=it,
                           objective=float(logdet), weights=w / wsum)


def s_weight_bounds(spec: RhoSpec, delta0: float) -> tuple[float, float]:
    """Normalized-weight envelope for a 50%-breakdown S-estimate.

    With kappa = psi'(0) and zeta = u(rho^{-1}(t0)), t0 = 1/(1 + 2*delta0),
    every scaled weight lies below 4*kappa/zeta, and points with loss below t0
    (at least half the mass, up to delta0) sit above zeta/kappa.
    """
    if not 0.0 < delta0 < 0.5:
        raise ValueError("delta0 must lie in (0, 0.5)")
    kappa = float(weight(spec, 0.0))
    t0 = 1.0 / (1.0 + 2.0 * delta0)
    zeta = float(weight(spec, rho_inverse(spec, t0)))
    return 4.0 * kappa / zeta, zeta / kappa


# ---------------------------------------------------------------------------
# Minimum covariance determinant.

def _cov_det(sub: np.ndarray) -> tuple[np.ndarray, np.ndarray, float] | None:
    m = sub.mean(axis=0)
    cov = np.cov(sub, rowvar=False).reshape(sub.shape[1], sub.shape[1])
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0 or not np.isfinite(logdet):
        return None
    return m, cov, float(logdet)


def c_step(x: np.ndarray, m: np.ndarray, sigma: np.ndarray, h: int) -> np.ndarray:
    """One concentration step: the h points closest to (m, sigma) in
    Mahalanobis distance, as sorted indices.  The stable order keeps the
    smallest indices on ties, so the step is deterministic."""
    d2 = mahalanobis_sq(x, m, sigma)
    order = np.argsort(d2, kind="stable")
    return np.sort(order[:h])


def mcd(x, h: int | None = None, n_starts: int = 500, seed: int = 0,
        max_csteps: int = 100) -> LocationScatter:
    """Minimum covariance determinant via concentration steps.

    Each start concentrates to a determinant fixed point: take the h points
    with the smallest Mahalanobis distances (stable sort, so ties keep the
    smallest indices), recompute moments, repeat while the determinant drops.
    Candidates merge by (objective, start index), so results do not depend on
    evaluation order.
    """
    x = _as_data(x)
    n, d = x.shape
    if h is None:
        h = (n + d + 1) // 2
    if not d + 1 <= h <= n:
        raise DegenerateData(f"subset size h={h} must lie in [d+1, n]")

    if h == n:
        est = sample_mean(x)
        est.subset = np.arange(n)
        return est

    rng = substream(seed, 0)
    best_logdet = np.inf
    best: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    tried = 0
    attempts = 0
    max_attempts = 20 * max(n_starts, 1)
    while tried < n_starts and attempts < max_attempts:
        attempts += 1
        idx = rng.choice(n, size=d + 1, replace=False)
        mom = _subset_moments(x, idx)
        if mom is None:
            continue  # singular elemental subset: draw a fresh one
        tried += 1
        m, cov = mom
        logdet_prev = np.inf
        cut = False
        keep: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        for _ in range(max_csteps):
            subset = c_step(x, m, cov, h)
            step = _cov_det(x[subset])
            if step is None:
                break
            m, cov, logdet = step
            if logdet < logdet_prev - 1e-12:
                logdet_prev = logdet
                keep = (m, cov, subset)
            else:
                break  # determinant stopped dropping: concentration fixed point
        else:
            cut = True  # max_csteps ran out while the determinant still dropped
        if keep is None:
            continue
        if logdet_prev < best_logdet - 1e-14:
            best_logdet = logdet_prev
            best = keep
            best_cut = cut
    if best is None:
        raise DegenerateData("all MCD starts hit singular subsets")
    m, cov, subset = best
    weights = np.zeros(n)
    weights[subset] = 1.0 / h
    return LocationScatter(mu=m, sigma=cov, converged=not best_cut, iterations=tried,
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

    candidates = []
    for idx in _elemental_starts(x, n_trials, rng):
        mom = _subset_moments(x, idx)
        if mom is not None:
            candidates.append(mom)
    mom = _cov_det(x)
    if mom is not None:
        candidates.append((mom[0], mom[1]))
    if not candidates:
        raise DegenerateData("all MVE subsets were singular")

    best_logvol = np.inf
    best = None
    for m, cov in candidates:
        sign, logdet = np.linalg.slogdet(cov)
        if sign <= 0:
            continue
        d2 = np.sort(mahalanobis_sq(x, m, cov), kind="stable")
        m2 = float(d2[cover - 1])
        if m2 <= 0.0:
            continue
        logvol = 0.5 * logdet + 0.5 * d * math.log(m2)
        if logvol < best_logvol - 1e-14:
            best_logvol = logvol
            best = (m, cov * m2)
    if best is None:
        raise DegenerateData("no MVE candidate covered the target count")
    m, sigma = best
    return LocationScatter(mu=m, sigma=sigma, converged=True,
                           iterations=len(candidates),
                           objective=float(math.exp(best_logvol)))


# ---------------------------------------------------------------------------
# The registry: the one place that names the estimators and says how each is
# called.  Fits look estimators up by module name at call time, so rebinding a
# name (a monkeypatch, a tracer) reaches every fit.

@dataclass(frozen=True)
class Estimator:
    """fit(x, rho=, bp=, starts=, seed=, scatter=) -> LocationScatter, plus the
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
            c = default_c(convention, bp, 1 if self.loss == "univariate" else d)
        return RhoSpec(c=c, convention=convention)

    def __call__(self, x, rho: RhoSpec | None = None, bp: float = 0.5,
                 starts: int | None = None, seed: int = 0,
                 scatter: str = "mcd") -> LocationScatter:
        if self.loss is not None and rho is None:
            raise ValueError("this estimator needs a loss (rho)")
        return self.fit(x, rho=rho, bp=bp, seed=seed, scatter=scatter,
                        starts=self.starts if starts is None else starts)


def _m_fit(x, rho, seed, scatter, **_) -> LocationScatter:
    """M-location at a plug-in scatter: identity, sample covariance or MCD."""
    x = _as_data(x)
    if scatter == "identity":
        sigma = np.eye(x.shape[1])
    elif scatter == "sample":
        sigma = np.cov(x, rowvar=False, ddof=1)
    elif scatter == "mcd":
        sigma = mcd(x, seed=seed).sigma
    else:
        raise ValueError(f"unknown plug-in scatter {scatter!r}")
    return m_location(x, sigma, rho)


ESTIMATORS: dict[str, Estimator] = {
    "mean": Estimator(lambda x, **_: sample_mean(x)),
    "coord_median": Estimator(lambda x, **_: LocationScatter(mu=coord_median(x), sigma=None)),
    "coord_s": Estimator(lambda x, rho, bp, **_: coord_s(x, rho, bp=bp), loss="univariate"),
    "m": Estimator(_m_fit, loss="multivariate", convention="squared-distance"),
    "s": Estimator(lambda x, rho, bp, starts, seed, **_:
                   s_estimate(x, rho, bp=bp, n_starts=starts, seed=seed),
                   starts=20, loss="multivariate"),
    "mcd": Estimator(lambda x, starts, seed, **_: mcd(x, n_starts=starts, seed=seed), starts=500),
    "mve": Estimator(lambda x, starts, seed, **_: mve(x, n_trials=starts, seed=seed), starts=500),
}
