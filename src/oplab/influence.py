"""Influence functions of location M-functionals under cellwise contamination.

The engine evaluates the limiting derivative of the location functional along
the contamination paths from `contamination`.  Full-row replacement gives the
classical closed form; independent-cell replacement needs expectations over
partially replaced draws: chi-square integrals on a diagonal scatter, else
Monte Carlo with common random numbers (every call regenerates the same
substream, so influence surfaces over a z-grid are smooth and two calls at
different z share all sampling noise).

Normalization: every influence vector is psi-weighted displacement divided by
a_psi, the derivative of the estimating equation at the model.  The same
constant serves both loss conventions because psi here always means the
derivative of the loss with respect to squared distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contamination import MODELS, ContaminationSpec
from .estimators import EstimationError, m_location
from .numerics import (EllipticalModel, RhoSpec, _brentq, chi2_truncated_expectation,
                       psi_sq, psi_sq_prime, rho_sq_into, truncation_sq)
from .rng import substream

# substream branch labels, one per consumer of the master seed
_PATH_FICM = 11
_PATH_PSICM = 13
_PATH_NUMERIC = 17
_PATH_GES = 19


@dataclass(frozen=True)
class MonteCarlo:
    """Sampling budget for the Monte Carlo influence paths."""

    n_draws: int = 200_000
    seed: int = 2024

    def __post_init__(self):
        if self.n_draws < 1:
            raise ValueError("n_draws must be positive")


def a_psi(rho: RhoSpec, d: int) -> float:
    """Estimating-equation normalizer: (2/d) E[psi'(Q) Q] + E[psi(Q)], Q ~ chi2_d.

    psi and psi' act on squared distance regardless of the loss convention.
    A nonpositive value means the loss redescends too hard for this dimension
    and the location functional is not locally identifiable.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    cut = truncation_sq(rho)

    def integrand(u):
        return (2.0 / d) * psi_sq_prime(rho, u) * u + psi_sq(rho, u)

    val = chi2_truncated_expectation(integrand, d, cut, tail_value=0.0)
    if not val > 0.0:
        raise ValueError(f"normalizer a_psi = {val:.3e} is not positive at d={d}")
    return float(val)


class InfluenceContext:
    """Everything an influence evaluation needs, with a_psi precomputed.

    kind selects the contamination path; gamma is only meaningful for
    pcicm-i.  The cellwise paths are exact on a diagonal sigma0 and Monte
    Carlo otherwise.  The context caches the z-independent parts of the
    Monte Carlo state (the draws in a (d, n) layout, their precision
    products) for reuse across a z-grid, together with the buffers every
    cellwise evaluation writes into.  So a context must not be shared
    across threads: give each thread its own.
    """

    def __init__(self, model: EllipticalModel, rho: RhoSpec, kind: str = "fdcm",
                 mc: MonteCarlo | None = None, gamma: float | None = None):
        if kind not in MODELS:
            raise ValueError(f"unknown contamination kind {kind!r}")
        self.model = model
        self.rho = rho
        self.kind = kind
        self.gamma = gamma
        self.mc = mc if mc is not None else MonteCarlo()
        self.d = model.dim
        self.a_psi = a_psi(rho, self.d)
        sigma_inv = np.linalg.inv(model.sigma0)
        self._sigma_inv = 0.5 * (sigma_inv + sigma_inv.T)
        diagonal = not np.any(model.sigma0[~np.eye(self.d, dtype=bool)])
        self._scale = np.sqrt(np.diag(model.sigma0)) if diagonal else None
        self._cellwise = _ficm_exact if diagonal else _ficm_core
        self._cache_key = None
        self._cache_val = None

    def _draws(self, path: int):
        """Model draws for path in a (d, n) layout, cached for the last path:
        ydev = Y - mu0, its precision product doubled (2 Sigma^-1 ydev) and
        the squared distances d2y.  With them live the cellwise core's
        buffers (_ficm_sums): a (d, n) one for the per-draw totals and three
        (d, block) scratch ones."""
        key = (path, self.mc.n_draws, self.mc.seed)
        if self._cache_key != key:
            rng = substream(self.mc.seed, path)
            ydev = (self.model.sample(self.mc.n_draws, rng) - self.model.mu0).T.copy()
            proj2 = self._sigma_inv @ ydev
            d2y = np.einsum("ij,ij->j", ydev, proj2)
            proj2 *= 2.0
            block = min(max(_BLOCK_CELLS // self.d, 1), ydev.shape[1])
            self._cache_key = key
            self._cache_val = (ydev, proj2, d2y, np.empty_like(ydev),
                               np.empty((3, self.d, block)))
        return self._cache_val


@dataclass(frozen=True)
class InfluenceResult:
    z: np.ndarray
    value: np.ndarray
    stderr: np.ndarray

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.value))


def _as_point(z, d: int) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (d,):
        raise ValueError(f"z must be a length-{d} vector")
    return z


# ---------------------------------------------------------------------------
# Influence functions per contamination kind.

def if_fdcm(z, ctx: InfluenceContext) -> InfluenceResult:
    """Full-row replacement: psi(d^2(z)) (z - mu0) / a_psi, exactly."""
    z = _as_point(z, ctx.d)
    model = ctx.model
    val = psi_sq(ctx.rho, model.mahalanobis_sq(z)) * (z - model.mu0) / ctx.a_psi
    return InfluenceResult(z=z, value=np.asarray(val), stderr=np.zeros(ctx.d))


# Cells (patterns x draws) per block of the cellwise core, so each of its
# three scratch blocks is at most 1 MB.  Per value evaluation on a 2-core
# Xeon (2 MB of L2 per core), 100k draws at d = 15 took 15.6 ms against
# 29.8 ms in one block.  Half this size was faster at 100k draws but split
# 10k draws at d = 10 in two, 0.90 ms against 0.73 ms in one block.
_BLOCK_CELLS = 131072


def _ficm_sums(z: np.ndarray, ctx: InfluenceContext, path: int) -> np.ndarray:
    """Sums over draws of the per-draw totals T of _ficm_core, and T itself
    into the context's (d, n) totals buffer.

    The draws go in blocks of the context's scratch width.  Per block:
    pinning coordinate k at z_k moves a draw's squared distance to
    (d2y + delta_k (2 Sigma^-1 ydev)_k) + delta_k^2 (Sigma^-1)_kk, with
    delta = zdev - ydev; one bisquare pass gives psi (d, w), pattern k in
    row k; and one GEMM m = psi ydev^T adds to the sums, output j taking
    m[k, j] over the other patterns k plus psi_j's sum times zdev_j.
    """
    ydev, proj2, d2y, totals, (a, b, c) = ctx._draws(path)
    inv_diag = np.diag(ctx._sigma_inv)[:, None]
    zdev = z - ctx.model.mu0
    d, n = ydev.shape
    m = np.zeros((d, d))
    psi_sum = np.zeros(d)
    for lo in range(0, n, a.shape[1]):
        cols = slice(lo, min(lo + a.shape[1], n))
        w = cols.stop - lo
        ab, bb, psi = a[:, :w], b[:, :w], c[:, :w]
        yb = ydev[:, cols]
        np.subtract(zdev[:, None], yb, out=ab)  # delta
        np.multiply(ab, proj2[:, cols], out=bb)
        bb += d2y[cols]
        np.square(ab, out=psi)
        psi *= inv_diag
        bb += psi
        rho_sq_into(ctx.rho, bb, psi, ab, derivative=1)  # p into ab
        sums = psi.sum(axis=1)
        # psi is 0 wherever p == 0, except on the squared-distance law where
        # s is inf: p^2 s (6/c^2) is NaN there, and psi_sq's zeroing beyond
        # the truncation is needed only then
        if np.isnan(sums).any():
            np.copyto(psi, 0.0, where=ab == 0.0)
            sums = psi.sum(axis=1)
        m += psi @ yb.T
        psi_sum += sums
        t = totals[:, cols]  # T = (sum over patterns - psi) ydev + psi zdev
        np.subtract(psi.sum(axis=0), psi, out=t)
        t *= yb
        np.multiply(psi, zdev[:, None], out=ab)
        t += ab
    return m.sum(axis=0) - np.diagonal(m) + psi_sum * zdev


def _ficm_core(z: np.ndarray, ctx: InfluenceContext, path: int) -> InfluenceResult:
    """Sum over single-coordinate patterns, one shared sample for all of them.

    For output j the per-draw total is
    T_j = (sum over k != j of psi_k) ydev_j + psi_j zdev_j, where psi_k is
    psi at the draw's squared distance with coordinate k pinned at z_k.  So
    one draw set prices every pattern in O(n d) (_ficm_sums).  The value is
    the mean of T from the GEMM sums, and the stderr numpy's std(ddof=1) of
    T over the draws.  The float order differs from the plain expressions in
    tests/_ficm_reference.py, which checks both to a stated tolerance.
    Nothing returned is a view of a buffer.
    """
    _, _, _, totals, _ = ctx._draws(path)
    n = totals.shape[1]
    mean = _ficm_sums(z, ctx, path) / n
    totals -= (totals.sum(axis=1) / n)[:, None]
    np.square(totals, out=totals)
    var = totals.sum(axis=1) / (n - 1)
    return InfluenceResult(z=z, value=mean / ctx.a_psi,
                           stderr=np.sqrt(var) / math.sqrt(n) / ctx.a_psi)


def _ficm_exact(z: np.ndarray, ctx: InfluenceContext, path: int) -> InfluenceResult:
    """_ficm_core's expectation on a diagonal sigma0 (path unused), stderr 0.

    Pattern k's squared distance is t_k^2 + V, t_k = zdev_k / sigma_k, with V
    chi-square(d - 1) and even in each ydev_j, so E[psi_k ydev_j] = 0 for
    k != j: output j is zdev_j h(t_j) / a_psi, h(t) = E psi(t^2 + V).
    """
    rho, d = ctx.rho, ctx.d
    zdev = z - ctx.model.mu0
    # Python float squares: inf, not a warning, past 1e154
    h = np.array([_shifted_mean(lambda u: psi_sq(rho, u), float(t) * float(t), rho, d)
                  for t in zdev / ctx._scale])
    return InfluenceResult(z=z, value=zdev * h / ctx.a_psi, stderr=np.zeros(d))


def _shifted_mean(f, s: float, rho: RhoSpec, d: int) -> float:
    """E f(s + V), V ~ chi-square(d - 1), for an f that vanishes from the
    truncation of rho on: 0 when s reaches it, f(s) at d = 1."""
    cut = truncation_sq(rho)
    if s >= cut:
        return 0.0
    if d == 1:
        return float(f(s))
    return chi2_truncated_expectation(lambda v: f(s + v), d - 1, cut - s, 0.0)


def if_ficm(z, ctx: InfluenceContext) -> InfluenceResult:
    """Independent-cell replacement: only single-cell patterns survive the
    limit, so the influence is the sum of their g-values over a_psi."""
    return ctx._cellwise(_as_point(z, ctx.d), ctx, _PATH_FICM)


def if_psicm(z, ctx: InfluenceContext) -> InfluenceResult:
    """Half the full-row influence plus half the cellwise one.

    On the Monte Carlo path the cellwise half runs on its own substream, so
    comparing against the average of if_fdcm and if_ficm is a genuine
    two-estimate consistency check rather than an arithmetic identity.
    """
    z = _as_point(z, ctx.d)
    row = if_fdcm(z, ctx)
    cell = ctx._cellwise(z, ctx, _PATH_PSICM)
    return InfluenceResult(z=z, value=0.5 * (row.value + cell.value),
                           stderr=0.5 * cell.stderr)


# Partially clean models: the limit drops the structural row mass, so their
# influence is the independent-cell one.
_DISPATCH = {
    "fdcm": if_fdcm,
    "ficm": if_ficm,
    "psicm": if_psicm,
    "pcicm-i": if_ficm,
    "pcicm-ii": if_ficm,
}


def influence(z, ctx: InfluenceContext) -> InfluenceResult:
    return _DISPATCH[ctx.kind](z, ctx)


# ---------------------------------------------------------------------------
# Finite-epsilon derivative oracle.

def m_location_fit(model: EllipticalModel, rho: RhoSpec):
    """Estimator callable for if_numeric: location M-step at the model scatter."""

    def fit(x: np.ndarray) -> np.ndarray:
        res = m_location(x, model.sigma0, rho, start=model.mu0)
        if not res.converged:
            raise EstimationError("location M-step did not converge")
        return res.mu

    return fit


def coord_m_fit(model: EllipticalModel, rho1: RhoSpec):
    """Coordinatewise variant: univariate M per column at the model scale."""
    diag = np.diag(model.sigma0)

    def fit(x: np.ndarray) -> np.ndarray:
        out = np.empty(x.shape[1])
        for j in range(x.shape[1]):
            res = m_location(x[:, [j]], [[diag[j]]], rho1,
                             start=[model.mu0[j]])
            if not res.converged:
                raise EstimationError(f"column {j} M-step did not converge")
            out[j] = res.mu[0]
        return out

    return fit


def if_numeric(z, ctx: InfluenceContext, estimator=None,
               eps_grid: tuple[float, ...] = (0.005, 0.01),
               n_boot: int = 12) -> InfluenceResult:
    """Influence as a measured slope: fit the estimator on large samples at
    small contamination rates and extrapolate the secant to rate zero.

    All rates share one clean sample and one uniform array, with indicators
    coupled monotonically in the rate, so the fitted centers differ only
    through genuinely flipped cells and the slope noise stays near
    1/sqrt(n_draws * eps).  Bootstrap over draws (same row indices at every
    rate) gives the stderr.
    """
    z = _as_point(z, ctx.d)
    if not eps_grid or any(not 0.0 < e <= 0.01 for e in eps_grid):
        raise ValueError("eps_grid entries must lie in (0, 0.01]")
    eps_grid = tuple(sorted(eps_grid))
    if estimator is None:
        estimator = m_location_fit(ctx.model, ctx.rho)
    n, d = ctx.mc.n_draws, ctx.d
    y = ctx.model.sample(n, substream(ctx.mc.seed, _PATH_NUMERIC, 0))
    u = substream(ctx.mc.seed, _PATH_NUMERIC, 1).random((n, d))
    v = substream(ctx.mc.seed, _PATH_NUMERIC, 2).random(n)

    def dataset(eps: float) -> np.ndarray:
        spec = ContaminationSpec(model=ctx.kind, epsilon=eps, gamma=ctx.gamma)
        p_struct, struct_kind, cell_rate = spec.mixture()
        b = u < cell_rate
        rows = v < p_struct
        b[rows] = struct_kind == "ones"
        return np.where(b, z[None, :], y)

    datasets = [dataset(e) for e in eps_grid]

    def slope_at_zero(idx=None) -> np.ndarray:
        """Slope on the rows idx (a bootstrap draw), or on every row."""
        t0 = estimator(y if idx is None else y[idx])
        secants = np.array([(estimator(x if idx is None else x[idx]) - t0) / e
                            for x, e in zip(datasets, eps_grid)])
        if len(eps_grid) == 1:
            return secants[0]
        # secant(e) = IF + C e + o(e): linear intercept removes the C term
        coef = np.polyfit(np.asarray(eps_grid), secants, 1)
        return coef[1]

    value = slope_at_zero()
    if n_boot > 1:
        boot_rng = substream(ctx.mc.seed, _PATH_NUMERIC, 3)
        boots = np.array([slope_at_zero(boot_rng.integers(0, n, n))
                          for _ in range(n_boot)])
        stderr = boots.std(axis=0, ddof=1)
    else:
        stderr = np.full(d, np.nan)
    return InfluenceResult(z=z, value=value, stderr=stderr)


# ---------------------------------------------------------------------------
# Gross-error sensitivity.

# The cellwise GES search of psicm, and of the Monte Carlo path: rays on the
# first axis (the others repeat it on spherical models), the diagonal and
# _GES_RANDOM random directions, each with _GES_RADIAL radii up to _OVERSHOOT
# times the truncation radius on its largest coordinate, and _GES_REFINE
# golden-section steps at the best.
_OVERSHOOT = 1.25
_GES_RANDOM, _GES_RADIAL, _GES_REFINE = 2, 20, 32

# _cell_profile: grid steps bracketing the argmax, and the root's tolerance
_PROFILE_GRID, _PROFILE_RTOL = 8, 1e-13


@dataclass(frozen=True)
class GesResult:
    value: float
    argmax_z: np.ndarray
    kind: str
    rays: tuple[tuple[str, float, float], ...] = ()  # (label, best_t, best_norm)


def _radial_profile(rho: RhoSpec) -> float:
    """Radius maximizing psi(r^2) r, the norm of the row-replacement influence
    along a unit Mahalanobis direction (times 1/a_psi).

    The bisquare gives it in closed form.  Scaled distances: r (1 - r^2/c^2)^2
    peaks where r^2/c^2 = 1/5.  Squared distances: r^3 (1 - r^4/c^2)^2 peaks
    where r^4/c^2 = 3/11."""
    if rho.convention == "scaled-distance":
        return rho.c / math.sqrt(5.0)
    return math.sqrt(math.sqrt(3.0 * rho.c * rho.c / 11.0))


def _cell_profile(rho: RhoSpec, d: int) -> tuple[float, float]:
    """(t*, h(t*)), t* the argmax over (0, sqrt(cut)) of t h(t), with
    h(t) = E psi(t^2 + V), V ~ chi-square(d - 1): the cellwise analogue of
    _radial_profile.

    t* is the root of the slope (t h)' = E[psi(t^2 + V) + 2 t^2 psi'(t^2 + V)],
    with no boundary term, as psi and psi' vanish at the truncation.  The
    slope is h(0) > 0 at 0 and negative just inside the truncation; its first
    sign change on a grid of _PROFILE_GRID steps brackets the root, which
    _brentq solves to _PROFILE_RTOL relative.  At d = 1, h(t) = psi(t^2) and
    t* is _radial_profile's closed form."""

    def slope(t: float) -> float:
        s = t * t
        return _shifted_mean(lambda u: psi_sq(rho, u) + 2.0 * s * psi_sq_prime(rho, u),
                             s, rho, d)

    if d == 1:
        t = _radial_profile(rho)
    else:
        grid = np.linspace(0.0, math.sqrt(truncation_sq(rho)), _PROFILE_GRID + 1)
        lo = 0.0
        for hi in grid[1:-1]:
            if slope(hi) <= 0.0:
                break
            lo = hi
        t = _brentq(slope, lo, hi, xtol=_PROFILE_RTOL * hi, rtol=_PROFILE_RTOL)
    return t, _shifted_mean(lambda u: psi_sq(rho, u), t * t, rho, d)


def ges(ctx: InfluenceContext) -> GesResult:
    """Supremum of the influence norm over the search set.

    Row-replacement kinds reduce exactly: the norm depends on z only through
    the Mahalanobis radius and the principal axis of sigma0, leaving a
    one-dimensional maximization.  So do the independent-cell kinds on a
    diagonal sigma0: |IF|^2 is the sum over coordinates of
    (sigma_j t_j h(t_j) / a_psi)^2, t_j = zdev_j / sigma_j, each term largest
    at t_j = t* (_cell_profile), so the GES is |sigma| t* h(t*) / a_psi at
    z = mu0 + t* sigma, on the one ray along sigma.  psicm, and every
    cellwise kind on the Monte Carlo path, search rays and refine the radius
    by golden section; exact values or common random numbers make the
    profile along a ray smooth, so the refinement is honest.
    """
    model, rho = ctx.model, ctx.rho
    if ctx._cellwise is _ficm_exact and _DISPATCH[ctx.kind] is if_ficm:
        t_star, h_star = _cell_profile(rho, ctx.d)
        norm = float(np.linalg.norm(ctx._scale))
        value = norm * t_star * h_star / ctx.a_psi
        return GesResult(value=value, argmax_z=model.mu0 + t_star * ctx._scale,
                         kind=ctx.kind, rays=(("sigma", t_star * norm, value),))
    if ctx.kind == "fdcm":
        t_star = _radial_profile(rho)
        evals, vecs = np.linalg.eigh(model.sigma0)
        u = vecs[:, -1]
        gain = math.sqrt(float(evals[-1]))
        value = float(psi_sq(rho, t_star**2)) * t_star * gain / ctx.a_psi
        # u is a principal eigenvector, so sigma0^{1/2} u = gain * u and the
        # point mu0 + t*gain*u sits at Mahalanobis radius exactly t
        argmax = model.mu0 + t_star * gain * u
        return GesResult(value=value, argmax_z=argmax, kind=ctx.kind,
                         rays=(("radial", t_star, value),))

    d = ctx.d
    rays = [("axis1", np.eye(d)[0])]
    if d > 1:
        rays.append(("diag", np.full(d, 1.0 / math.sqrt(d))))
    rng = substream(ctx.mc.seed, _PATH_GES)
    for i in range(_GES_RANDOM):
        v = rng.standard_normal(d)
        rays.append((f"rand{i + 1}", v / np.linalg.norm(v)))

    t_trunc = math.sqrt(truncation_sq(rho))
    best_value = 0.0
    best_z = model.mu0.copy()
    ray_table: list[tuple[str, float, float]] = []
    for label, u in rays:
        scale = t_trunc / float(np.max(np.abs(u)))
        ts = np.linspace(scale * 0.02, scale * _OVERSHOOT, _GES_RADIAL)
        vals = [influence(model.mu0 + t * u, ctx).norm for t in ts]
        i = int(np.argmax(vals))
        lo = ts[max(i - 1, 0)]
        hi = ts[min(i + 1, len(ts) - 1)]
        t_best, v_best = _golden_max(lambda t: influence(model.mu0 + t * u, ctx).norm,
                                     lo, hi, _GES_REFINE)
        if vals[i] > v_best:
            t_best, v_best = float(ts[i]), float(vals[i])
        ray_table.append((label, t_best, v_best))
        if v_best > best_value:
            best_value = v_best
            best_z = model.mu0 + t_best * u
    return GesResult(value=best_value, argmax_z=best_z, kind=ctx.kind,
                     rays=tuple(ray_table))


def coord_ges(model: EllipticalModel, rho1: RhoSpec) -> GesResult:
    """Gross-error sensitivity of the coordinatewise M-functional.

    Contamination in one cell moves only that coordinate's estimate, so the
    search runs over single-coordinate rays; the answer is the univariate
    sensitivity scaled by the largest marginal standard deviation, identical
    under every contamination model here.
    """
    a1 = a_psi(rho1, 1)
    t_star = _radial_profile(rho1)
    diag = np.diag(model.sigma0)
    j = int(np.argmax(diag))
    s = math.sqrt(float(diag[j]))
    value = float(psi_sq(rho1, t_star**2)) * t_star * s / a1
    argmax = model.mu0.copy()
    argmax[j] += t_star * s
    return GesResult(value=value, argmax_z=argmax, kind="coordinatewise",
                     rays=((f"axis{j + 1}", t_star * s, value),))


def _golden_max(f, lo: float, hi: float, iters: int) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi]; returns (argmax, max)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    e = a + invphi * (b - a)
    fc, fe = f(c), f(e)
    for _ in range(iters):
        if fc >= fe:
            b, e, fe = e, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, e, fe
            e = a + invphi * (b - a)
            fe = f(e)
    t = (a + b) / 2.0
    ft = f(t)
    if fc > ft:
        t, ft = c, fc
    if fe > ft:
        t, ft = e, fe
    return float(t), float(ft)
