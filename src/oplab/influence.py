"""Influence functions of location M-functionals under cellwise contamination.

The engine evaluates the limiting derivative of the location functional along
the contamination paths from `contamination`.  Full-row replacement gives the
classical closed form; independent-cell replacement needs expectations over
partially replaced draws: chi-square integrals on a diagonal scatter, else
Monte Carlo with common random numbers (every call on a context reuses its
one draw set, so influence surfaces over a z-grid are smooth and two calls at
different z share all sampling noise).

Normalization: every influence vector is psi-weighted displacement divided by
a_psi, the derivative of the estimating equation at the model.  The same
constant serves both loss conventions because psi here always means the
derivative of the loss with respect to squared distance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class MonteCarlo:
    """Sampling budget for the Monte Carlo influence paths; a stderr needs
    at least 2 draws."""

    n_draws: int = 200_000
    seed: int = 2024

    def __post_init__(self):
        if self.n_draws < 2:
            raise ValueError(f"n_draws must be at least 2, got {self.n_draws}")


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
    Carlo otherwise.  The Monte Carlo draws depend only on the kind, mc and
    the model, so the context makes them once (_draws), with their precision
    products and the buffers every cellwise evaluation writes into, for reuse
    across a z-grid.  So a context must not be shared across threads: give
    each thread its own.
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

    @functools.cached_property
    def _draws(self):
        """Model draws in a (d, n) layout: ydev = Y - mu0, its precision
        product doubled (2 Sigma^-1 ydev) and the squared distances d2y, then
        _ficm_core's buffers, a (d, n) one for the per-draw totals and three
        (d, block) scratch ones.  psicm draws from _PATH_PSICM, so that its
        cell half and a ficm context's estimate are two estimates, and every
        other kind from _PATH_FICM."""
        rng = substream(self.mc.seed, _PATH_PSICM if self.kind == "psicm" else _PATH_FICM)
        ydev = (self.model.sample(self.mc.n_draws, rng) - self.model.mu0).T.copy()
        proj2 = self._sigma_inv @ ydev
        d2y = np.einsum("ij,ij->j", ydev, proj2)
        proj2 *= 2.0
        block = min(max(_BLOCK_CELLS // self.d, 1), ydev.shape[1])
        return ydev, proj2, d2y, np.empty_like(ydev), np.empty((3, self.d, block))


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


def _ficm_core(z: np.ndarray, ctx: InfluenceContext) -> InfluenceResult:
    """Sum over single-coordinate patterns, one shared sample for all of them.

    For output j the per-draw total is
    T_j = (sum over k != j of psi_k) ydev_j + psi_j zdev_j, where psi_k is
    psi at the draw's squared distance with coordinate k pinned at z_k.  So
    one draw set prices every pattern in O(n d).  The draws go in blocks of
    the context's scratch width.  Per block: pinning coordinate k at z_k moves
    a draw's squared distance to (d2y + delta_k (2 Sigma^-1 ydev)_k) +
    delta_k^2 (Sigma^-1)_kk, with delta = zdev - ydev; one bisquare pass gives
    psi (d, w), pattern k in row k; and T goes into the context's (d, n)
    totals buffer.  The value is the mean of T over the draws, and the stderr
    numpy's std(ddof=1) of T, in two passes.  The float order differs from
    the plain expressions in tests/_ficm_reference.py, which checks both to a
    stated tolerance.  Nothing returned is a view of a buffer.
    """
    ydev, proj2, d2y, totals, (a, b, c) = ctx._draws
    inv_diag = np.diag(ctx._sigma_inv)[:, None]
    zdev = z - ctx.model.mu0
    n = ydev.shape[1]
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
        sums = psi.sum(axis=0)
        # psi is 0 wherever p == 0, except on the squared-distance law where
        # s is inf: p^2 s (6/c^2) is NaN there, and psi_sq's zeroing beyond
        # the truncation is needed only then
        if np.isnan(sums).any():
            np.copyto(psi, 0.0, where=ab == 0.0)
            sums = psi.sum(axis=0)
        t = totals[:, cols]  # T = (sum over patterns - psi) ydev + psi zdev
        np.subtract(sums, psi, out=t)
        t *= yb
        np.multiply(psi, zdev[:, None], out=ab)
        t += ab
    mean = totals.sum(axis=1) / n
    totals -= mean[:, None]
    np.square(totals, out=totals)
    var = totals.sum(axis=1) / (n - 1)
    return InfluenceResult(z=z, value=mean / ctx.a_psi,
                           stderr=np.sqrt(var) / math.sqrt(n) / ctx.a_psi)


def _ficm_exact(z: np.ndarray, ctx: InfluenceContext) -> InfluenceResult:
    """_ficm_core's expectation on a diagonal sigma0, stderr 0.

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
    return ctx._cellwise(_as_point(z, ctx.d), ctx)


def if_psicm(z, ctx: InfluenceContext) -> InfluenceResult:
    """Half the full-row influence plus half the cellwise one.

    On the Monte Carlo path a psicm context's draws come from their own
    substream, so comparing against the average of if_fdcm and if_ficm is a
    genuine two-estimate consistency check rather than an arithmetic
    identity.
    """
    z = _as_point(z, ctx.d)
    row = if_fdcm(z, ctx)
    cell = ctx._cellwise(z, ctx)
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

@dataclass(frozen=True)
class _MFit:
    """if_numeric's estimator from m_location_fit or coord_m_fit.  Two are
    equal, and hash alike, when their models' bytes, rho and form are, so a
    fresh one finds the clean fits if_numeric keeps for its draws."""

    model: EllipticalModel = field(compare=False)
    rho: RhoSpec
    coordinatewise: bool
    model_bytes: tuple[bytes, bytes] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "model_bytes",
                           (self.model.mu0.tobytes(), self.model.sigma0.tobytes()))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        model, rho = self.model, self.rho
        if not self.coordinatewise:
            res = m_location(x, model.sigma0, rho, start=model.mu0)
            if not res.converged:
                raise EstimationError("location M-step did not converge")
            return res.mu
        diag = np.diag(model.sigma0)
        out = np.empty(x.shape[1])
        for j in range(x.shape[1]):
            res = m_location(x[:, [j]], [[diag[j]]], rho, start=[model.mu0[j]])
            if not res.converged:
                raise EstimationError(f"column {j} M-step did not converge")
            out[j] = res.mu[0]
        return out


def m_location_fit(model: EllipticalModel, rho: RhoSpec) -> _MFit:
    """Estimator callable for if_numeric: location M-step at the model scatter."""
    return _MFit(model, rho, coordinatewise=False)


def coord_m_fit(model: EllipticalModel, rho1: RhoSpec) -> _MFit:
    """Coordinatewise variant: univariate M per column at the model scale."""
    return _MFit(model, rho1, coordinatewise=True)


# if_numeric's draws for the last (model, n_draws, seed) it saw, with the
# clean fits made on them: (key, (y, u, v), {estimator: {slot: fit}})
_numeric_entry = None


def _numeric_draws(model: EllipticalModel, n: int, seed: int) -> tuple[tuple, dict]:
    """if_numeric's clean sample y ~ model, its cell uniforms u (n, d) and row
    uniforms v (n,), read-only, with the clean-fit memo of that draw set.

    One entry is kept, for the last (model bytes, n, seed): a new key drops
    the old entry before drawing, so two are never alive at once, and the
    entry is swapped as one tuple, so a thread never pairs one key with
    another's arrays."""
    global _numeric_entry
    key = (model.mu0.tobytes(), model.sigma0.tobytes(), n, seed)
    entry = _numeric_entry
    if entry is None or entry[0] != key:
        entry = _numeric_entry = None
        draws = (model.sample(n, substream(seed, _PATH_NUMERIC, 0)),
                 substream(seed, _PATH_NUMERIC, 1).random((n, model.dim)),
                 substream(seed, _PATH_NUMERIC, 2).random(n))
        for a in draws:
            a.flags.writeable = False
        entry = _numeric_entry = (key, draws, {})
    return entry[1], entry[2]


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

    The draws depend only on (model, n_draws, seed), so they are cached
    (_numeric_draws): the last key's clean sample and uniforms stay in
    memory, n_draws * (2d + 1) floats, until a call with another key.  With
    them are kept the estimator's clean fits, on all rows and on the b-th
    bootstrap draw of the seed's stream (the same at any n_boot), so a call
    that repeats an (estimator, rows) pair reuses its fit.  An estimator is
    matched by equality: the fits of m_location_fit and coord_m_fit are
    equal for equal models and rho, any other callable only to itself, and
    one that cannot be hashed is refit on every call.  An estimator must
    therefore give the same fit of the same rows on every call.
    """
    z = _as_point(z, ctx.d)
    if not eps_grid or any(not 0.0 < e <= 0.01 for e in eps_grid):
        raise ValueError("eps_grid entries must lie in (0, 0.01]")
    eps_grid = tuple(sorted(eps_grid))
    if estimator is None:
        estimator = m_location_fit(ctx.model, ctx.rho)
    n, d = ctx.mc.n_draws, ctx.d
    (y, u, v), fits = _numeric_draws(ctx.model, n, ctx.mc.seed)
    try:
        clean = fits.setdefault(estimator, {})
    except TypeError:  # unhashable: nothing to key its fits by
        clean = {}

    def dataset(eps: float) -> np.ndarray:
        spec = ContaminationSpec(model=ctx.kind, epsilon=eps, gamma=ctx.gamma)
        p_struct, struct_kind, cell_rate = spec.mixture()
        b = u < cell_rate
        rows = v < p_struct
        b[rows] = struct_kind == "ones"
        return np.where(b, z[None, :], y)

    datasets = [dataset(e) for e in eps_grid]

    def slope_at_zero(slot=None, idx=None) -> np.ndarray:
        """Slope on the rows idx, bootstrap draw slot, or on every row."""
        if slot not in clean:
            # a copy: an estimator may return the same buffer on every call
            clean[slot] = np.array(estimator(y if idx is None else y[idx]))
        t0 = clean[slot]
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
        boots = np.array([slope_at_zero(b, boot_rng.integers(0, n, n))
                          for b in range(n_boot)])
        stderr = boots.std(axis=0, ddof=1)
    else:
        stderr = np.full(d, np.nan)
    return InfluenceResult(z=z, value=value, stderr=stderr)


# ---------------------------------------------------------------------------
# Gross-error sensitivity.

# profile maximizations: grid steps bracketing the argmax, and the root's tolerance
_PROFILE_GRID, _PROFILE_RTOL = 8, 1e-13


@dataclass(frozen=True)
class GesResult:
    value: float
    argmax_z: np.ndarray
    rays: tuple[tuple[str, float, float], ...] = ()  # (label, best_t, best_norm)


def _cell_slope(rho: RhoSpec, d: int, t: float) -> float:
    """(t h)'(t) = E[psi(t^2 + V) + 2 t^2 psi'(t^2 + V)], h(t) = E psi(t^2 + V),
    V ~ chi-square(d - 1), with no boundary term, as psi and psi' vanish at
    the truncation."""
    s = t * t
    return _shifted_mean(lambda u: psi_sq(rho, u) + 2.0 * s * psi_sq_prime(rho, u), s, rho, d)


def _first_max(slope, end: float) -> float:
    """The first sign change from + to - of a profile's slope on (0, end],
    bracketed on a grid of _PROFILE_GRID steps and solved by _brentq to
    _PROFILE_RTOL relative; end when the slope stays positive."""
    lo = 0.0
    for hi in np.linspace(0.0, end, _PROFILE_GRID + 1)[1:]:
        if slope(hi) <= 0.0:
            return _brentq(slope, lo, hi, xtol=_PROFILE_RTOL * hi, rtol=_PROFILE_RTOL)
        lo = hi
    return end


def _cell_profile(rho: RhoSpec, d: int) -> tuple[float, float]:
    """(t*, h(t*)), t* the argmax over (0, sqrt(cut)) of t h(t), with
    h(t) = E psi(t^2 + V), V ~ chi-square(d - 1).

    At d = 1, h(t) = psi(t^2) and the bisquare gives t* in closed form.
    Scaled distances: t (1 - t^2/c^2)^2 peaks where t^2/c^2 = 1/5.  Squared
    distances: t^3 (1 - t^4/c^2)^2 peaks where t^4/c^2 = 3/11.  Otherwise t*
    is the root of _cell_slope, which is h(0) > 0 at 0 and negative just
    inside the truncation (_first_max)."""
    if d > 1:
        t = _first_max(lambda t: _cell_slope(rho, d, t), math.sqrt(truncation_sq(rho)))
    elif rho.convention == "scaled-distance":
        t = rho.c / math.sqrt(5.0)
    else:
        t = math.sqrt(math.sqrt(3.0 * rho.c * rho.c / 11.0))
    return t, _shifted_mean(lambda u: psi_sq(rho, u), t * t, rho, d)


def _psicm_ges(ctx: InfluenceContext) -> GesResult:
    """psicm's GES on sigma0 = s^2 I, exactly: the largest over k = 1..d of
    the maxima along u_k = (1, ..., 1, 0, ..., 0) / sqrt(k).

    In standard units w = (z - mu0) / s, 2 a_psi IF_j = s w_j (P + h(w_j)),
    with P = psi(|w|^2) the row half and h(t) = E psi(t^2 + V) the cell
    half, so at w = t sqrt(k) u_k the norm is
    s sqrt(k) t (P(k t^2) + h(t)) / (2 a_psi).  Its slope in t is the row
    slope psi(r) + 2 r psi'(r) at r = k t^2 plus _cell_slope.  The row half
    vanishes from t = sqrt(cut / k) on, so the profile is split there: below,
    the first maximum of _first_max; beyond, sqrt(k) t h(t), largest at
    _cell_profile's t* when t* lies beyond the split.  rays has one row per
    k, labelled k1 to kd, with the Euclidean radius s sqrt(k) t_k of its
    argmax."""
    model, rho, d = ctx.model, ctx.rho, ctx.d
    s, cut = float(ctx._scale[0]), truncation_sq(rho)
    t_star, _ = _cell_profile(rho, d)

    def norm(k: int, t: float) -> float:
        h = _shifted_mean(lambda u: psi_sq(rho, u), t * t, rho, d)
        return s * math.sqrt(k) * t * (psi_sq(rho, k * t * t) + h) / (2.0 * ctx.a_psi)

    def row_slope(r: float) -> float:
        return psi_sq(rho, r) + 2.0 * r * psi_sq_prime(rho, r)

    found = []  # (norm, k, t) at each k's argmax
    for k in range(1, d + 1):
        split = math.sqrt(cut / k)
        ts = [_first_max(lambda t: row_slope(k * t * t) + _cell_slope(rho, d, t), split)]
        if t_star > split:
            ts.append(t_star)
        found.append(max((norm(k, t), k, t) for t in ts))
    value, k, t = max(found)
    step = np.zeros(d)
    step[:k] = s * t
    return GesResult(value=value, argmax_z=model.mu0 + step,
                     rays=tuple((f"k{k}", s * math.sqrt(k) * t, v) for v, k, t in found))


def ges(ctx: InfluenceContext) -> GesResult:
    """Supremum of the influence norm, exactly.

    Two cases reduce to one step direction and the profile (t*, h(t*)) of
    _cell_profile, with GES |step| t* h(t*) / a_psi at z = mu0 + t* step.
    Row replacement at any sigma0: the norm depends on z only through the
    Mahalanobis radius t and the principal axis, so the step is
    sqrt(lambda_max) u along the principal eigenvector u, with the d = 1
    profile psi(t^2).  The independent-cell kinds on a diagonal sigma0:
    |IF|^2 is the sum over coordinates of (sigma_j t_j h(t_j) / a_psi)^2,
    t_j = zdev_j / sigma_j, each term largest at t_j = t*, so the step is
    sigma.  Either way rays has one row, the Euclidean radius t* |step| of
    the argmax.  psicm on a multiple of the identity is _psicm_ges.  Any
    other case, a cellwise kind off a diagonal sigma0 or psicm off a
    multiple of the identity, raises ValueError.
    """
    model, rho = ctx.model, ctx.rho
    if ctx.kind == "fdcm":
        evals, vecs = np.linalg.eigh(model.sigma0)
        label, step, dim = "radial", math.sqrt(float(evals[-1])) * vecs[:, -1], 1
    elif ctx._scale is None:
        raise ValueError(f"no exact GES for {ctx.kind} on a scatter that is not diagonal")
    elif ctx.kind == "psicm":
        if np.any(ctx._scale != ctx._scale[0]):
            raise ValueError("no exact GES for psicm on a scatter that is not a "
                             "multiple of the identity")
        return _psicm_ges(ctx)
    else:
        label, step, dim = "sigma", ctx._scale, ctx.d
    t_star, h_star = _cell_profile(rho, dim)
    gain = float(np.linalg.norm(step))
    value = gain * t_star * h_star / ctx.a_psi
    return GesResult(value=value, argmax_z=model.mu0 + t_star * step,
                     rays=((label, t_star * gain, value),))
