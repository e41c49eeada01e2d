"""The shared-sample cellwise influence core in its plain form: its own draws
of the model, its own precision products, fresh (n, d) arrays for every
intermediate, psi_sq on the pinned distances, and numpy's mean and
std(ddof=1) of the per-draw totals.

The package evaluates the same expectation on cached (d, n) draws, in another
float order (one GEMM for the sums over draws).  The draws come from the same
substream, so the two agree to rounding; the tests state the tolerance.

On a diagonal scatter the expectation has an exact form (exact_value):
output j is zdev_j h(t_j) / a_psi, with t_j = zdev_j / sigma_j and
h(t) = E psi(t^2 + V), V ~ chi-square(d - 1).  Here h and a_psi are scipy
quad integrals against stats.chi2's density, apart from the package's
quadrature and its Monte Carlo core.  So is the slope of t h(t), whose
scipy brentq root gives the exact GES there (ficm_ges).
"""

import functools
import math

import numpy as np
from scipy import integrate, optimize, stats

from oplab import InfluenceResult, psi_sq, psi_sq_prime, truncation_sq
from oplab.rng import substream


def draws(ctx, path):
    """The reference's own (n, d) draws of the model for path."""
    return ctx.model.sample(ctx.mc.n_draws, substream(ctx.mc.seed, path))


def ficm_core(z, ctx, path):
    model = ctx.model
    y = draws(ctx, path)
    sigma_inv = np.linalg.inv(model.sigma0)
    ydev = y - model.mu0
    proj = ydev @ sigma_inv
    d2y = np.einsum("ij,ij->i", ydev, proj)
    delta = z[None, :] - y
    d2k = d2y[:, None] + 2.0 * delta * proj + delta**2 * np.diag(sigma_inv)[None, :]
    psik = np.asarray(psi_sq(ctx.rho, d2k))
    row_sum = psik.sum(axis=1)
    per_draw = (row_sum[:, None] - psik) * ydev + psik * (z - model.mu0)[None, :]
    n = per_draw.shape[0]
    value = per_draw.mean(axis=0) / ctx.a_psi
    stderr = per_draw.std(axis=0, ddof=1) / math.sqrt(n) / ctx.a_psi
    return InfluenceResult(z=z, value=value, stderr=stderr)


def _chi2_integral(f, df, upper, epsabs=0.0):
    """The integral of f(v) chi2_df(v) over [0, upper]."""
    val, _ = integrate.quad(lambda v: f(v) * stats.chi2.pdf(v, df), 0.0, upper,
                            epsabs=epsabs, epsrel=1e-13, limit=200)
    return val


@functools.lru_cache(maxsize=None)
def a_psi(rho, d):
    """(2/d) E[psi'(Q) Q] + E[psi(Q)], Q ~ chi-square(d)."""
    return _chi2_integral(lambda u: (2.0 / d) * psi_sq_prime(rho, u) * u + psi_sq(rho, u),
                          d, truncation_sq(rho))


@functools.lru_cache(maxsize=None)
def mean_psi(t, rho, d):
    """h(t) = E psi(t^2 + V), V ~ chi-square(d - 1): 0 once t^2 reaches the
    truncation, psi(t^2) at d = 1."""
    s = float(t) * float(t)
    cut = truncation_sq(rho)
    if s >= cut:
        return 0.0
    if d == 1:
        return float(psi_sq(rho, s))
    return _chi2_integral(lambda v: psi_sq(rho, s + v), d - 1, cut - s)


def exact_value(z, model, rho, kind):
    """The influence of kind (ficm, pcicm-i, pcicm-ii or psicm) at z on a
    model with diagonal scatter."""
    d = model.dim
    sd = np.sqrt(np.diag(model.sigma0))
    zdev = np.asarray(z, dtype=float) - model.mu0
    norm = a_psi(rho, d)
    cell = zdev * np.array([mean_psi(t, rho, d) for t in zdev / sd]) / norm
    if kind != "psicm":
        return cell
    with np.errstate(over="ignore"):  # the +-1e200 points
        d2 = float(np.sum((zdev / sd) ** 2))
    return 0.5 * (psi_sq(rho, d2) * zdev / norm + cell)


@functools.lru_cache(maxsize=None)
def mean_slope(t, rho, d):
    """(t h(t))' = E[psi(t^2 + V) + 2 t^2 psi'(t^2 + V)], V ~ chi-square(d - 1),
    to 1e-14 absolute as well as 1e-13 relative: it is 0 at the root."""
    s = float(t) * float(t)

    def f(u):
        return psi_sq(rho, u) + 2.0 * s * psi_sq_prime(rho, u)

    cut = truncation_sq(rho)
    if s >= cut:
        return 0.0
    if d == 1:
        return float(f(s))
    return _chi2_integral(lambda v: f(s + v), d - 1, cut - s, epsabs=1e-14)


def ficm_ges(rho, sd):
    """(GES, t*) of the independent-cell kinds on a model with diagonal
    scatter diag(sd^2): |sd| t* h(t*) / a_psi, where t* maximizes t h(t) and
    every coordinate j sits at sd_j t*.  t* is scipy's brentq root of the
    slope of t h(t), bracketed by 0.01 and 0.99 times the truncation radius
    (the slope is 0 at t = 0 under the squared-distance law at d = 1)."""
    sd = np.asarray(sd, dtype=float)
    d = sd.size
    r = math.sqrt(truncation_sq(rho))
    t = optimize.brentq(mean_slope, 0.01 * r, 0.99 * r, args=(rho, d), xtol=1e-15, rtol=1e-15)
    return float(np.linalg.norm(sd)) * t * mean_psi(t, rho, d) / a_psi(rho, d), t
