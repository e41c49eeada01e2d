"""Bisquare loss, Mahalanobis geometry, Gaussian elliptical model, and tuning calibration.

The bounded loss is Tukey's bisquare, written once in _bisquare_into.  With
q = (t/c)^2 and p = max(1 - q, 0) it is rho = 1 - p^3, with psi = (6/c^2) t p^2
and psi' = (6/c^2) p (1 - 5q); both vanish identically beyond |t| = c.
:class:`RhoSpec` records which argument the loss is fed: the squared
Mahalanobis distance itself (``"squared-distance"``, the location M path) or
the plain distance over a scale fixed to one and absorbed into ``c``
(``"scaled-distance"``, the S path).  Helpers with the ``_sq`` suffix present
every spec as a loss on the squared distance s, so the influence machinery can
stay convention-agnostic; for the scaled-distance convention q = s/c^2, and the
chain rule gives psi = (3/c^2) p^2 and psi' = -(6/c^4) p.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

CONVENTIONS = ("squared-distance", "scaled-distance")

# Gauss-Legendre nodes of every chi-square(d) expectation
QUAD_NODES = 256

# bracket-widening cap for calibrate_c, in doublings of the initial bracket
_BRACKET_DOUBLINGS = 24

# the smallest relative tolerance _brentq accepts: four machine epsilons
_BRENT_RTOL = 4.0 * sys.float_info.epsilon


class SingularScatter(ValueError):
    """Scatter matrix is not symmetric positive definite."""


class CalibrationError(RuntimeError):
    """No tuning constant attains the requested constraint level."""


class InvalidData(ValueError):
    """Input data is unreadable or holds NaN or infinite cells."""


@dataclass(frozen=True)
class RhoSpec:
    """A bounded redescending loss with an explicit argument convention."""

    c: float
    convention: str = "squared-distance"

    def __post_init__(self):
        if self.convention not in CONVENTIONS:
            raise ValueError(f"unknown argument convention {self.convention!r}")
        if not (np.isfinite(self.c) and self.c > 0):
            raise ValueError("tuning constant c must be positive and finite")


def _bisquare_into(c: float, law: str, s: np.ndarray, out: np.ndarray, work: np.ndarray,
                   derivative: int) -> np.ndarray:
    """Loss (derivative 0), psi (1) or psi' (2) of s under law, into out; law is
    "squared-distance" (q = (s/c)^2) or "scaled-distance" (q = s/c^2).

    Allocates nothing and leaves p in work: out and work are float arrays
    shaped like s, distinct from s and from each other, except that out may
    be s itself for the loss."""
    k = 1.0 / c**2
    np.multiply(s, s if law == "squared-distance" else 1.0, out=work)  # q / k
    work *= -k
    work += 1.0
    np.maximum(work, 0.0, out=work)  # p
    return _bisquare_from_p(c, law, s, out, work, derivative)


def _bisquare_from_p(c: float, law: str, s: np.ndarray, out: np.ndarray, work: np.ndarray,
                     derivative: int) -> np.ndarray:
    """_bisquare_into when work already holds the p of this s, as an earlier
    _bisquare_into call left it: the same bits without the p pass."""
    k = 1.0 / c**2
    squared = law == "squared-distance"
    if derivative == 0:
        np.multiply(work, work, out=out)  # 1 - p^3
        out *= work
        np.subtract(1.0, out, out=out)
    elif derivative == 1:
        np.multiply(work, work, out=out)  # (6/c^2) s p^2, or (3/c^2) p^2
        if squared:
            out *= s
        out *= (6.0 if squared else 3.0) * k
    elif squared:
        np.multiply(s, s, out=out)  # (6/c^2) p (1 - 5q)
        out *= -5.0 * k
        out += 1.0
        out *= work
        out *= 6.0 * k
    else:
        np.multiply(work, -6.0 * k * k, out=out)  # -(6/c^4) p
    return out


def _loss(c: float, law: str, s, derivative: int) -> np.ndarray | float:
    """_bisquare_into on fresh buffers: float in, float out; array in, array out."""
    s = np.asarray(s, dtype=float)
    out, work = np.empty_like(s), np.empty_like(s)
    # where s or s^2 is inf, p is 0, as it should be, but the squared law's
    # psi (6/c^2) s p^2 and psi' factor s^2 p are 0 * inf = NaN there, which
    # the zeroing below mends
    with np.errstate(over="ignore", invalid="ignore"):
        _bisquare_into(c, law, s, out, work, derivative)
    if derivative:
        out[work == 0.0] = 0.0  # zero beyond the truncation, also where s or s^2 is inf
    return out if out.ndim else float(out)


def rho(spec: RhoSpec, t) -> np.ndarray | float:
    """Loss value; even in t, zero at zero, capped at one beyond |t| = c."""
    return _loss(spec.c, "squared-distance", t, 0)


def weight(spec: RhoSpec, t) -> np.ndarray | float:
    """psi(t)/t, psi'(0) at t = 0, nonincreasing in |t|: twice the scaled-law psi at t^2."""
    return 2.0 * _loss(spec.c, "scaled-distance", np.square(t), 1)


# ---------------------------------------------------------------------------
# The loss as a function of the squared distance s = d^2, law by convention.

def truncation_sq(spec: RhoSpec) -> float:
    """Squared-distance value beyond which psi_sq vanishes identically."""
    return spec.c if spec.convention == "squared-distance" else spec.c**2


def rho_sq(spec: RhoSpec, s) -> np.ndarray | float:
    return _loss(spec.c, spec.convention, s, 0)


def psi_sq(spec: RhoSpec, s) -> np.ndarray | float:
    return _loss(spec.c, spec.convention, s, 1)


def psi_sq_prime(spec: RhoSpec, s) -> np.ndarray | float:
    return _loss(spec.c, spec.convention, s, 2)


def rho_sq_into(spec: RhoSpec, s: np.ndarray, out: np.ndarray, work: np.ndarray,
                derivative: int = 0) -> np.ndarray:
    """rho_sq (derivative=0), psi_sq (1) or psi_sq_prime (2) into out, as _bisquare_into."""
    return _bisquare_into(spec.c, spec.convention, s, out, work, derivative)


# ---------------------------------------------------------------------------
# Mahalanobis geometry and the Gaussian elliptical model.

def spd_cholesky(sigma: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of sigma, after the boundary checks: square,
    finite, symmetric to rtol 1e-10 and positive definite."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise SingularScatter("scatter matrix must be square")
    if not np.all(np.isfinite(sigma)):
        raise SingularScatter("scatter matrix must be finite")
    if not np.allclose(sigma, sigma.T, rtol=1e-10, atol=1e-12):
        raise SingularScatter("scatter matrix must be symmetric")
    return _factor(sigma)


def _factor(sigma: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, or a stack of them, by np.linalg.cholesky without
    spd_cholesky's checks: sigma must be finite, square and exactly symmetric
    (LAPACK potrf reads only one triangle)."""
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise SingularScatter("scatter matrix is not positive definite") from None


def _tril_inv(low: np.ndarray) -> np.ndarray:
    """Inverses of a (k, d, d) stack of lower triangular factors by forward
    substitution, one batched product per row:
    L^-1[j, :j] = -L[j, :j] L^-1[:j, :j] / L[j, j] and L^-1[j, j] = 1 / L[j, j].
    The same d products run at every k, so each matrix's inverse is bit for
    bit that of its own (1, d, d) call."""
    d = low.shape[-1]
    inv = np.zeros_like(low)
    diag = np.arange(d)
    inv[:, diag, diag] = 1.0 / low[:, diag, diag]
    neg = -low[:, diag, diag, None]
    # an inverse past the float range holds infs and NaNs, which give inf and
    # NaN distances, as the searches expect of data that overflow
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, d):
            np.divide(np.matmul(low[:, j:j + 1, :j], inv[:, :j, :j])[:, 0], neg[:, j],
                      out=inv[:, j, :j])
    return inv


def _dist_sq(x: np.ndarray, m: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distances of the rows of x from m under the scatter
    whose lower Cholesky factor is low (from _factor): the rows of
    (x - m) L^-T, squared and summed.  Stacks broadcast: m (k, 1, d) and low
    (k, d, d) give the (k, n) distances of k chains, each bit for bit the
    distances of its own call, since _tril_inv inverts a stack of any size the
    same way.  A single (d, d) factor, at the checked mahalanobis_sq boundary
    and in the S iteration's step test, is inverted by np.linalg.inv, about six
    times faster than forward substitution on one matrix."""
    inv = np.linalg.inv(low) if low.ndim == 2 else _tril_inv(low)
    z = (x - m) @ np.swapaxes(inv, -1, -2)
    return np.einsum("...j,...j->...", z, z)


def mahalanobis_sq(x, m, sigma) -> np.ndarray | float:
    """Squared Mahalanobis distance of row(s) x from m under scatter sigma.

    The checked boundary of the distance kernel: spd_cholesky validates and
    factors sigma, then _dist_sq computes the distances.  The subset searches
    in oplab.estimators call _factor and _dist_sq directly, because the
    covariances they build are exactly symmetric."""
    x = np.asarray(x, dtype=float)
    m = np.asarray(m, dtype=float)
    low = spd_cholesky(sigma)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(m))):
        raise InvalidData("points and center must be finite")
    d2 = _dist_sq(np.atleast_2d(x), m, low)
    return d2 if x.ndim == 2 else float(d2[0])


@dataclass(frozen=True)
class EllipticalModel:
    """Gaussian elliptical core model with center mu0 and SPD scatter sigma0."""

    mu0: np.ndarray
    sigma0: np.ndarray

    def __post_init__(self):
        mu0 = np.asarray(self.mu0, dtype=float).reshape(-1)
        sigma0 = np.asarray(self.sigma0, dtype=float)
        if sigma0.shape != (mu0.size, mu0.size):
            raise SingularScatter("scatter shape does not match center")
        low = spd_cholesky(sigma0)
        object.__setattr__(self, "mu0", mu0)
        object.__setattr__(self, "sigma0", sigma0)
        object.__setattr__(self, "_chol", low)

    @property
    def dim(self) -> int:
        return self.mu0.size

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal((int(n), self.dim))
        return self.mu0 + z @ self._chol.T

    def transform_rows(self, z: np.ndarray) -> np.ndarray:
        """mu0 + L z_i for each row z_i of the (n, d) standard normals z: row i
        is sample(1)'s product on it, bit for bit, which a 2-D product of
        the whole array need not give."""
        return self.mu0 + np.matmul(z[:, None, :], self._chol.T)[:, 0]

    def mahalanobis_sq(self, x) -> np.ndarray | float:
        return mahalanobis_sq(x, self.mu0, self.sigma0)


def standard_model(d: int) -> EllipticalModel:
    return EllipticalModel(np.zeros(d), np.eye(d))


def equicorrelated_model(d: int, r: float) -> EllipticalModel:
    """N(0, Sigma) with unit variances and constant correlation r."""
    if not -1.0 / max(d - 1, 1) < r < 1.0:
        raise SingularScatter(f"equicorrelation r={r} is not positive definite at d={d}")
    sigma = np.full((d, d), float(r))
    np.fill_diagonal(sigma, 1.0)
    return EllipticalModel(np.zeros(d), sigma)


# ---------------------------------------------------------------------------
# Scalar root finding.

def _brentq(f: Callable[[float], float], a: float, b: float, xtol: float = 2e-12,
            rtol: float = _BRENT_RTOL, maxiter: int = 100) -> float:
    """Root of f(x) = 0 in the bracket [a, b] by Brent's method (Brent
    1973, ch. 4): inverse quadratic or secant steps, bisection when they stall.

    The float operations, their order, the stopping rule |step| < (xtol +
    rtol |x|) / 2 and the errors are those of scipy's brentq:
    ValueError for a bracket whose ends share a sign or for a NaN value of f,
    RuntimeError when maxiter iterations do not converge."""
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENT_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_BRENT_RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")

    def value(x: float) -> float:
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep xcur the best point
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # a step that bisects
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # in C the step is then infinite or NaN, and bisects
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # a good short step
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


# ---------------------------------------------------------------------------
# Deterministic expectations against the chi-square(d) radial law.

@lru_cache(maxsize=1)
def _unit_legendre() -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(QUAD_NODES)
    return 0.5 * (x + 1.0), 0.5 * w


def chi2_truncated_expectation(f: Callable[[np.ndarray], np.ndarray], d: int, cut: float,
                               tail_value: float) -> float:
    """E[f(U)], U ~ chi-square(d), when f is smooth on [0, cut] and constant beyond.

    The smooth part is integrated in the radius variable v = sqrt(u), which
    removes the density singularity at zero for d = 1, so plain Gauss-Legendre
    converges at machine precision; the tail contributes tail_value * P(U > cut).
    """
    if cut <= 0.0:
        raise ValueError("cut must be positive")
    x, w = _unit_legendre()
    v = np.sqrt(cut) * x
    log_norm = math.log(2.0) - (d / 2.0) * math.log(2.0) - math.lgamma(d / 2.0)
    dens = np.exp(log_norm + (d - 1) * np.log(np.maximum(v, 1e-300)) - v**2 / 2.0)
    if d == 1:
        dens[v == 0.0] = np.exp(log_norm)  # v^0 = 1 exactly at the endpoint
    vals = np.asarray(f(v**2), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand returned non-finite values on the quadrature nodes")
    body = math.sqrt(cut) * float(w @ (vals * dens))
    return body + float(tail_value) * _chi2_sf(d, cut)


def _chi2_sf(d: int, x: float) -> float:
    """P(U > x) for U ~ chi-square(d), d a positive integer, x > 0, in closed
    form: with h = x/2, the sum of e^-h h^a / Gamma(a + 1) over a = 0, 1, ...,
    d/2 - 1 for even d, and erfc(sqrt(h)) plus that sum over a = 1/2, 3/2,
    ..., d/2 - 1 for odd d (Abramowitz & Stegun 26.4.4 and 26.4.5)."""
    if d != int(d) or d < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {d}")
    h = x / 2.0
    a = 0.5 * (d % 2)
    total = math.erfc(math.sqrt(h)) if d % 2 else 0.0
    term = math.exp(a * math.log(h) - h - math.lgamma(a + 1.0))
    for _ in range(int(d) // 2):
        total += term
        a += 1.0
        # the recurrence, but from logs while e^-h leaves the terms subnormal
        if term >= sys.float_info.min:
            term *= h / a
        else:
            term = math.exp(a * math.log(h) - h - math.lgamma(a + 1.0))
    return total


def expected_rho(spec: RhoSpec, d: int) -> float:
    """E rho under the clean spherical Gaussian model, honoring the convention."""
    return chi2_truncated_expectation(lambda s: rho_sq(spec, s), d, truncation_sq(spec), 1.0)


def calibrate_c(d: int, bp: float, convention: str = "scaled-distance") -> float:
    """Tuning constant c with E rho_c = bp under the spherical Gaussian model.

    E rho_c is continuous and strictly decreasing in c, so the root is unique;
    it is bracketed by doubling/halving and polished to |c_hi - c_lo| < 1e-10.
    """
    if not 0.0 < bp <= 0.5:
        raise ValueError("breakdown target bp must lie in (0, 0.5]")
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown argument convention {convention!r}")

    # excess keeps each constant's value: _brentq evaluates the bracket ends
    # again, and the residual check evaluates the root again
    values = {}

    def excess(c: float) -> float:
        if c not in values:
            values[c] = expected_rho(RhoSpec(c=c, convention=convention), d) - bp
        return values[c]

    lo, hi = 0.5, 4.0
    for _ in range(_BRACKET_DOUBLINGS):
        if excess(hi) <= 0.0:
            break
        hi *= 2.0
    else:
        raise CalibrationError("no upper bracket for the tuning constant")
    for _ in range(_BRACKET_DOUBLINGS):
        if excess(lo) >= 0.0:
            break
        lo /= 2.0
    else:
        raise CalibrationError("no lower bracket for the tuning constant")

    c = _brentq(excess, lo, hi, xtol=1e-10, maxiter=200)
    if abs(excess(c)) > 1e-8:
        raise CalibrationError(f"calibration residual {excess(c):.3e} exceeds 1e-8")
    return c
