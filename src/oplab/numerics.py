"""Loss family, Mahalanobis geometry, Gaussian elliptical model, and tuning calibration.

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
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import linalg, special
from scipy.optimize import brentq

RHO_FAMILIES = ("tukey-bisquare",)
CONVENTIONS = ("squared-distance", "scaled-distance")
RADIALS = ("gaussian",)

DEFAULT_QUAD_NODES = 256

# bracket-widening cap for calibrate_c, in doublings of the initial bracket
_BRACKET_DOUBLINGS = 24


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
    family: str = "tukey-bisquare"

    def __post_init__(self):
        if self.family not in RHO_FAMILIES:
            raise ValueError(f"unknown loss family {self.family!r}")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"unknown argument convention {self.convention!r}")
        if not (np.isfinite(self.c) and self.c > 0):
            raise ValueError("tuning constant c must be positive and finite")

    def to_dict(self) -> dict:
        return {"c": float(self.c), "convention": self.convention, "family": self.family}

    @classmethod
    def from_dict(cls, d: dict) -> "RhoSpec":
        return cls(c=float(d["c"]), convention=d["convention"], family=d.get("family", "tukey-bisquare"))


def _bisquare_into(c: float, law: str, s: np.ndarray, out: np.ndarray, work: np.ndarray,
                   derivative: int) -> np.ndarray:
    """Loss (derivative 0), psi (1) or psi' (2) of s under law, into out; law is
    "squared-distance" (q = (s/c)^2) or "scaled-distance" (q = s/c^2).

    Allocates nothing and leaves p in work: out and work are float arrays
    shaped like s, distinct from s and from each other, except that out may
    be s itself for the loss."""
    k = 1.0 / c**2
    squared = law == "squared-distance"
    np.multiply(s, s if squared else 1.0, out=work)  # q / k
    work *= -k
    work += 1.0
    np.maximum(work, 0.0, out=work)  # p
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
    _bisquare_into(c, law, s, out, work, derivative)
    if derivative:
        out[work == 0.0] = 0.0  # zero beyond the truncation, also where s or s^2 is inf
    return out if out.ndim else float(out)


def rho(spec: RhoSpec, t) -> np.ndarray | float:
    """Loss value; even in t, zero at zero, capped at one beyond |t| = c."""
    return _loss(spec.c, "squared-distance", t, 0)


def psi(spec: RhoSpec, t) -> np.ndarray | float:
    """First derivative of the loss; identically zero for |t| >= c."""
    return _loss(spec.c, "squared-distance", t, 1)


def psi_prime(spec: RhoSpec, t) -> np.ndarray | float:
    """Second derivative of the loss; identically zero for |t| >= c."""
    return _loss(spec.c, "squared-distance", t, 2)


def weight(spec: RhoSpec, t) -> np.ndarray | float:
    """psi(t)/t, psi'(0) at t = 0, nonincreasing in |t|: twice the scaled-law psi at t^2."""
    return 2.0 * _loss(spec.c, "scaled-distance", np.square(t), 1)


def rho_inverse(spec: RhoSpec, y) -> np.ndarray | float:
    """Inverse of rho on [0, 1) -> [0, c); closed form for the bisquare."""
    y = np.asarray(y, dtype=float)
    if np.any((y < 0.0) | (y >= 1.0)):
        raise ValueError("rho_inverse is defined on [0, 1)")
    out = spec.c * np.sqrt(1.0 - np.cbrt(1.0 - y))
    return out if out.ndim else float(out)


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
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise SingularScatter("scatter matrix must be square")
    if not np.allclose(sigma, sigma.T, rtol=1e-10, atol=1e-12):
        raise SingularScatter("scatter matrix must be symmetric")
    try:
        return linalg.cholesky(sigma, lower=True)
    except linalg.LinAlgError as exc:
        raise SingularScatter("scatter matrix is not positive definite") from exc


def mahalanobis_sq(x, m, sigma) -> np.ndarray | float:
    """Squared Mahalanobis distance of row(s) x from m under scatter sigma."""
    x = np.asarray(x, dtype=float)
    m = np.asarray(m, dtype=float)
    low = spd_cholesky(sigma)
    dev = np.atleast_2d(x) - m
    z = linalg.solve_triangular(low, dev.T, lower=True)
    d2 = np.einsum("ij,ij->j", z, z)
    return d2 if x.ndim == 2 else float(d2[0])


@dataclass(frozen=True)
class EllipticalModel:
    """Gaussian elliptical core model with center mu0 and SPD scatter sigma0."""

    mu0: np.ndarray
    sigma0: np.ndarray
    radial: str = "gaussian"

    def __post_init__(self):
        mu0 = np.asarray(self.mu0, dtype=float).reshape(-1)
        sigma0 = np.asarray(self.sigma0, dtype=float)
        if self.radial not in RADIALS:
            raise ValueError(f"unknown radial law {self.radial!r}")
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

    def mahalanobis_sq(self, x) -> np.ndarray | float:
        return mahalanobis_sq(x, self.mu0, self.sigma0)

    def to_dict(self) -> dict:
        return {
            "mu0": [float(v) for v in self.mu0],
            "sigma0": [[float(v) for v in row] for row in self.sigma0],
            "radial": self.radial,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EllipticalModel":
        return cls(mu0=np.asarray(d["mu0"]), sigma0=np.asarray(d["sigma0"]), radial=d.get("radial", "gaussian"))


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
# Deterministic expectations against the chi-square(d) radial law.

@lru_cache(maxsize=8)
def _unit_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(int(nodes))
    return 0.5 * (x + 1.0), 0.5 * w


def chi2_truncated_expectation(f: Callable[[np.ndarray], np.ndarray], d: int, cut: float,
                               tail_value: float, nodes: int = DEFAULT_QUAD_NODES) -> float:
    """E[f(U)], U ~ chi-square(d), when f is smooth on [0, cut] and constant beyond.

    The smooth part is integrated in the radius variable v = sqrt(u), which
    removes the density singularity at zero for d = 1, so plain Gauss-Legendre
    converges at machine precision; the tail contributes tail_value * P(U > cut).
    """
    if cut <= 0.0:
        raise ValueError("cut must be positive")
    x, w = _unit_legendre(nodes)
    v = np.sqrt(cut) * x
    log_norm = math.log(2.0) - (d / 2.0) * math.log(2.0) - special.gammaln(d / 2.0)
    dens = np.exp(log_norm + (d - 1) * np.log(np.maximum(v, 1e-300)) - v**2 / 2.0)
    if d == 1:
        dens[v == 0.0] = np.exp(log_norm)  # v^0 = 1 exactly at the endpoint
    vals = np.asarray(f(v**2), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand returned non-finite values on the quadrature nodes")
    body = math.sqrt(cut) * float(w @ (vals * dens))
    return body + float(tail_value) * float(special.chdtrc(d, cut))


def expected_rho(spec: RhoSpec, d: int, nodes: int = DEFAULT_QUAD_NODES) -> float:
    """E rho under the clean spherical Gaussian model, honoring the convention."""
    return chi2_truncated_expectation(lambda s: rho_sq(spec, s), d, truncation_sq(spec), 1.0, nodes)


def calibrate_c(d: int, bp: float, convention: str = "scaled-distance",
                nodes: int = DEFAULT_QUAD_NODES) -> float:
    """Tuning constant c with E rho_c = bp under the spherical Gaussian model.

    E rho_c is continuous and strictly decreasing in c, so the root is unique;
    it is bracketed by doubling/halving and polished to |c_hi - c_lo| < 1e-10.
    """
    if not 0.0 < bp <= 0.5:
        raise ValueError("breakdown target bp must lie in (0, 0.5]")
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown argument convention {convention!r}")

    def excess(c: float) -> float:
        return expected_rho(RhoSpec(c=c, convention=convention), d, nodes) - bp

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

    c = float(brentq(excess, lo, hi, xtol=1e-10, maxiter=200))
    if abs(excess(c)) > 1e-8:
        raise CalibrationError(f"calibration residual {excess(c):.3e} exceeds 1e-8")
    return c


def default_c(convention: str, bp: float, d: int) -> float:
    """sqrt(6) on the squared-distance convention, else calibrate_c(d, bp)."""
    if convention == "squared-distance":
        return math.sqrt(6.0)
    return calibrate_c(d, bp, convention="scaled-distance")
