"""Reference values the benchmark computes without calling oplab.

Everything here is derived from the bisquare formulas in the docstring of
``oplab.numerics`` and from textbook probability, using numpy and scipy
only, so a fault in the package cannot hide in its own reference:

    rho_c(t) = 1 - (1 - (t/c)^2)^3  for |t| < c,  1 beyond,
    psi_c(t) = rho_c'(t) = (6 t / c^2) (1 - (t/c)^2)^2,
    psi_c'(t) = (6 / c^2) (1 - x) (1 - 5 x),  x = (t/c)^2.

"squared-distance" feeds the squared Mahalanobis distance s to rho_c;
"scaled-distance" feeds sqrt(s).  The influence machinery differentiates
with respect to s in both cases.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, stats

# Two-sided normal tail beyond 6 standard deviations (2e-9).  A hundred
# runs of the benchmark make about 10^4 statistical comparisons, so a
# correct program fails none of them with probability above 0.9999; at 5
# sigma that chance would drop to about 0.99.
Z_BAND = 6.0
TAIL = 2.0 * stats.norm.sf(Z_BAND)


def rho(t, c: float) -> np.ndarray:
    x = np.minimum(np.square(np.asarray(t, dtype=float) / c), 1.0)
    return 1.0 - (1.0 - x) ** 3


def psi_s(s, c: float, convention: str) -> np.ndarray:
    """d rho / d s for the loss applied to the squared distance s."""
    s = np.asarray(s, dtype=float)
    if convention == "squared-distance":
        x = np.square(s / c)
        return np.where(x < 1.0, (6.0 * s / c**2) * (1.0 - x) ** 2, 0.0)
    x = s / c**2
    return np.where(x < 1.0, (3.0 / c**2) * (1.0 - x) ** 2, 0.0)


def psi_s_prime(s, c: float, convention: str) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if convention == "squared-distance":
        x = np.square(s / c)
        return np.where(x < 1.0, (6.0 / c**2) * (1.0 - x) * (1.0 - 5.0 * x), 0.0)
    x = s / c**2
    return np.where(x < 1.0, -(6.0 / c**4) * (1.0 - x), 0.0)


def _truncation(c: float, convention: str) -> float:
    return c if convention == "squared-distance" else c * c


def chi2_mean(f, d: int, upper: float) -> float:
    """E[f(U) 1{U < upper}] for U ~ chi-square(d), by adaptive quadrature."""
    val, _ = integrate.quad(lambda u: float(f(u)) * stats.chi2.pdf(u, d), 0.0, upper,
                            epsabs=1e-13, epsrel=1e-12, limit=200)
    return val


def expected_rho(c: float, d: int) -> float:
    """E rho_c(sqrt(U)), U ~ chi-square(d): the S-estimator constraint level."""
    body = chi2_mean(lambda u: rho(math.sqrt(u), c), d, c * c)
    return body + stats.chi2.sf(c * c, d)


def a_psi(c: float, convention: str, d: int) -> float:
    """(2/d) E[psi'(Q) Q] + E[psi(Q)], Q ~ chi-square(d)."""
    cut = _truncation(c, convention)
    return chi2_mean(lambda u: (2.0 / d) * psi_s_prime(u, c, convention) * u
                     + psi_s(u, c, convention), d, cut)


def radial_ges(c: float, convention: str, d: int) -> float:
    """max_t psi(t^2) t / a_psi: the row-replacement sensitivity at N(0, I)."""
    t_max = math.sqrt(_truncation(c, convention))
    res = optimize.minimize_scalar(lambda t: -float(psi_s(t * t, c, convention)) * t,
                                   bounds=(0.0, t_max), method="bounded",
                                   options={"xatol": 1e-12})
    return -float(res.fun) / a_psi(c, convention, d)


def if_rowwise(z: np.ndarray, c: float, convention: str) -> np.ndarray:
    """Row-replacement influence of the M-location at N(0, I)."""
    z = np.asarray(z, dtype=float)
    return float(psi_s(z @ z, c, convention)) * z / a_psi(c, convention, z.size)


def if_coordinatewise(z: np.ndarray, c: float, convention: str) -> np.ndarray:
    """Columnwise univariate M-location influence at N(0, I)."""
    z = np.asarray(z, dtype=float)
    return psi_s(z * z, c, convention) * z / a_psi(c, convention, 1)


def rowwise_if_second_moment(c: float, convention: str, d: int) -> float:
    """E[IF_j(Y)^2] for one coordinate j of the row-replacement influence."""
    a = a_psi(c, convention, d)
    m = chi2_mean(lambda u: psi_s(u, c, convention) ** 2 * u, d, _truncation(c, convention))
    return m / d / a**2


def cellwise_moments(z: np.ndarray, c: float, convention: str, n_draws: int,
                     seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Monte Carlo moments of the independent-cell path at N(0, I).

    Returns the influence estimate sum_k E[psi(|Y_k|^2) Y_k] / a_psi, where
    Y_k is a model draw with coordinate k set to z_k; the per-draw variance
    of that sum (the noise of a Monte Carlo influence of this form); and
    sum_k E[g_k^2] with g_k = (psi(|Y_k|^2) Y_k - psi(|Y|^2) Y) / a_psi, the
    variance one flipped cell adds to a finite-contamination slope.
    """
    z = np.asarray(z, dtype=float)
    d = z.size
    a = a_psi(c, convention, d)
    y = np.random.default_rng(seed).standard_normal((n_draws, d))
    base = psi_s(np.einsum("ij,ij->i", y, y), c, convention)[:, None] * y
    per_draw = np.zeros_like(y)
    flip_sq = np.zeros(d)
    for k in range(d):
        yk = y.copy()
        yk[:, k] = z[k]
        term = psi_s(np.einsum("ij,ij->i", yk, yk), c, convention)[:, None] * yk
        per_draw += term
        flip_sq += np.mean(((term - base) / a) ** 2, axis=0)
    per_draw /= a
    return per_draw.mean(axis=0), per_draw.var(axis=0, ddof=1), flip_sq


def slope_sd(flip_var, n: int, eps_grid: tuple[float, float]) -> np.ndarray:
    """Standard deviation of the extrapolated finite-contamination slope.

    With nested flips the two secants on eps_grid = (e, 2e) share the first
    m = n e flips; the intercept 2 s(e) - s(2e) = (3 A - B) / (2 m) of the two
    flip sums A, B has variance 2.5 v / m, where v is the variance a single
    flip adds.
    """
    lo, hi = eps_grid
    if not math.isclose(hi, 2.0 * lo):
        raise ValueError("slope noise model assumes eps_grid = (e, 2e)")
    return np.sqrt(2.5 * np.asarray(flip_var, dtype=float) / (n * lo))


def binomial_outlier(count: int, n: int, p: float) -> bool:
    """True when count is further from n p than the Z_BAND two-sided level,
    judged by exact binomial tails (valid also where n p is tiny)."""
    lower = stats.binom.cdf(count, n, p)
    upper = stats.binom.sf(count - 1, n, p)
    return 2.0 * min(lower, upper) < TAIL


def mahalanobis_sq(x: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    dev = x - mu
    return np.einsum("ij,ij->i", dev, np.linalg.solve(sigma, dev.T).T)


def concentration_logdet(x: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> float:
    """Log-determinant after one further C-step from (mu, sigma): the
    covariance of the h = (n + d + 1) // 2 rows closest in Mahalanobis
    distance."""
    n, d = x.shape
    h = (n + d + 1) // 2
    keep = np.argsort(mahalanobis_sq(x, mu, sigma), kind="stable")[:h]
    sign, logdet = np.linalg.slogdet(np.cov(x[keep], rowvar=False))
    return float(logdet) if sign > 0 else -math.inf
