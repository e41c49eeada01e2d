"""The S-estimator as first written: np.median and an allocating loss in the
M-scale solve, and checked Mahalanobis distances at every S iteration.  Its
iterations and start selection are the package's: every start iterates to
the step tolerance, and the winner iterates on to a step of 1e-12.

The package's M-scale reads the median by partition and evaluates each scale
once on reused buffers, and its S iterations build the shape as one symmetric
rank-k update, factor it once and rescale distances rather than recompute
them.  This module keeps the slow and obvious forms.  m_scale here is the
package's bit for bit; the S fit agrees to float noise.
"""

import math

import numpy as np
from scipy.optimize import brentq

from oplab import (DegenerateData, EstimationError, LocationScatter, SingularScatter,
                   mahalanobis_sq, mcd, rho, weight)
from oplab.estimators import _mad_start
from oplab.rng import substream

from _subset_reference import elemental_starts


def m_scale(r, spec, b, rtol=1e-13):
    r = np.asarray(r, dtype=float)
    pos = r[r > 0.0]
    if pos.size <= b * r.size:
        raise DegenerateData("too many zero residuals for the scale constraint")

    def excess(s):
        return float(np.mean(rho(spec, r / s))) - b

    lo = hi = float(np.median(pos)) / spec.c
    for _ in range(200):
        if excess(lo) > 0.0:
            break
        lo /= 2.0
    for _ in range(200):
        if excess(hi) < 0.0:
            break
        hi *= 2.0
    return float(brentq(excess, lo, hi, xtol=rtol * lo, rtol=rtol, maxiter=200))


def _step_below(step, m, sigma, tol):
    bound = tol * (1.0 + math.sqrt(mahalanobis_sq(m, 0.0, sigma)))
    return mahalanobis_sq(step, 0.0, sigma) < bound * bound


def _distances(x, m, sigma):
    return np.sqrt(np.maximum(mahalanobis_sq(x, m, sigma), 0.0))


def s_from_start(x, spec, b, m, sigma, max_iter, tol):
    sigma = sigma * m_scale(_distances(x, m, sigma), spec, b)**2
    logdet_prev = float(np.linalg.slogdet(sigma)[1])
    it = 0
    for it in range(1, max_iter + 1):
        w = weight(spec, _distances(x, m, sigma))
        wsum = w.sum()
        if not wsum > 0.0:
            return None
        m_new = (w[:, None] * x).sum(axis=0) / wsum
        dev = x - m_new
        shape = (w[:, None] * dev).T @ dev
        sigma_new = shape * m_scale(_distances(x, m_new, shape), spec, b)**2
        logdet = float(np.linalg.slogdet(sigma_new)[1])
        if logdet > logdet_prev + 1e-10:
            break
        small_step = _step_below(m_new - m, m_new, sigma_new, tol)
        drop = logdet_prev - logdet
        m, sigma, logdet_prev = m_new, sigma_new, logdet
        if small_step and drop < 1e-11:
            break
    return m, sigma, logdet_prev, it


def s_estimate(x, spec, bp=0.5, n_starts=20, seed=0, max_iter=200, tol=1e-10,
               mcd_starts=50):
    """oplab.s_estimate's starts and selection around s_from_start."""
    x = np.asarray(x, dtype=float)
    starts = []
    try:
        init = mcd(x, n_starts=mcd_starts, seed=seed ^ 1)
        starts.append((init.mu, init.sigma))
    except EstimationError:
        pass
    starts.append(_mad_start(x))
    for idx in elemental_starts(len(x), x.shape[1] + 1, n_starts, substream(seed, 0)):
        sub = x[idx]
        cov = np.cov(sub, rowvar=False).reshape(x.shape[1], x.shape[1])
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            continue  # a singular elemental start
        starts.append((sub.mean(axis=0), cov))
    best = None
    for m0, c0 in starts:
        try:
            fit = s_from_start(x, spec, bp, m0, c0, max_iter, tol)
        except (SingularScatter, DegenerateData):
            continue
        if fit is not None and (best is None or fit[2] < best[2]):
            best = fit
    if best is None:
        raise DegenerateData("no S start produced a nonsingular solution")
    m, sigma, _, it = best
    m, sigma, _, more = s_from_start(x, spec, bp, m, sigma, max_iter, 1e-12)
    dist = _distances(x, m, sigma)
    w = weight(spec, dist)
    wsum = w.sum()
    constraint_res = abs(float(np.mean(rho(spec, dist))) - bp)
    mean_res = math.sqrt(mahalanobis_sq((w[:, None] * (x - m)).sum(axis=0) / wsum, 0.0, sigma))
    return LocationScatter(mu=m, sigma=sigma, iterations=it + more,
                           objective=float(np.linalg.slogdet(sigma)[1]),
                           converged=constraint_res < 1e-8 and mean_res < 1e-8,
                           weights=w / wsum)
