"""Plain fixed-point iteration for the location M-estimate.

The package solves the estimating equation with safeguarded Newton steps in
whitened coordinates (m_location).  This module keeps the weighted-mean
iteration on the raw data, the slow and obvious way, with the same stopping
rule, so the two can be checked against each other.
"""

import math

import numpy as np

from oplab import coord_median, mahalanobis_sq, psi_sq


def estimating_residual(x, mu, sigma, spec) -> float:
    """|mean_i psi(d_i^2) (x_i - mu)| in the Mahalanobis norm of sigma."""
    w = np.asarray(psi_sq(spec, mahalanobis_sq(x, mu, sigma)))
    return math.sqrt(mahalanobis_sq((w[:, None] * (x - mu)).mean(axis=0), 0.0, sigma))


def fixed_point_m_location(x, sigma, spec, start=None, max_iter=5000, tol=1e-12):
    """(mu, converged, iterations) of the weighted-mean iteration with
    weights psi_sq(d^2), stopped when the step in mu is below tol (relative to
    1 + max |mu|) and the estimating residual is below 1e-9.  converged says
    that this rule fired: a small residual at the max_iter cap does not count,
    since a slowly contracting iteration is still far from the root there."""
    x = np.asarray(x, dtype=float)
    m = coord_median(x) if start is None else np.asarray(start, dtype=float)
    it = 0
    for it in range(1, max_iter + 1):
        w = np.asarray(psi_sq(spec, mahalanobis_sq(x, m, sigma)))
        if not w.sum() > 0.0:
            raise ValueError("every point fell beyond the loss truncation")
        m_new = (w[:, None] * x).sum(axis=0) / w.sum()
        step = float(np.max(np.abs(m_new - m)))
        m = m_new
        if step < tol * (1.0 + float(np.max(np.abs(m)))) \
                and estimating_residual(x, m, sigma, spec) < 1e-9:
            return m, True, it
    return m, False, it
