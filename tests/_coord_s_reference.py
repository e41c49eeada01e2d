"""The coordinatewise S-estimate as first written: per column, the plain
fixed-point iteration m -> the weighted mean at the scale solved at m, with
no extrapolation, stopped once a step is below tol times the scale.

oplab.coord_s extrapolates every second step, which reaches the same fixed
point in far fewer steps; run here to a step of 1e-15, this iteration is the
fixed point it is checked against.
"""

import numpy as np

from oplab import DegenerateData, weight
from oplab.estimators import m_scale


def coord_s(x, spec, bp=0.5, max_iter=1000, tol=1e-15):
    """(mu, scale, iterations per column, whether every column stopped)."""
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    mu, scale, iters, stopped = np.empty(d), np.empty(d), [], True
    for j in range(d):
        col = x[:, j]
        if np.unique(col).size < 2:
            raise DegenerateData(f"column {j} is constant")
        m = float(np.median(col))
        s = m_scale(np.abs(col - m), spec, bp)
        for it in range(1, max_iter + 1):
            w = weight(spec, (col - m) / s)
            m_new = float(w @ col / w.sum())
            s = m_scale(np.abs(col - m_new), spec, bp, guess=s)
            step = abs(m_new - m)
            m = m_new
            if step < tol * s:
                break
        else:
            stopped = False
        mu[j], scale[j] = m, s
        iters.append(it)
    return mu, scale, iters, stopped
