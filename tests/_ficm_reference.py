"""The shared-sample cellwise influence core as first written: fresh arrays
for every intermediate, psi_sq on the pinned distances, and numpy's mean and
std(ddof=1).

The package evaluates the same expression on scratch buffers that live with
the cached draws, in the same float order.  This module keeps the plain form,
so the two can be checked against each other bit for bit.
"""

import math

import numpy as np

from oplab import InfluenceResult, psi_sq


def ficm_core(z, ctx, path):
    model = ctx.model
    y, ydev, proj, d2y, _ = ctx._draws(path)
    inv_diag = np.diag(ctx._sigma_inv)
    delta = z[None, :] - y
    d2k = d2y[:, None] + 2.0 * delta * proj + delta**2 * inv_diag[None, :]
    psik = np.asarray(psi_sq(ctx.rho, d2k))
    row_sum = psik.sum(axis=1)
    per_draw = (row_sum[:, None] - psik) * ydev + psik * (z - model.mu0)[None, :]
    n = per_draw.shape[0]
    value = per_draw.mean(axis=0) / ctx.a_psi
    stderr = per_draw.std(axis=0, ddof=1) / math.sqrt(n) / ctx.a_psi
    return InfluenceResult(z=z, value=value, stderr=stderr)
