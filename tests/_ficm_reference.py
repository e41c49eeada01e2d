"""The shared-sample cellwise influence core in its plain form: its own draws
of the model, its own precision products, fresh (n, d) arrays for every
intermediate, psi_sq on the pinned distances, and numpy's mean and
std(ddof=1) of the per-draw totals.

The package evaluates the same expectation on cached (d, n) draws, in another
float order (one GEMM for the sums over draws).  The draws come from the same
substream, so the two agree to rounding; the tests state the tolerance.
"""

import math

import numpy as np

from oplab import InfluenceResult, psi_sq
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
