"""The S-estimate weight envelope of the paper, kept as a test oracle.

Nothing in the package needs these closed forms; the tests use them to check
that a fitted 50%-breakdown S-estimate keeps its weights inside the envelope.
"""

import numpy as np

from oplab import RhoSpec, weight


def rho_inverse(spec: RhoSpec, y) -> np.ndarray | float:
    """Inverse of rho on [0, 1) -> [0, c); closed form for the bisquare."""
    y = np.asarray(y, dtype=float)
    if np.any((y < 0.0) | (y >= 1.0)):
        raise ValueError("rho_inverse is defined on [0, 1)")
    out = spec.c * np.sqrt(1.0 - np.cbrt(1.0 - y))
    return out if out.ndim else float(out)


def s_weight_bounds(spec: RhoSpec, delta0: float) -> tuple[float, float]:
    """Normalized-weight envelope for a 50%-breakdown S-estimate.

    With kappa = psi'(0) and zeta = u(rho^{-1}(t0)), t0 = 1/(1 + 2*delta0),
    every scaled weight lies below 4*kappa/zeta, and points with loss below t0
    (at least half the mass, up to delta0) sit above zeta/kappa.
    """
    if not 0.0 < delta0 < 0.5:
        raise ValueError("delta0 must lie in (0, 0.5)")
    kappa = float(weight(spec, 0.0))
    t0 = 1.0 / (1.0 + 2.0 * delta0)
    zeta = float(weight(spec, rho_inverse(spec, t0)))
    return 4.0 * kappa / zeta, zeta / kappa
