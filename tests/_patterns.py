"""Pattern-by-pattern oracle for the cellwise influence core.

The influence of independent-cell contamination is the sum over single-cell
patterns of g(pattern) / a_psi, where g is the mean psi-weighted
displacement of a model draw with the pattern's coordinates pinned to z.
The package prices every pattern from one shared sample (_ficm_core); this
module draws each pattern separately, the slow and obvious way, so the two
can be checked against each other.
"""

from dataclasses import dataclass

import numpy as np

from oplab import EllipticalModel, InfluenceResult, MonteCarlo, RhoSpec, mahalanobis_sq, psi_sq
from oplab.influence import _as_point
from oplab.rng import substream

_PATH_G = 7  # substream branch of the pattern draws


@dataclass(frozen=True)
class PatternSampler:
    """Distribution of a model draw with the listed coordinates pinned to z.

    coords empty means the clean model; coords covering every index is the
    point mass at z.
    """

    model: EllipticalModel
    coords: tuple[int, ...]
    z: np.ndarray

    def __post_init__(self):
        d = self.model.dim
        if any(not 0 <= k < d for k in self.coords):
            raise ValueError("pattern coordinate out of range")
        if len(set(self.coords)) != len(self.coords):
            raise ValueError("pattern coordinates must be distinct")
        object.__setattr__(self, "z", _as_point(self.z, d))

    @property
    def is_point_mass(self) -> bool:
        return len(self.coords) == self.model.dim

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        x = self.model.sample(n, rng)
        for k in self.coords:
            x[:, k] = self.z[k]
        return x


def g_function(sampler: PatternSampler, m, sigma, rho: RhoSpec,
               mc: MonteCarlo) -> InfluenceResult:
    """Mean psi-weighted displacement under the sampler's distribution.

    Point-mass samplers short-circuit to the exact value with zero stderr.
    The substream depends on the pattern but not on z, so evaluations across
    a z-grid share their random numbers.
    """
    d = sampler.model.dim
    m = _as_point(m, d)
    sigma = np.asarray(sigma, dtype=float)
    if sampler.is_point_mass:
        val = psi_sq(rho, mahalanobis_sq(sampler.z, m, sigma)) * (sampler.z - m)
        return InfluenceResult(z=sampler.z, value=np.asarray(val),
                               stderr=np.zeros(d))
    rng = substream(mc.seed, _PATH_G, len(sampler.coords), *sampler.coords)
    x = sampler.sample(mc.n_draws, rng)
    contrib = psi_sq(rho, mahalanobis_sq(x, m, sigma))[:, None] * (x - m)
    return InfluenceResult(z=sampler.z, value=contrib.mean(axis=0),
                           stderr=contrib.std(axis=0, ddof=1) / np.sqrt(mc.n_draws))
