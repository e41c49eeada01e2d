"""The subset searches as first written, one start at a time: np.cov
moments, a Cholesky factor and distances per call, and full stable sorts.

The package builds subset moments with one rank-k update, steps all MCD
starts in lockstep on stacked factors (above 600 rows first on a screening
sample, then the 10 best on all rows), picks a C-step's h closest points by
partition and reads MVE's coverage order statistic by partition.  This module
keeps the slow and obvious forms on the same factorization (np.linalg.cholesky,
L^-1 by forward substitution one row at a time, distances from the rows of
(x - m) L^-T, log det as twice the sum of log diag L), so the two can be
checked against each other bit for bit.  Both skip an elemental start, a
concentration chain or an MVE candidate whose scatter the Cholesky
factorization rejects.  The elemental subsets are drawn here one at a time
from substream(seed, 0), where the package reads its first batch from a cache.
"""

import itertools
import math

import numpy as np

from oplab import DegenerateData, LocationScatter, SingularScatter, sample_mean
from oplab.rng import substream


def cholesky(sigma):
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise SingularScatter("scatter matrix is not positive definite") from exc


def tril_inv(low):
    """L^-1 of one lower triangular matrix, row j from the rows above it."""
    d = len(low)
    inv = np.zeros_like(low)
    for j in range(d):
        inv[j, :j] = -(low[j:j + 1, :j] @ inv[:j, :j])[0] / low[j, j]
        inv[j, j] = 1.0 / low[j, j]
    return inv


def mahalanobis_sq(x, m, sigma):
    z = (x - m) @ tril_inv(cholesky(sigma)).T
    return np.einsum("ij,ij->i", z, z)


def elemental_starts(n, size, n_starts, rng):
    """Every size-subset of range(n) when there are at most n_starts of them,
    else n_starts random ones drawn from rng."""
    if math.comb(n, size) <= n_starts:
        return [np.array(c) for c in itertools.combinations(range(n), size)]
    return [rng.choice(n, size=size, replace=False) for _ in range(n_starts)]


def moments(sub):
    d = sub.shape[1]
    return sub.mean(axis=0), np.cov(sub, rowvar=False).reshape(d, d)


def _subset_moments(x, idx):
    m, cov = moments(x[idx])
    try:
        cholesky(cov)
    except SingularScatter:
        return None
    return m, cov


def _cov_det(sub):
    m, cov = moments(sub)
    try:
        low = cholesky(cov)
    except SingularScatter:
        return None
    return m, cov, 2.0 * float(np.log(np.diagonal(low)).sum())


def c_step(x, m, sigma, h):
    order = np.argsort(mahalanobis_sq(x, m, sigma), kind="stable")
    return np.sort(order[:h])


def _chain(x, m, cov, h, max_csteps):
    """Concentrate one chain from (m, cov): its last log det that dropped, the
    moments and subset there, and whether max_csteps cut it; None in place of
    the moments when a subset's covariance is singular."""
    logdet_prev = np.inf
    keep = None
    for _ in range(max_csteps):
        subset = c_step(x, m, cov, h)
        step = _cov_det(x[subset])
        if step is None:
            return np.inf, None, False
        m, cov, logdet = step
        if not logdet < logdet_prev - 1e-12:
            return logdet_prev, keep, False
        logdet_prev = logdet
        keep = (m, cov, subset)
    return logdet_prev, keep, True


def mcd(x, h=None, n_starts=500, seed=0, max_csteps=100):
    n, d = x.shape
    if h is None:
        h = (n + d + 1) // 2
    if h == n:
        est = sample_mean(x)
        est.objective = float(np.linalg.slogdet(est.sigma)[1])
        est.subset = np.arange(n)
        return est
    rng = substream(seed, 0)
    starts = []
    attempts = 0
    while len(starts) < n_starts and attempts < 20 * max(n_starts, 1):
        attempts += 1
        mom = _subset_moments(x, rng.choice(n, size=d + 1, replace=False))
        if mom is not None:
            starts.append(mom)
    tried = len(starts)
    if n > 600:
        # FAST-MCD's selective iteration: 2 C-steps per start on one sample of
        # at most 1500 rows, then the 10 best (ties to the lower start) go on
        rows = np.sort(rng.choice(n, size=1500, replace=False)) if n > 1500 else np.arange(n)
        sample = x[rows]
        h_s = max(d + 1, math.ceil(h * len(rows) / n))
        screened = []
        for i, (m, cov) in enumerate(starts):
            logdet, keep, _ = _chain(sample, m, cov, h_s, 2)
            if keep is not None:
                screened.append((logdet, i, keep[:2]))
        starts = [mom for _, _, mom in sorted(sorted(screened)[:10], key=lambda s: s[1])]
    best_logdet = np.inf
    best = None
    for m, cov in starts:
        logdet, keep, cut = _chain(x, m, cov, h, max_csteps)
        if keep is not None and logdet < best_logdet - 1e-14:
            best_logdet = logdet
            best = keep
            best_cut = cut
    if best is None:
        raise DegenerateData("all MCD starts hit singular subsets")
    m, cov, subset = best
    weights = np.zeros(n)
    weights[subset] = 1.0 / h
    return LocationScatter(mu=m, sigma=cov, converged=not best_cut, iterations=tried,
                           objective=float(best_logdet), weights=weights, subset=subset)


def mve(x, n_trials=500, seed=0):
    n, d = x.shape
    cover = math.ceil((n + d + 1) / 2)
    rng = substream(seed, 0)
    candidates = []
    for idx in elemental_starts(n, d + 1, n_trials, rng):
        mom = _subset_moments(x, idx)
        if mom is not None:
            candidates.append(mom)
    mom = _subset_moments(x, slice(None))
    if mom is not None:
        candidates.append(mom)
    best_logvol = np.inf
    best = None
    for m, cov in candidates:
        logdet = 2.0 * float(np.log(np.diagonal(cholesky(cov))).sum())
        m2 = float(np.sort(mahalanobis_sq(x, m, cov), kind="stable")[cover - 1])
        if m2 <= 0.0:
            continue
        logvol = 0.5 * logdet + 0.5 * d * math.log(m2)
        if logvol < best_logvol - 1e-14:
            best_logvol = logvol
            best = (m, cov * m2)
    if best is None:
        raise DegenerateData("no MVE candidate covered the target count")
    m, sigma = best
    return LocationScatter(mu=m, sigma=sigma, converged=True, iterations=len(candidates),
                           objective=float(math.exp(best_logvol)))
