"""Location/scatter estimators: fixed points, frozen search results, equivariance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplab import (ESTIMATORS, AllPointsRejected, DegenerateData, InvalidData,
                   LocationScatter, RhoSpec, calibrate_c, coord_median,
                   coord_s, m_location, m_scale, mahalanobis_sq, mcd, mve,
                   rho, s_estimate, s_weight_bounds, sample_mean)
from oplab.estimators import c_step
from oplab.rng import substream

from _datasets import mcd_cluster_data, mve_small_data
from _m_reference import estimating_residual, fixed_point_m_location

SQ = RhoSpec(c=math.sqrt(6.0), convention="squared-distance")
SCAL2 = RhoSpec(c=calibrate_c(2, 0.5), convention="scaled-distance")

# Frozen by tests/make_oracles.py (exhaustive subset enumeration on the
# fixed datasets in tests/_datasets.py).
MCD_BEST_DET = 0.6303181518428277
MCD_BEST_SUBSET = (0, 1, 2, 3, 5, 6, 7, 9, 10, 11, 12)
MVE_BEST_VOLUME = 2.6906421771635225


# ---------------------------------------------------------------------------
# the classical baselines

def test_sample_mean_small():
    x = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    est = sample_mean(x)
    assert np.array_equal(est.mu, [1.0, 1.0])
    assert np.allclose(est.sigma, np.cov(x, rowvar=False))
    assert np.allclose(est.weights, 0.25)


def test_sample_mean_too_few_rows_drops_scatter():
    est = sample_mean(np.array([[1.0, 2.0, 3.0]]))
    assert est.sigma is None
    with pytest.raises(DegenerateData):
        sample_mean(np.zeros((0, 2)))
    with pytest.raises(DegenerateData):
        sample_mean(np.zeros(5))


def test_coord_median_values():
    x = np.array([[1.0, 10.0], [3.0, 30.0], [2.0, -50.0]])
    assert np.array_equal(coord_median(x), [2.0, 10.0])
    even = np.array([[0.0], [1.0], [2.0], [100.0]])
    assert coord_median(even)[0] == 1.5


# ---------------------------------------------------------------------------
# M-scale and the coordinatewise S

@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=0.1, max_value=0.5))
def test_m_scale_solves_the_constraint(seed, b):
    spec = RhoSpec(c=1.5476449810245039, convention="scaled-distance")
    r = np.abs(substream(seed, 0).normal(size=60)) + 1e-3
    s = m_scale(r, spec, b)
    assert s > 0.0
    assert float(np.mean(rho(spec, r / s))) == pytest.approx(b, abs=1e-11)


def test_m_scale_rejects_mostly_zero_residuals():
    with pytest.raises(DegenerateData):
        m_scale(np.zeros(10), SCAL2, 0.5)


def test_coord_s_symmetric_design():
    x = np.array([[-1.0, 5.0], [1.0, 5.0], [-2.0, 7.0], [2.0, 7.0],
                  [-3.0, 4.0], [3.0, 8.0]])
    spec = RhoSpec(c=calibrate_c(1, 0.5), convention="scaled-distance")
    est = coord_s(x, spec)
    assert est.mu[0] == pytest.approx(0.0, abs=1e-9)
    assert est.mu[1] == pytest.approx(6.0, abs=1e-9)
    assert est.converged


def test_coord_s_columnwise_affine_equivariance():
    spec = RhoSpec(c=calibrate_c(1, 0.5), convention="scaled-distance")
    x = substream(12, 0).normal(size=(200, 2))
    a = np.array([3.0, -0.5])
    b = np.array([-7.0, 2.0])
    e0 = coord_s(x, spec)
    e1 = coord_s(x * a + b, spec)
    assert np.max(np.abs(e1.mu - (a * e0.mu + b))) < 1e-8
    assert np.max(np.abs(e1.scale - np.abs(a) * e0.scale)) < 1e-8


def test_coord_s_gaussian_consistency():
    spec = RhoSpec(c=calibrate_c(1, 0.5), convention="scaled-distance")
    x = substream(100, 0).normal(size=(10_000, 2))
    est = coord_s(x, spec)
    assert np.max(np.abs(est.mu)) < 0.06
    assert np.max(np.abs(est.scale - 1.0)) < 0.05


def test_coord_s_degenerate_column():
    x = substream(1, 0).normal(size=(30, 2))
    x[:, 1] = 4.0
    spec = RhoSpec(c=calibrate_c(1, 0.5), convention="scaled-distance")
    with pytest.raises(DegenerateData):
        coord_s(x, spec)
    with pytest.raises(ValueError):
        coord_s(x[:, :1], SQ)


# ---------------------------------------------------------------------------
# location M-estimate at fixed scatter

def test_m_location_symmetric_design_is_origin():
    x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    est = m_location(x, np.eye(2), SQ)
    assert np.max(np.abs(est.mu)) < 1e-12
    assert est.converged


def test_m_location_truncates_far_points():
    x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                  [100.0, 100.0]])
    est = m_location(x, np.eye(2), SQ)
    assert np.max(np.abs(est.mu)) < 1e-12
    assert est.weights[-1] == 0.0


def test_m_location_gaussian_consistency():
    x = substream(101, 0).normal(size=(10_000, 2))
    est = m_location(x, np.eye(2), SQ)
    assert np.linalg.norm(est.mu) < 0.05
    assert est.converged


def test_m_location_rejecting_everything_raises():
    x = substream(6, 0).normal(size=(20, 2)) * 0.1
    with pytest.raises(AllPointsRejected):
        m_location(x, np.eye(2), SQ, start=np.array([50.0, 50.0]))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=-6.0, max_value=6.0),
       st.integers(min_value=1, max_value=3), st.sampled_from([1, 2, 3, 500]))
def test_m_location_converged_is_scale_free(seed, log_a, d, max_iter):
    # converged rests on the residual in the Mahalanobis norm of sigma, which
    # x -> a x + b, sigma -> a^2 sigma leaves alone.  b moves in units of a:
    # a shift far beyond the spread of the data would leave fewer significant
    # digits than a 1e-9 residual test needs.
    rng = substream(seed, 0)
    x = rng.normal(size=(60, d))
    x[:6] += 5.0
    root = 0.5 * rng.normal(size=(d, d))
    sigma = root @ root.T + np.eye(d)
    a, b = 10.0 ** log_a, 10.0 ** log_a * rng.uniform(-5.0, 5.0, size=d)
    e0 = m_location(x, sigma, SQ, max_iter=max_iter)
    e1 = m_location(a * x + b, a * a * sigma, SQ, max_iter=max_iter)
    assert e1.converged == e0.converged


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=12), st.booleans())
def test_m_location_matches_the_fixed_point_iteration(seed, d, shifted, explicit_start):
    # where the weighted-mean iteration converges, the Newton-accelerated
    # solve converges too, to the same root, and never needs more iterations
    rng = substream(seed, 1)
    x = rng.normal(size=(200, d))
    x[:shifted] += 3.0
    root = 0.5 * rng.normal(size=(d, d))
    sigma = root @ root.T + np.eye(d)
    start = x.mean(axis=0) + 0.3 * rng.normal(size=d) if explicit_start else None
    mu_ref, converged_ref, iterations_ref = fixed_point_m_location(x, sigma, SQ, start=start)
    est = m_location(x, sigma, SQ, start=start)
    assert est.iterations <= iterations_ref
    if converged_ref:
        assert est.converged
        assert math.sqrt(mahalanobis_sq(est.mu, mu_ref, sigma)) < 1e-8
    elif est.converged:
        # psi_sq of this loss is not monotone, and the weighted-mean map can
        # cycle around a root that Newton steps reach: then it is a true root
        assert estimating_residual(x, est.mu, sigma, SQ) < 1e-9


@pytest.mark.parametrize("seed", [308, 1081])
def test_m_location_newton_keeps_the_fixed_point_root(seed):
    # a block shifted by 3 sits just outside the truncation radius: from the
    # start, J is nearly singular and its Newton step would land on the
    # block's root instead of the one the weighted-mean iteration reaches
    rng = substream(seed, 1)
    d = 1 + seed % 3
    x = rng.normal(size=(200, d))
    x[:int(rng.integers(0, 41))] += 3.0
    root = 0.5 * rng.normal(size=(d, d))
    sigma = root @ root.T + np.eye(d)
    start = x.mean(axis=0) + 0.3 * rng.normal(size=d) if seed % 2 else None
    mu_ref, converged_ref, iterations_ref = fixed_point_m_location(x, sigma, SQ, start=start)
    est = m_location(x, sigma, SQ, start=start)
    assert converged_ref and est.converged
    assert math.sqrt(mahalanobis_sq(est.mu, mu_ref, sigma)) < 1e-8
    assert est.iterations < iterations_ref


# ---------------------------------------------------------------------------
# multivariate S

def _s_fixture():
    z = substream(102, 0).normal(size=(200, 2))
    z[:20] += 6.0
    return z


def test_s_estimate_satisfies_its_equations():
    z = _s_fixture()
    est = s_estimate(z, SCAL2, seed=4)
    assert est.converged
    dist = np.sqrt(mahalanobis_sq(z, est.mu, est.sigma))
    assert float(np.mean(rho(SCAL2, dist))) == pytest.approx(0.5, abs=1e-8)
    resid = (est.weights[:, None] * (z - est.mu)).sum(axis=0)
    assert np.linalg.norm(resid) < 1e-8
    assert est.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_s_estimate_weight_envelope():
    # scaled weights n * w_i obey the 50%-breakdown envelope: all below the
    # upper bound, and the sub-threshold loss points above the lower bound
    z = _s_fixture()
    est = s_estimate(z, SCAL2, seed=4)
    n = z.shape[0]
    scaled = n * est.weights
    upper, lower = s_weight_bounds(SCAL2, 0.25)
    assert np.all(scaled <= upper + 1e-9)
    dist = np.sqrt(mahalanobis_sq(z, est.mu, est.sigma))
    central = rho(SCAL2, dist) < 1.0 / 1.5
    assert central.mean() >= 0.5
    assert np.all(scaled[central] >= lower - 1e-9)


def test_s_weight_bounds_validation():
    with pytest.raises(ValueError):
        s_weight_bounds(SCAL2, 0.5)
    with pytest.raises(ValueError):
        s_weight_bounds(SCAL2, 0.0)


def test_s_estimate_validation():
    z = _s_fixture()
    with pytest.raises(ValueError):
        s_estimate(z, SQ)
    with pytest.raises(ValueError):
        s_estimate(z, SCAL2, bp=0.7)
    with pytest.raises(DegenerateData):
        s_estimate(z[:2], SCAL2)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=-6.0, max_value=6.0))
def test_s_estimate_converged_is_scale_free(seed, log_a):
    # as for m_location: converged judges the weighted-mean equation in the
    # Mahalanobis norm of the returned sigma, which x -> a x + b leaves alone
    rng = substream(seed, 2)
    x = rng.normal(size=(60, 2))
    x[:6] += 6.0
    a, b = 10.0 ** log_a, 10.0 ** log_a * rng.uniform(-5.0, 5.0, size=2)
    e0 = s_estimate(x, SCAL2, seed=4, n_starts=5)
    e1 = s_estimate(a * x + b, SCAL2, seed=4, n_starts=5)
    assert e1.converged == e0.converged


def test_s_estimate_converged_at_extreme_scales():
    # an absolute residual test reported False at 1e6 on this fixture; at
    # 1e-6 an absolute polishing tolerance stopped short of the 1e-8 residual
    z = _s_fixture()
    for a in (1e-6, 1.0, 1e4, 1e6):
        assert s_estimate(a * z, SCAL2, seed=4, n_starts=5).converged, a


def test_s_estimate_is_scale_equivariant_at_extreme_scales():
    # an absolute step test stopped the main loop early at small scales, and
    # mu / a at a = 1e-6 then differed from mu at a = 1 in the sixth digit
    x = substream(0, 2).normal(size=(60, 2))
    x[:6] += 6.0
    ref = s_estimate(x, SCAL2, seed=4, n_starts=5)
    for a in (1e-6, 1e6):
        est = s_estimate(a * x, SCAL2, seed=4, n_starts=5)
        assert np.allclose(est.mu / a, ref.mu, rtol=1e-9, atol=0.0), a
        assert np.allclose(est.sigma / a**2, ref.sigma, rtol=1e-9, atol=0.0), a


def test_s_estimate_resists_the_shifted_block():
    z = _s_fixture()
    est = s_estimate(z, SCAL2, seed=4)
    assert np.linalg.norm(est.mu) < 0.5
    naive = sample_mean(z)
    assert np.linalg.norm(naive.mu) > 0.5


# ---------------------------------------------------------------------------
# MCD

def test_mcd_with_full_subset_is_the_sample_estimate():
    x = substream(103, 1).normal(size=(25, 2))
    est = mcd(x, h=25)
    ref = sample_mean(x)
    assert np.array_equal(est.mu, ref.mu)
    assert np.array_equal(est.sigma, ref.sigma)
    assert np.array_equal(est.subset, np.arange(25))


def test_mcd_matches_exhaustive_search():
    x = mcd_cluster_data()
    est = mcd(x, n_starts=3000, seed=17)
    assert tuple(int(i) for i in est.subset) == MCD_BEST_SUBSET
    assert math.exp(est.objective) == pytest.approx(MCD_BEST_DET, rel=1e-12)


def test_mcd_ignores_the_planted_cluster():
    x = mcd_cluster_data()
    est = mcd(x, n_starts=500, seed=3)
    assert np.linalg.norm(est.mu) < 1.0
    assert np.linalg.norm(sample_mean(x).mu) > 2.0


def test_mcd_weights_are_subset_indicators():
    x = mcd_cluster_data()
    est = mcd(x, n_starts=200, seed=3)
    n = x.shape[0]
    h = est.subset.size
    assert h == (n + x.shape[1] + 1) // 2
    vals = np.unique(est.weights)
    assert np.allclose(np.sort(vals), [0.0, 1.0 / h])
    scaled = n * est.weights
    assert set(np.round(scaled[scaled > 0], 12)) == {round(n / h, 12)}
    assert 1.0 <= n / h <= 2.0


def test_mcd_flags_chains_cut_by_the_cstep_cap():
    x = substream(105, 0).normal(size=(100, 15))
    cut = mcd(x, n_starts=20, seed=0, max_csteps=1)
    full = mcd(x, n_starts=20, seed=0)
    assert not cut.converged
    assert full.converged
    assert full.objective < cut.objective


def test_mcd_h_validation():
    x = substream(103, 2).normal(size=(10, 2))
    with pytest.raises(DegenerateData):
        mcd(x, h=2)
    with pytest.raises(DegenerateData):
        mcd(x, h=11)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_concentration_steps_never_raise_the_determinant(seed):
    rng = substream(seed, 3)
    n, d = 40, 3
    x = rng.normal(size=(n, d))
    x[: n // 5] += rng.normal(scale=4.0, size=d)
    h = (n + d + 1) // 2
    idx = rng.choice(n, size=d + 1, replace=False)
    m = x[idx].mean(axis=0)
    cov = np.cov(x[idx], rowvar=False)
    if np.linalg.det(cov) <= 1e-12:
        return
    logdets = []
    for _ in range(25):
        subset = c_step(x, m, cov, h)
        m = x[subset].mean(axis=0)
        cov = np.cov(x[subset], rowvar=False)
        sign, logdet = np.linalg.slogdet(cov)
        assert sign > 0
        logdets.append(logdet)
    assert np.all(np.diff(logdets) <= 1e-10)
    # a fixed point is reached well before the cap
    assert logdets[-1] == pytest.approx(logdets[-5], abs=1e-12)


# ---------------------------------------------------------------------------
# MVE

def test_mve_matches_exhaustive_search():
    x = mve_small_data()
    est = mve(x, n_trials=400, seed=17)
    assert est.objective == pytest.approx(MVE_BEST_VOLUME, rel=1e-12)


def test_mve_centers_on_the_majority_cluster():
    # the 20 tight points already cover ceil((28+3)/2) = 16, so the optimal
    # ellipsoid never needs the ring and stays near the origin
    rng = substream(104, 0)
    theta = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    ring = 3.0 * np.column_stack([np.cos(theta), np.sin(theta)])
    x = np.vstack([rng.normal(scale=0.05, size=(20, 2)), ring])
    est = mve(x, n_trials=300, seed=9)
    assert np.linalg.norm(est.mu) < 0.1


def test_mve_stays_with_the_bulk():
    x = mve_small_data()
    est = mve(x, n_trials=400, seed=17)
    assert np.linalg.norm(est.mu) < 1.5
    assert np.linalg.norm(x[-3:].mean(axis=0)) > 5.0


def test_mve_beats_the_classical_shape():
    x = mve_small_data()
    n, d = x.shape
    cover = math.ceil((n + d + 1) / 2)
    m = x.mean(axis=0)
    cov = np.cov(x, rowvar=False)
    m2 = np.sort(mahalanobis_sq(x, m, cov))[cover - 1]
    classical = math.sqrt(np.linalg.det(cov)) * m2 ** (d / 2)
    est = mve(x, n_trials=400, seed=17)
    assert est.objective <= classical + 1e-12
    # and its ellipsoid really covers the target count
    inside = mahalanobis_sq(x, est.mu, est.sigma) <= 1.0 + 1e-9
    assert inside.sum() >= cover


def test_mve_needs_enough_rows():
    with pytest.raises(DegenerateData):
        mve(np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# equivariance

def _transforms(d, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a = rng.normal(size=(d, d))
        if abs(np.linalg.det(a)) > 0.3:
            out.append((a, rng.normal(size=d) * 3.0))
    return out


def _equivariant_fit(name, x):
    spec3 = RhoSpec(c=calibrate_c(3, 0.5), convention="scaled-distance")
    if name == "mean":
        return sample_mean(x)
    if name == "m":
        return m_location(x, np.cov(x, rowvar=False), SQ)
    if name == "s":
        return s_estimate(x, spec3, seed=11)
    if name == "mcd":
        return mcd(x, n_starts=500, seed=11)
    return mve(x, n_trials=400, seed=11)


@pytest.mark.parametrize("name", ["mean", "m", "s", "mcd", "mve"])
def test_affine_equivariance(name):
    base = substream(103, 0).normal(size=(80, 3))
    base[:8] *= 5.0
    e0 = _equivariant_fit(name, base)
    for a, b in _transforms(3, 4, seed=7):
        e1 = _equivariant_fit(name, base @ a.T + b)
        assert np.max(np.abs(e1.mu - (a @ e0.mu + b))) < 1e-6
        if name != "mve":  # MVE reports sigma at its own coverage radius
            ref = a @ e0.sigma @ a.T
            assert np.max(np.abs(e1.sigma - ref)) < 1e-6 * max(1.0, np.max(np.abs(ref)))


def test_coord_median_is_not_rotation_equivariant():
    w = substream(104, 0).normal(size=(200, 2))
    w[:, 1] = 0.9 * w[:, 0] + 0.44 * w[:, 1]
    w[:30] += np.array([4.0, -4.0])
    th = np.pi / 4
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    gap = np.max(np.abs(coord_median(w @ rot.T) - rot @ coord_median(w)))
    assert gap > 0.1


# ---------------------------------------------------------------------------
# the registry

def test_registry_fits_every_estimator():
    x = substream(106, 0).normal(size=(60, 2))
    for name, fit in ESTIMATORS.items():
        est = fit(x, rho=fit.rho(2), seed=3)
        assert isinstance(est, LocationScatter), name
        assert est.mu.shape == (2,), name
        assert np.max(np.abs(est.mu)) < 0.6, name
    assert ESTIMATORS["coord_s"](x, rho=ESTIMATORS["coord_s"].rho(2)).scale.shape == (2,)
    assert ESTIMATORS["coord_s"].rho(5).c == calibrate_c(1, 0.5)
    assert ESTIMATORS["s"].rho(5).c == calibrate_c(5, 0.5)
    assert ESTIMATORS["m"].rho(5).c == math.sqrt(6.0)
    assert ESTIMATORS["mcd"].rho(2) is None
    with pytest.raises(ValueError):
        ESTIMATORS["s"](x)  # a loss is required
    with pytest.raises(ValueError):
        ESTIMATORS["m"](x, rho=SQ, scatter="robust")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_cells_are_rejected(bad):
    x = substream(107, 0).normal(size=(40, 3))
    x[7, 1] = bad
    for name, fit in ESTIMATORS.items():
        with pytest.raises(InvalidData):
            fit(x, rho=fit.rho(3), starts=10)
