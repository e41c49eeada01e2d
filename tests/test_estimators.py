"""Location/scatter estimators: fixed points, frozen search results, equivariance."""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplab import (ESTIMATORS, AdditiveShift, AllPointsRejected, ContaminationSpec,
                   DegenerateData, InvalidData, LocationScatter, RhoSpec,
                   calibrate_c, coord_median, coord_s, m_location, m_scale,
                   mahalanobis_sq, mcd, mve, rho, s_estimate,
                   sample_contaminated, sample_mean, standard_model)
from oplab import estimators
from oplab.estimators import _moments, c_step
from oplab.numerics import _factor
from oplab.rng import substream

import _coord_s_reference
from _datasets import mcd_cluster_data, mve_small_data, overflowing_data
from _m_reference import estimating_residual, fixed_point_m_location
import _s_reference
import _subset_reference
from _s_weight_reference import s_weight_bounds

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


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=5, max_value=3000),
       st.floats(min_value=0.0, max_value=0.4), st.floats(min_value=-6.0, max_value=6.0),
       st.sampled_from((1, 2, 5)), st.booleans())
def test_m_scale_matches_the_reference_bit_for_bit(seed, n, zeros, log_a, d, ties):
    # the median by partition, odd and even sizes, and each scale evaluated once
    spec = RhoSpec(c=calibrate_c(d, 0.5), convention="scaled-distance")
    rng = substream(seed, 5)
    r = np.abs(rng.normal(size=n)) * 10.0 ** log_a
    if ties:
        r = np.round(r / 10.0 ** log_a, 1) * 10.0 ** log_a
    r[rng.random(n) < zeros] = 0.0
    if np.count_nonzero(r) <= 0.5 * n:
        with pytest.raises(DegenerateData):
            m_scale(r, spec, 0.5)
        return
    assert m_scale(r, spec, 0.5) == _s_reference.m_scale(r, spec, 0.5)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=5, max_value=3000),
       st.floats(min_value=0.0, max_value=0.4), st.floats(min_value=-6.0, max_value=6.0),
       st.sampled_from((1, 2, 5)), st.booleans(), st.floats(min_value=-3.0, max_value=3.0))
def test_warm_m_scale_finds_the_cold_root(seed, n, zeros, log_a, d, ties, log_guess):
    # the warm bracket steps out from any guess within 1e3 of the root, and
    # Brent then stops within its relative tolerance of the cold solve
    spec = RhoSpec(c=calibrate_c(d, 0.5), convention="scaled-distance")
    rng = substream(seed, 8)
    r = np.abs(rng.normal(size=n)) * 10.0 ** log_a
    if ties:
        r = np.round(r / 10.0 ** log_a, 1) * 10.0 ** log_a
    r[rng.random(n) < zeros] = 0.0
    if np.count_nonzero(r) <= 0.5 * n:
        for guess in (10.0 ** (log_a + log_guess), 1e-300, 1.0, 1e300):
            with pytest.raises(DegenerateData):
                m_scale(r, spec, 0.5, guess=guess)
        return
    cold = m_scale(r, spec, 0.5)
    warm = m_scale(r, spec, 0.5, guess=cold * 10.0 ** log_guess)
    assert abs(warm - cold) <= 1e-12 * cold


def test_m_scale_frees_its_buffers_on_return():
    # nothing the solve builds is a reference cycle, so the two residual-sized
    # buffers go when m_scale returns, not when the garbage collector next runs
    r = np.abs(substream(3, 0).normal(size=5000))
    gc.collect()
    gc.disable()
    try:
        m_scale(r, SCAL2, 0.5)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_m_scale_rejects_mostly_zero_residuals():
    with pytest.raises(DegenerateData):
        m_scale(np.zeros(10), SCAL2, 0.5)


def test_m_scale_on_infinite_residuals():
    # rho is 1 at an infinite residual: a root exists while fewer than a
    # share b of the residuals are infinite, even when the median of the
    # nonzero ones is
    r = np.append(np.abs(substream(4, 0).normal(size=59)), np.inf)
    for guess in (None, 1.0):
        s = m_scale(r, SCAL2, 0.5, guess=guess)
        assert float(np.mean(rho(SCAL2, r / s))) == pytest.approx(0.5, abs=1e-11)
    r = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0, np.inf, np.inf, np.inf])
    s = m_scale(r, SCAL2, 0.5)
    assert float(np.mean(rho(SCAL2, r / s))) == pytest.approx(0.5, abs=1e-11)
    for bad in ([1.0, np.nan, 2.0, 3.0], [1.0, np.inf, np.inf, 3.0]):
        with pytest.raises(DegenerateData, match="non-finite squared distances"):
            m_scale(np.array(bad), SCAL2, 0.5)


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


def test_coord_s_is_scale_equivariant_at_extreme_scales():
    # an absolute step test and brentq's absolute xtol stopped small-scale
    # fits early: mu / a at a = 1e-6 missed mu at a = 1 by 1.3e-4 relative
    spec = RhoSpec(c=calibrate_c(1, 0.5), convention="scaled-distance")
    x = substream(0, 2).normal(size=(60, 2))
    x[:6] += 6.0
    ref = coord_s(x, spec)
    for a in (1e-6, 1e-3, 1e6):
        est = coord_s(a * x, spec)
        assert np.allclose(est.mu / a, ref.mu, rtol=1e-9, atol=0.0), a
        assert np.allclose(est.scale / a, ref.scale, rtol=1e-9, atol=0.0), a
        assert est.converged == ref.converged


def test_coord_s_gaussian_consistency():
    spec = RhoSpec(c=calibrate_c(1, 0.5), convention="scaled-distance")
    x = substream(100, 0).normal(size=(10_000, 2))
    est = coord_s(x, spec)
    assert np.max(np.abs(est.mu)) < 0.06
    assert np.max(np.abs(est.scale - 1.0)) < 0.05


def test_coord_s_matches_the_plain_iteration_run_to_its_fixed_point():
    # the extrapolated steps reach the plain iteration's fixed point, on
    # pipeline-shaped data (5 columns, 10,000 rows, cellwise outliers at 10)
    # and at extreme scales; the plain iteration needs 61-64 steps to stop at
    # 1e-11, the extrapolated one at most 15
    ficm = ContaminationSpec("ficm", 0.05, outlier=AdditiveShift(t=10.0))
    x = sample_contaminated(standard_model(5), ficm, 10_000, seed=2).x
    spec = RhoSpec(c=calibrate_c(1, 0.5), convention="scaled-distance")
    for a in (1.0, 1e-6, 1e6):
        est = coord_s(a * x, spec)
        mu, scale, _, stopped = _coord_s_reference.coord_s(a * x, spec, tol=1e-15)
        assert stopped and est.converged, a
        assert np.all(np.abs(est.mu - mu) <= 1e-10 * scale), a
        assert np.all(np.abs(est.scale - scale) <= 1e-10 * scale), a
        assert est.iterations <= 15, a


def test_coord_s_extrapolation_never_ends_above_the_plain_iteration():
    # on columns of 2-4 clusters the scale has several local minima, and the
    # plain iteration (at the package's max_iter and tol) does not stop in 3
    # of these 200; an extrapolated step that would raise the scale is not
    # taken, so the fit never ends at a larger scale and converges wherever
    # the plain iteration does
    spec = RhoSpec(c=calibrate_c(1, 0.5), convention="scaled-distance")
    for i in range(200):
        rng = substream(60 + i, 0)
        col = np.concatenate([rng.normal(rng.uniform(-10.0, 10.0), rng.uniform(0.1, 3.0),
                                         size=int(rng.integers(5, 200)))
                              for _ in range(int(rng.integers(2, 5)))])[:, None]
        est = coord_s(col, spec)
        _, scale, _, stopped = _coord_s_reference.coord_s(col, spec, max_iter=200, tol=1e-11)
        assert est.scale[0] <= scale[0] * (1.0 + 1e-9), i
        assert est.converged or not stopped, i


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


def test_s_estimate_matches_the_checked_reference():
    # the iterations rescale distances instead of recomputing them, so the
    # fit moves within the stopping tolerance: 1e-9 of the largest entry
    c09 = substream(301, 0).normal(size=(80, 3))
    c09[:8] += 5.0
    ficm = ContaminationSpec("ficm", 0.05, outlier=AdditiveShift(t=10.0))
    big = sample_contaminated(standard_model(5), ficm, 10_000, seed=2).x
    for name, x, seed in (("s_fixture", _s_fixture(), 4), ("criterion 09", c09, 4),
                          ("ficm 10k x 5", big, 2)):
        spec = RhoSpec(c=calibrate_c(x.shape[1], 0.5), convention="scaled-distance")
        for a in (1.0, 1e-6, 1e6):
            est = s_estimate(a * x, spec, seed=seed)
            ref = _s_reference.s_estimate(a * x, spec, seed=seed)
            assert np.max(np.abs(est.mu - ref.mu)) <= 1e-9 * np.max(np.abs(ref.mu)), (name, a)
            assert np.max(np.abs(est.sigma - ref.sigma)) <= 1e-9 * np.max(np.abs(ref.sigma)), \
                (name, a)
            assert est.converged == ref.converged, (name, a)
            assert est.objective == pytest.approx(ref.objective, rel=1e-12, abs=1e-12), (name, a)


def test_s_estimate_is_never_worse_than_running_every_start():
    # a start stops once it is within 1e-6 of an optimum an earlier start
    # reached; the reference runs every start to its tolerance.  A log det
    # rise below 1e-10 is what the iterations themselves read as float noise
    for i in range(30):
        rng = substream(400 + i, 0)
        n, d = int(rng.integers(60, 301)), int(rng.integers(2, 9))
        kind = "fdcm" if i % 2 else "ficm"  # rowwise, cellwise
        spec = ContaminationSpec(kind, float(rng.uniform(0.0, 0.2)),
                                 outlier=AdditiveShift(t=float(rng.uniform(3.0, 20.0))))
        x = sample_contaminated(standard_model(d), spec, n, seed=i).x
        rho_spec = RhoSpec(c=calibrate_c(d, 0.5), convention="scaled-distance")
        est = s_estimate(x, rho_spec, seed=i)
        ref = _s_reference.s_estimate(x, rho_spec, seed=i)
        assert est.objective <= ref.objective + 1e-10, i
        assert np.max(np.abs(est.mu - ref.mu)) <= 1e-9 * np.max(np.abs(ref.mu)), i


def test_s_estimate_above_600_rows_is_never_worse_than_running_every_start():
    # above 600 rows a start stops within 1e-2 of a known optimum, not 1e-6;
    # the bounds are those of the test above.  Selective iteration (every
    # start takes 2 steps, the 5 lowest log dets go on) fails here: on the
    # third dataset it ends 0.026 above the reference in log det
    for i in range(6):
        rng = substream(700 + i, 0)
        n, d = int(rng.integers(700, 1501)), int(rng.integers(2, 6))
        kind = "fdcm" if i % 2 else "ficm"
        spec = ContaminationSpec(kind, float(rng.uniform(0.0, 0.2)),
                                 outlier=AdditiveShift(t=float(rng.uniform(3.0, 20.0))))
        x = sample_contaminated(standard_model(d), spec, n, seed=i).x
        rho_spec = RhoSpec(c=calibrate_c(d, 0.5), convention="scaled-distance")
        est = s_estimate(x, rho_spec, seed=i)
        ref = _s_reference.s_estimate(x, rho_spec, seed=i)
        assert est.objective <= ref.objective + 1e-10, i
        assert np.max(np.abs(est.mu - ref.mu)) <= 1e-9 * np.max(np.abs(ref.mu)), i


def test_s_duplicate_radius_widens_above_six_hundred_rows(monkeypatch):
    radii, original = [], estimators._near_known

    def near_known(m, sigma, known, radius=estimators._NEAR):
        radii.append(radius)
        return original(m, sigma, known, radius)

    monkeypatch.setattr(estimators, "_near_known", near_known)
    x = substream(41, 0).normal(size=(601, 2))
    for n, radius in ((600, 1e-6), (601, 1e-2)):
        radii.clear()
        s_estimate(x[:n], SCAL2, seed=1, n_starts=5)
        assert radii and set(radii) == {radius}, n


def test_s_starts_stop_at_a_known_optimum(monkeypatch):
    # every start past the first reaches the one optimum of this fixture, and
    # stops there rather than iterating on to its tolerance
    ends, original = [], estimators._s_iterate

    def iterate(*args):
        ends.append(original(*args))
        return ends[-1]

    monkeypatch.setattr(estimators, "_s_iterate", iterate)
    x = _s_fixture()
    est = s_estimate(x, SCAL2, seed=4)
    starts = ends[:-1]  # the last call refines the winner
    assert starts[0] is not None and all(fit is None for fit in starts[1:])
    assert len(starts) > 5
    ref = _s_reference.s_estimate(x, SCAL2, seed=4)
    assert est.objective == pytest.approx(ref.objective, abs=1e-12)


def test_near_known_optimum_is_affine_invariant():
    rng = substream(9, 4)
    d = 3
    a = rng.normal(size=(d, d)) + 3.0 * np.eye(d)
    b = rng.normal(size=d)
    m0, s0 = rng.normal(size=d), np.cov(rng.normal(size=(20, d)), rowvar=False)
    for gap, spread, near in ((3e-7, 0.0, True), (3e-6, 0.0, False),
                              (0.0, 5e-7, True), (0.0, 5e-6, False)):
        low0 = np.linalg.cholesky(s0)
        m = m0 + gap * low0[:, 0]
        sigma = s0 * (1.0 + spread)
        for mat, shift in ((np.eye(d), np.zeros(d)), (a, b), (1e6 * a, b), (1e-6 * a, b)):
            mm, ss = mat @ m + shift, mat @ sigma @ mat.T
            known = ((mat @ m0 + shift)[None],
                     np.linalg.inv(np.linalg.cholesky(mat @ s0 @ mat.T))[None])
            assert estimators._near_known(mm, ss, known) == near, (gap, spread)


def test_s_iterations_factor_exactly_symmetric_shapes(monkeypatch):
    factored = []

    def factor(sigma):
        factored.append(np.array_equal(sigma, np.swapaxes(sigma, -1, -2)))
        return _factor(sigma)

    monkeypatch.setattr(estimators, "_factor", factor)
    est = s_estimate(_s_fixture(), SCAL2, seed=4)
    assert len(factored) > 100 and all(factored)
    assert np.array_equal(est.sigma, est.sigma.T)


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
    # the log det, as every other mcd fit reports it, not sample_mean's det
    assert est.objective == pytest.approx(math.log(ref.objective), rel=1e-12)
    assert mcd(x[:3]).objective == pytest.approx(np.linalg.slogdet(np.cov(x[:3].T))[1],
                                                 rel=1e-12)


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


def _tie_heavy(n, d, seed):
    """Integer-valued columns with every row duplicated once, so Mahalanobis
    distances tie often, at the h-th place too."""
    rng = substream(seed, 5)
    half = rng.integers(-3, 4, size=(n // 2, d)).astype(float)
    x = np.vstack([half, half[rng.permutation(n // 2)]])
    return x[rng.permutation(n)]


@pytest.mark.parametrize("n", [100, 10_000])
def test_c_step_matches_the_stable_argsort_reference(n):
    d = 3
    x = _tie_heavy(n, d, seed=n)
    rng = substream(n, 6)
    ties_at_h = 0
    for h in (d + 1, (n + d + 1) // 2, n - 1):
        for _ in range(5):
            m, cov = _moments(x[rng.choice(n, size=4 * d, replace=False)])
            if np.linalg.eigvalsh(cov)[0] <= 1e-9:
                continue
            got = c_step(x, m, cov, h)
            ref = _subset_reference.c_step(x, m, cov, h)
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)
            d2 = _subset_reference.mahalanobis_sq(x, m, cov)
            ties_at_h += np.count_nonzero(d2 == np.sort(d2)[h - 1]) > 1
    assert ties_at_h >= 5  # the selection really had to break ties


def _tie_path(d2, h):
    """_concentrate's selection through the cumulative tie count alone."""
    kth = np.partition(d2, h - 1, axis=1)[:, h - 1:h]
    below, ties = d2 < kth, d2 == kth
    room = h - np.count_nonzero(below, axis=1)
    keep = below | (ties & (np.cumsum(ties, axis=1) <= room[:, None]))
    return np.nonzero(keep)[1].reshape(-1, h)


@pytest.mark.parametrize("data", ["tie-free", "tie-heavy"])
def test_concentrate_fast_path_equals_the_tie_path(data):
    n, d, k = 300, 4, 7
    rng = substream(11, 7)
    x = rng.normal(size=(n, d)) if data == "tie-free" else _tie_heavy(n, d, seed=11)
    m, cov = _moments(x[np.array([rng.choice(n, size=3 * d, replace=False) for _ in range(k)])])
    low = _factor(cov)
    tied_chains = 0
    for h in (d + 1, (n + d + 1) // 2, n - 1):
        got, ok = estimators._concentrate(x, m, low, h)
        assert ok.all()
        d2 = estimators._dist_sq(x, m[:, None, :], low)
        assert got.dtype == np.intp
        assert np.array_equal(got, _tie_path(d2, h))
        kth = np.sort(d2, axis=1)[:, h - 1:h]
        tied_chains += np.count_nonzero(np.count_nonzero(d2 <= kth, axis=1) > h)
    # tie-free data takes the fast path only; tie-heavy data needs the tie count
    assert (tied_chains == 0) == (data == "tie-free")


def test_moments_match_np_cov_bit_for_bit():
    rng = substream(7, 0)
    for k in range(300):
        n, d = int(rng.integers(3, 201)), int(rng.integers(1, 16))
        sub = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-6, 6) + rng.normal(size=d)
        if k % 3 == 0:
            sub = np.round(sub)  # ties and repeated values
        m, cov = _moments(sub)
        m_ref, cov_ref = _subset_reference.moments(sub)
        assert np.array_equal(m, m_ref) and np.array_equal(cov, cov_ref)
        assert np.array_equal(cov, cov.T)


def _same_outcome(fit, reference, keys):
    """fit() and reference() return bit-equal fields, or raise the same type."""
    try:
        ref = reference()
    except Exception as exc:
        with pytest.raises(type(exc)):
            fit()
        return False
    got = fit()
    for key in keys:
        assert np.array_equal(getattr(got, key), getattr(ref, key)), key
    return True


@pytest.mark.parametrize("data", ["normal", "tie-heavy"])
def test_subset_searches_match_the_reference(data):
    n, d = 100, 5
    fitted = 0
    for seed in range(30, 38):
        if data == "normal":
            x = substream(seed, 0).normal(size=(n, d))
            x[:15] += 6.0
        else:
            x = _tie_heavy(n, d, seed=seed)
        for h in (None, d + 1, n - 1):
            fitted += _same_outcome(lambda: mcd(x, h=h, n_starts=60, seed=3),
                                    lambda: _subset_reference.mcd(x, h=h, n_starts=60, seed=3),
                                    ("mu", "sigma", "objective", "subset", "iterations",
                                     "converged"))
        fitted += _same_outcome(lambda: mve(x, n_trials=200, seed=3),
                                lambda: _subset_reference.mve(x, n_trials=200, seed=3),
                                ("mu", "sigma", "objective", "iterations"))
    assert fitted >= 8  # most cases fit rather than raise


def test_subset_searches_skip_scatters_the_factorization_rejects():
    # duplicated rows make elemental covariances singular in exact arithmetic,
    # and so are some concentrated subsets; the search must skip the ones the
    # Cholesky factorization rejects rather than raise out of the fit
    x = _tie_heavy(100, 5, seed=31)
    est = mcd(x, n_starts=60, seed=3)
    assert np.all(np.isfinite(est.sigma)) and est.iterations == 60
    assert np.all(np.isfinite(mve(x, n_trials=200, seed=3).sigma))


@pytest.mark.parametrize("seed", [31, 33])
def test_mcd_names_the_exact_fit_it_refuses(seed):
    # with h = d + 1 and every row duplicated, each chain concentrates onto
    # points that lie on a hyperplane, whose covariance is singular
    with pytest.raises(DegenerateData, match="exact fit"):
        mcd(_tie_heavy(100, 5, seed), h=6, n_starts=60, seed=3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", ["mcd", "m", "s"])
def test_overflowing_distances_are_degenerate_data(name):
    # an MCD chain's h-th distance came out NaN, so fewer than h rows were
    # kept, and S's M-scale solve met mostly infinite distances; both raised
    # internal errors
    fit = ESTIMATORS[name]
    with pytest.raises(DegenerateData, match="non-finite squared distances"):
        fit(overflowing_data(), rho=fit.rho(4))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mve_names_the_overflow():
    # on overflowing_data the smallest ellipsoid's volume is past the float
    # range (math.exp raised OverflowError); on another draw every
    # candidate's coverage distance is inf (no candidate "covered the target")
    with pytest.raises(DegenerateData, match="MVE volume overflows"):
        mve(overflowing_data())
    with pytest.raises(DegenerateData, match="non-finite squared distances"):
        mve(overflowing_data(seed=6611))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_one_overflowing_cell_is_outvoted():
    # the row holding 1e200 has an infinite distance from every start, and
    # NaN ones from the elemental starts that contain it: those MCD chains
    # are dropped and the S loss is 1 there, so both fits leave the row out.
    # M's psi there is 0 inf, which made its weight sum NaN ("every point
    # fell beyond the loss truncation"); it too gives the row weight 0
    x = substream(5, 0).normal(size=(200, 3))
    x[7, 1] = 1e200
    fit = mcd(x)
    assert 7 not in fit.subset and np.abs(fit.mu).max() < 1.0
    fit = s_estimate(x, RhoSpec(c=calibrate_c(3, 0.5), convention="scaled-distance"))
    assert fit.weights[7] == 0.0 and np.abs(fit.mu).max() < 1.0
    fit = ESTIMATORS["m"](x, rho=ESTIMATORS["m"].rho(3))
    assert fit.converged and fit.weights[7] == 0.0 and np.abs(fit.mu).max() < 1.0


def test_mcd_matches_the_reference_on_ten_thousand_rows():
    # above 600 rows both screen the starts on a 1500-row sample; at 50
    # starts the screen keeps 10 of them, at 5 it keeps them all
    x = _tie_heavy(10_000, 5, seed=32)
    for n_starts in (5, 50):
        got = mcd(x, n_starts=n_starts, seed=1)
        ref = _subset_reference.mcd(x, n_starts=n_starts, seed=1)
        for key in ("mu", "sigma", "objective", "subset", "iterations", "converged"):
            assert np.array_equal(getattr(got, key), getattr(ref, key)), (n_starts, key)


def _shifted_cluster(n, d, seed, share=0.2, shift=6.0):
    """Gaussian rows, the first share of them moved by shift in every column."""
    x = substream(seed, 0).normal(size=(n, d))
    x[:int(share * n)] += shift
    return x


def test_screened_mcd_is_affine_equivariant():
    # the screen draws its sample by index, so x A^T + b walks the same chains
    x = _shifted_cluster(2000, 3, seed=41)
    e0 = mcd(x, n_starts=50, seed=5)
    for a, b in _transforms(3, 4, seed=8):
        e1 = mcd(x @ a.T + b, n_starts=50, seed=5)
        assert np.array_equal(e1.subset, e0.subset)
        ref = a @ e0.mu + b
        assert np.max(np.abs(e1.mu - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))
        assert e1.converged == e0.converged and e1.iterations == e0.iterations == 50


def test_screened_mcd_leaves_out_a_planted_cluster():
    x = _shifted_cluster(2000, 4, seed=42)
    est = mcd(x, n_starts=50, seed=6)
    assert est.subset.min() >= 400  # the shifted 20% are rows 0..399
    assert np.max(np.abs(est.mu)) < 0.2


def test_mcd_at_six_hundred_rows_is_the_unscreened_search():
    x = _shifted_cluster(600, 3, seed=43)
    got = mcd(x, n_starts=50, seed=7)
    ref = _subset_reference.mcd(x, n_starts=50, seed=7)  # screens above 600 rows only
    for key in ("mu", "sigma", "objective", "subset", "iterations", "converged"):
        assert np.array_equal(getattr(got, key), getattr(ref, key)), key


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
    assert ESTIMATORS["m"].rho(5).c == calibrate_c(5, 0.5, convention="squared-distance")
    assert ESTIMATORS["mcd"].rho(2) is None
    with pytest.raises(ValueError):
        ESTIMATORS["s"](x)  # a loss is required


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_cells_are_rejected(bad):
    x = substream(107, 0).normal(size=(40, 3))
    x[7, 1] = bad
    for name, fit in ESTIMATORS.items():
        with pytest.raises(InvalidData):
            fit(x, rho=fit.rho(3), starts=10)
