"""Influence functions, their Monte Carlo machinery, and sensitivity search."""

import importlib
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from scipy import optimize

from oplab import (EllipticalModel, InfluenceContext, InfluenceResult, MonteCarlo,
                   RhoSpec, a_psi, calibrate_c, coord_m_fit, equicorrelated_model, ges,
                   if_fdcm, if_ficm, if_numeric, if_psicm, influence, m_location_fit,
                   mahalanobis_sq, psi_sq, psi_sq_prime, standard_model, truncation_sq)
from oplab.influence import _PATH_FICM, _PATH_PSICM, _cell_profile, _ficm_core

import _ficm_reference
from _patterns import PatternSampler, g_function

# the module, which the package's `influence` function shadows as an attribute
influence_module = importlib.import_module("oplab.influence")

SQ = RhoSpec(c=math.sqrt(6.0), convention="squared-distance")
RHO1 = RhoSpec(c=1.5476449810245039, convention="scaled-distance")
RHO2 = RhoSpec(c=2.6608033926979555, convention="scaled-distance")

# Frozen by tests/make_oracles.py.
GES_FDCM_D2 = 2.3906723751055754       # sup-norm, d=2, 50%-calibrated loss
GES_FDCM_D2_RADIUS = 1.1899471980603271
FLAT_COORD_GES = 2.8499468517647566    # univariate 50% loss, unit marginals
FICM_DIRECT_IF = (2.9480966727775395, 0.6367716334533274)   # z=(1, 0.3), d=2
FICM_DIRECT_SE = (0.0022237009071411806, 0.0012075470546344272)


def _ctx(kind, d=2, rho=SQ, r=0.0, **mc_kw):
    """A context on the standard model, or at r != 0 on the equicorrelated
    one, whose cellwise paths run the Monte Carlo core."""
    mc = MonteCarlo(**mc_kw) if mc_kw else None
    model = standard_model(d) if r == 0.0 else equicorrelated_model(d, r)
    return InfluenceContext(model, rho, kind=kind, mc=mc)


# ---------------------------------------------------------------------------
# construction and validation

def test_context_validation():
    with pytest.raises(ValueError):
        _ctx("rowwise")
    with pytest.raises(ValueError):
        MonteCarlo(n_draws=0)
    with pytest.raises(ValueError):
        a_psi(SQ, 0)
    with pytest.raises(ValueError):
        if_fdcm([1.0, 2.0, 3.0], _ctx("fdcm"))


def test_pattern_sampler_validation():
    model = standard_model(2)
    with pytest.raises(ValueError):
        PatternSampler(model, (2,), np.zeros(2))
    with pytest.raises(ValueError):
        PatternSampler(model, (0, 0), np.zeros(2))
    pin = PatternSampler(model, (1,), np.array([0.0, 9.0]))
    x = pin.sample(100, np.random.default_rng(0))
    assert np.all(x[:, 1] == 9.0)
    assert np.std(x[:, 0]) > 0.5
    assert not pin.is_point_mass
    assert PatternSampler(model, (0, 1), np.zeros(2)).is_point_mass


# ---------------------------------------------------------------------------
# g-function

def test_g_function_point_mass_is_exact():
    model = standard_model(2)
    z = np.array([1.0, 0.5])
    m = np.array([0.2, -0.1])
    res = g_function(PatternSampler(model, (0, 1), z), m, np.eye(2), SQ,
                     MonteCarlo(n_draws=10))
    expect = psi_sq(SQ, mahalanobis_sq(z, m, np.eye(2))) * (z - m)
    assert np.array_equal(res.value, expect)
    assert np.array_equal(res.stderr, np.zeros(2))


def test_g_function_clean_model_is_centered():
    model = standard_model(2)
    res = g_function(PatternSampler(model, (), np.zeros(2)), model.mu0,
                     model.sigma0, SQ, MonteCarlo(n_draws=200_000, seed=6))
    assert np.all(np.abs(res.value) < 4.0 * res.stderr + 1e-12)


def test_g_function_pinning_a_coordinate_at_its_mean():
    model = standard_model(3)
    z = np.array([0.0, 0.0, 0.0])  # z_0 = mu0_0
    res = g_function(PatternSampler(model, (0,), z), model.mu0, model.sigma0,
                     SQ, MonteCarlo(n_draws=100_000, seed=8))
    assert res.value[0] == 0.0  # the pinned deviation is identically zero
    assert np.all(np.abs(res.value) < 4.0 * res.stderr + 1e-12)


def test_g_function_shares_draws_across_z():
    # the substream depends on the pattern only, so nearby z reuse the sample
    model = standard_model(2)
    mc = MonteCarlo(n_draws=20_000, seed=3)
    a = g_function(PatternSampler(model, (0,), np.array([1.0, 0.0])),
                   model.mu0, model.sigma0, SQ, mc)
    b = g_function(PatternSampler(model, (0,), np.array([1.0 + 1e-9, 0.0])),
                   model.mu0, model.sigma0, SQ, mc)
    assert np.max(np.abs(a.value - b.value)) < 1e-8


# ---------------------------------------------------------------------------
# row-replacement influence: exact formulas

def test_if_fdcm_closed_form():
    ctx = _ctx("fdcm")
    z = np.array([1.0, 0.3])
    res = if_fdcm(z, ctx)
    expect = psi_sq(SQ, float(z @ z)) * z / ctx.a_psi
    assert np.allclose(res.value, expect, atol=1e-15)
    assert np.array_equal(res.stderr, np.zeros(2))


def test_if_fdcm_zero_at_center_and_beyond_truncation():
    ctx = _ctx("fdcm")
    assert np.array_equal(if_fdcm([0.0, 0.0], ctx).value, np.zeros(2))
    # squared distance 4 + 0 exceeds the cutoff sqrt(6)
    assert np.array_equal(if_fdcm([2.0, 0.0], ctx).value, np.zeros(2))


# ---------------------------------------------------------------------------
# cellwise influence

def test_if_ficm_centered_at_mu0():
    res = if_ficm([0.0, 0.0], _ctx("ficm", n_draws=100_000, seed=4))
    assert np.all(np.abs(res.value) <= 4.0 * res.stderr + 1e-12)


def test_if_ficm_equals_if_fdcm_in_dimension_one():
    ctx = _ctx("ficm", d=1, n_draws=50_000, seed=3)
    ref = _ctx("fdcm", d=1)
    for z in (0.5, 1.0, 1.4):
        a = if_ficm([z], ctx)
        b = if_fdcm([z], ref)
        assert abs(a.value[0] - b.value[0]) < 1e-12
        assert a.stderr[0] < 1e-15


def test_if_ficm_matches_direct_per_pattern_estimate():
    # frozen reference: per-pattern replacement draws, no shared-sample trick
    res = if_ficm([1.0, 0.3], _ctx("ficm"))
    gap = np.abs(res.value - np.array(FICM_DIRECT_IF))
    band = 4.0 * np.sqrt(res.stderr**2 + np.array(FICM_DIRECT_SE) ** 2)
    assert np.all(gap < band)


@pytest.mark.parametrize("model", [standard_model(3), equicorrelated_model(3, 0.5)])
def test_if_ficm_matches_the_pattern_by_pattern_oracle(model):
    # the shared-sample core against one separate draw set per single-cell
    # pattern: IF = sum_k g({k}) / a_psi
    z = np.array([1.2, -0.4, 0.8])
    ctx = InfluenceContext(model, SQ, kind="ficm", mc=MonteCarlo(n_draws=100_000, seed=4))
    got = if_ficm(z, ctx)
    mc = MonteCarlo(n_draws=100_000, seed=5)
    parts = [g_function(PatternSampler(model, (k,), z), model.mu0, model.sigma0, SQ, mc)
             for k in range(3)]
    ref = sum(p.value for p in parts) / ctx.a_psi
    ref_se = np.sqrt(sum(p.stderr**2 for p in parts)) / ctx.a_psi
    assert np.all(np.abs(got.value - ref) < 4.0 * np.sqrt(got.stderr**2 + ref_se**2))


def test_if_ficm_vanishes_when_every_cell_lands_far():
    # each single-cell replacement alone already exceeds the truncation
    res = if_ficm([5.0, 5.0], _ctx("ficm", n_draws=20_000, seed=2))
    assert np.array_equal(res.value, np.zeros(2))
    assert np.array_equal(res.stderr, np.zeros(2))


def test_if_ficm_ridge_persistence():
    # moderate first cell, second cell far: the far pattern dies, the
    # moderate one stays, and common random numbers make the tail exact
    ctx = _ctx("ficm", n_draws=100_000, seed=9)
    a = if_ficm([1.0, 100.0], ctx)
    b = if_ficm([1.0, 1000.0], ctx)
    assert np.array_equal(a.value, b.value)
    assert 1.0 < a.norm < 5.0


def test_if_ficm_is_reproducible():
    a = if_ficm([0.7, -0.2], _ctx("ficm", r=0.5, n_draws=30_000, seed=5))
    b = if_ficm([0.7, -0.2], _ctx("ficm", r=0.5, n_draws=30_000, seed=5))
    assert np.array_equal(a.value, b.value)
    assert np.array_equal(a.stderr, b.stderr)
    c = if_ficm([0.7, -0.2], _ctx("ficm", r=0.5, n_draws=30_000, seed=6))
    assert not np.array_equal(a.value, c.value)


def test_if_psicm_averages_row_and_cell_paths():
    # on a correlated model the cell half runs the Monte Carlo core on its
    # own substream, so this is a two-estimate consistency check, not an
    # arithmetic identity
    kw = dict(r=0.5, n_draws=100_000, seed=77)
    ctx_p, ctx_f, ctx_r = _ctx("psicm", **kw), _ctx("ficm", **kw), _ctx("fdcm", r=0.5)
    for z1 in (-1.5, -0.5, 0.5, 1.5):
        for z2 in (-1.0, 0.0, 1.0, 2.0, 3.0):
            z = [z1, z2]
            ps, fi, fd = if_psicm(z, ctx_p), if_ficm(z, ctx_f), if_fdcm(z, ctx_r)
            avg = 0.5 * (fd.value + fi.value)
            band = 4.0 * np.sqrt(ps.stderr**2 + (0.5 * fi.stderr) ** 2) + 1e-12
            assert np.all(np.abs(ps.value - avg) < band)


def test_psicm_and_ficm_contexts_draw_from_their_own_substreams():
    # a context's draws follow its kind: psicm's own, and one set for every
    # independent-cell kind.  On one shared set criterion 05's comparison of
    # if_psicm with the average of if_fdcm and if_ficm would hold bit for bit
    kw = dict(r=0.5, n_draws=2_000, seed=77)
    ctx_p, ctx_f = _ctx("psicm", **kw), _ctx("ficm", **kw)
    assert not np.array_equal(ctx_p._draws[0], ctx_f._draws[0])
    for kind in ("pcicm-i", "pcicm-ii"):
        assert np.array_equal(_ctx(kind, **kw)._draws[0], ctx_f._draws[0])
    z = [0.5, 1.0]
    fd = if_fdcm(z, _ctx("fdcm", r=0.5))
    assert not np.array_equal(if_psicm(z, ctx_p).value,
                              0.5 * (fd.value + if_ficm(z, ctx_f).value))


def test_if_psicm_far_rows_leave_half_the_cell_value():
    # z = (1, 100): the full-row distance exceeds truncation, so only the
    # cell half contributes
    kw = dict(n_draws=60_000, seed=13)
    ps = if_psicm([1.0, 100.0], _ctx("psicm", **kw))
    fd = if_fdcm([1.0, 100.0], _ctx("fdcm"))
    assert np.array_equal(fd.value, np.zeros(2))
    assert ps.norm > 0.5


def test_if_pcicm_is_the_cellwise_path():
    kw = dict(n_draws=30_000, seed=5)
    a = influence([1.0, 0.3], _ctx("pcicm-i", **kw))
    b = if_ficm([1.0, 0.3], _ctx("ficm", **kw))
    assert np.array_equal(a.value, b.value)
    c = influence([1.0, 0.3], _ctx("pcicm-ii", **kw))
    assert np.array_equal(c.value, b.value)


def _reference_case(d, convention):
    """The reference tests' rho, truncation radius and points: inside, on
    and beyond the truncation, and the +-1e200 ones."""
    rho = RhoSpec(c=calibrate_c(d, 0.5, convention=convention), convention=convention)
    r = math.sqrt(truncation_sq(rho))
    ones = np.ones(d) / math.sqrt(d)
    axis = np.eye(d)[0]
    points = [0.3 * r * ones, 0.8 * r * axis, r * axis, r * ones, 3.0 * r * ones,
              np.full(d, 50.0 * r), -0.6 * r * ones + 40.0 * r * axis,
              np.full(d, 1e200), np.full(d, -1e200), 1e200 * axis + 0.2 * ones]
    return rho, r, ones, points


@pytest.mark.parametrize("convention", ["squared-distance", "scaled-distance"])
@pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 8, 9, 10, 15, 16, 17])
def test_ficm_core_matches_the_reference_to_rounding(d, convention):
    # the package sums over draws in another float order than the plain (n, d)
    # reference, so the two agree to rounding: the value within 1e-12 of the
    # largest reference component, the stderr within 1e-10 relative.  From
    # d = 15 on, the draws span two blocks of the core, the last one partial
    rho, r, ones, points = _reference_case(d, convention)
    mc = MonteCarlo(n_draws=9097, seed=d)

    def close(got, ref):
        return (np.all(np.abs(got.value - ref.value) <= 1e-12 * np.max(np.abs(ref.value)))
                and np.all(np.abs(got.stderr - ref.stderr) <= 1e-10 * ref.stderr))

    for model in (standard_model(d), equicorrelated_model(d, 0.5)):
        for kind, path in (("ficm", _PATH_FICM), ("psicm", _PATH_PSICM)):
            ctx = InfluenceContext(model, rho, kind=kind, mc=mc)
            for z in points:
                with np.errstate(over="ignore", invalid="ignore"):  # the 1e200 points
                    got = _ficm_core(z, ctx)
                    ref = _ficm_reference.ficm_core(z, ctx, path)
                assert np.all(np.isfinite(got.value)) and np.all(np.isfinite(got.stderr))
                assert close(got, ref), (z, kind)
    # the psicm path end to end, through its own context on the correlated
    # model; at d = 1 every scatter is diagonal, and influence is exact
    if d > 1:
        ctx = InfluenceContext(equicorrelated_model(d, 0.5), rho, kind="psicm", mc=mc)
        z = 0.5 * r * ones
        got = influence(z, ctx)
        row = if_fdcm(z, ctx)
        cell = _ficm_reference.ficm_core(z, ctx, _PATH_PSICM)
        assert close(got, InfluenceResult(z=z, value=0.5 * (row.value + cell.value),
                                          stderr=0.5 * cell.stderr))


@pytest.mark.parametrize("convention", ["squared-distance", "scaled-distance"])
@pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 8, 9, 10, 15, 16, 17])
def test_ficm_core_matches_the_reference_bit_for_bit(d, convention):
    # what still holds bit for bit on the reference cases: the core's cached
    # draws are the reference's own draws of the model; and a result does not
    # depend on what the scratch buffers held before (the points run forward,
    # then backward, and the +-1e200 ones take the NaN-zeroing branch), over
    # two blocks of draws from d = 15 on
    rho, r, ones, points = _reference_case(d, convention)
    mc = MonteCarlo(n_draws=9097, seed=d)
    for model in (standard_model(d), equicorrelated_model(d, 0.5)):
        for kind, path in (("ficm", _PATH_FICM), ("psicm", _PATH_PSICM)):
            ctx = InfluenceContext(model, rho, kind=kind, mc=mc)
            ydev = ctx._draws[0]
            assert np.array_equal(ydev, (_ficm_reference.draws(ctx, path) - model.mu0).T)
            with np.errstate(over="ignore", invalid="ignore"):  # the 1e200 points
                forward = [_ficm_core(z, ctx) for z in points]
                backward = [_ficm_core(z, ctx) for z in reversed(points)][::-1]
            for z, f, b in zip(points, forward, backward):
                assert np.all(np.isfinite(f.value)) and np.all(np.isfinite(f.stderr))
                assert np.array_equal(f.value, b.value), (z, kind)
                assert np.array_equal(f.stderr, b.stderr), (z, kind)


def _diagonal_models(d):
    """standard_model(d), and a shifted model with variances 1, 4, 0.25, ..."""
    return standard_model(d), EllipticalModel(mu0=np.linspace(-1.0, 2.0, d),
                                              sigma0=np.diag(np.resize([1.0, 4.0, 0.25], d)))


def _diagonal_points(model, points):
    """The reference points in each coordinate's own scale, about mu0."""
    return [model.mu0 + np.sqrt(np.diag(model.sigma0)) * p for p in points]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("convention", ["squared-distance", "scaled-distance"])
@pytest.mark.parametrize("d", [1, 2, 5, 10])
def test_diagonal_scatter_influence_is_the_exact_form(d, convention):
    # the cellwise kinds on a diagonal scatter against the scipy quad oracle:
    # within 1e-10 of the largest reference component, with stderr 0, and
    # without a numpy warning at the 1e200 points
    rho, _, _, points = _reference_case(d, convention)
    for model in _diagonal_models(d):
        for kind in ("ficm", "pcicm-i", "pcicm-ii", "psicm"):
            ctx = InfluenceContext(model, rho, kind=kind)
            for z in _diagonal_points(model, points):
                got = influence(z, ctx)
                ref = _ficm_reference.exact_value(z, model, rho, kind)
                assert np.all(np.abs(got.value - ref) <= 1e-10 * np.max(np.abs(ref))), \
                    (kind, z)
                assert np.array_equal(got.stderr, np.zeros(d))


@pytest.mark.parametrize("convention", ["squared-distance", "scaled-distance"])
@pytest.mark.parametrize("d", [1, 2, 5, 10])
def test_ficm_core_estimates_the_exact_form(d, convention):
    # the Monte Carlo core on the same diagonal scatters: within 4 stderr of
    # the exact form at every component of every reference point, plus 1e-12
    # (the values are of order one) for the noiseless d = 1, where the core
    # prices a point on the truncation at a rounding error above 0
    rho, _, _, points = _reference_case(d, convention)
    mc = MonteCarlo(n_draws=20_000, seed=d)
    for model in _diagonal_models(d):
        ctx = InfluenceContext(model, rho, kind="ficm", mc=mc)
        for z in _diagonal_points(model, points):
            exact = influence(z, ctx).value
            with np.errstate(over="ignore", invalid="ignore"):  # the 1e200 points
                got = _ficm_core(z, ctx)
            band = 4.0 * got.stderr + 1e-12
            assert np.all(np.abs(got.value - exact) <= band), z


def _assert_exact_ges(model, rho, monkeypatch):
    """ges of the independent-cell kinds on a diagonal scatter against the
    oracle, with no influence evaluated: the value within 1e-10, the argmax
    t* sigma and its ray's radius t* |sigma| within 1e-9, relative.  Returns
    the value."""
    def searched(*args):
        raise AssertionError("the exact GES evaluated the influence")

    monkeypatch.setattr(influence_module, "influence", searched)
    sd = np.sqrt(np.diag(model.sigma0))
    value, t_star = _ficm_reference.ficm_ges(rho, sd)
    for kind in ("ficm", "pcicm-i", "pcicm-ii"):
        ctx = InfluenceContext(model, rho, kind=kind)
        res = ges(ctx)
        assert res.value == pytest.approx(value, rel=1e-10), kind
        assert res.argmax_z == pytest.approx(model.mu0 + t_star * sd, rel=1e-9), kind
        [(label, best_t, best_norm)] = res.rays
        assert label == "sigma" and best_norm == res.value
        assert best_t == pytest.approx(t_star * float(np.linalg.norm(sd)), rel=1e-9)
        assert influence(res.argmax_z, ctx).norm == pytest.approx(res.value, rel=1e-12)
    return value


@pytest.mark.parametrize("convention", ["squared-distance", "scaled-distance"])
@pytest.mark.parametrize("d", [1, 2, 5, 10])
def test_ficm_ges_on_the_standard_model_is_the_exact_maximum(d, convention, monkeypatch):
    # the norm is largest on the diagonal, every coordinate at the argmax of
    # t h(t), so ges must return sqrt(d) max_t t h(t) / a_psi there
    rho = RhoSpec(c=calibrate_c(d, 0.5, convention=convention), convention=convention)
    _assert_exact_ges(standard_model(d), rho, monkeypatch)


@pytest.mark.parametrize("convention", ["squared-distance", "scaled-distance"])
def test_ficm_ges_on_a_diagonal_scatter_is_the_exact_maximum(convention, monkeypatch):
    # on diag(1, 4, 0.25) the worst point t* sigma lies on neither the first
    # axis nor the unit diagonal; the GES is |sigma| t* h(t*) / a_psi, 3.7613
    # under the 50%-calibrated S loss
    rho = RhoSpec(c=calibrate_c(3, 0.5, convention=convention), convention=convention)
    model = EllipticalModel(mu0=np.zeros(3), sigma0=np.diag([1.0, 4.0, 0.25]))
    value = _assert_exact_ges(model, rho, monkeypatch)
    if convention == "scaled-distance":
        assert round(value, 4) == 3.7613


def test_ficm_results_are_not_views_of_the_scratch_buffers():
    ctx = _ctx("ficm", d=3, r=0.5, n_draws=5_000, seed=8)
    first = if_ficm([0.9, -0.4, 0.2], ctx)
    value, stderr = first.value.copy(), first.stderr.copy()
    second = if_ficm([1.5, 0.7, -1.1], ctx)
    assert not np.array_equal(second.value, value)
    assert np.array_equal(first.value, value)
    assert np.array_equal(first.stderr, stderr)


@pytest.mark.parametrize("convention", ["squared-distance", "scaled-distance"])
def test_psi_at_an_overflowing_distance_is_zero_in_silence(convention):
    # past 1e154 the squared distance squares to inf, and at 1e200 in a cell
    # it is inf itself: psi and psi' are 0 there, and the squared law's
    # 0 * inf must not warn on the way
    rho = RhoSpec(c=2.0, convention=convention)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = np.array([1e160, 1e300, np.inf])
        assert np.array_equal(psi_sq(rho, s), np.zeros(3))
        assert np.array_equal(psi_sq_prime(rho, s), np.zeros(3))
        for kind in ("fdcm", "psicm"):
            for z in ([1e200, 1e200], [1e100, 0.0], [-1e200, 3.0]):
                got = influence(z, InfluenceContext(standard_model(2), rho, kind=kind))
                assert np.array_equal(got.value, np.zeros(2))


def test_influence_dispatch():
    z = [0.9, 0.1]
    assert np.array_equal(influence(z, _ctx("fdcm")).value,
                          if_fdcm(z, _ctx("fdcm")).value)


# ---------------------------------------------------------------------------
# finite-epsilon slopes

def test_if_numeric_recovers_the_closed_form():
    ctx = _ctx("fdcm", n_draws=20_000, seed=5)
    num = if_numeric([1.0, 0.3], ctx, n_boot=4)
    ref = if_fdcm([1.0, 0.3], _ctx("fdcm"))
    assert np.all(np.abs(num.value - ref.value) < 4.0 * num.stderr + 0.05)
    assert np.all(num.stderr > 0.0)


@pytest.mark.parametrize("make_fit", [m_location_fit, coord_m_fit])
def test_if_numeric_reuses_draws_and_clean_fits_bit_for_bit(make_fit, monkeypatch):
    # each kind's call, cold, is its call after the other kinds filled the
    # cache with their draws and clean fits (the clean fits are shared: the
    # rows and the estimator are the same); a fresh factory's fit is equal
    # to the last one, so the warm calls make no clean fit at all
    model = equicorrelated_model(2, 0.5)
    z = [1.0, -0.4]
    kinds = ("fdcm", "ficm", "psicm")

    class Unhashable:  # never memoized: every clean fit made afresh
        __hash__ = None

        def __call__(self, x):
            return make_fit(model, SQ)(x)

    def call(kind, estimator=None):
        ctx = InfluenceContext(model, SQ, kind=kind, mc=MonteCarlo(n_draws=4_000, seed=8))
        return if_numeric(z, ctx, estimator=estimator or make_fit(model, SQ), n_boot=3)

    cold = {}
    for kind in kinds:
        influence_module._numeric_entry = None
        cold[kind] = call(kind)
        ref = call(kind, Unhashable())
        assert cold[kind].value.tobytes() == ref.value.tobytes(), kind
        assert cold[kind].stderr.tobytes() == ref.stderr.tobytes(), kind
    fits = []
    real = influence_module.m_location
    monkeypatch.setattr(influence_module, "m_location",
                        lambda x, *a, **kw: fits.append(len(x)) or real(x, *a, **kw))
    for kind in kinds:
        warm = call(kind)
        assert warm.value.tobytes() == cold[kind].value.tobytes(), kind
        assert warm.stderr.tobytes() == cold[kind].stderr.tobytes(), kind
    per_fit = 1 if make_fit is m_location_fit else 2
    # 4 row sets (all rows, 3 bootstrap draws) x 2 rates, per kind
    assert len(fits) == 3 * 4 * 2 * per_fit
    assert make_fit(model, SQ) == make_fit(model, SQ)
    assert hash(make_fit(model, SQ)) == hash(make_fit(model, SQ))
    assert make_fit(model, SQ) != make_fit(standard_model(2), SQ)
    assert make_fit(model, SQ) != make_fit(model, RHO2)
    assert m_location_fit(model, SQ) != coord_m_fit(model, SQ)


def test_if_numeric_keeps_the_draws_of_the_last_key_only():
    model = standard_model(2)
    (y, u, v), _ = influence_module._numeric_draws(model, 500, 3)
    for a in (y, u, v):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    ctx = InfluenceContext(model, SQ, kind="ficm", mc=MonteCarlo(n_draws=500, seed=3))
    if_numeric([1.0, 0.3], ctx, n_boot=1)
    draws, fits = influence_module._numeric_draws(model, 500, 3)
    assert draws[0] is y and len(fits) == 1
    # another seed, size, center or scatter replaces the entry, fits included
    for key in ((model, 500, 4), (model, 501, 3), (EllipticalModel([0.0, 1e-300], np.eye(2)), 500, 3),
                (equicorrelated_model(2, 0.1), 500, 3)):
        warm, fits2 = influence_module._numeric_draws(*key)
        assert warm[0] is not y and not fits2
        influence_module._numeric_entry = None
        cold, _ = influence_module._numeric_draws(*key)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(warm, cold))
    # and coming back draws the same arrays again
    (y3, u3, v3), _ = influence_module._numeric_draws(model, 500, 3)
    assert y3 is not y
    assert all(a.tobytes() == b.tobytes() for a, b in ((y, y3), (u, u3), (v, v3)))


def test_if_numeric_draws_under_threads_match_their_key():
    # threads asking for different keys swap the one entry under each other;
    # each must still get its own key's draws, never another key's
    keys = [(standard_model(2), 300, s) for s in (1, 2, 3)] + [(standard_model(3), 300, 1)]
    ref = []
    for key in keys:
        influence_module._numeric_entry = None
        ref.append([a.tobytes() for a in influence_module._numeric_draws(*key)[0]])
    bad = []

    def worker(i):
        for j in range(100):
            k = (i + j) % len(keys)
            try:
                draws, _ = influence_module._numeric_draws(*keys[k])
            except Exception as exc:  # a thread's error would be lost
                bad.append(repr(exc))
                return
            if [a.tobytes() for a in draws] != ref[k]:
                bad.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not bad


def test_if_numeric_refits_estimators_it_cannot_match():
    model = standard_model(2)
    ctx = InfluenceContext(model, SQ, kind="fdcm", mc=MonteCarlo(n_draws=2_000, seed=9))
    fit = m_location_fit(model, SQ)
    calls = []

    def counted(x):
        calls.append(len(x))
        return fit(x)

    class Unhashable:
        __hash__ = None

        def __call__(self, x):
            return counted(x)

    influence_module._numeric_entry = None
    ref = if_numeric([1.0, 0.3], ctx, n_boot=1)
    for make in (lambda: (lambda x: counted(x)), Unhashable):
        calls.clear()
        for _ in range(2):  # a fresh callable each time: nothing to reuse
            res = if_numeric([1.0, 0.3], ctx, estimator=make(), n_boot=1)
            assert res.value.tobytes() == ref.value.tobytes()
        assert len(calls) == 2 * 3
    # the same lambda again reuses its clean fit; the unhashable one is not kept
    est = lambda x: counted(x)  # noqa: E731
    calls.clear()
    if_numeric([1.0, 0.3], ctx, estimator=est, n_boot=1)
    if_numeric([0.5, 0.3], ctx, estimator=est, n_boot=1)
    assert len(calls) == 3 + 2
    _, fits = influence_module._numeric_draws(model, 2_000, 9)
    assert not any(isinstance(k, Unhashable) for k in fits)

    class Buffered:  # returns one buffer, which every fit overwrites
        out = np.empty(2)

        def __call__(self, x):
            self.out[:] = fit(x)
            return self.out

    est = Buffered()
    for _ in range(2):  # the kept clean fit is a copy, not the buffer
        res = if_numeric([1.0, 0.3], ctx, estimator=est, n_boot=1)
        assert res.value.tobytes() == ref.value.tobytes()


def test_if_numeric_validates_the_rate_grid():
    ctx = _ctx("fdcm", n_draws=1_000, seed=5)
    with pytest.raises(ValueError):
        if_numeric([0.0, 0.0], ctx, eps_grid=(0.05,))
    with pytest.raises(ValueError):
        if_numeric([0.0, 0.0], ctx, eps_grid=())


# ---------------------------------------------------------------------------
# gross-error sensitivity

@pytest.mark.parametrize("conv", ["scaled-distance", "squared-distance"])
@pytest.mark.parametrize("c", ["sqrt6", "d1", "d5", "d10", "32.5"])
def test_radial_profile_is_the_exact_maximiser(conv, c):
    if c.startswith("d"):
        c = calibrate_c(int(c[1:]), 0.5, convention=conv)
    else:
        c = math.sqrt(6.0) if c == "sqrt6" else float(c)
    spec = RhoSpec(c=c, convention=conv)
    t_star, h_star = _cell_profile(spec, 1)
    t_max = math.sqrt(truncation_sq(spec))
    assert 0.0 < t_star < t_max
    assert h_star == float(psi_sq(spec, t_star**2))
    peak = h_star * t_star
    ulps = 4 * np.finfo(float).eps * peak
    # on a fine grid the best point is a neighbour of t_star and no higher
    grid = np.linspace(0.0, t_max, 200_001)
    profile = psi_sq(spec, grid**2) * grid
    k = int(np.argmax(profile))
    assert abs(grid[k] - t_star) <= grid[1]
    assert profile[k] <= peak + ulps
    # scipy's bounded search stops within its own tolerance of t_star
    res = optimize.minimize_scalar(lambda t: -float(psi_sq(spec, t * t)) * t,
                                   bounds=(1e-9, t_max), method="bounded",
                                   options={"xatol": 1e-12})
    assert abs(res.x - t_star) <= 2.0 * (math.sqrt(np.finfo(float).eps) * res.x + 1e-12 / 3.0)
    assert -res.fun <= peak + ulps

def test_ges_row_replacement_golden():
    ctx = InfluenceContext(standard_model(2), RHO2, kind="fdcm")
    res = ges(ctx)
    assert res.value == pytest.approx(GES_FDCM_D2, rel=1e-8)
    radius = float(np.linalg.norm(res.argmax_z))
    assert radius == pytest.approx(GES_FDCM_D2_RADIUS, abs=1e-5)
    # the worst point lies strictly inside the rejection region
    assert 0.0 < radius < RHO2.c
    assert if_fdcm(res.argmax_z, ctx).norm == pytest.approx(res.value, rel=1e-12)


def test_ges_scales_with_the_top_eigenvalue():
    flat = ges(InfluenceContext(standard_model(2), RHO2, kind="fdcm"))
    model = equicorrelated_model(2, 0.6)
    tilted = ges(InfluenceContext(model, RHO2, kind="fdcm"))
    assert tilted.value == pytest.approx(flat.value * math.sqrt(1.6), rel=1e-9)
    # the argmax lies at Mahalanobis radius t* along the principal axis, and
    # its ray's radius is the Euclidean one, sqrt(1.6) t*
    t_star, _ = _cell_profile(RHO2, 1)
    assert math.sqrt(model.mahalanobis_sq(tilted.argmax_z)) == pytest.approx(t_star, rel=1e-12)
    [(label, best_t, best_norm)] = tilted.rays
    assert label == "radial" and best_norm == tilted.value
    assert best_t == pytest.approx(float(np.linalg.norm(tilted.argmax_z - model.mu0)),
                                   rel=1e-12)
    assert best_t == pytest.approx(math.sqrt(1.6) * t_star, rel=1e-12)


def test_ges_refuses_the_cases_it_has_no_exact_branch_for():
    # a cellwise kind off a diagonal scatter, whose influence is Monte Carlo,
    # and psicm off a multiple of the identity
    with pytest.raises(ValueError, match="not diagonal"):
        ges(_ctx("ficm", rho=RHO2, r=0.5))
    model = EllipticalModel(mu0=np.zeros(2), sigma0=np.diag([1.0, 4.0]))
    with pytest.raises(ValueError, match="multiple of the identity"):
        ges(InfluenceContext(model, RHO2, kind="psicm"))
    # independent cells hurt more than whole rows on the standard model, and
    # psicm's influence is the mean of the two, so its GES is at most the
    # mean of theirs
    row, cell, mixed = (ges(InfluenceContext(standard_model(2), RHO2, kind=k)).value
                        for k in ("fdcm", "ficm", "psicm"))
    assert cell > row
    assert mixed <= 0.5 * (row + cell)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(256)


def _psicm_norm(rho: RhoSpec, d: int):
    """|IF| of psicm on the standard model, written out independently of
    oplab.influence: z (psi(|z|^2) + h(z_j)) / (2 a_psi) with the cell half
    h(t) = E psi(t^2 + V), V ~ chi2(d - 1), integrated in sqrt(V) against
    the chi density on 256 Gauss-Legendre nodes, one row per coordinate."""
    cut, a = truncation_sq(rho), a_psi(rho, d)
    x, w = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS  # on [0, 1]
    k = d - 1

    def h(s):
        if k == 0:
            return psi_sq(rho, s)
        span = np.sqrt(np.maximum(cut - s, 0.0))[:, None]
        v = span * x
        chi = v ** (k - 1) * np.exp(-0.5 * v * v) / (2.0 ** (0.5 * k - 1.0) * math.gamma(0.5 * k))
        return (span * psi_sq(rho, s[:, None] + v * v) * chi) @ w

    def norm(z):
        s = z * z
        return float(np.linalg.norm(z * (psi_sq(rho, s.sum()) + h(s)))) / (2.0 * a)
    return norm


@pytest.mark.parametrize("convention", ["squared-distance", "scaled-distance"])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 8])
def test_psicm_ges_is_the_supremum_over_the_whole_space(d, convention, monkeypatch):
    # an L-BFGS-B multistart over all of R^d, from 4 points drawn in the
    # truncation ball, never beats the k-coordinate maximum by 1e-9
    # relative; it falls short by up to 4e-8.  Searching k = d alone misses
    # the supremum by 8.7e-7 to 2.6% where it lies on 1 < k < d coordinates
    # (squared distance: d = 4, 5, 6 at bp 0.5; d = 3, 4, 5, 6, 8 at bp 0.25)
    def searched(*args):
        raise AssertionError("the exact GES evaluated the influence")

    monkeypatch.setattr(influence_module, "influence", searched)
    monkeypatch.setattr(influence_module, "substream", searched)
    for c in (calibrate_c(d, 0.5, convention=convention), math.sqrt(6.0),
              calibrate_c(d, 0.25, convention=convention)):
        rho = RhoSpec(c=c, convention=convention)
        ctx = InfluenceContext(standard_model(d), rho, kind="psicm")
        res = ges(ctx)
        norm, rng = _psicm_norm(rho, d), np.random.default_rng(d)
        radius = math.sqrt(truncation_sq(rho) / d)
        oracle = max(-optimize.minimize(lambda z: -norm(z), rng.uniform(-radius, radius, d),
                                        method="L-BFGS-B").fun for _ in range(4))
        assert res.value >= oracle * (1.0 - 1e-9), c
        assert if_psicm(res.argmax_z, ctx).norm == pytest.approx(res.value, rel=1e-12)
        assert norm(res.argmax_z) == pytest.approx(res.value, rel=1e-12)
        # one ray per k, each the norm at its radius along u_k; the argmax
        # has k equal coordinates and zeros after them
        assert [r[0] for r in res.rays] == [f"k{k}" for k in range(1, d + 1)]
        for k, (_, best_t, best_norm) in enumerate(res.rays, start=1):
            u = np.r_[np.ones(k), np.zeros(d - k)] / math.sqrt(k)
            assert if_psicm(best_t * u, ctx).norm == pytest.approx(best_norm, rel=1e-12)
        k = int(np.count_nonzero(res.argmax_z))
        assert max(r[2] for r in res.rays) == res.value == res.rays[k - 1][2]
        assert np.all(res.argmax_z[:k] == res.argmax_z[0]) and res.argmax_z[0] > 0


@pytest.mark.parametrize("convention", ["squared-distance", "scaled-distance"])
@pytest.mark.parametrize("d", [2, 5, 8, 10, 15])
def test_psicm_ges_rays_are_the_maxima_along_each_diagonal(d, convention):
    # each k's norm is the maximum along u_k: on a 64-step grid of radii up
    # to where the cell half vanishes, refined by a bounded scalar search
    # about the grid's best.  At d = 10 and 15, and at d = 5 and 8 under the
    # squared distance, some of them lie beyond the row half's truncation,
    # at _cell_profile's t*
    for bp in (0.1, 0.25, 0.5):
        rho = RhoSpec(c=calibrate_c(d, bp, convention=convention), convention=convention)
        res = ges(InfluenceContext(standard_model(d), rho, kind="psicm"))
        norm = _psicm_norm(rho, d)
        for k, (_, best_t, best_norm) in enumerate(res.rays, start=1):
            u = np.r_[np.ones(k), np.zeros(d - k)] / math.sqrt(k)
            grid = np.linspace(0.0, math.sqrt(k * truncation_sq(rho)), 65)
            i = int(np.argmax([norm(r * u) for r in grid]))
            found = optimize.minimize_scalar(lambda r: -norm(r * u), method="bounded",
                                             bounds=(grid[max(i - 1, 0)], grid[min(i + 1, 64)]),
                                             options={"xatol": 1e-12})
            assert best_norm >= -found.fun * (1.0 - 1e-12), (bp, k)
            assert norm(best_t * u) == pytest.approx(best_norm, rel=1e-12)


def test_coordinatewise_ges_is_the_univariate_row_replacement_ges():
    # a cell moves only its own coordinate's estimate, so the coordinatewise
    # functional's GES is ges of row replacement on the univariate model
    res = ges(InfluenceContext(standard_model(1), RHO1, kind="fdcm"))
    assert res.value == pytest.approx(FLAT_COORD_GES, rel=1e-10)
    [(label, best_t, best_norm)] = res.rays
    assert label == "radial" and best_norm == res.value and best_t == res.argmax_z[0]
    # a marginal standard deviation of 2 doubles it, at twice the radius
    wide = ges(InfluenceContext(EllipticalModel(mu0=[0.0], sigma0=[[4.0]]), RHO1,
                                kind="fdcm"))
    assert wide.value == pytest.approx(2.0 * FLAT_COORD_GES, rel=1e-10)
    assert wide.argmax_z == pytest.approx(2.0 * res.argmax_z, rel=1e-12)
