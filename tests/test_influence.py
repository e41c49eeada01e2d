"""Influence functions, their Monte Carlo machinery, and sensitivity search."""

import importlib
import math
import warnings

import numpy as np
import pytest
from scipy import optimize

from oplab import (EllipticalModel, InfluenceContext, InfluenceResult, MonteCarlo,
                   RhoSpec, a_psi, calibrate_c, coord_ges, equicorrelated_model, ges,
                   if_fdcm, if_ficm, if_numeric, if_psicm, influence,
                   mahalanobis_sq, psi_sq, psi_sq_prime, standard_model, truncation_sq)
from oplab.influence import _PATH_FICM, _PATH_PSICM, _ficm_core, _radial_profile

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
COORD_GES_FLAT = 2.8499468517647566    # univariate 50% loss, unit marginals
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
        ctx = InfluenceContext(model, rho, kind="ficm", mc=mc)
        for z in points:
            for path in (_PATH_FICM, _PATH_PSICM):
                with np.errstate(over="ignore", invalid="ignore"):  # the 1e200 points
                    got = _ficm_core(z, ctx, path)
                    ref = _ficm_reference.ficm_core(z, ctx, path)
                assert np.all(np.isfinite(got.value)) and np.all(np.isfinite(got.stderr))
                assert close(got, ref), (z, path)
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
        ctx = InfluenceContext(model, rho, kind="ficm", mc=mc)
        for path in (_PATH_FICM, _PATH_PSICM):
            ydev = ctx._draws(path)[0]
            assert np.array_equal(ydev, (_ficm_reference.draws(ctx, path) - model.mu0).T)
            with np.errstate(over="ignore", invalid="ignore"):  # the 1e200 points
                forward = [_ficm_core(z, ctx, path) for z in points]
                backward = [_ficm_core(z, ctx, path) for z in reversed(points)][::-1]
            for z, f, b in zip(points, forward, backward):
                assert np.all(np.isfinite(f.value)) and np.all(np.isfinite(f.stderr))
                assert np.array_equal(f.value, b.value), (z, path)
                assert np.array_equal(f.stderr, b.stderr), (z, path)


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
                got = _ficm_core(z, ctx, _PATH_FICM)
            band = 4.0 * got.stderr + 1e-12
            assert np.all(np.abs(got.value - exact) <= band), z


def _assert_exact_ges(model, rho, monkeypatch):
    """ges of the independent-cell kinds on a diagonal scatter against the
    oracle, with no ray searched: the value within 1e-10, the argmax t* sigma
    and its ray's radius t* |sigma| within 1e-9, relative.  Returns the
    value."""
    def searched(*args):
        raise AssertionError("the exact GES searched a ray")

    monkeypatch.setattr(influence_module, "_golden_max", searched)
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
    # axis nor the unit diagonal, where a ray search would look; the GES is
    # |sigma| t* h(t*) / a_psi, 3.7613 under the 50%-calibrated S loss
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
    t_star = _radial_profile(spec)
    t_max = math.sqrt(truncation_sq(spec))
    assert 0.0 < t_star < t_max
    peak = float(psi_sq(spec, t_star**2)) * t_star
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
    tilted = ges(InfluenceContext(equicorrelated_model(2, 0.6), RHO2, kind="fdcm"))
    assert tilted.value == pytest.approx(flat.value * math.sqrt(1.6), rel=1e-9)


def test_ges_cellwise_search():
    # the rays still serve psicm, whose row half does not split over the
    # coordinates, and the Monte Carlo path of a correlated model
    mc = MonteCarlo(n_draws=40_000, seed=12)
    found = {}  # kind: GES
    for model, kind in ((standard_model(2), "psicm"), (equicorrelated_model(2, 0.5), "ficm")):
        res = ges(InfluenceContext(model, RHO2, kind=kind, mc=mc))
        assert res.kind == kind
        assert [r[0] for r in res.rays] == ["axis1", "diag", "rand1", "rand2"]
        assert all(v <= res.value + 1e-12 for _, _, v in res.rays)
        found[kind] = res.value
    # independent cells hurt at least as much as whole-row replacement on the
    # standard model; psicm's influence is the mean of the two, so its GES is
    # at most the mean of theirs
    row, cell = (ges(InfluenceContext(standard_model(2), RHO2, kind=k)).value
                 for k in ("fdcm", "ficm"))
    assert cell > row
    assert found["psicm"] <= 0.5 * (row + cell) + 1e-12


def test_coord_ges_golden_and_model_insensitivity():
    res = coord_ges(standard_model(3), RHO1)
    assert res.value == pytest.approx(COORD_GES_FLAT, rel=1e-10)
    # unit marginals: correlation does not enter the coordinatewise search
    same = coord_ges(equicorrelated_model(3, 0.5), RHO1)
    assert same.value == res.value
    assert res.rays[0][0] == "axis1"


def test_coord_ges_tracks_the_largest_marginal():
    from oplab import EllipticalModel
    sigma = np.diag([1.0, 4.0, 0.25])
    model = EllipticalModel(mu0=np.zeros(3), sigma0=sigma)
    res = coord_ges(model, RHO1)
    assert res.rays[0][0] == "axis2"
    assert res.value == pytest.approx(2.0 * COORD_GES_FLAT, rel=1e-10)
    assert res.argmax_z[0] == 0.0 and res.argmax_z[2] == 0.0
