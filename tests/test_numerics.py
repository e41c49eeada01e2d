"""Loss family, Mahalanobis geometry, chi-square quadrature, calibration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, optimize, stats

from oplab import estimators, numerics
from oplab import (CalibrationError, RhoSpec, SingularScatter,
                   calibrate_c, chi2_truncated_expectation,
                   equicorrelated_model, expected_rho, mahalanobis_sq, psi_sq,
                   psi_sq_prime, rho, rho_sq, standard_model, truncation_sq,
                   weight)
from oplab.influence import a_psi
from oplab.numerics import (CONVENTIONS, _bisquare_from_p, _bisquare_into, _brentq,
                            _dist_sq, _factor, _tril_inv, rho_sq_into)
from oplab.rng import substream

import _loss_reference
import _subset_reference
from _s_weight_reference import rho_inverse

SQRT6 = math.sqrt(6.0)
SQ = RhoSpec(c=SQRT6, convention="squared-distance")


def psi(spec, t):
    """First derivative of the loss in t: psi_sq on the squared-distance law."""
    return psi_sq(RhoSpec(c=spec.c, convention="squared-distance"), t)


def psi_prime(spec, t):
    """Second derivative of the loss in t: psi_sq_prime on the squared-distance law."""
    return psi_sq_prime(RhoSpec(c=spec.c, convention="squared-distance"), t)

# Frozen by tests/make_oracles.py (scipy adaptive quadrature, brentq on quad).
A_PSI_GOLDEN = {
    (1, "squared-distance"): 0.22671437313863765,
    (2, "squared-distance"): 0.14704468485273842,
    (5, "squared-distance"): 0.022615983885204236,
}
CALIBRATED_C = {
    (1, 0.5): 1.5476449810245039,
    (2, 0.5): 2.6608033926979555,
    (5, 0.5): 4.652023341386673,
    (10, 0.5): 6.775821175063565,
    (15, 0.5): 8.376256278304616,
    (2, 0.25): 4.427443163136989,
}
A_PSI_SCALED_GOLDEN = {
    (1, 0.5): 0.19467407595372566,
    (2, 0.5): 0.13498433698960388,
    (15, 0.5): 0.024843473206292977,
}
CHI2_TRUNC_QQ_D2 = 1.0073825110346628  # E[Q^2 1(Q < sqrt 6)], Q ~ chi2_2


# ---------------------------------------------------------------------------
# loss values

def test_rho_psi_at_origin_and_truncation():
    assert rho(SQ, 0.0) == 0.0
    assert psi(SQ, 0.0) == 0.0
    assert rho(SQ, SQRT6) == pytest.approx(1.0, abs=1e-15)
    assert psi(SQ, SQRT6) == 0.0
    assert psi(SQ, SQRT6 + 1.0) == 0.0
    # 3x - 3x^2 + x^3 with x = 1/6
    assert rho(SQ, 1.0) == pytest.approx(3 / 6 - 3 / 36 + 1 / 216, abs=1e-15)


def test_rho_bounded_even_and_monotone():
    t = np.linspace(-10, 10, 2001)
    v = rho(SQ, t)
    assert np.all((v >= 0.0) & (v <= 1.0))
    assert np.allclose(v, rho(SQ, -t))
    half = rho(SQ, np.linspace(0, 10, 1001))
    assert np.all(np.diff(half) >= -1e-15)


@pytest.mark.parametrize("spec", [SQ, RhoSpec(c=2.0, convention="scaled-distance")])
def test_psi_matches_rho_derivative(spec):
    # central differences on 10^3 interior points of [0, 2c]
    t = np.linspace(0.0, 2.0 * spec.c, 1002)[1:-1]
    h = 1e-6
    d_rho = (rho(spec, t + h) - rho(spec, t - h)) / (2 * h)
    assert np.max(np.abs(psi(spec, t) - d_rho)) < 1e-6
    d_psi = (psi(spec, t + h) - psi(spec, t - h)) / (2 * h)
    # psi' jumps at t = c; skip the two grid points straddling it
    keep = np.abs(t - spec.c) > 2 * h
    assert np.max(np.abs(psi_prime(spec, t)[keep] - d_psi[keep])) < 1e-5


def test_weight_is_psi_over_t_and_nonincreasing():
    t = np.linspace(1e-9, 3.0, 500)
    assert np.allclose(weight(SQ, t), psi(SQ, t) / t, atol=1e-12)
    assert weight(SQ, 0.0) == pytest.approx(6.0 / SQ.c**2)
    w = weight(SQ, np.linspace(0, 4, 300))
    assert np.all(np.diff(w) <= 1e-15)


@given(st.floats(min_value=0.0, max_value=0.999999))
def test_rho_inverse_roundtrip(y):
    spec = RhoSpec(c=3.0, convention="scaled-distance")
    t = rho_inverse(spec, y)
    assert 0.0 <= t < spec.c
    assert rho(spec, t) == pytest.approx(y, abs=1e-12)


def test_rho_inverse_domain():
    with pytest.raises(ValueError):
        rho_inverse(SQ, 1.0)
    with pytest.raises(ValueError):
        rho_inverse(SQ, -0.1)


@pytest.mark.parametrize("conv,c", [("squared-distance", SQRT6),
                                    ("scaled-distance", 2.6608033926979555)])
def test_squared_argument_views_chain_rule(conv, c):
    spec = RhoSpec(c=c, convention=conv)
    cut = truncation_sq(spec)
    assert cut == pytest.approx(c if conv == "squared-distance" else c * c)
    s = np.linspace(0.0, 1.5 * cut, 1003)[1:-1]
    h = 1e-7
    d_rho = (rho_sq(spec, s + h) - rho_sq(spec, s - h)) / (2 * h)
    keep = np.abs(s - cut) > 2 * h
    assert np.max(np.abs(psi_sq(spec, s)[keep] - d_rho[keep])) < 1e-5
    d_psi = (psi_sq(spec, s + h) - psi_sq(spec, s - h)) / (2 * h)
    assert np.max(np.abs(psi_sq_prime(spec, s)[keep] - d_psi[keep])) < 2e-4


@pytest.mark.parametrize("conv,c", [("squared-distance", SQRT6),
                                    ("scaled-distance", 2.6608033926979555)])
def test_rho_sq_into_matches_the_allocating_forms(conv, c):
    spec = RhoSpec(c=c, convention=conv)
    s = np.linspace(0.0, 1.5 * truncation_sq(spec), 1001)
    out, work = np.empty_like(s), np.empty_like(s)
    refs = _loss_reference.squared_argument_forms(conv)
    for derivative, (form, ref) in enumerate(zip((rho_sq, psi_sq, psi_sq_prime), refs)):
        expected = ref(c, s)
        assert np.allclose(form(spec, s), expected, rtol=1e-13, atol=1e-15)
        assert rho_sq_into(spec, s, out, work, derivative) is out
        assert np.allclose(out, expected, rtol=1e-13, atol=1e-15)
        assert np.array_equal(out == 0.0, expected == 0.0)
        half = 0.5 * truncation_sq(spec)
        assert type(form(spec, half)) is float
        assert form(spec, half) == pytest.approx(float(ref(c, np.float64(half))), rel=1e-13)
    inplace = s.copy()  # the loss may overwrite its argument
    assert rho_sq_into(spec, inplace, inplace, work) is inplace
    assert np.array_equal(inplace, rho_sq_into(spec, s, out, work))


@pytest.mark.parametrize("conv,c", [("squared-distance", SQRT6),
                                    ("scaled-distance", 2.6608033926979555)])
def test_bisquare_from_p_reuses_the_p_left_in_work(conv, c):
    # m_location's Newton step builds psi' from the p that its psi pass left
    s = np.square(substream(17, 0).normal(size=2001)) * truncation_sq(RhoSpec(c, conv))
    out, work = np.empty_like(s), np.empty_like(s)
    for first in (0, 1, 2):
        for derivative in (0, 1, 2):
            _bisquare_into(c, conv, s, out, work, first)
            got = _bisquare_from_p(c, conv, s, np.empty_like(s), work, derivative)
            assert np.array_equal(got, _bisquare_into(c, conv, s, out, np.empty_like(s),
                                                      derivative))


@pytest.mark.parametrize("spec", [SQ, RhoSpec(c=2.6608033926979555, convention="scaled-distance")])
def test_loss_forms_match_the_reference(spec):
    # negative t: rho, psi' and the weight are even, psi is odd
    t = np.linspace(-1.5 * spec.c, 1.5 * spec.c, 1001)
    forms = ((rho, _loss_reference.rho), (psi, _loss_reference.psi),
             (psi_prime, _loss_reference.psi_prime), (weight, _loss_reference.weight))
    for form, ref in forms:
        assert np.allclose(form(spec, t), ref(spec.c, t), rtol=1e-13, atol=1e-15)
        for scalar in (-0.3 * spec.c, 0.0, 0.7 * spec.c, 2.0 * spec.c):
            value = form(spec, scalar)
            assert type(value) is float
            assert value == pytest.approx(float(ref(spec.c, np.float64(scalar))), rel=1e-13, abs=1e-15)
        # far beyond the truncation, where t^2 overflows, the forms stay exact
        far = np.array([-np.inf, -1e200, 1e200, np.inf])
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(form(spec, far), ref(spec.c, far))


def test_scaled_psi_sq_closed_form():
    spec = RhoSpec(c=2.5, convention="scaled-distance")
    s = np.linspace(0.01, spec.c**2 * 0.99, 200)
    assert np.allclose(psi_sq(spec, s), psi(spec, np.sqrt(s)) / (2 * np.sqrt(s)),
                       atol=1e-13)


def test_rhospec_validation():
    with pytest.raises(ValueError):
        RhoSpec(c=-1.0)
    with pytest.raises(ValueError):
        RhoSpec(c=2.0, convention="cubed-distance")


# ---------------------------------------------------------------------------
# Mahalanobis geometry

def test_mahalanobis_examples():
    m = np.zeros(2)
    assert mahalanobis_sq(m, m, np.eye(2)) == 0.0
    assert mahalanobis_sq(np.array([1.0, 0.0]), m, np.eye(2)) == pytest.approx(1.0)
    sigma = np.array([[1.0, 0.9], [0.9, 1.0]])
    got = mahalanobis_sq(np.array([1.0, 1.0]), m, sigma)
    assert got == pytest.approx(2.0 / 1.9, abs=1e-12)


def test_mahalanobis_rejects_bad_scatter():
    with pytest.raises(SingularScatter):
        mahalanobis_sq(np.zeros(2), np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(SingularScatter):
        mahalanobis_sq(np.zeros(2), np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]]))
    # asymmetric beyond the 1e-10 relative tolerance, though potrf (which
    # reads only the lower triangle) would factor it
    with pytest.raises(SingularScatter):
        mahalanobis_sq(np.zeros(2), np.zeros(2), np.array([[1.0, 0.5], [0.5 + 1e-9, 1.0]]))
    mahalanobis_sq(np.zeros(2), np.zeros(2), np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]]))
    with pytest.raises(SingularScatter):
        mahalanobis_sq(np.zeros(2), np.zeros(2), np.eye(3)[:2])
    with pytest.raises(SingularScatter):
        mahalanobis_sq(np.zeros(2), np.zeros(2), np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        mahalanobis_sq(np.array([np.nan, 0.0]), np.zeros(2), np.eye(2))


@pytest.mark.parametrize("d", [1, 2, 5, 15])
def test_private_distance_path_is_the_public_one(d):
    # _dist_sq on a _factor factor is mahalanobis_sq without its checks, bit
    # for bit.  Against scipy's checked Cholesky and triangular solve, the
    # inverse-factor product differs in the last bits: the worst relative gap
    # on these cases was 2.5e-13, at d = 15, so the bound is 1e-12
    rng = substream(d, 11)
    for _ in range(20):
        a = rng.normal(size=(d, d)) * 10.0 ** rng.uniform(-3, 3)
        sigma = a @ a.T + 1e-3 * np.eye(d)
        x, m = rng.normal(size=(50, d)), rng.normal(size=d)
        got = _dist_sq(x, m, _factor(sigma))
        assert np.array_equal(got, mahalanobis_sq(x, m, sigma))
        low = linalg.cholesky(sigma, lower=True)
        z = linalg.solve_triangular(low, (x - m).T, lower=True)
        assert np.allclose(got, np.einsum("ij,ij->j", z, z), rtol=1e-12, atol=0.0)
    with pytest.raises(SingularScatter):
        _factor(np.zeros((d, d)))


@pytest.mark.parametrize("k", [1, 7, 43])
def test_stacked_distances_are_each_factor_alone(k):
    # a stack of factors is inverted by the same d batched products at every
    # k, so each chain's distances are bit for bit those of its own (1, d, d)
    # call, whatever chains share its stack, and each inverse is the
    # one-matrix forward substitution of _subset_reference.  Against the
    # np.linalg.inv of a single factor the distances differ in the last bits:
    # the worst relative gap on these cases was 4.6e-16, so the bound is 1e-14
    d, n = 15, 100
    rng = substream(k, 12)
    a = rng.normal(size=(k, 3 * d, d)) * 10.0 ** rng.uniform(-3, 3, size=(k, 1, 1))
    low = _factor(np.swapaxes(a, -1, -2) @ a)
    x, m = rng.normal(size=(n, d)), rng.normal(size=(k, 1, d))
    got, inv = _dist_sq(x, m, low), _tril_inv(low)
    for i in range(k):
        assert np.array_equal(got[i], _dist_sq(x, m[i:i + 1], low[i:i + 1])[0])
        assert np.array_equal(inv[i], _subset_reference.tril_inv(low[i]))
        assert np.allclose(got[i], _dist_sq(x, m[i, 0], low[i]), rtol=1e-14, atol=0.0)


def test_elliptical_models():
    m = standard_model(3)
    assert m.dim == 3
    assert np.allclose(m.sigma0, np.eye(3))
    e = equicorrelated_model(3, 0.9)
    assert np.allclose(np.diag(e.sigma0), 1.0)
    assert e.sigma0[0, 1] == 0.9
    with pytest.raises(SingularScatter):
        equicorrelated_model(3, -0.9)
    with pytest.raises(SingularScatter):
        equicorrelated_model(2, 1.0)


def test_model_sampling_is_seeded_and_centered():
    m = equicorrelated_model(2, 0.5)
    x1 = m.sample(50_000, substream(3, 1))
    x2 = m.sample(50_000, substream(3, 1))
    assert np.array_equal(x1, x2)
    assert np.allclose(x1.mean(axis=0), 0.0, atol=0.02)
    assert np.allclose(np.cov(x1, rowvar=False), m.sigma0, atol=0.02)


# ---------------------------------------------------------------------------
# chi-square expectations

def test_chi2_truncated_expectation():
    got = chi2_truncated_expectation(lambda q: q * q, 2, cut=SQRT6, tail_value=0.0)
    assert got == pytest.approx(CHI2_TRUNC_QQ_D2, rel=1e-12)
    # constant function with matching tail integrates the full density
    one = chi2_truncated_expectation(lambda q: np.ones_like(q), 3, cut=2.0, tail_value=1.0)
    assert one == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        chi2_truncated_expectation(lambda q: q, 2, cut=-1.0, tail_value=0.0)
    with pytest.raises(ValueError):
        chi2_truncated_expectation(lambda q: q, 2.5, cut=1.0, tail_value=0.0)


def test_chi2_tail_matches_scipy():
    # the closed form against scipy's incomplete gamma: the worst relative gap
    # was 4.0e-14 for d <= 59 and 1.5e-13 for d <= 200
    for d in range(1, 201):
        x = np.concatenate([np.geomspace(1e-3, 400.0, 60), [float(d)]])
        ref = stats.chi2.sf(x, d)
        got = np.array([numerics._chi2_sf(d, v) for v in x])
        big = ref > 1e-280
        assert np.allclose(got[big], ref[big], rtol=1e-13 if d <= 59 else 5e-13, atol=0.0), d
    # past e^-h's underflow the terms come from logs
    for d, x in ((1600, 1600.0), (3000, 3000.0), (3000, 4096.0)):
        assert numerics._chi2_sf(d, x) == pytest.approx(stats.chi2.sf(x, d), rel=1e-11)


# ---------------------------------------------------------------------------
# calibration

def test_calibration_goldens():
    for (d, bp), ref in CALIBRATED_C.items():
        assert calibrate_c(d, bp) == pytest.approx(ref, abs=2e-9)


def test_calibration_satisfies_constraint():
    for (d, bp), ref in CALIBRATED_C.items():
        spec = RhoSpec(c=ref, convention="scaled-distance")
        assert expected_rho(spec, d) == pytest.approx(bp, abs=1e-9)


def test_calibration_monotone_in_bp():
    assert calibrate_c(2, 0.25) > calibrate_c(2, 0.5)
    assert calibrate_c(1, 0.1) > calibrate_c(1, 0.25) > calibrate_c(1, 0.5)


@pytest.mark.parametrize("conv", CONVENTIONS)
def test_calibration_evaluates_each_constant_once(monkeypatch, conv):
    seen = []

    def counted(spec, d):
        seen.append(spec.c)
        return expected_rho(spec, d)

    monkeypatch.setattr(numerics, "expected_rho", counted)
    for d in (1, 2, 5, 15):
        seen.clear()
        c = calibrate_c(d, 0.5, convention=conv)
        assert c in seen
        assert len(seen) == len(set(seen)), (d, seen)


def test_calibration_validates_bp():
    with pytest.raises(ValueError):
        calibrate_c(2, 0.0)
    with pytest.raises(ValueError):
        calibrate_c(2, 0.6)


# ---------------------------------------------------------------------------
# the influence normalization constant

def test_a_psi_goldens():
    # goldens come from adaptive quadrature, the package uses fixed
    # Gauss-Laguerre nodes; 1e-9 relative covers the method gap
    for (d, conv), ref in A_PSI_GOLDEN.items():
        spec = RhoSpec(c=SQRT6, convention=conv)
        assert a_psi(spec, d) == pytest.approx(ref, rel=1e-9)
    for (d, bp), ref in A_PSI_SCALED_GOLDEN.items():
        spec = RhoSpec(c=CALIBRATED_C[(d, bp)], convention="scaled-distance")
        assert a_psi(spec, d) == pytest.approx(ref, rel=1e-9)


def test_a_psi_quadrature_vs_monte_carlo():
    # stratified inverse-CDF sampling nails the d=2, c^2=6 value far inside
    # the 1e-3 relative band
    spec = RhoSpec(c=SQRT6, convention="squared-distance")
    n = 400_000
    rng = np.random.default_rng(515)
    q = stats.chi2(2).ppf((np.arange(n) + rng.random(n)) / n)
    est = (2.0 / 2.0) * float((psi_sq_prime(spec, q) * q).mean()) \
        + float(psi_sq(spec, q).mean())
    ref = a_psi(spec, 2)
    assert abs(est - ref) / ref < 1e-3


def test_a_psi_positive_for_working_specs():
    for d in range(1, 21):
        spec = RhoSpec(c=calibrate_c(d, 0.5), convention="scaled-distance")
        assert a_psi(spec, d) > 0.0
    for d in range(1, 11):
        assert a_psi(SQ, d) > 0.0


def test_a_psi_growth_in_c_on_natural_scale():
    # The loss here is normalized to sup rho = 1, which multiplies psi by
    # 6/c^2 relative to the unnormalized bisquare; undoing that factor, the
    # constant grows with c toward the unbounded-score regime on this grid.
    grid = [1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0, 12.0]
    for conv in ("squared-distance", "scaled-distance"):
        vals = [a_psi(RhoSpec(c=c, convention=conv), 2) * c * c / 6.0 for c in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=12),
       st.floats(min_value=0.2, max_value=0.5))
def test_calibrate_then_constraint_roundtrip(d, bp):
    c = calibrate_c(d, bp)
    spec = RhoSpec(c=c, convention="scaled-distance")
    assert expected_rho(spec, d) == pytest.approx(bp, abs=1e-8)


# ---------------------------------------------------------------------------
# Brent root finding, against scipy's brentq as the oracle

def _brent_runs(f, a, b, **kw):
    """(outcome, evaluation points) of _brentq and of scipy's brentq on f; the
    outcome is the root, or the type and message of the error raised."""
    runs = []
    for solve in (_brentq, optimize.brentq):
        xs = []

        def g(x):
            xs.append(x)
            return f(x)

        try:
            outcome = solve(g, a, b, **kw)
            assert type(outcome) is float
        except (ValueError, RuntimeError) as err:
            outcome = (type(err), str(err))
        runs.append((outcome, xs))
    return runs


def _assert_same_solve(f, a, b, **kw):
    ours, theirs = _brent_runs(f, a, b, **kw)
    assert ours == theirs


class _Twin:
    """Stands in for _brentq: runs both solvers on each problem it is given."""

    def __init__(self):
        self.solves = 0

    def __call__(self, f, a, b, **kw):
        self.solves += 1
        _assert_same_solve(f, a, b, **kw)
        return _brentq(f, a, b, **kw)


def test_brentq_matches_scipy_on_the_m_scale_solve(monkeypatch):
    twin = _Twin()
    monkeypatch.setattr(estimators, "_brentq", twin)
    rng = np.random.default_rng(77)
    spec = RhoSpec(c=calibrate_c(1, 0.5), convention="scaled-distance")
    for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        for n in (7, 50, 1001, 4000):
            r = scale * np.abs(rng.standard_normal(n) * rng.exponential(size=n))
            r[rng.random(n) < 0.1] = 0.0
            for b in (0.5, 0.25):
                s = estimators.m_scale(r, spec, b)
                assert np.mean(rho(spec, r / s)) == pytest.approx(b, abs=1e-12)
    assert twin.solves == 40


@pytest.mark.parametrize("conv", CONVENTIONS)
def test_brentq_matches_scipy_on_calibration(monkeypatch, conv):
    twin = _Twin()
    monkeypatch.setattr(numerics, "_brentq", twin)
    for d in range(1, 21):
        calibrate_c(d, 0.5, convention=conv)
    assert twin.solves == 20


@pytest.mark.parametrize("f,a,b", [
    (lambda x: x * x - 2.0, 0.0, 2.0),
    (lambda x: x * x - 2.0, 2.0, 0.0),  # reversed bracket
    (lambda x: math.cos(x) - x, -1.0, 3.0),
    (lambda x: math.exp(x) - 1e6, -5.0, 40.0),
    (lambda x: (x - 0.3) ** 3, -1.0, 1.0),  # flat triple root: bisection steps
    (lambda x: math.tanh(50.0 * (x - 0.7)), 0.0, 1.0),  # a step in disguise
    (lambda x: 1.0 if x > 1e-3 else -1.0, 0.0, 1.0),  # a true step
    (lambda x: x - 1e-300, -1.0, 1.0),  # a root near zero
    (lambda x: x, 0.0, 1.0),  # a root at the bracket end
])
@pytest.mark.parametrize("tol", [dict(), dict(xtol=5e-324, rtol=4 * np.finfo(float).eps),
                                 dict(xtol=1e-4, rtol=1e-6, maxiter=500)])
def test_brentq_matches_scipy_on_synthetic_functions(f, a, b, tol):
    _assert_same_solve(f, a, b, **tol)


def test_brentq_raises_what_scipy_raises():
    cases = [
        (lambda x: x + 3.0, 0.0, 1.0, {}),  # same sign at both ends
        (lambda x: math.nan if x > 0.4 else x - 0.5, 0.0, 1.0, {}),  # NaN inside
        (lambda x: math.nan, 0.0, 1.0, {}),  # NaN at the bracket end
        (lambda x: x * x - 2.0, 0.0, 2.0, dict(maxiter=3)),  # out of iterations
        (lambda x: x * x - 2.0, 0.0, 2.0, dict(maxiter=0)),
        (lambda x: x * x - 2.0, 0.0, 2.0, dict(maxiter=-1)),
        (lambda x: x * x - 2.0, 0.0, 2.0, dict(xtol=0.0)),
        (lambda x: x * x - 2.0, 0.0, 2.0, dict(rtol=1e-17)),
    ]
    for f, a, b, kw in cases:
        ours, theirs = _brent_runs(f, a, b, **kw)
        assert isinstance(ours[0], tuple)  # an error, not a root
        assert ours == theirs
    assert _brentq(lambda x: x - 0.5, 0.5, 1.0, maxiter=0) == 0.5
