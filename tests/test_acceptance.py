"""End-to-end checks, one per advertised behavior of the package.

Every test prints a single "[criterion NN] name: PASS/FAIL" line so the suite
doubles as a checklist. The Monte Carlo criteria (4, 5, 7, 8, 10) run at
full size; criterion 4 refits an M-estimator on multi-million-row samples and
dominates the runtime. Tolerances are stated next to each assertion.
"""

import itertools
import math
import time

import numpy as np
import pytest

from oplab import (
    AdditiveShift, ContaminationSpec, InfluenceContext, MonteCarlo, RhoSpec,
    bias_sweep, calibrate_c, coord_m_fit, coord_median, empirical_breakdown,
    epsilon0, equicorrelated_model, ges_vs_dim, if_fdcm, if_ficm, if_numeric, if_psicm, influence,
    m_location, mahalanobis_sq, mcd, mve, rho, s_estimate, sample_contaminated,
    sample_mean, standard_model,
)
from oplab.estimators import c_step
from oplab.rng import substream

SQ6 = RhoSpec(c=math.sqrt(6.0), convention="squared-distance")


def _report(capsys, num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {name}: {status}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


# ---------------------------------------------------------------------------

def test_criterion_01_breakdown_bound_table(capsys):
    expected = {1: 0.50, 2: 0.29, 3: 0.21, 4: 0.16, 5: 0.13,
                10: 0.07, 15: 0.05, 20: 0.03, 100: 0.01}
    t0 = time.time()
    got = {d: round(epsilon0(0.0, d), 2) for d in expected}
    elapsed = time.time() - t0
    ok = got == expected and elapsed < 1.0
    _report(capsys, 1, "breakdown bound table by dimension", ok,
            f"two-decimal values match for d in {sorted(expected)}, {elapsed:.3f}s")


def test_criterion_02_clean_majority_thresholds(capsys):
    # clean rows, a share (1 - eps)^d, are a minority exactly when eps
    # exceeds the bound epsilon0(0, d) = 1 - (1/2)^(1/d)
    d05, d01 = (next(d for d in itertools.count(1) if epsilon0(0.0, d) < eps)
                for eps in (0.05, 0.01))
    ok = (d05, d01) == (14, 69) \
        and 0.95 ** 14 < 0.5 <= 0.95 ** 13 \
        and 0.99 ** 69 < 0.5 <= 0.99 ** 68
    _report(capsys, 2, "smallest d with clean-row minority", ok,
            f"eps=0.05 -> d={d05}, eps=0.01 -> d={d01}")


def test_criterion_03_cellwise_row_count_law(capsys):
    spec = ContaminationSpec(model="ficm", epsilon=0.3,
                             outlier=AdditiveShift(10.0))
    data = sample_contaminated(standard_model(2), spec, 20_000, seed=101)
    counts = data.b.sum(axis=1)
    fr = np.array([np.mean(counts == k) for k in (0, 1, 2)])
    target = np.array([0.49, 0.42, 0.09])
    gap = np.abs(fr - target)
    ok = bool(np.all(gap <= 0.01))
    _report(capsys, 3, "0/1/2 contaminated-cell row fractions", ok,
            f"observed {np.round(fr, 4).tolist()} vs 0.49/0.42/0.09, "
            f"max gap {gap.max():.4f} <= 0.01")


# ---------------------------------------------------------------------------

POINTS = [(1.0, 0.3), (0.8, -0.6), (1.2, 0.0), (0.7, 0.7), (-0.9, 0.7)]


def test_criterion_04_influence_matches_finite_eps_slope(capsys):
    model = standard_model(2)
    # the slope oracle's noise scales like 1/sqrt(draws * eps), so the 5%
    # band needs millions of rows; no bootstrap, only the point estimates
    mc_big = MonteCarlo(n_draws=6_000_000, seed=505)
    worst = {}
    for kind in ("fdcm", "ficm"):
        ctx = InfluenceContext(model, SQ6, kind=kind, mc=mc_big)
        rels = []
        for z in POINTS:
            ref = influence(np.array(z), ctx)
            num = if_numeric(z, ctx, n_boot=1)
            rels.append(float(np.linalg.norm(ref.value - num.value)
                              / np.linalg.norm(ref.value)))
        worst[kind] = max(rels)

    # coordinatewise M: the contaminated marginal is the same two-point
    # mixture under both models, so the measured slopes must agree, and
    # equal the one-dimensional full-row influence of each coordinate
    mc_small = MonteCarlo(n_draws=800_000, seed=505)
    marginal = InfluenceContext(standard_model(1), SQ6, kind="fdcm")
    identical = True
    agree = 0.0
    for z in POINTS:
        fits = {}
        for kind in ("fdcm", "ficm"):
            ctx = InfluenceContext(model, SQ6, kind=kind, mc=mc_small)
            fits[kind] = if_numeric(z, ctx, estimator=coord_m_fit(model, SQ6),
                                    n_boot=6)
        gap = np.abs(fits["fdcm"].value - fits["ficm"].value)
        band = 4.0 * np.sqrt(fits["fdcm"].stderr ** 2
                             + fits["ficm"].stderr ** 2)
        identical &= bool(np.all(gap <= band))
        closed = np.concatenate([if_fdcm([zj], marginal).value for zj in z])
        agree = max(agree, float(np.linalg.norm(fits["ficm"].value - closed)
                                 / np.linalg.norm(closed)))

    ok = worst["fdcm"] <= 0.05 and worst["ficm"] <= 0.05 \
        and identical and agree <= 0.15
    _report(capsys, 4, "influence equals the finite-eps slope", ok,
            f"worst rel fdcm {worst['fdcm']:.4f}, ficm {worst['ficm']:.4f} "
            f"(<= 0.05 at 5 points); coordinatewise slopes model-identical "
            f"within 4 sigma: {identical}")


def test_criterion_05_half_and_half_averaging_identity(capsys):
    # on a correlated model both cellwise paths run the Monte Carlo core, each
    # on its own substream; on a diagonal one both would be the exact form
    kw = dict(n_draws=100_000, seed=77)
    model = equicorrelated_model(2, 0.5)

    def ctx(kind, **mckw):
        return InfluenceContext(model, SQ6, kind=kind,
                                mc=MonteCarlo(**mckw) if mckw else MonteCarlo())

    ctx_p, ctx_f, ctx_r = ctx("psicm", **kw), ctx("ficm", **kw), ctx("fdcm")
    worst_z = 0.0
    ok = True
    n_pts = 0
    for z1 in (-1.5, -0.5, 0.5, 1.5):
        for z2 in (-1.0, 0.0, 1.0, 2.0, 3.0):
            z = [z1, z2]
            ps, fi, fd = if_psicm(z, ctx_p), if_ficm(z, ctx_f), if_fdcm(z, ctx_r)
            avg = 0.5 * (fd.value + fi.value)
            sig = np.sqrt(ps.stderr ** 2 + (0.5 * fi.stderr) ** 2) + 1e-300
            worst_z = max(worst_z, float(np.max(np.abs(ps.value - avg) / sig)))
            ok &= bool(np.all(np.abs(ps.value - avg) <= 4.0 * sig + 1e-12))
            n_pts += 1
    _report(capsys, 5, "half-spoiled influence is the fdcm/ficm average", ok,
            f"{n_pts} grid points, worst |z| {worst_z:.2f} within 4 combined sigma")


def test_criterion_06_cellwise_persistence_rowwise_vanishing(capsys):
    # On the axis z = t*e1 the surviving single-cell pattern pins the other
    # coordinate at its center, so both influence norms are zero there and
    # the t=1e2 and t=1e3 evaluations coincide by common random numbers.
    # The non-redescending behavior lives on the ridge z = (1, t): the far
    # cell is rejected while the moderate cell keeps a positive plateau.
    model = standard_model(2)
    kw = dict(n_draws=100_000, seed=99)
    ctx_f = InfluenceContext(model, SQ6, kind="ficm", mc=MonteCarlo(**kw))
    ctx_r = InfluenceContext(model, SQ6, kind="fdcm", mc=MonteCarlo(**kw))
    a2 = if_ficm([100.0, 0.0], ctx_f).norm
    a3 = if_ficm([1000.0, 0.0], ctx_f).norm
    axis_rel = abs(a3 - a2) / max(a2, 1e-12)
    r2 = if_ficm([1.0, 100.0], ctx_f).norm
    r3 = if_ficm([1.0, 1000.0], ctx_f).norm
    ridge_rel = abs(r3 - r2) / r2
    fd_gone = all(if_fdcm(z, ctx_r).norm == 0.0
                  for z in ([3.0, 0.0], [100.0, 0.0], [1000.0, 0.0],
                            [1.0, 100.0], [1.0, 1000.0]))
    ok = axis_rel <= 0.01 and ridge_rel <= 0.01 and r2 > 0.5 and fd_gone
    _report(capsys, 6, "cellwise influence persists, rowwise vanishes", ok,
            f"axis |IF| {a2:.4f} vs {a3:.4f} (rel {axis_rel:.1e}); ridge "
            f"plateau {r2:.4f} vs {r3:.4f} (rel {ridge_rel:.1e} <= 1%); "
            f"rowwise IF exactly 0 at every far point")


def test_criterion_07_sensitivity_ordering_by_dimension(capsys):
    report = ges_vs_dim(d_grid=(5, 10, 15), n_draws=60_000, seed=31, threads=4)
    rows = report.tables["results"][1]

    def val(d, est, kind):
        return next(r[3] for r in rows if r[:3] == (d, est, kind))

    margins = {d: (val(d, "multivariate-s", "ficm"),
                   val(d, "multivariate-s", "fdcm")) for d in (5, 10, 15)}
    coords = [val(d, "coordinatewise-s", k)
              for d in (5, 10, 15) for k in ("fdcm", "ficm")]
    flat = max(coords) - min(coords)
    ok = all(a["passed"] for a in report.summary["assertions"]) \
        and all(i > f for i, f in margins.values()) and flat < 1e-9
    _report(capsys, 7, "cellwise sensitivity exceeds rowwise as d grows", ok,
            "ficm vs fdcm " + ", ".join(
                f"d={d}: {i:.2f}>{f:.2f}" for d, (i, f) in margins.items())
            + f"; coordinatewise flat (range {flat:.1e})")


def test_criterion_08_bias_sweep_behavior(capsys):
    report = bias_sweep(d=15, n=100, eps=0.15,
                        t_grid=(0.0, 5.0, 10.0, 20.0, 50.0, 100.0),
                        estimators=("mean", "coord_median", "mcd", "mve"),
                        replications=20, seed=7, threads=4,
                        mcd_starts=100, mve_trials=200)
    curves = {(r[0], r[1]): (r[2], r[3]) for r in report.tables["curves"][1]}
    cm_worst = max(curves[(t, "coord_median")][0]
                   for t in (0.0, 5.0, 10.0, 20.0, 50.0, 100.0))
    mcd100 = curves[(100.0, "mcd")][0]
    mve100 = curves[(100.0, "mve")][0]
    mean_rel = max(abs(curves[(t, "mean")][1] - 0.15 * t) / (0.15 * t)
                   for t in (5.0, 10.0, 20.0, 50.0, 100.0))
    ok = all(a["passed"] for a in report.summary["assertions"]) and cm_worst < 1.0 \
        and mcd100 > 5.0 and mve100 > 5.0 and mean_rel <= 0.20
    _report(capsys, 8, "bias growth at d=15, eps=0.15, 20 replications", ok,
            f"coord_median worst {cm_worst:.3f} < 1; mcd/mve at t=100: "
            f"{mcd100:.1f}/{mve100:.1f} > 5, nondecreasing past t=10; "
            f"mean bias within {mean_rel:.1%} of eps*t")


# ---------------------------------------------------------------------------

def _random_transforms(d, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a = rng.normal(size=(d, d))
        if abs(np.linalg.det(a)) > 0.3:
            out.append((a, rng.normal(size=d) * 3.0))
    return out


def test_criterion_09_estimator_property_suite(capsys):
    rho3 = RhoSpec(c=calibrate_c(3, 0.5), convention="scaled-distance")
    x = substream(301, 0).normal(size=(80, 3))
    x[:8] += 5.0

    s_fit = s_estimate(x, rho3, seed=4)
    dist = np.sqrt(mahalanobis_sq(x, s_fit.mu, s_fit.sigma))
    s_constraint = abs(float(np.mean(rho(rho3, dist))) - 0.5)
    s_resid = float(np.linalg.norm(
        (s_fit.weights[:, None] * (x - s_fit.mu)).sum(axis=0)))
    m_fit = m_location(x, np.cov(x, rowvar=False), SQ6)
    m_resid = float(np.linalg.norm(
        (m_fit.weights[:, None] * (x - m_fit.mu)).sum(axis=0)))

    n, d = x.shape
    h = (n + d + 1) // 2
    rng = np.random.default_rng(17)
    monotone = True
    for _ in range(20):
        idx = rng.choice(n, size=d + 1, replace=False)
        m, cov = x[idx].mean(axis=0), np.cov(x[idx], rowvar=False)
        if np.linalg.det(cov) <= 1e-12:
            continue
        logdets = []
        for _ in range(25):
            subset = c_step(x, m, cov, h)
            m, cov = x[subset].mean(axis=0), np.cov(x[subset], rowvar=False)
            logdets.append(np.linalg.slogdet(cov)[1])
        monotone &= bool(np.all(np.diff(logdets) <= 1e-10))

    mcd_fit = mcd(x, seed=11)
    scaled = n * mcd_fit.weights
    nonzero = scaled[scaled > 0]
    weights_ok = bool(np.all((nonzero >= 1.0 - 1e-12) & (nonzero <= 2.0 + 1e-12)))

    fits = {"mean": lambda y: sample_mean(y),
            "m": lambda y: m_location(y, np.cov(y, rowvar=False), SQ6),
            "s": lambda y: s_estimate(y, rho3, seed=11),
            "mcd": lambda y: mcd(y, n_starts=500, seed=11),
            "mve": lambda y: mve(y, n_trials=400, seed=11)}
    equi_worst = 0.0
    for name, fit in fits.items():
        e0 = fit(x)
        for a, b in _random_transforms(3, 10, seed=7):
            e1 = fit(x @ a.T + b)
            equi_worst = max(equi_worst,
                             float(np.max(np.abs(e1.mu - (a @ e0.mu + b)))))
            if name != "mve":  # MVE scales sigma to its own coverage radius
                ref = a @ e0.sigma @ a.T
                gap = np.max(np.abs(e1.sigma - ref)) / max(1.0, np.max(np.abs(ref)))
                equi_worst = max(equi_worst, float(gap))

    w = substream(104, 0).normal(size=(200, 2))
    w[:, 1] = 0.9 * w[:, 0] + 0.44 * w[:, 1]
    w[:30] += np.array([4.0, -4.0])
    th = np.pi / 4
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    witness = float(np.max(np.abs(coord_median(w @ rot.T) - rot @ coord_median(w))))

    ok = s_constraint < 1e-8 and s_resid < 1e-8 and m_resid < 1e-8 \
        and monotone and weights_ok and equi_worst < 1e-6 and witness > 0.1
    _report(capsys, 9, "estimator identities and equivariance", ok,
            f"S constraint {s_constraint:.1e}, weighted-mean residuals S "
            f"{s_resid:.1e} / M {m_resid:.1e}, 20 C-step chains monotone: "
            f"{monotone}, scaled MCD weights in [1,2]: {weights_ok}, worst "
            f"equivariance gap {equi_worst:.1e} over 10 transforms, "
            f"coord_median rotation witness {witness:.2f}")


def test_criterion_10_empirical_breakdown_vs_bound(capsys):
    details = []
    ok = True
    for d, top in ((2, 0.36), (5, 0.20), (10, 0.14)):
        grid = tuple(np.round(np.arange(0.02, top, 0.02), 2))
        report = empirical_breakdown(estimator="mcd", d=d, eps_grid=grid,
                                     replications=3, n=200, seed=11,
                                     threads=4, mcd_starts=60)
        star = report.summary["eps_star_hat"]
        bound = epsilon0(0.0, d)
        ok &= star is not None and star <= bound + 0.02
        details.append(f"d={d}: {star} <= {bound:.3f}+0.02")
    _report(capsys, 10, "MCD breaks within one grid step of the bound", ok,
            "; ".join(details))


def test_criterion_11_thread_count_determinism(capsys, tmp_path):
    payloads = []
    names = ("ges_vs_dim", "bias_sweep", "breakdown")
    for threads in (1, 8):
        g = ges_vs_dim(d_grid=(1, 2, 5), n_draws=20_000, seed=31, threads=threads)
        b = bias_sweep(d=3, n=40, eps=0.15, t_grid=(0.0, 10.0),
                       replications=3, seed=7, threads=threads,
                       mcd_starts=30, mve_trials=50)
        e = empirical_breakdown(estimator="mcd", d=2, eps_grid=(0.1, 0.2, 0.3),
                                replications=3, n=60, seed=11, threads=threads,
                                mcd_starts=30)
        out = tmp_path / f"t{threads}"
        for name, report in zip(names, (g, b, e)):
            report.write(str(out / name))
        payloads.append(tuple((out / name / "results.csv").read_bytes() for name in names))
    ok = payloads[0] == payloads[1]
    _report(capsys, 11, "results are byte-identical at 1 and 8 threads", ok,
            "ges_vs_dim (d = 1, 2, 5), bias_sweep and empirical_breakdown reruns "
            "compared as files")
