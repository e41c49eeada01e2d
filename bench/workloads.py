"""The four benchmark workloads: inputs, the timed operations, and checks.

Each workload has three steps.  ``prepare`` builds the pass's inputs from
the pass seed and counts toward set-up time.  ``run`` is the timed pass: it
calls oplab the way a user does (``oplab.cli.main`` with the argv typed at a
shell, or a library function where no command exists) and counts operations
attempted and failed.  ``check`` judges the outputs against ``oracles``,
which never calls oplab, or against a property the method must have.

oplab functions are looked up on their modules at call time, so the wrappers
a traced pass installs are the ones called.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Pass:
    seed: int          # derived from the workload seed and the pass index
    index: int
    dir: Path          # empty directory for this pass's files
    threads: int | None = None


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    values: dict = field(default_factory=dict)


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


def _mod(name: str):
    return importlib.import_module(f"oplab.{name}")


def cli(argv: list) -> int:
    """Run one oplab command in this process; its stdout is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return _mod("cli").main([str(a) for a in argv])


def _thread_flags(p: Pass) -> list:
    return [] if p.threads is None else ["--threads", p.threads]


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _write_matrix(path: Path, x: np.ndarray) -> None:
    header = ",".join(f"x{j + 1}" for j in range(x.shape[1]))
    np.savetxt(path, x, fmt="%.17g", delimiter=",", header=header, comments="")


# ---------------------------------------------------------------------------

class Sweep:
    """fig4 shape: d=15, n=100, eps=0.15 cellwise shifts, t in {20, 60, 100}.

    The subset estimators (mcd, mve) run at default --mcd-starts and
    --mve-trials over SUBSET_REPS replications.  mean and coord_median run
    in a second fig4 over LOCATION_REPS replications: their checks are
    statistical, and the mean's 20% band needs that many (see check).  Two
    further MCD fits go through `oplab estimate` on fig4-shaped data the
    benchmark writes, so their concentration fixed point can be checked.

    The t steps are wide because a single MCD replication can switch
    subsets between neighbouring t and dip: over 40 replications on the
    step-10 grid the smallest ratio of bias at t + 10 to bias at t was
    0.94, while on this grid it was 1.35.
    """

    D, N, EPS = 15, 100, 0.15
    T_GRID = "20:100:40"
    TS = (20.0, 60.0, 100.0)
    SUBSET_REPS = 4
    LOCATION_REPS = 40
    SAMPLE_TS = (10.0, 100.0)

    def prepare(self, p: Pass) -> dict:
        rng = np.random.default_rng(p.seed)
        y = rng.standard_normal((self.N, self.D))
        b = rng.random((self.N, self.D)) < self.EPS
        samples = []
        for t in self.SAMPLE_TS:
            path = p.dir / f"mcd_t{int(t)}.csv"
            x = y + t * b
            _write_matrix(path, x)
            samples.append((path, x))
        common = ["fig4", "--d", self.D, "--n", self.N, "--eps", self.EPS,
                  "--t-grid", self.T_GRID, "--seed", p.seed] + _thread_flags(p)
        return {
            "subset": common + ["--estimators", "mcd,mve", "--reps", self.SUBSET_REPS,
                                "--out", p.dir / "subset"],
            "location": common + ["--estimators", "mean,coord_median",
                                  "--reps", self.LOCATION_REPS, "--out", p.dir / "location"],
            "samples": samples,
        }

    def _sweep(self, part: str, argv: list, reps: int, out: Outcome) -> None:
        expected = reps * len(self.TS) * 2
        out.attempted += expected
        out.values[part] = cli(argv) == 0
        if not out.values[part]:
            out.failed += expected
            return
        rows = _read_csv(Path(argv[-1]) / "bias_sweep" / "results.csv")
        out.failed += expected - sum(math.isfinite(float(r["max_abs_bias"])) for r in rows)

    def run(self, p: Pass, inputs: dict, out: Outcome) -> None:
        self._sweep("subset", inputs["subset"], self.SUBSET_REPS, out)
        self._sweep("location", inputs["location"], self.LOCATION_REPS, out)
        for path, _ in inputs["samples"]:
            out.attempted += 1
            out.values[path] = cli(["estimate", "--estimator", "mcd", "--starts", 100,
                                    "--seed", p.seed, "--in", path,
                                    "--out", path.with_suffix(".json")]) == 0
            out.failed += not out.values[path]

    def check(self, p: Pass, inputs: dict, out: Outcome) -> list[Check]:
        from oracles import concentration_logdet

        curves = {}
        for part in ("subset", "location"):
            if not out.values[part]:
                continue
            for r in _read_csv(p.dir / part / "bias_sweep" / "curves.csv"):
                curves[(float(r["t"]), r["estimator"])] = (float(r["mean_of_max"]),
                                                          float(r["max_of_mean"]))
        checks = []
        if out.values["location"]:
            checks += self._location_checks(curves)
        if out.values["subset"]:
            checks += self._subset_checks(curves)
        for path, x in inputs["samples"]:
            if not out.values[path]:
                continue
            fit = json.loads(path.with_suffix(".json").read_text())
            mu, sigma = np.asarray(fit["mu"]), np.asarray(fit["sigma"])
            before = float(np.linalg.slogdet(sigma)[1])
            after = concentration_logdet(x, mu, sigma)
            # mcd stops when a C-step lowers the log-determinant by less than
            # 1e-12; 1e-9 adds room for a different but exact factorisation
            checks.append(Check(f"sweep: one more C-step does not lower the MCD log-det ({path.stem})",
                                after >= before - 1e-9, f"{before:.12f} -> {after:.12f}"))
        return checks

    def _location_checks(self, curves: dict) -> list[Check]:
        checks = []
        # Replication means of one component have sd at most
        # sqrt((1 + t^2 eps (1 - eps)) / (n R)); at R = 40 that is 0.038 eps t
        # for every t >= 20, so 0.2 eps t is 5.3 sd for each of 15 components
        rel = max(abs(curves[(t, "mean")][1] - self.EPS * t) / (self.EPS * t)
                  for t in self.TS if t >= 5.0)
        checks.append(Check("sweep: mean bias within 20% of eps*t for t >= 5",
                            rel <= 0.2, f"worst relative gap {rel:.4f}"))
        worst = max(curves[(t, "coord_median")][0] for t in self.TS)
        checks.append(Check("sweep: coord_median max-bias below 1 at every t",
                            worst < 1.0, f"worst {worst:.4f}"))
        return checks

    def _subset_checks(self, curves: dict) -> list[Check]:
        checks = []
        for est in ("mcd", "mve"):
            vals = [curves[(t, est)][0] for t in self.TS if t >= 10.0]
            mono = all(b >= a for a, b in zip(vals, vals[1:]))
            checks.append(Check(f"sweep: {est} max-bias nondecreasing past t=10 and > 5 at t=100",
                                mono and vals[-1] > 5.0, f"{[round(v, 3) for v in vals]}"))
        return checks


# ---------------------------------------------------------------------------

class Slope:
    """Criterion-04 shape: if_numeric slopes at N(0, I_2) with the sqrt(6)
    squared-distance loss, pass i evaluating point POINTS[i % 5].

    Per pass: the M-location fit and the coord_m_fit variant under fdcm and
    ficm at N_ROWS rows, plus one point on a model scaled by 1e6 at
    SCALED_ROWS rows.  The scaled point fails today (m_location judges
    convergence by an absolute residual), so it is counted as failed.
    """

    POINTS = ((1.0, 0.3), (0.8, -0.6), (1.2, 0.0), (0.7, 0.7), (-0.9, 0.7))
    C = math.sqrt(6.0)
    CONVENTION = "squared-distance"
    N_ROWS = 150_000
    SCALED_ROWS = 20_000
    SCALE = 1e6
    EPS_GRID = (0.005, 0.01)
    ORACLE_DRAWS = 400_000

    def prepare(self, p: Pass) -> dict:
        numerics = _mod("numerics")
        z = np.array(self.POINTS[p.index % len(self.POINTS)])
        return {
            "z": z,
            "model": numerics.standard_model(2),
            "scaled_model": numerics.EllipticalModel(np.zeros(2), self.SCALE**2 * np.eye(2)),
            "rho": numerics.RhoSpec(c=self.C, convention=self.CONVENTION),
        }

    def _slope(self, out: Outcome, key: str, z, ctx, estimator=None) -> None:
        influence = _mod("influence")
        out.attempted += 1
        try:
            res = influence.if_numeric(z, ctx, estimator=estimator,
                                       eps_grid=self.EPS_GRID, n_boot=1)
        except _mod("estimators").EstimationError as exc:
            out.failed += 1
            out.values[key] = repr(exc)
            return
        out.values[key] = res.value

    def run(self, p: Pass, inputs: dict, out: Outcome) -> None:
        influence = _mod("influence")
        model, rho, z = inputs["model"], inputs["rho"], inputs["z"]
        for kind in ("fdcm", "ficm"):
            ctx = influence.InfluenceContext(
                model, rho, kind=kind, mc=influence.MonteCarlo(n_draws=self.N_ROWS, seed=p.seed))
            out.values[f"ctx_{kind}"] = ctx
            self._slope(out, f"m_{kind}", z, ctx)
            self._slope(out, f"coord_{kind}", z, ctx, influence.coord_m_fit(model, rho))
        big = influence.InfluenceContext(
            inputs["scaled_model"], rho, kind="fdcm",
            mc=influence.MonteCarlo(n_draws=self.SCALED_ROWS, seed=p.seed))
        self._slope(out, "scaled", self.SCALE * z, big)

    def check(self, p: Pass, inputs: dict, out: Outcome) -> list[Check]:
        import oracles

        influence = _mod("influence")
        z, c, conv, n = inputs["z"], self.C, self.CONVENTION, self.N_ROWS
        v = out.values
        checks = []

        def within(name, got, ref, sd):
            if isinstance(got, str) or isinstance(ref, str):
                return  # the operation failed and is counted in `failed`
            gap = np.abs(np.asarray(got) - ref)
            checks.append(Check(name, bool(np.all(gap <= oracles.Z_BAND * sd)),
                                f"z={z.tolist()} gap {np.round(gap, 4).tolist()} "
                                f"band {np.round(oracles.Z_BAND * sd, 4).tolist()}"))

        # noise of a finite-eps slope: every flipped row or cell adds the
        # variance of (IF(z) - IF(Y)), sd ~ 1/sqrt(n eps) (oracles.slope_sd)
        row_if = oracles.if_rowwise(z, c, conv)
        row_sd = oracles.slope_sd(row_if**2 + oracles.rowwise_if_second_moment(c, conv, 2),
                                  n, self.EPS_GRID)
        within("slope: fdcm M slope matches the closed-form influence", v["m_fdcm"], row_if, row_sd)

        coord_if = oracles.if_coordinatewise(z, c, conv)
        coord_sd = oracles.slope_sd(coord_if**2 + oracles.rowwise_if_second_moment(c, conv, 1),
                                    n, self.EPS_GRID)
        for kind in ("fdcm", "ficm"):
            within(f"slope: {kind} coordinatewise slope matches the closed form",
                   v[f"coord_{kind}"], coord_if, coord_sd)
        within("slope: fdcm and ficm coordinatewise slopes agree",
               v["coord_fdcm"], v["coord_ficm"], math.sqrt(2.0) * coord_sd)

        mc_mean, mc_var, flip_var = oracles.cellwise_moments(z, c, conv, self.ORACLE_DRAWS,
                                                             seed=p.seed)
        program_ficm = influence.if_ficm(z, v["ctx_ficm"]).value
        within("slope: ficm M slope matches if_ficm",
               v["m_ficm"], program_ficm,
               np.sqrt(oracles.slope_sd(flip_var, n, self.EPS_GRID) ** 2 + mc_var / n))
        within("slope: if_ficm matches an independent Monte Carlo",
               program_ficm, mc_mean, np.sqrt(mc_var / n + mc_var / self.ORACLE_DRAWS))

        if not isinstance(v["scaled"], str):
            # affine equivariance: the same draws scaled by 1e6 give 1e6 x the slope
            unit = influence.if_numeric(
                z, influence.InfluenceContext(
                    inputs["model"], inputs["rho"], kind="fdcm",
                    mc=influence.MonteCarlo(n_draws=self.SCALED_ROWS, seed=p.seed)),
                eps_grid=self.EPS_GRID, n_boot=1).value
            gap = float(np.max(np.abs(v["scaled"] / self.SCALE - unit)))
            checks.append(Check("slope: scaled-model slope is 1e6 x the unit slope",
                                gap <= 1e-6 * (1.0 + float(np.max(np.abs(unit)))),
                                f"gap {gap:.3e}"))
        return checks


# ---------------------------------------------------------------------------

class Ges:
    """fig2 shape: ges_vs_dim over d in {1, 2, 5, 10} with fig2's default
    search and DRAWS Monte Carlo draws (default 100000)."""

    D_GRID = (1, 2, 5, 10)
    DRAWS = 10_000

    def prepare(self, p: Pass) -> dict:
        return {"argv": ["fig2", "--d-grid", ",".join(map(str, self.D_GRID)),
                         "--draws", self.DRAWS, "--seed", p.seed,
                         "--out", p.dir] + _thread_flags(p)}

    def run(self, p: Pass, inputs: dict, out: Outcome) -> None:
        searches = len(self.D_GRID) * 2  # one per (d, kind)
        out.attempted += searches
        out.values["ok"] = cli(inputs["argv"]) == 0
        out.failed += 0 if out.values["ok"] else searches

    def check(self, p: Pass, inputs: dict, out: Outcome) -> list[Check]:
        import oracles

        if not out.values["ok"]:
            return []
        rows = _read_csv(p.dir / "ges_vs_dim" / "results.csv")
        val = {(int(r["d"]), r["estimator"], r["model"]): float(r["ges"]) for r in rows}
        cval = {(int(r["d"]), r["estimator"]): float(r["c"]) for r in rows}
        checks = []
        # calibrate_c stops at |c_hi - c_lo| < 1e-10 and quad is good to
        # 1e-12, so E rho misses 1/2 by well under 1e-8
        gaps = {d: abs(oracles.expected_rho(cval[(d, "multivariate-s")], d) - 0.5)
                for d in self.D_GRID}
        gaps["coord"] = abs(oracles.expected_rho(cval[(1, "coordinatewise-s")], 1) - 0.5)
        checks.append(Check("ges: every calibrated c gives E rho = 1/2 under chi2_d",
                            max(gaps.values()) <= 1e-8,
                            f"worst {max(gaps.values()):.2e}"))
        # the maximiser of psi(t^2) t is found to 1e-12 in t and the value is
        # flat there, so both sides agree to quadrature precision
        rels = [abs(val[(d, "multivariate-s", "fdcm")]
                    / oracles.radial_ges(cval[(d, "multivariate-s")], "scaled-distance", d) - 1.0)
                for d in self.D_GRID]
        checks.append(Check("ges: fdcm GES equals max_t psi(t^2) t / a_psi",
                            max(rels) <= 1e-7, f"worst relative gap {max(rels):.2e}"))
        coord = [val[(d, "coordinatewise-s", k)] for d in self.D_GRID for k in ("fdcm", "ficm")]
        ref = oracles.radial_ges(cval[(1, "coordinatewise-s")], "scaled-distance", 1)
        flat = max(coord) - min(coord) <= 1e-12 * max(coord) and abs(coord[0] / ref - 1.0) <= 1e-7
        checks.append(Check("ges: coordinatewise curves flat at the univariate GES", flat,
                            f"range {max(coord) - min(coord):.2e}, value {coord[0]:.9f} vs {ref:.9f}"))
        for d in self.D_GRID:
            if d >= 5:
                f, i = val[(d, "multivariate-s", "fdcm")], val[(d, "multivariate-s", "ficm")]
                checks.append(Check(f"ges: ficm above fdcm at d={d}", i > f,
                                    f"ficm {i:.4f} vs fdcm {f:.4f}"))
        # at d=1 a pinned cell is the whole row, so the ficm Monte Carlo has
        # no noise and the curves differ only by the golden-section tolerance
        ones = [val[(1, e, k)] for e in ("multivariate-s", "coordinatewise-s")
                for k in ("fdcm", "ficm")]
        checks.append(Check("ges: all four curves coincide at d=1",
                            max(ones) - min(ones) <= 1e-9 * max(ones),
                            f"spread {max(ones) - min(ones):.2e}"))
        return checks


# ---------------------------------------------------------------------------

class Pipeline:
    """simulate ficm eps=0.05 d=5 (default additive shift 10) to CSV, a shorter
    simulate with the same seed, then the S and coordinatewise S fits of the
    written file."""

    D, EPS = 5, 0.05
    N_ROWS = 10_000
    HEAD_ROWS = 500

    def prepare(self, p: Pass) -> dict:
        sim = ["simulate", "--model", "ficm", "--eps", self.EPS, "--d", self.D,
               "--seed", p.seed]
        data = p.dir / "data.csv"
        return {
            "commands": [
                sim + ["--n", self.N_ROWS, "--out", data],
                sim + ["--n", self.HEAD_ROWS, "--out", p.dir / "head.csv"],
                ["estimate", "--estimator", "s", "--in", data, "--seed", p.seed,
                 "--out", p.dir / "s.json"],
                ["estimate", "--estimator", "coord_s", "--in", data,
                 "--out", p.dir / "coord_s.json"],
            ],
        }

    def run(self, p: Pass, inputs: dict, out: Outcome) -> None:
        for i, argv in enumerate(inputs["commands"]):
            out.attempted += 1
            out.values[i] = cli(argv) == 0
            out.failed += not out.values[i]

    def check(self, p: Pass, inputs: dict, out: Outcome) -> list[Check]:
        import oracles
        from scipy import stats

        simulated, head_simulated, s_fitted, coord_s_fitted = (out.values[i] for i in range(4))
        if not simulated:
            return []
        table = np.loadtxt(p.dir / "data.csv", delimiter=",", skiprows=1, ndmin=2)
        x, b = table[:, :self.D], table[:, self.D:]
        counts = np.bincount(b.sum(axis=1).astype(int), minlength=self.D + 1)
        n = len(x)
        pmf = stats.binom.pmf(np.arange(self.D + 1), self.D, self.EPS)
        off = [k for k in range(self.D + 1) if oracles.binomial_outlier(int(counts[k]), n, pmf[k])]
        checks = [Check("pipeline: contaminated cells per row follow Binomial(5, 0.05)",
                        n == self.N_ROWS and not off,
                        f"counts {counts.tolist()}, outside the 6-sigma band at k={off}")]

        if head_simulated:
            head = (p.dir / "head.csv").read_bytes().splitlines(keepends=True)
            full = (p.dir / "data.csv").read_bytes().splitlines(keepends=True)
            checks.append(Check("pipeline: shorter simulate reproduces the first rows byte for byte",
                                len(head) == self.HEAD_ROWS + 1 and head == full[:len(head)],
                                f"{len(head) - 1} rows compared"))

        # brentq in m_scale solves the constraint to rtol 1e-13 and the S
        # result is accepted at 1e-8, the level checked here
        if s_fitted:
            fit = json.loads((p.dir / "s.json").read_text())
            cfg = json.loads((p.dir / "s.config.json").read_text())
            dist = np.sqrt(oracles.mahalanobis_sq(x, np.asarray(fit["mu"]), np.asarray(fit["sigma"])))
            gap = abs(float(np.mean(oracles.rho(dist, cfg["c"]))) - cfg["bp"])
            checks.append(Check("pipeline: S fit satisfies mean rho(d_i) = 1/2", gap <= 1e-8,
                                f"gap {gap:.2e}"))
        if coord_s_fitted:
            fit = json.loads((p.dir / "coord_s.json").read_text())
            cfg = json.loads((p.dir / "coord_s.config.json").read_text())
            resid = (x - np.asarray(fit["mu"])) / np.asarray(fit["scale"])
            gaps = np.abs(np.mean(oracles.rho(resid, cfg["c"]), axis=0) - cfg["bp"])
            checks.append(Check("pipeline: each coord_s column satisfies its M-scale constraint",
                                bool(np.all(gaps <= 1e-8)), f"worst gap {gaps.max():.2e}"))
        return checks


WORKLOADS = {"sweep": Sweep, "slope": Slope, "ges": Ges, "pipeline": Pipeline}
