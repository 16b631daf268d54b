"""The benchmark's three workloads: inputs, operations and output checks.

A workload makes its inputs from a seed, runs operation ``i`` through
ardlkit's CLI or public functions, and checks each output against the
independent computations in ``oracles``. Operations reach ardlkit through
module attributes looked up at call time (``ardlkit.adf_test``), so the
traced run's wrappers see every call.

Operations come in rounds; a run attempts whole rounds only, so the share
of failed operations does not depend on how long the run lasts.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from pathlib import Path

import numpy as np
from scipy import stats

import ardlkit
import ardlkit.cli

import oracles

RTOL = 1e-8
ECM_ATOL = 1e-10
SBC_TIE = 1e-9
MAX_P = MAX_Q = 4
# recursive_residuals refuses a full-rank start when the first k rows of
# the design have a condition number above about 3e7 (it tests the rank of
# their X'X), and run_battery then raises on that replication alone. Such
# inputs are drawn again; the fault is a FOUND line in CHANGES.md.
PREFIX_COND_LIMIT = 1e7


def selected_lags(y, x) -> tuple[int, int]:
    """The oracle's SBC argmin (p, q) over max_p = max_q = 4."""
    grid = oracles.ardl_sbc_grid(y, x, MAX_P, MAX_Q)
    return min(grid, key=grid.get)


def battery_can_start(y, x, p: int, q: int) -> bool:
    """ARDL(p, q)'s first k rows are well enough conditioned for ardlkit's
    recursive residuals to start."""
    return oracles.ecm_prefix_condition(y, x, p, q) < PREFIX_COND_LIMIT


def seeded_draw_kept(y, x) -> tuple[bool, int, int]:
    """Whether a seed-dependent draw is kept, and the oracle's SBC choice.

    A draw is kept when its SBC choice has q >= 1 and a start the battery
    can use. The q = 0 fault of estimate_ecm is kept on fixed inputs only
    (``ardl_models``' third process), so that it fails the same share of
    operations in every run; a seed-dependent q = 0 choice would not."""
    p, q = selected_lags(y, x)
    return q >= 1 and battery_can_start(y, x, p, q), p, q


class Workload:
    """Base: ``prepare`` writes a run's inputs and ``stage`` one operation's,
    ``op`` is the timed call and ``check`` returns the problems found in
    one output (empty when correct). ``finish`` returns problems found over
    the whole run."""

    round_size = 1

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.data_dir = root / "src" / "ardlkit" / "data"

    def prepare(self) -> None:
        pass

    def stage(self, i: int) -> None:
        """Make operation i's input, outside the timed region."""

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        raise NotImplementedError

    def finish(self) -> list[str]:
        return []

    def notes(self) -> dict:
        """Figures about the run's outputs that are reported, not checked."""
        return {}


# --- paper_pipeline ----------------------------------------------------------

PAPER_T = 300
PAPER_BURN_IN = 100
OIL_START = math.log(60.0)
OIL_SD = 0.06
# (column, loading, intercept, long-run slope on LNOP, impact of DLNOP, noise)
PAPER_EQUATIONS = (
    ("INFL", -0.35, -4.0, 2.0, 6.0, 0.3),
    ("INT", -0.30, 18.0, -1.5, -4.0, 0.25),
)
# a draw is kept only when the oracle's own estimate sits within this many
# of its standard errors of the generating slope (see README, "Inputs")
PAPER_ACCEPT_SE = 2.5
PAPER_CHECK_SE = 3.0

PAPER_CONFIG = """\
input:
  path: paper.csv
  date_column: date
  date_format: YYYY-MM
  value_columns: [OP, INFL, INT]
  missing_policy: reject
variables:
  LNOP: {source: OP, transforms: [log]}
models:
  - {name: inflation, dependent: INFL, regressors: [LNOP], max_p: 4, max_q: 4,
     criterion: SBC, bounds_case: III}
  - {name: interest, dependent: INT, regressors: [LNOP], max_p: 4, max_q: 4,
     criterion: SBC, bounds_case: III}
unit_root: {test: ADF, spec: constant, alpha: 0.05}
diagnostics: {enabled: true, bg_lags: 2, reset_powers: [2]}
alpha: 0.05
"""


def paper_draw(seed: int, attempt: int) -> dict[str, np.ndarray]:
    """Monthly oil price with inflation and an interest rate that each
    error-correct toward a linear function of the log oil price."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
    total = PAPER_T + PAPER_BURN_IN
    lnop = OIL_START + np.cumsum(OIL_SD * rng.standard_normal(total))
    out = {"OP": np.exp(lnop)}
    for name, loading, const, slope, impact, sd in PAPER_EQUATIONS:
        e = sd * rng.standard_normal(total)
        v = np.empty(total)
        v[0] = const + slope * lnop[0]
        for t in range(1, total):
            gap = v[t - 1] - const - slope * lnop[t - 1]
            v[t] = (v[t - 1] + loading * gap
                    + impact * (lnop[t] - lnop[t - 1]) + e[t])
        out[name] = v
    return {k: v[PAPER_BURN_IN:] for k, v in out.items()}


def paper_accepts(data: dict[str, np.ndarray]) -> bool:
    x = np.log(data["OP"])
    for name, _, _, slope, _, _ in PAPER_EQUATIONS:
        y = data[name]
        kept, p, q = seeded_draw_kept(y, x)
        fit = oracles.ardl_fit(y, x, p, q)
        if not kept or (abs(fit["slope"] - slope)
                        >= PAPER_ACCEPT_SE * fit["slope_se"]):
            return False
    return True


def paper_dataset(seed: int) -> dict[str, np.ndarray]:
    attempt = 0
    while True:
        data = paper_draw(seed, attempt)
        if paper_accepts(data):
            return data
        attempt += 1


def write_csv(path: Path, data: dict[str, np.ndarray]) -> None:
    names = list(data)
    n = len(data[names[0]])
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", *names])
        for i in range(n):
            writer.writerow([f"{2000 + i // 12}-{i % 12 + 1:02d}"]
                            + [repr(float(data[c][i])) for c in names])


def read_csv(path: Path) -> dict[str, np.ndarray]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[j]) for r in body])
            for j, name in enumerate(header) if name != "date"}


class PaperPipeline(Workload):
    """One operation is one ``ardlkit pipeline`` run through cli.main."""

    def prepare(self) -> None:
        write_csv(self.workdir / "paper.csv", paper_dataset(self.seed))
        (self.workdir / "paper.yaml").write_text(PAPER_CONFIG,
                                                 encoding="utf-8")
        self.data = read_csv(self.workdir / "paper.csv")
        self.first_json: bytes | None = None

    def op(self, i: int):
        argv = ["pipeline", "--config", str(self.workdir / "paper.yaml"),
                "--output", str(self.workdir / "report.json"),
                "--format", "text"]
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = ardlkit.cli.main(argv)
        return code, text.getvalue()

    def check(self, i: int, out) -> list[str]:
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        if "inflation" not in text or "interest" not in text:
            return ["text report lacks a model"]
        raw = (self.workdir / "report.json").read_bytes()
        if self.first_json is not None:
            return [] if raw == self.first_json else ["JSON bytes differ"]
        problems = self._check_report(raw.decode("utf-8"))
        if not problems:
            self.first_json = raw
        return problems

    def _check_report(self, text: str) -> list[str]:
        try:
            report = oracles.strict_json_loads(text)
        except ValueError as exc:
            return [f"report is not strict JSON: {exc}"]
        problems = []
        x = np.log(self.data["OP"])
        truth = {name: slope for name, _, _, slope, _, _ in PAPER_EQUATIONS}
        for model in report["models"]:
            dep = model["dependent"]
            p, q = model["selected"]["p"], model["selected"]["q"]["LNOP"]
            ref = oracles.ardl_fit(self.data[dep], x, p, q)
            bounds = model["bounds"]
            if not oracles.close(bounds["f_statistic"], ref["f_statistic"],
                                 RTOL):
                problems.append(f"{dep}: bounds F {bounds['f_statistic']} "
                                f"!= {ref['f_statistic']}")
            band = oracles.pss_band(self.data_dir, "III", 1, report["alpha"])
            expected = oracles.band_decision(ref["f_statistic"], band)
            if bounds["decision"] != expected:
                problems.append(f"{dep}: decision {bounds['decision']} "
                                f"!= {expected}")
            if model["long_run"] is None or model["short_run"] is None:
                problems.append(f"{dep}: long-run or ECM table missing")
                continue
            lr = {r["variable"]: r for r in model["long_run"]["rows"]}["LNOP"]
            slope = truth[dep]
            coef = lr["coefficient"]
            if (math.copysign(1.0, coef) != math.copysign(1.0, slope)
                    or abs(coef - slope) > PAPER_CHECK_SE * lr["std_error"]):
                problems.append(f"{dep}: long-run slope {coef} "
                                f"(se {lr['std_error']}) misses {slope}")
            one_step = {r["variable"]: r["coefficient"]
                        for r in model["conditional_ecm_rows"]}[f"{dep}(-1)"]
            loading = {r["variable"]: r["coefficient"]
                       for r in model["short_run"]["rows"]}["ECM(-1)"]
            if abs(loading - one_step) > ECM_ATOL:
                problems.append(f"{dep}: ECM loading {loading} != one-step "
                                f"feedback {one_step}")
        return problems


# --- ardl_models -------------------------------------------------------------

ARDL_T = 300
# The third process is ARDL(1, 0): select_lags picks q = 0 there, where
# estimate_ecm's two-step loading misses the one-step feedback. Its inputs
# do not depend on the run's seed, so each of its replications fails the
# same way in every run until the fault is mended.
Q0_MASTER = 20210
Q0_POOL = 8


def q0_inputs() -> list[int]:
    """The first Q0_POOL seeds under Q0_MASTER on which the oracle's SBC
    argmin has q = 0."""
    seeds = []
    r = 0
    while len(seeds) < Q0_POOL:
        seed = ardlkit.derive_seed(Q0_MASTER, r)
        ds = ardlkit.generate(_q0_process(seed))
        y, x = ds["Y"].values, ds["X"].values
        p, q = selected_lags(y, x)
        if q == 0 and battery_can_start(y, x, p, q):
            seeds.append(seed)
        r += 1
    return seeds


def _q0_process(seed: int):
    return ardlkit.ArdlProcess(T=ARDL_T, seed=seed, theta=(1.0,))


class ArdlModels(Workload):
    """One operation is one replication of the pipeline's per-model stage."""

    round_size = 3

    def __init__(self, root: Path, seed: int, workdir: Path):
        super().__init__(root, seed, workdir)
        self.redrawn = 0
        self.staged = None

    def prepare(self) -> None:
        self.q0_seeds = q0_inputs()

    def stage(self, i: int) -> None:
        self.staged = (i, self.process(i))

    def _draw(self, kind: int, seed: int):
        if kind == 0:
            return ardlkit.CointegratedPair(T=ARDL_T, seed=seed)
        return ardlkit.ArdlProcess(T=ARDL_T, seed=seed, theta=(1.0, 0.5))

    def process(self, i: int):
        """Replication i's process. The first two kinds are seeded with
        derive_seed(seed, i), drawn again under derive_seed(that, attempt)
        until seeded_draw_kept."""
        kind = i % 3
        if kind == 2:
            return _q0_process(self.q0_seeds[(i // 3) % len(self.q0_seeds)])
        first = ardlkit.derive_seed(self.seed, i)
        seed, attempt = first, 0
        while True:
            dgp = self._draw(kind, seed)
            ds = ardlkit.generate(dgp)
            if seeded_draw_kept(ds["Y"].values, ds["X"].values)[0]:
                return dgp
            attempt += 1
            self.redrawn += 1
            seed = ardlkit.derive_seed(first, attempt)

    def notes(self) -> dict:
        return {"redrawn_inputs": self.redrawn}

    def op(self, i: int):
        staged_i, dgp = self.staged
        if staged_i != i:
            raise RuntimeError(f"operation {i} was not staged")
        ds = ardlkit.generate(dgp)
        spec = ardlkit.select_lags(ds, MAX_P, MAX_Q, "SBC")
        model = ardlkit.estimate_ardl(ds, spec)
        bounds = ardlkit.bounds_test(model, "III")
        lr = ardlkit.long_run(model)
        ecm = ardlkit.estimate_ecm(model, lr)
        battery = ardlkit.run_battery(model.levels_fit)
        return ds, spec, model, bounds, lr, ecm, battery

    def check(self, i: int, out) -> list[str]:
        ds, spec, model, bounds, lr, ecm, battery = out
        y, x = ds["Y"].values, ds["X"].values
        p, q = spec.p, spec.q["X"]
        problems = []
        grid = oracles.ardl_sbc_grid(y, x, MAX_P, MAX_Q)
        if not oracles.argmin_agrees(grid, (p, q), SBC_TIE):
            problems.append(f"selected ({p}, {q}), SBC argmin "
                            f"{min(grid, key=grid.get)}")
        ref = oracles.ardl_fit(y, x, p, q)
        for what, got, want in (
            ("bounds F", bounds.f_statistic, ref["f_statistic"]),
            ("long-run slope", lr.values["X"], ref["slope"]),
            ("long-run se", lr.std_errors["X"], ref["slope_se"]),
            ("one-step feedback", model.adjustment_coefficient,
             ref["feedback"]),
            ("Jarque-Bera", battery.normality.statistic,
             oracles.jarque_bera(ref["residuals"])),
        ):
            if not oracles.close(got, want, RTOL):
                problems.append(f"{what} {got} != {want}")
        gap = abs(ecm.ecm_coefficient - model.adjustment_coefficient)
        if gap > ECM_ATOL:
            problems.append(f"ECM loading misses one-step feedback by "
                            f"{gap:.3g} at q={q}")
        return problems


# --- unitroot_mc -------------------------------------------------------------

UNITROOT_T = 200
AR_PHI = 0.5
LEVEL = 0.05
# The rejection-rate check fails only when the run's counts are
# implausible, at this one-sided binomial level, for every rate in the band.
SIZE_BAND = (0.03, 0.07)
MIN_POWER = 0.95
RATE_P = 1e-4


class UnitRootMc(Workload):
    """One operation is one series of the ADF/PP size-and-power experiment:
    even operations are random walks, odd ones AR(0.5)."""

    round_size = 2

    def prepare(self) -> None:
        self.counts = {"walk": [0, 0, 0], "ar": [0, 0, 0]}  # n, ADF, PP

    def op(self, i: int):
        seed = ardlkit.derive_seed(self.seed, i)
        dgp = (ardlkit.RandomWalk(T=UNITROOT_T, seed=seed) if i % 2 == 0
               else ardlkit.Ar1(T=UNITROOT_T, seed=seed, phi=AR_PHI))
        s = ardlkit.generate(dgp)["Y"]
        return s, ardlkit.adf_test(s), ardlkit.pp_test(s)

    def check(self, i: int, out) -> list[str]:
        s, adf, pp = out
        y = s.values
        problems = []
        max_lag = oracles.default_max_lag(len(y))
        grid = oracles.adf_aic_grid(y, max_lag)
        if not oracles.argmin_agrees(grid, adf.lag_or_bandwidth, RTOL):
            problems.append(f"ADF lag {adf.lag_or_bandwidth}, AIC argmin "
                            f"{min(grid, key=grid.get)}")
        t, nobs = oracles.adf_statistic(y, adf.lag_or_bandwidth)
        if not oracles.close(adf.statistic, t, RTOL) or adf.nobs != nobs:
            problems.append(f"ADF t {adf.statistic} != {t}")
        bandwidth = oracles.default_bandwidth(len(y) - 1)
        z, nobs = oracles.pp_statistic(y, bandwidth)
        if (pp.lag_or_bandwidth != bandwidth or pp.nobs != nobs
                or not oracles.close(pp.statistic, z, RTOL)):
            problems.append(f"PP Z_t {pp.statistic} != {z}")
        for res in (adf, pp):
            cv = oracles.df_critical_value(self.data_dir, "constant", LEVEL,
                                           res.nobs)
            if res.stationary_at(LEVEL) != (res.statistic < cv):
                problems.append(f"{res.test} verdict disagrees with cv {cv}")
        if not problems:
            c = self.counts["walk" if i % 2 == 0 else "ar"]
            c[0] += 1
            c[1] += adf.stationary_at(LEVEL)
            c[2] += pp.stationary_at(LEVEL)
        return problems

    def finish(self) -> list[str]:
        problems = []
        n, *rejections = self.counts["walk"]
        for test, k in zip(("ADF", "PP"), rejections):
            too_high = stats.binom.sf(k - 1, n, SIZE_BAND[1]) < RATE_P
            too_low = stats.binom.cdf(k, n, SIZE_BAND[0]) < RATE_P
            if too_high or too_low:
                problems.append(f"{test} size {k}/{n} outside {SIZE_BAND}")
        n, *rejections = self.counts["ar"]
        for test, k in zip(("ADF", "PP"), rejections):
            if stats.binom.cdf(k, n, MIN_POWER) < RATE_P:
                problems.append(f"{test} power {k}/{n} below {MIN_POWER}")
        return problems

    def notes(self) -> dict:
        out = {}
        for kind, (n, adf, pp) in self.counts.items():
            out[f"{kind}_n"] = n
            out[f"{kind}_adf"] = adf / n if n else math.nan
            out[f"{kind}_pp"] = pp / n if n else math.nan
        return out


WORKLOADS = {
    "paper_pipeline": PaperPipeline,
    "ardl_models": ArdlModels,
    "unitroot_mc": UnitRootMc,
}
