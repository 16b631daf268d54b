"""Acceptance gate: algebraic identities, independent-oracle fixtures,
Monte Carlo statistical properties, and decision-rule reproduction.

Every test prints one ``[criterion NN] PASS/FAIL`` line (visible under
``pytest -s`` or in the captured output of a verbose run) so the whole
gate can be read at a glance.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from ardlkit import (
    ArdlSpec,
    BreakModel,
    CointegratedPair,
    DesignMatrix,
    Deterministic,
    RandomWalk,
    Ar1,
    adf_test,
    bounds_decision,
    breusch_godfrey,
    breusch_pagan,
    cusum,
    cusumsq,
    derive_seed,
    estimate_ardl,
    estimate_ecm,
    estimate_levels,
    generate,
    jarque_bera,
    long_run,
    ols,
    pp_test,
    ramsey_reset,
    recursive_residuals,
)
from ardlkit.cli import main
from ardlkit.critvals import adf_critical_values
from ardlkit.errors import DegenerateAdjustment
from ardlkit.simgen import gaussian_stream
from ardlkit.unitroot import _verdicts

from conftest import make_dataset, oracle_ols

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_report.json"


def report_line(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_ols_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    fixtures = [
        (np.array([2.0, 4.0, 6.0]),
         {"C": np.ones(3), "X": np.array([1.0, 2.0, 3.0])}),
        (np.array([5.0, 5.0, 5.0, 5.0]), {"C": np.ones(4)}),
        (np.array([2.0, 3.0, 5.0, 7.0]),
         {"C": np.ones(4), "X": np.array([1.0, 2.0, 3.0, 4.0])}),
        (rng.normal(size=30),
         {"C": np.ones(30), "X1": rng.normal(size=30),
          "X2": rng.normal(size=30)}),
        (np.array([1.0, 2.2, 2.9, 4.1, 5.2, 5.8]),
         {"X": np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])}),
    ]
    worst = 0.0
    for y, cols in fixtures:
        rr = ols(y, DesignMatrix.from_columns(cols))
        oracle = oracle_ols(y, cols)
        for name in cols:
            worst = max(worst, _rel(rr.coefficients[name],
                                    oracle["coefficients"][name]))
            worst = max(worst, _rel(rr.std_errors[name],
                                    oracle["std_errors"][name]))
        worst = max(worst, _rel(rr.r_squared, oracle["r_squared"]))
        if oracle["rss"] > 1e-20:
            worst = max(worst, _rel(rr.durbin_watson,
                                    oracle["durbin_watson"]))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    report_line(1, ok, f"OLS vs normal-equations oracle on 5 fixtures: "
                       f"max rel err {worst:.2e}, {elapsed:.2f}s")
    assert ok


def _rel(a, b):
    # error relative to the oracle value, floored at unit scale so that
    # a coefficient whose true value is zero compares absolutely
    return abs(a - b) / max(abs(b), 1.0)


def test_criterion_02_reparameterization_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst_resid = 0.0
    worst_lambda = 0.0
    for _ in range(100):
        n = 100
        x = np.cumsum(rng.normal(size=n))
        y = np.cumsum(rng.normal(size=n)) + rng.uniform(-1, 1) * x
        p = int(rng.integers(1, 4))
        q = int(rng.integers(0, 4))
        ds = make_dataset({"Y": y, "X": x}, "Y")
        spec = ArdlSpec("Y", ("X",), p=p, q={"X": q})
        ecm_fit = estimate_ardl(ds, spec).levels_fit
        lev_fit = estimate_levels(ds, spec)
        worst_resid = max(worst_resid, float(np.max(np.abs(
            ecm_fit.residuals - lev_fit.residuals))))
        phi_sum = sum(lev_fit.coefficients[f"Y(-{i})"]
                      for i in range(1, p + 1))
        worst_lambda = max(worst_lambda, abs(
            ecm_fit.coefficients["Y(-1)"] - (phi_sum - 1.0)))
    elapsed = time.perf_counter() - t0
    ok = worst_resid <= 1e-8 and worst_lambda <= 1e-8 and elapsed < 10.0
    report_line(2, ok, f"levels vs conditional-ECM on 100 datasets: "
                       f"resid gap {worst_resid:.2e}, feedback gap "
                       f"{worst_lambda:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_03_long_run_closed_form():
    rng = np.random.default_rng(3)
    n = 80
    x = rng.normal(size=n)
    y = np.empty(n)
    y[0] = 4.0 + x[0]
    for t in range(1, n):
        y[t] = 2.0 + 0.5 * y[t - 1] + x[t]
    spec = ArdlSpec("Y", ("X",), p=1, q={"X": 0})
    lr = long_run(estimate_ardl(make_dataset({"Y": y, "X": x}, "Y"), spec))
    gap = abs(lr.values["X"] - 2.0)

    y2 = np.empty(n)
    y2[0] = x[0]
    for t in range(1, n):
        y2[t] = 2.0 + y2[t - 1] + x[t]
    degenerate_raised = False
    try:
        long_run(estimate_ardl(make_dataset({"Y": y2, "X": x}, "Y"), spec))
    except DegenerateAdjustment:
        degenerate_raised = True

    ok = gap <= 1e-12 and degenerate_raised
    report_line(3, ok, f"theta/(1-phi) gap {gap:.2e}; zero-feedback raises "
                       f"DegenerateAdjustment: {degenerate_raised}")
    assert ok


def test_criterion_04_unit_root_size():
    t0 = time.perf_counter()
    reps = 1000
    adf_rej = pp_rej = 0
    for r in range(reps):
        s = generate(RandomWalk(T=200, seed=derive_seed(777, r)))["Y"]
        if adf_test(s).verdict_at[0.05] == "stationary":
            adf_rej += 1
        if pp_test(s).verdict_at[0.05] == "stationary":
            pp_rej += 1
    elapsed = time.perf_counter() - t0
    adf_size, pp_size = adf_rej / reps, pp_rej / reps
    ok = (0.03 <= adf_size <= 0.07 and 0.03 <= pp_size <= 0.07
          and elapsed < 60.0)
    report_line(4, ok, f"5% size on 1000 driftless walks: ADF {adf_size:.3f},"
                       f" PP {pp_size:.3f}, {elapsed:.0f}s")
    assert ok


def test_criterion_05_unit_root_power():
    reps = 1000
    adf_rej = pp_rej = 0
    for r in range(reps):
        s = generate(Ar1(T=200, seed=derive_seed(778, r), phi=0.5))["Y"]
        if adf_test(s).verdict_at[0.05] == "stationary":
            adf_rej += 1
        if pp_test(s).verdict_at[0.05] == "stationary":
            pp_rej += 1
    adf_power, pp_power = adf_rej / reps, pp_rej / reps
    ok = adf_power >= 0.95 and pp_power >= 0.95
    report_line(5, ok, f"power on 1000 AR(0.5) series: ADF {adf_power:.3f}, "
                       f"PP {pp_power:.3f}")
    assert ok


def test_criterion_06_bounds_decision_reproduction():
    d1 = bounds_decision(45.5515, "III", 1, 0.05).decision
    d2 = bounds_decision(16.8296, "III", 1, 0.05).decision
    lower, upper = bounds_decision(0.0, "III", 1, 0.05).bounds[0.05]
    mid = bounds_decision((lower + upper) / 2.0, "III", 1, 0.05).decision
    ok = d1 == d2 == "cointegrated" and mid == "inconclusive"
    report_line(6, ok, f"F=45.5515 -> {d1}, F=16.8296 -> {d2}, "
                       f"midband -> {mid}")
    assert ok


def test_criterion_07_ecm_recovery():
    t0 = time.perf_counter()
    reps = 500
    spec = ArdlSpec("Y", ("X",), p=1, q={"X": 1})
    loadings = np.empty(reps)
    betas = np.empty(reps)
    for r in range(reps):
        ds = generate(CointegratedPair(T=400, seed=derive_seed(13, r),
                                       beta=3.0, adjustment=-0.6))
        model = estimate_ardl(ds, spec)
        lr = long_run(model)
        loadings[r] = estimate_ecm(model, lr).ecm_coefficient
        betas[r] = lr.values["X"]
    elapsed = time.perf_counter() - t0
    mean_load = float(loadings.mean())
    frac_neg = float((loadings < 0.0).mean())
    mean_beta = float(betas.mean())
    ok = (-0.70 <= mean_load <= -0.50 and frac_neg >= 0.99
          and 2.9 <= mean_beta <= 3.1 and elapsed < 120.0)
    report_line(7, ok, f"mean ECM(-1) {mean_load:.3f}, negative "
                       f"{frac_neg:.1%}, mean long-run slope "
                       f"{mean_beta:.3f}, {elapsed:.0f}s")
    assert ok


def test_criterion_08_diagnostics_size_and_stability():
    reps = 1000
    n = 200
    rej = {"bg": 0, "reset": 0, "jb": 0, "bp": 0}
    for r in range(reps):
        z = gaussian_stream(derive_seed(88, r), 2 * n)
        x = z[:n]
        X = DesignMatrix.from_columns({"C": np.ones(n), "X": x})
        rr = ols(1.0 + 0.5 * x + z[n:], X)
        rej["bg"] += breusch_godfrey(rr, lags=2).p_value < 0.05
        rej["reset"] += ramsey_reset(rr, powers=(2,)).p_value < 0.05
        rej["jb"] += jarque_bera(rr.residuals).p_value < 0.05
        rej["bp"] += breusch_pagan(rr).p_value < 0.05
    sizes = {k: v / reps for k, v in rej.items()}
    sizes_ok = all(0.03 <= s <= 0.08 for s in sizes.values())

    def stability_rates(dgp_factory, n_reps):
        cus = csq = 0
        for r in range(n_reps):
            ds = dgp_factory(r)
            X = DesignMatrix.from_columns(
                {"C": np.ones(ds.n), "X": ds["X"].values})
            w = recursive_residuals(ds["Y"].values, X)
            cus += not cusum(w).stable
            csq += not cusumsq(w).stable
        return cus / n_reps, csq / n_reps

    br_cusum, br_cusumsq = stability_rates(
        lambda r: generate(BreakModel(T=200, seed=derive_seed(55, r),
                                      break_point=100, pre=(0.0, 1.0),
                                      post=(2.0, 2.0), sigma=0.5)), 500)
    st_cusum, st_cusumsq = stability_rates(
        lambda r: generate(BreakModel(T=200, seed=derive_seed(66, r),
                                      break_point=100, pre=(1.0, 1.0),
                                      post=(1.0, 1.0), sigma=1.0)), 500)
    stability_ok = (br_cusum >= 0.80 and br_cusumsq >= 0.80
                    and (1 - st_cusum) >= 0.90 and (1 - st_cusumsq) >= 0.90)

    ok = sizes_ok and stability_ok
    report_line(8, ok, "sizes " +
                ", ".join(f"{k} {v:.3f}" for k, v in sizes.items()) +
                f"; break flagged CUSUM {br_cusum:.1%} / CUSUMSQ "
                f"{br_cusumsq:.1%}; stable kept CUSUM {1 - st_cusum:.1%} / "
                f"CUSUMSQ {1 - st_cusumsq:.1%}")
    assert ok


def json_diff_paths(a, b, path=""):
    """Paths (``models[0].bounds.k`` style) where two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            if key in a and key in b:
                out += json_diff_paths(a[key], b[key], sub)
            else:
                out.append(sub)
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (x, y) in enumerate(zip(a, b))
                for p in json_diff_paths(x, y, f"{path}[{i}]")]
    return [] if type(a) is type(b) and a == b else [path or "$"]


def test_criterion_09_end_to_end_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    cfg = str(DATA / "seed13_config.yaml")
    assert main(["pipeline", "--config", cfg, "--format", "json",
                 "--output", str(out1)]) == 0
    assert main(["pipeline", "--config", cfg, "--format", "json",
                 "--output", str(out2)]) == 0
    capsys.readouterr()
    identical = out1.read_bytes() == out2.read_bytes()
    matches_golden = out1.read_bytes() == GOLDEN.read_bytes()
    ok = identical and matches_golden
    detail = (f"two runs byte-identical: {identical}; matches "
              f"frozen golden: {matches_golden}")
    if not matches_golden:
        paths = json_diff_paths(json.loads(GOLDEN.read_bytes()),
                                json.loads(out1.read_bytes()))
        detail += "; differs at: " + (", ".join(paths) or "formatting only")
    report_line(9, ok, detail)
    assert ok


def test_criterion_10_decision_table_echo():
    # published-style unit-root statistics near T = 228; expected flag is
    # whether each must classify stationary at 5%. The one arithmetically
    # garbled published cell (a trend-spec first-difference statistic of
    # -3.830 marked at 10% only) is excluded.
    level_n, diff_n = 227, 226
    cells = [
        ("constant_and_trend", level_n, -1.459, False),
        ("constant", level_n, -3.405, True),
        ("constant_and_trend", diff_n, -6.187, True),
        ("constant_and_trend", level_n, -2.444, False),
        ("constant", level_n, -3.374, True),
        ("constant_and_trend", diff_n, -5.228, True),
        ("constant", diff_n, -4.301, True),
        ("constant_and_trend", level_n, -1.397, False),
        ("constant", level_n, -4.113, True),
        ("constant_and_trend", diff_n, -4.003, True),
        ("constant_and_trend", level_n, -1.432, False),
        ("constant", level_n, -3.933, True),
    ]
    mismatches = []
    for spec, nobs, stat, expect_sig in cells:
        cvs = adf_critical_values(spec, nobs)
        verdict = _verdicts(stat, cvs)[0.05]
        if (verdict == "stationary") != expect_sig:
            mismatches.append((spec, stat))
    ok = not mismatches
    report_line(10, ok, f"12 non-garbled published cells echoed; "
                        f"mismatches: {mismatches or 'none'}")
    assert ok


def test_criterion_10b_verdicts_monotone_across_levels():
    # supporting check for the star convention: a 1% rejection implies
    # 5% and 10% rejections for the left-tail unit-root verdicts
    cvs = adf_critical_values("constant", 228)
    for stat in (-4.2, -3.0, -2.7, -1.0):
        v = _verdicts(stat, cvs)
        if v[0.01] == "stationary":
            assert v[0.05] == "stationary"
        if v[0.05] == "stationary":
            assert v[0.10] == "stationary"
