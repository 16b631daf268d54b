"""Tests of the benchmark's oracles, output checks, input generators and
tracer. Each check is shown to pass on ardlkit's output and to fail when
one program value (a coefficient, a lag or a statistic) is perturbed.

Run from the repository root: python3 -m pytest perfbench -q
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import ardlkit
import oracles
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def test_strict_json_rejects_non_finite_tokens():
    assert oracles.strict_json_loads('{"a": 1.5, "b": [null]}') == {
        "a": 1.5, "b": [None]}
    for token in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ValueError):
            oracles.strict_json_loads(f'{{"a": {token}}}')


def test_argmin_agreement_allows_ties_only():
    scores = {0: 10.0, 1: 10.0 + 5e-10, 2: 12.0}
    assert oracles.argmin_agrees(scores, 0, 1e-9)
    assert oracles.argmin_agrees(scores, 1, 1e-9)
    assert not oracles.argmin_agrees(scores, 2, 1e-9)
    assert not oracles.argmin_agrees({0: 10.0, 1: 10.0 + 1e-6}, 1, 1e-9)


# --- input generators --------------------------------------------------------

def test_paper_inputs_come_from_the_seed_alone(tmp_path):
    a, b = workloads.paper_dataset(3), workloads.paper_dataset(3)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert not np.array_equal(a["OP"], workloads.paper_dataset(4)["OP"])
    assert set(a) == {"OP", "INFL", "INT"}
    assert len(a["OP"]) == workloads.PAPER_T and np.all(a["OP"] > 0)
    w = workloads.PaperPipeline(ROOT, 3, tmp_path)
    w.prepare()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["paper.csv",
                                                          "paper.yaml"]
    assert all(np.array_equal(w.data[k], a[k]) for k in a)


def test_monte_carlo_inputs_come_from_the_seed():
    def series(seed, i):
        w = workloads.UnitRootMc(ROOT, seed, None)
        return w.op(i)[0].values

    assert np.array_equal(series(8, 3), series(8, 3))
    assert not np.array_equal(series(8, 3), series(9, 3))


def test_q0_fault_inputs_do_not_depend_on_the_seed():
    a = workloads.ArdlModels(ROOT, 1, None)
    b = workloads.ArdlModels(ROOT, 2, None)
    a.prepare()
    b.prepare()
    assert a.q0_seeds == b.q0_seeds
    assert a.process(2) == b.process(2)
    assert a.process(0) != b.process(0)


# --- paper_pipeline ----------------------------------------------------------

@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    w = workloads.PaperPipeline(ROOT, 11, tmp_path_factory.mktemp("paper"))
    w.prepare()
    assert w.check(0, w.op(0)) == []
    return w


def test_paper_operations_repeat_bytes(paper):
    assert paper.check(1, paper.op(1)) == []
    report = paper.workdir / "report.json"
    good = report.read_bytes()
    report.write_bytes(good.replace(b'"schema_version"', b'"schema_versioN"'))
    assert paper.check(2, (0, "inflation interest")) == ["JSON bytes differ"]
    report.write_bytes(good)
    assert paper.check(3, (2, "")) == ["exit code 2"]


def _edit(paper, change) -> str:
    report = json.loads(paper.first_json)
    change(report)
    return json.dumps(report)


def _rows(model, table):
    rows = model[table] if table == "conditional_ecm_rows" \
        else model[table]["rows"]
    return {r["variable"]: r for r in rows}


@pytest.mark.parametrize("change, problem", [
    (lambda r: r["models"][0]["bounds"].update(
        f_statistic=r["models"][0]["bounds"]["f_statistic"] * (1 + 1e-6)),
     "bounds F"),
    (lambda r: r["models"][1]["selected"].update(p=2), "bounds F"),
    (lambda r: r["models"][0]["bounds"].update(decision="inconclusive"),
     "decision"),
    (lambda r: _rows(r["models"][1], "long_run")["LNOP"].update(
        coefficient=-_rows(r["models"][1], "long_run")["LNOP"]["coefficient"]),
     "long-run slope"),
    (lambda r: _rows(r["models"][0], "short_run")["ECM(-1)"].update(
        coefficient=_rows(r["models"][0], "short_run")["ECM(-1)"]
        ["coefficient"] + 1e-9),
     "ECM loading"),
])
def test_paper_check_catches_a_perturbed_value(paper, change, problem):
    assert paper._check_report(paper.first_json.decode()) == []
    found = paper._check_report(_edit(paper, change))
    assert any(problem in p for p in found), found


def test_paper_check_rejects_a_nan_token(paper):
    text = paper.first_json.decode().replace('"alpha": 0.05', '"alpha": NaN',
                                             1)
    assert "not strict JSON" in paper._check_report(text)[0]


# --- ardl_models -------------------------------------------------------------

@pytest.fixture(scope="module")
def ardl():
    w = workloads.ArdlModels(ROOT, 5, None)
    w.prepare()
    return w


def _run(w, i):
    w.stage(i)
    return w.op(i)


def test_ardl_operations_fail_exactly_when_q_is_zero(ardl):
    for i in range(9):
        out = _run(ardl, i)
        found = ardl.check(i, out)
        assert (out[1].q["X"] == 0) == (i % 3 == 2)
        if i % 3 == 2:
            assert found and all("ECM loading" in p for p in found)
        else:
            assert found == []


def _perturb_ardl(out, what):
    ds, spec, model, bounds, lr, ecm, battery = out
    if what == "lag":
        spec = dataclasses.replace(spec, p=spec.p + 1)
    elif what == "F":
        bounds = dataclasses.replace(
            bounds, f_statistic=bounds.f_statistic * (1 + 1e-6))
    elif what == "slope":
        lr = dataclasses.replace(
            lr, values={**lr.values, "X": lr.values["X"] * (1 + 1e-6)})
    elif what == "JB":
        normality = dataclasses.replace(
            battery.normality, statistic=battery.normality.statistic + 1e-3)
        battery = dataclasses.replace(battery, normality=normality)
    elif what == "ECM":
        ecm = dataclasses.replace(ecm,
                                  ecm_coefficient=ecm.ecm_coefficient + 1e-9)
    return ds, spec, model, bounds, lr, ecm, battery


@pytest.mark.parametrize("what, problem", [
    ("lag", "SBC argmin"), ("F", "bounds F"), ("slope", "long-run slope"),
    ("JB", "Jarque-Bera"), ("ECM", "ECM loading"),
])
def test_ardl_check_catches_a_perturbed_value(ardl, what, problem):
    out = _run(ardl, 1)
    assert ardl.check(1, out) == []
    found = ardl.check(1, _perturb_ardl(out, what))
    assert any(problem in p for p in found), found


def test_recursive_residuals_sum_to_rss(ardl):
    ds, spec, model, *_ = _run(ardl, 1)
    ref = oracles.ardl_fit(ds["Y"].values, ds["X"].values, spec.p,
                           spec.q["X"])
    w = ardlkit.recursive_residuals(model.levels_fit.y,
                                    model.levels_fit.design)
    assert oracles.recursive_rss_gap(w, ref["rss"]) < 1e-8
    w[len(w) // 2] *= 1.001
    assert oracles.recursive_rss_gap(w, ref["rss"]) > 1e-6


# --- unitroot_mc -------------------------------------------------------------

@pytest.fixture()
def unitroot():
    w = workloads.UnitRootMc(ROOT, 6, None)
    w.prepare()
    return w


@pytest.mark.parametrize("i", [0, 1])
@pytest.mark.parametrize("test, field, change, problem", [
    ("adf", "lag_or_bandwidth", lambda v: v + 1, "ADF lag"),
    ("adf", "statistic", lambda v: v * (1 + 1e-6), "ADF t"),
    ("pp", "statistic", lambda v: v * (1 + 1e-6), "PP Z_t"),
    ("pp", "lag_or_bandwidth", lambda v: v + 1, "PP Z_t"),
    ("pp", "verdict_at", lambda v: {a: ("unit_root" if x == "stationary"
                                         else "stationary")
                                     for a, x in v.items()}, "verdict"),
])
def test_unitroot_check_catches_a_perturbed_value(unitroot, i, test, field,
                                                  change, problem):
    s, adf, pp = unitroot.op(i)
    assert unitroot.check(i, (s, adf, pp)) == []
    if test == "adf":
        adf = dataclasses.replace(adf, **{field: change(getattr(adf, field))})
    else:
        pp = dataclasses.replace(pp, **{field: change(getattr(pp, field))})
    found = unitroot.check(i, (s, adf, pp))
    assert any(problem in p for p in found), found


@pytest.mark.parametrize("walk, ar, ok", [
    ((1000, 58, 54), (1000, 997, 1000), True),
    ((1000, 110, 54), (1000, 997, 1000), False),
    ((1000, 58, 5), (1000, 997, 1000), False),
    ((1000, 58, 54), (1000, 900, 1000), False),
])
def test_rejection_rates_are_judged_against_their_bands(unitroot, walk, ar,
                                                        ok):
    unitroot.counts = {"walk": list(walk), "ar": list(ar)}
    assert (unitroot.finish() == []) == ok


# --- tracer ------------------------------------------------------------------

def test_tracer_wraps_every_namespace_and_restores_it():
    tracer = tracing.Tracer()
    original = ardlkit.linreg.ols
    tracer.install()
    try:
        wrapped = ardlkit.linreg.ols
        assert wrapped is not original
        for mod in (ardlkit, ardlkit.unitroot, ardlkit.ardl,
                    ardlkit.diagnostics):
            assert mod.ols is wrapped
    finally:
        tracer.uninstall()
    assert ardlkit.linreg.ols is original and ardlkit.unitroot.ols is original


def test_traced_ols_count_matches_the_profiler(unitroot):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        tracer.profiled(lambda: unitroot.op(0))()
        tracer.op = 1
        unitroot.op(1)
    finally:
        tracer.op = -1
        tracer.uninstall()
    first = tracer.summary([0])
    assert first["linreg.ols.calls"] == tracer.profiled_ols_calls == 17
    assert first["unitroot.adf_test.fits_per_call"] == 16
    both = tracer.summary([0, 1])
    for name, stats in tracing.REPORTED:
        if "self_ms" in stats:
            assert both[f"{name}.self_ms"] >= 0.0
    assert both["unitroot.adf_test.ms"] > 0.0
    assert both["linreg.ols.ms"] < both["unitroot.adf_test.ms"] + \
        both["unitroot.pp_test.ms"]


@pytest.mark.parametrize("seed, i, fault", [
    # the first draw's ARDL(1, 1) starts from rows with condition number
    # 6.2e7, and run_battery raises RankDeficientPrefix on it
    (402, 61, "start"),
    # SBC picks q = 0 on the first draw of a process whose true q is 1
    (804, 175, "q0"),
])
def test_seeded_draws_that_would_fail_are_drawn_again(seed, i, fault):
    w = workloads.ArdlModels(ROOT, seed, None)
    first = w._draw(1, ardlkit.derive_seed(seed, i))
    ds = ardlkit.generate(first)
    spec = ardlkit.select_lags(ds, 4, 4, "SBC")
    model = ardlkit.estimate_ardl(ds, spec)
    if fault == "start":
        with pytest.raises(ardlkit.errors.RankDeficientPrefix):
            ardlkit.run_battery(model.levels_fit)
    else:
        assert spec.q["X"] == 0
    w.prepare()
    assert w.process(i) != first and w.redrawn == 1
    assert w.check(i, _run(w, i)) == []
