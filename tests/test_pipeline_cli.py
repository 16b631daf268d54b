import io
import itertools
import json
import math
import re
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import ardlkit.diagnostics
import ardlkit.linreg
import ardlkit.pipeline
import ardlkit.report
import ardlkit.unitroot
import ardlkit.cli as cli
from ardlkit import (
    ArdlSpec,
    CointegratedPair,
    Deterministic,
    RandomWalk,
    UnitRootConfig,
    adf_test,
    bounds_test,
    breusch_godfrey,
    coefficient_pvalues,
    estimate_ardl,
    generate,
    load_config,
    parse_config,
    pp_test,
    render_report,
    run_battery,
    run_pipeline,
    select_lags,
    to_payload,
)
from ardlkit.cli import main
from ardlkit.diagnostics import BATTERY
from ardlkit.pipeline import DiagnosticsStage, ModelSpec
from ardlkit.report import render_payload
from ardlkit.errors import (
    ConfigError,
    I2VariablePresent,
    InvalidParameters,
)
from ardlkit.simgen import gaussian_stream

DATA = Path(__file__).parent / "data"


def base_config(path, **overrides):
    payload = {
        "input": {
            "path": str(path),
            "date_column": "date",
            "date_format": "YYYY-MM",
            "value_columns": ["Y", "X"],
        },
        "models": [
            {"name": "pair", "dependent": "Y", "regressors": ["X"],
             "max_p": 2, "max_q": 2, "criterion": "SBC",
             "bounds_case": "III"},
        ],
    }
    payload.update(overrides)
    return payload


def count_ols(monkeypatch) -> Counter:
    """A counter of ols calls, patched in under ols's name in every
    ardlkit module that holds it."""
    calls = Counter()
    ols = ardlkit.linreg.ols

    def counted(*args, **kwargs):
        calls["ols"] += 1
        return ols(*args, **kwargs)

    holders = [mod for name, mod in sys.modules.items()
               if (name == "ardlkit" or name.startswith("ardlkit."))
               and getattr(mod, "ols", None) is ols]
    assert ardlkit.unitroot in holders and ardlkit.ardl in holders
    for mod in holders:
        monkeypatch.setattr(mod, "ols", counted)
    return calls


def write_csv(path, columns):
    n = len(next(iter(columns.values())))
    names = list(columns)
    lines = ["date," + ",".join(names)]
    for i in range(n):
        stamp = f"{2000 + i // 12:04d}-{i % 12 + 1:02d}"
        lines.append(stamp + "," +
                     ",".join(repr(float(columns[c][i])) for c in names))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestConfigValidation:
    def test_undefined_variable_fails_before_computation(self, tmp_path):
        payload = base_config(tmp_path / "absent.csv")
        payload["models"][0]["regressors"] = ["Z"]
        with pytest.raises(ConfigError, match="undefined variable"):
            parse_config(payload)

    def test_unsupported_level(self, tmp_path):
        payload = base_config(tmp_path / "absent.csv", levels=[0.05, 0.2])
        with pytest.raises(ConfigError, match="levels"):
            parse_config(payload)

    def test_no_models(self, tmp_path):
        payload = base_config(tmp_path / "absent.csv", models=[])
        with pytest.raises(ConfigError, match="no models"):
            parse_config(payload)

    def test_unknown_transform(self, tmp_path):
        payload = base_config(tmp_path / "absent.csv")
        payload["variables"] = {"LNY": {"source": "Y",
                                        "transforms": ["sqrt"]}}
        with pytest.raises(ConfigError, match="transform"):
            parse_config(payload)

    def test_bad_bounds_case(self, tmp_path):
        payload = base_config(tmp_path / "absent.csv")
        payload["models"][0]["bounds_case"] = "IV"
        with pytest.raises(ConfigError, match="bounds_case"):
            parse_config(payload)

    @pytest.mark.parametrize("switches", list(itertools.product(
        (True, False), repeat=len(BATTERY))), ids=str)
    def test_diagnostics_include_is_the_battery_order_filter(self, tmp_path,
                                                              switches):
        stage = DiagnosticsStage(**dict(zip(BATTERY, switches)))
        assert stage.include() == tuple(
            t for t, on in zip(BATTERY, switches) if on)
        payload = base_config(tmp_path / "absent.csv",
                              diagnostics=dict(zip(BATTERY, switches)))
        assert parse_config(payload).diagnostics == stage

    @pytest.mark.parametrize("key", ["enabled", *BATTERY])
    def test_each_diagnostics_switch_is_read_and_checked(self, tmp_path,
                                                         key):
        payload = base_config(tmp_path / "absent.csv",
                              diagnostics={key: False})
        assert getattr(parse_config(payload).diagnostics, key) is False
        payload["diagnostics"] = {key: "false"}
        with pytest.raises(ConfigError, match=f"diagnostics.{key}"):
            parse_config(payload)


@pytest.fixture(scope="module")
def report():
    return run_pipeline(load_config(DATA / "seed13_config.yaml"))


class TestPipelineRun:
    def test_bounds_decision_and_ecm_band(self, report):
        mr = report.models[0]
        assert mr.bounds.decision == "cointegrated"
        assert -0.75 < mr.ecm.ecm_coefficient < -0.45

    def test_unit_root_table_shape(self, report):
        # 2 variables x 2 tests x 2 deterministic specs x 2 stages
        assert len(report.unit_root_table) == 16
        assert {io.order for io in report.integration} == {"I1"}

    def test_payload_star_consistency(self, report):
        payload = to_payload(report)
        for row in payload["unit_root"]["table"]:
            stars = row["stars"]
            v = row["verdict_at"]
            expected = ("***" if v["1%"] == "stationary" else
                        "**" if v["5%"] == "stationary" else
                        "*" if v["10%"] == "stationary" else "")
            assert stars == expected
        # stars come from the unrounded p-values, not the serialized ones
        for mr, model in zip(report.models, payload["models"]):
            sections = [(model["conditional_ecm_rows"],
                         coefficient_pvalues(mr.ardl.levels_fit))]
            if mr.ecm is not None:
                sections.append((model["short_run"]["rows"],
                                 coefficient_pvalues(mr.ecm.fit)))
            if mr.long_run is not None:
                sections.append((model["long_run"]["rows"],
                                 {name: math.erfc(abs(t) / math.sqrt(2.0))
                                  for name, t in mr.long_run.t_stats.items()}))
            for rows, exact in sections:
                for row in rows:
                    p = exact[row["variable"]]
                    expected = ("***" if p < 0.01 else "**" if p < 0.05
                                else "*" if p < 0.10 else "")
                    assert row["stars"] == expected

    def test_one_run_reuses_each_result(self, monkeypatch):
        # the classification takes its ADF results from the unit-root
        # table (2 variables x 2 specs x 2 stages) and the battery shares
        # one set of recursive residuals between CUSUM and CUSUMSQ
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        adf = counted("adf_test", ardlkit.unitroot.adf_test)
        monkeypatch.setattr(ardlkit.unitroot, "adf_test", adf)
        monkeypatch.setattr(ardlkit.pipeline, "adf_test", adf)
        monkeypatch.setattr(
            ardlkit.diagnostics, "recursive_residuals",
            counted("recursive_residuals",
                    ardlkit.diagnostics.recursive_residuals))
        report = run_pipeline(load_config(DATA / "seed13_config.yaml"))
        assert calls["adf_test"] == 8
        assert calls["recursive_residuals"] == len(report.models) == 1

    def test_one_run_fit_count(self, monkeypatch):
        # each ADF call and each ARDL (p, q) search scores its
        # candidates from one factorization, ADF and PP read their
        # statistics from one triangle, and the bounds F and the battery
        # read the model's own factorization: only estimate_ardl and
        # estimate_ecm fit (165 when every candidate was fit, 29 when
        # only the ADF search was not, 23 while the tests on a model
        # refit it, 18 while ADF and PP fit their chosen regression)
        calls = count_ols(monkeypatch)
        run_pipeline(load_config(DATA / "seed13_config.yaml"))
        assert calls["ols"] == 2

    @pytest.mark.parametrize("T, max_p, max_q", [(60, 1, 0), (200, 3, 2)])
    def test_tests_on_a_fitted_model_fit_nothing(self, monkeypatch, T,
                                                 max_p, max_q):
        ds = generate(CointegratedPair(T=T, seed=T))
        model = estimate_ardl(ds, select_lags(ds, max_p, max_q))
        calls = count_ols(monkeypatch)
        for case in ("II", "III"):
            bounds_test(model, case)
        run_battery(model.levels_fit, bg_lags=4, reset_powers=(2, 3, 4))
        run_battery(model.levels_fit)
        assert calls["ols"] == 0

    def test_classification_is_the_tables_evidence(self, report):
        # unit_root: {test: ADF, spec: constant}
        for io in report.integration:
            assert io.evidence == tuple(
                report.unit_root_table[io.series_name, "ADF",
                                       Deterministic.CONSTANT, stage]
                for stage in ("level", "first_difference"))

    def test_spec_none_classifies_outside_the_table(self):
        payload = yaml.safe_load((DATA / "seed13_config.yaml").read_text())
        payload["unit_root"]["spec"] = "none"
        report = run_pipeline(parse_config(payload, base_dir=DATA))
        assert {spec for _, _, spec, _ in report.unit_root_table} == {
            Deterministic.CONSTANT, Deterministic.CONSTANT_TREND}
        for io in report.integration:
            assert [e.spec.value for e in io.evidence] == ["none", "none"]

    def test_serialized_pvalues_match_exact_tails(self, report):
        # Each serialized p-value lies within half a unit of its 10th
        # significant digit (plus 1e-13 relative for the tail routine) of
        # the exact tail, computed by mpmath at 50 digits.
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mpf

        def beta_tail(a, b, x):
            return mpmath.betainc(mp(a) / 2, mp(b) / 2, 0, x,
                                  regularized=True)

        def exact_tail(distribution, x):
            name, args = re.fullmatch(r"(\w+)\(([\d, ]+)\)",
                                      distribution).groups()
            d = [int(a) for a in args.split(",")]
            if name == "chi2":
                return mpmath.gammainc(mp(d[0]) / 2, mp(x) / 2, mpmath.inf,
                                       regularized=True)
            if name == "F":
                return beta_tail(d[1], d[0], d[1] / (d[1] + d[0] * mp(x)))
            if name == "t":     # two-sided
                return beta_tail(d[0], 1, d[0] / (d[0] + mp(x) ** 2))
            assert name == "normal"     # two-sided
            return mpmath.erfc(abs(mp(x)) / mpmath.sqrt(2))

        payload = to_payload(report)
        cases = []
        for mr, m in zip(report.models, payload["models"]):
            for fit, rows in ((mr.ardl.levels_fit, m["conditional_ecm_rows"]),
                              (mr.ecm.fit, m["short_run"]["rows"])):
                cases += [(f"t({fit.n - fit.k})", r["t_stat"], r["p_value"])
                          for r in rows]
            cases += [("normal(0)", r["t_stat"], r["p_value"])
                      for r in m["long_run"]["rows"]]
            for key in ("serial_correlation", "functional_form",
                        "normality", "heteroscedasticity"):
                t = m["diagnostics"][key]
                cases.append((t["distribution"], t["statistic"],
                              t["p_value"]))
        assert ({c[0].split("(")[0] for c in cases}
                == {"t", "F", "chi2", "normal"})

        with mpmath.workdps(50):
            for distribution, statistic, serialized in cases:
                exact = exact_tail(distribution, statistic)
                if float(exact) == 0.0:     # below the double range
                    assert serialized == 0.0
                    continue
                unit = mp(10) ** (mpmath.floor(mpmath.log10(exact)) - 9)
                assert (abs(mp(serialized) - exact)
                        <= unit / 2 + 1e-13 * exact), distribution

    def test_cusumsq_path_ends_at_exactly_one(self, report):
        assert report.models[0].diagnostics.cusumsq.path[-1] == 1.0
        cusumsq = to_payload(report)["models"][0]["diagnostics"]["cusumsq"]
        assert cusumsq["max_path"] == 1.0

    def test_json_rendering_deterministic(self, report):
        assert render_report(report, "json") == render_report(report, "json")

    def test_rerun_byte_identical(self, report):
        other = run_pipeline(load_config(DATA / "seed13_config.yaml"))
        assert render_report(other, "json") == render_report(report, "json")

    def test_text_report_content(self, report):
        text = render_report(report, "text").decode()
        assert "significance stars: * 10%, ** 5%, *** 1%" in text
        assert "% of a disequilibrium shock is corrected each period" in text
        assert "cointegrated" in text

    def test_text_tables_show_every_coefficient_row(self, report):
        text = render_report(report, "text").decode().splitlines()
        model = to_payload(report)["models"][0]
        starred = 0
        for title, rows in (
                ("long-run coefficients", model["long_run"]["rows"]),
                ("short-run (error-correction) coefficients",
                 model["short_run"]["rows"])):
            start = text.index(title) + 3   # title, header, rule
            assert len(text[start:start + len(rows)]) == len(rows)
            for line, r in zip(text[start:start + len(rows)], rows):
                assert line.split() == [
                    r["variable"], f"{r['coefficient']:.6f}{r['stars']}",
                    f"{r['std_error']:.6f}", f"{r['t_stat']:.6f}"]
                starred += bool(r["stars"])
        assert starred

    def test_unknown_format(self, report):
        with pytest.raises(ConfigError):
            render_report(report, "xml")


class TestGates:
    def test_i2_variable_refused(self, tmp_path):
        z = generate(RandomWalk(T=300, seed=9))["Y"].values
        x = generate(RandomWalk(T=300, seed=10))["Y"].values
        csv = write_csv(tmp_path / "i2.csv", {"Y": np.cumsum(z), "X": x})
        cfg = parse_config(base_config(csv))
        with pytest.raises(I2VariablePresent):
            run_pipeline(cfg)

    def test_not_cointegrated_suppresses_tables(self, tmp_path):
        y = generate(RandomWalk(T=400, seed=170))["Y"].values
        x = generate(RandomWalk(T=400, seed=171))["Y"].values
        csv = write_csv(tmp_path / "rw.csv", {"Y": y, "X": x})
        cfg = parse_config(base_config(csv))
        report = run_pipeline(cfg)
        mr = report.models[0]
        assert mr.bounds.decision == "not_cointegrated"
        assert mr.long_run is None and mr.ecm is None
        assert any("suppressed" in w for w in report.warnings)

    @pytest.mark.parametrize("command", ["pipeline", "ardl"])
    def test_cli_input_and_force_override_the_config(self, tmp_path, capsys,
                                                     command):
        y = generate(RandomWalk(T=400, seed=170))["Y"].values
        x = generate(RandomWalk(T=400, seed=171))["Y"].values
        csv = write_csv(tmp_path / "rw.csv", {"Y": y, "X": x})
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump(base_config(tmp_path / "absent.csv")))
        argv = [command, "--config", str(cfg), "--input", str(csv),
                "--format", "json"]
        for extra, suppressed in (([], True), (["--force"], False)):
            assert main(argv + extra) == 0
            model = json.loads(capsys.readouterr().out)["models"][0]
            assert model["bounds"]["decision"] == "not_cointegrated"
            assert (model["long_run"] is None) is suppressed

    def test_force_overrides_gate(self, tmp_path):
        y = generate(RandomWalk(T=400, seed=170))["Y"].values
        x = generate(RandomWalk(T=400, seed=171))["Y"].values
        csv = write_csv(tmp_path / "rw.csv", {"Y": y, "X": x})
        cfg = parse_config(base_config(csv, force=True))
        report = run_pipeline(cfg)
        assert report.models[0].long_run is not None

    def test_disabled_diagnostics_noted(self, tmp_path):
        csv = DATA / "seed13.csv"
        cfg = parse_config(base_config(csv,
                                       diagnostics={"enabled": False}))
        report = run_pipeline(cfg)
        assert report.models[0].diagnostics is None
        assert any("diagnostics disabled" in w for w in report.warnings)
        payload = to_payload(report)
        assert payload["models"][0]["diagnostics"] is None


class TestDataDirOverride:
    def test_env_var_redirects_table_loading(self, tmp_path, monkeypatch):
        from ardlkit import critvals

        monkeypatch.setenv(critvals.DATA_DIR_ENV, str(tmp_path))
        with pytest.raises(ConfigError, match="not found"):
            critvals.pss_bounds("III", 1)

        # a doctored table in the override directory must win
        (tmp_path / critvals.PSS_BOUNDS_FILE).write_text(
            "# test table\nIII 1 0.05 1.0 2.0\n")
        assert critvals.pss_bounds("III", 1)[0.05] == (1.0, 2.0)

    def test_default_tables_restored(self):
        from ardlkit import critvals

        assert critvals.pss_bounds("III", 1)[0.05] == (4.94, 5.73)

    def test_override_set_after_import_redirects_every_table(
            self, tmp_path, monkeypatch):
        # a copy of the shipped tables with one value changed in each
        from ardlkit import critvals

        shipped = Path(critvals.__file__).parent / "data"
        edits = {
            critvals.ADF_SURFACE_FILE: ("constant 0.05 -2.86154",
                                        "constant 0.05 -2.50000"),
            critvals.PSS_BOUNDS_FILE: ("III 1 0.05 4.94 5.73",
                                       "III 1 0.05 4.00 5.00"),
            critvals.CUSUMSQ_FILE: ("\n48 0.25233", "\n48 0.25000"),
        }
        for name, (old, new) in edits.items():
            text = (shipped / name).read_text(encoding="utf-8")
            assert text.count(old) == 1
            (tmp_path / name).write_text(text.replace(old, new),
                                         encoding="utf-8")
        before = (critvals.adf_critical_values("constant", 100)[0.05],
                  critvals.pss_bounds("III", 1), critvals.cusumsq_c0(48))

        monkeypatch.setenv(critvals.DATA_DIR_ENV, str(tmp_path))
        cv = critvals.adf_critical_values("constant", 100)
        assert cv[0.05] - before[0] == pytest.approx(2.86154 - 2.5)
        assert cv[0.01] == critvals.adf_critical_values("constant", 100)[0.01]
        bounds = critvals.pss_bounds("III", 1)
        assert bounds[0.05] == (4.0, 5.0)
        assert bounds[0.01] == before[1][0.01]
        assert critvals.cusumsq_c0(48) == 0.25

        monkeypatch.delenv(critvals.DATA_DIR_ENV)
        assert (critvals.adf_critical_values("constant", 100)[0.05],
                critvals.pss_bounds("III", 1),
                critvals.cusumsq_c0(48)) == before


class TestVariablesSection:
    def test_log_transform_chain(self, tmp_path):
        n = 120
        z = gaussian_stream(55, 2 * n)
        level_y = np.exp(np.cumsum(0.05 * z[:n]))
        level_x = np.exp(np.cumsum(0.05 * z[n:]))
        csv = write_csv(tmp_path / "lv.csv", {"P": level_y, "Q": level_x})
        payload = {
            "input": {"path": str(csv), "value_columns": ["P", "Q"]},
            "variables": {
                "LNP": {"source": "P", "transforms": ["log"]},
                "LNQ": {"source": "Q", "transforms": ["log"]},
            },
            "models": [{"name": "m", "dependent": "LNP",
                        "regressors": ["LNQ"], "max_p": 1, "max_q": 1}],
        }
        cfg = parse_config(payload)
        report = run_pipeline(cfg)
        names = [v["name"] for v in to_payload(report)["variables"]]
        assert names == ["LNP", "LNQ"]


class TestCli:
    def test_pipeline_json_and_render_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["pipeline", "--config", str(DATA / "seed13_config.yaml"),
                     "--format", "json", "--output", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert json.loads(stdout)["schema_version"] == 2
        assert out.exists()

        code = main(["render", "--input", str(out), "--format", "text"])
        assert code == 0
        rendered = capsys.readouterr().out
        assert "UNIT ROOT TESTS" in rendered

    def test_pipeline_builds_the_payload_once(self, report, tmp_path,
                                               capsys, monkeypatch):
        # JSON to --output, text to the config's text path and to stdout,
        # all rendered from one payload, with the bytes render_report gives
        json_bytes = render_report(report, "json")
        text_bytes = render_report(report, "text")
        payload = yaml.safe_load((DATA / "seed13_config.yaml").read_text())
        payload["input"]["path"] = str(DATA / "seed13.csv")
        payload["output"] = {"text": str(tmp_path / "rep.txt")}
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump(payload))

        calls = Counter()
        to_payload_ = ardlkit.report.to_payload

        def counted(*args, **kwargs):
            calls["to_payload"] += 1
            return to_payload_(*args, **kwargs)

        monkeypatch.setattr(ardlkit.report, "to_payload", counted)
        out = tmp_path / "rep.json"
        assert main(["pipeline", "--config", str(cfg), "--output", str(out),
                     "--format", "text"]) == 0
        assert calls["to_payload"] == 1
        assert out.read_bytes() == json_bytes
        assert (tmp_path / "rep.txt").read_bytes() == text_bytes
        assert capsys.readouterr().out.encode() == text_bytes

    def test_non_finite_numbers_are_strict_json_nulls(self, report,
                                                      tmp_path, capsys):
        payload = to_payload(report)
        model = payload["models"][0]
        payload["unit_root"]["table"][0]["statistic"] = math.nan
        model["long_run"]["rows"][0]["t_stat"] = math.inf
        model["short_run"]["f_statistic"] = -math.inf
        model["short_run"]["speed_of_adjustment_pct"] = math.nan
        model["diagnostics"]["normality"]["statistic"] = math.inf
        model["bounds"]["bounds"]["5%"] = [math.nan, 4.0]

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        out = tmp_path / "rep.json"
        out.write_bytes(render_payload(payload))
        parsed = json.loads(out.read_text(), parse_constant=refuse)
        pm = parsed["models"][0]
        assert parsed["unit_root"]["table"][0]["statistic"] is None
        assert pm["long_run"]["rows"][0]["t_stat"] is None
        assert pm["short_run"]["f_statistic"] is None
        assert pm["short_run"]["speed_of_adjustment_pct"] is None
        assert pm["diagnostics"]["normality"]["statistic"] is None
        assert pm["bounds"]["bounds"]["5%"] == [None, 4.0]

        assert main(["render", "--input", str(out), "--format", "text"]) == 0
        text = capsys.readouterr().out
        assert "speed of adjustment: -% of a disequilibrium" in text

    def test_unitroot_command(self, capsys):
        code = main(["unitroot", "--input", str(DATA / "seed13.csv"),
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["table"]) == 16

    def test_unitroot_command_shares_the_pipeline_table(self, report,
                                                        capsys):
        argv = ["unitroot", "--input", str(DATA / "seed13.csv"),
                "--config", str(DATA / "seed13_config.yaml")]
        assert main(argv + ["--format", "json"]) == 0
        table = json.loads(capsys.readouterr().out)["table"]
        assert table == to_payload(report)["unit_root"]["table"]

        assert main(argv + ["--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "UNIT ROOT TESTS"
        report_text = render_report(report, "text").decode()
        assert "\n".join(lines[:-1]) in report_text
        assert len(lines) == 2 + 2 + len(table) + 1

    def test_ardl_command_skips_unit_root_section(self, capsys):
        code = main(["ardl", "--config", str(DATA / "seed13_config.yaml"),
                     "--format", "text"])
        assert code == 0
        text = capsys.readouterr().out
        assert "UNIT ROOT TESTS" not in text
        assert "bounds test" in text

    def test_ardl_command_runs_no_unit_root_screening(self, tmp_path,
                                                      capsys):
        # Y is I(2): pipeline refuses it, ardl tests no unit root
        rng = np.random.default_rng(4)
        csv = write_csv(tmp_path / "i2.csv", {
            "Y": np.cumsum(np.cumsum(rng.normal(size=200))),
            "X": np.cumsum(rng.normal(size=200))})
        argv = ["--config", str(DATA / "seed13_config.yaml"),
                "--input", str(csv), "--format", "json"]
        assert main(["pipeline", *argv]) == 5
        capsys.readouterr()
        assert main(["ardl", *argv]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "unit_root" not in payload
        assert payload["models"][0]["bounds"]["decision"]

    def test_ardl_command_is_the_pipeline_report_without_screening(
            self, capsys):
        argv = ["--config", str(DATA / "seed13_config.yaml"),
                "--format", "json"]
        assert main(["pipeline", *argv]) == 0
        pipeline = json.loads(capsys.readouterr().out)
        assert main(["ardl", *argv]) == 0
        ardl = json.loads(capsys.readouterr().out)
        del pipeline["unit_root"]
        assert ardl == pipeline

    def test_simulate_deterministic(self, tmp_path, capsys):
        cfgp = tmp_path / "dgp.yaml"
        cfgp.write_text(yaml.safe_dump({
            "dgp": {"kind": "ar1", "T": 50, "seed": 1, "phi": 0.5}}))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfgp),
                     "--output", str(a)]) == 0
        assert main(["simulate", "--config", str(cfgp),
                     "--output", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_seed_override_changes_data(self, tmp_path, capsys):
        cfgp = tmp_path / "dgp.yaml"
        cfgp.write_text(yaml.safe_dump({
            "dgp": {"kind": "ar1", "T": 50, "seed": 1, "phi": 0.5}}))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", str(cfgp), "--output", str(a)])
        main(["simulate", "--config", str(cfgp), "--seed", "2",
              "--output", str(b)])
        capsys.readouterr()
        assert a.read_bytes() != b.read_bytes()

    def test_exit_code_config_error(self, capsys):
        assert main(["pipeline", "--config", "/definitely/missing.yaml"]) == 2
        capsys.readouterr()

    def test_exit_code_data_error(self, capsys):
        assert main(["pipeline", "--config",
                     str(DATA / "seed13_config.yaml"),
                     "--input", "/missing.csv"]) == 3
        capsys.readouterr()

    def test_exit_code_i2(self, tmp_path, capsys):
        z = generate(RandomWalk(T=300, seed=9))["Y"].values
        x = generate(RandomWalk(T=300, seed=10))["Y"].values
        csv = write_csv(tmp_path / "i2.csv", {"Y": np.cumsum(z), "X": x})
        cfgp = tmp_path / "cfg.yaml"
        cfgp.write_text(yaml.safe_dump(base_config(str(csv))))
        assert main(["pipeline", "--config", str(cfgp)]) == 5
        capsys.readouterr()


def _inf_cell(payload, tmp_path):
    lines = (DATA / "seed13.csv").read_text().splitlines()
    date, _, x = lines[4].split(",")
    lines[4] = ",".join([date, "inf", x])
    csv = tmp_path / "inf.csv"
    csv.write_text("\n".join(lines) + "\n")
    payload["input"]["path"] = str(csv)


def _setting(section, key, value):
    def edit(payload, tmp_path):
        payload[section][key] = value
    return edit


def _top(key, value):
    def edit(payload, tmp_path):
        payload[key] = value
    return edit


def _model(key, value):
    def edit(payload, tmp_path):
        payload["models"][0][key] = value
    return edit


def _log_transform_as(transforms):
    def edit(payload, tmp_path):
        payload["variables"] = {"LY": {"source": "Y",
                                       "transforms": transforms}}
    return edit


def _alpha_without_input(payload, tmp_path):
    # alpha is refused while the config is parsed, before the input is read
    payload["alpha"] = 0.2
    payload["input"]["path"] = str(tmp_path / "absent.csv")


def _model_without_input(key, value):
    # as alpha: a model key is refused before the input is read
    def edit(payload, tmp_path):
        payload["models"][0][key] = value
        payload["input"]["path"] = str(tmp_path / "absent.csv")
    return edit


def _variables_without_input(variables):
    # a column name is text, and that is checked before the input is read
    def edit(payload, tmp_path):
        payload["variables"] = variables
        payload["input"]["path"] = str(tmp_path / "absent.csv")
    return edit


@pytest.mark.parametrize("edit, code, names", [
    (_inf_cell, 3, "column 'Y'"),
    (_setting("unit_root", "max_lag", -1), 2, "unit_root.max_lag"),
    (_setting("unit_root", "bandwidth", -1), 2, "unit_root.bandwidth"),
    (_setting("unit_root", "max_lag", 2.5), 2, "unit_root.max_lag"),
    (_setting("diagnostics", "reset_powers", [5]), 2,
     "diagnostics.reset_powers"),
    (_setting("diagnostics", "bg_lags", 0), 2, "diagnostics.bg_lags"),
    (_top("alpha", "abc"), 2, "alpha"),
    (_top("levels", ["abc"]), 2, "levels[0]"),
    (_setting("unit_root", "alpha", "x"), 2, "unit_root.alpha"),
    (_model("max_p", "abc"), 2, "max_p"),
    (_model("max_p", 2.7), 2, "max_p"),
    (_model("max_q", True), 2, "max_q"),
    (_log_transform_as("log"), 2, "transforms"),
    (_top("force", "false"), 2, "force"),
    (_setting("diagnostics", "enabled", "no"), 2, "diagnostics.enabled"),
    (_top("variables", True), 2, "variables"),
    (_top("unit_root", [1]), 2, "unit_root"),
    (_top("diagnostics", "II"), 2, "diagnostics"),
    (_top("output", ["X"]), 2, "output"),
    (_setting("input", "value_columns", 20), 2, "input.value_columns"),
    (_setting("input", "dependent", ["Y"]), 2, "input.dependent"),
    (_setting("input", "date_format", {}), 2, "input.date_format"),
    (_model("dependent", ["Y"]), 2, "dependent"),
    (_alpha_without_input, 2, "error: alpha must be one of"),
    (_model_without_input("name", [1]), 2, "model name must be a name"),
    (_model_without_input("max_p", 0), 2, "max_p must be a whole number >= 1"),
    (_model_without_input("max_q", -1), 2,
     "max_q must be a whole number >= 0"),
    (_variables_without_input({"Z": {"source": 5}}), 2,
     "variable 'Z': source must be a name, got 5"),
    (_variables_without_input({5: {"source": "Y"}}), 2,
     "variable name must be a name, got 5"),
], ids=["csv-inf", "max_lag-negative", "bandwidth-negative",
        "max_lag-fraction", "reset_powers-5", "bg_lags-0", "alpha-text",
        "levels-text", "unit_root-alpha-text", "max_p-text",
        "max_p-fraction", "max_q-bool", "transforms-string", "force-text",
        "diagnostics-enabled-text", "variables-bool", "unit_root-list",
        "diagnostics-text", "output-list", "value_columns-number",
        "input-dependent-list", "date_format-mapping",
        "model-dependent-list", "alpha-0.2-no-input",
        "model-name-list-no-input", "max_p-0-no-input",
        "max_q-negative-no-input", "variable-source-number-no-input",
        "variable-name-number-no-input"])
def test_bad_input_maps_to_its_exit_code(tmp_path, capsys, edit, code, names):
    payload = yaml.safe_load((DATA / "seed13_config.yaml").read_text())
    payload["input"]["path"] = str(DATA / "seed13.csv")
    edit(payload, tmp_path)
    cfgp = tmp_path / "cfg.yaml"
    cfgp.write_text(yaml.safe_dump(payload))
    # main returns, so no exception escaped
    assert main(["pipeline", "--config", str(cfgp)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert names in err


# Every whole-number setting, with its floor, as the config names it
_WHOLE_NUMBER_KEYS = [(("models", 0, "max_p"), 1), (("models", 0, "max_q"), 0),
                      (("diagnostics", "bg_lags"), 1),
                      (("unit_root", "max_lag"), 0),
                      (("unit_root", "bandwidth"), 0)]
# values that are not whole numbers at or above a given floor
_NOT_WHOLE = {"float-2.0": lambda floor: 2.0, "fraction": lambda floor: 2.5,
              "bool": lambda floor: True, "text": lambda floor: "2",
              "below-floor": lambda floor: floor - 1}


def _set(payload, path, value):
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def _seed13_payload(tmp_path):
    """seed13's config on an input file that does not exist."""
    payload = yaml.safe_load((DATA / "seed13_config.yaml").read_text())
    payload["input"]["path"] = str(tmp_path / "absent.csv")
    return payload


@pytest.mark.parametrize("value", _NOT_WHOLE.values(), ids=_NOT_WHOLE)
@pytest.mark.parametrize("path, floor", _WHOLE_NUMBER_KEYS,
                         ids=[p[-1] for p, _ in _WHOLE_NUMBER_KEYS])
def test_config_whole_numbers_are_refused_before_the_input_is_read(
        tmp_path, capsys, path, floor, value):
    payload = _seed13_payload(tmp_path)
    _set(payload, path, value(floor))
    cfgp = tmp_path / "cfg.yaml"
    cfgp.write_text(yaml.safe_dump(payload))
    assert main(["pipeline", "--config", str(cfgp)]) == 2
    err = capsys.readouterr().err
    assert f"{path[-1]} must be a whole number >= {floor}, got " in err


@pytest.mark.parametrize("path, floor", _WHOLE_NUMBER_KEYS,
                         ids=[p[-1] for p, _ in _WHOLE_NUMBER_KEYS])
def test_config_takes_a_numpy_integer(tmp_path, path, floor):
    payload = _seed13_payload(tmp_path)
    _set(payload, path, np.int64(2))
    cfg = parse_config(payload)
    section = {"models": cfg.models[0], "diagnostics": cfg.diagnostics,
               "unit_root": cfg.unit_root}[path[0]]
    assert getattr(section, path[-1]) == 2


@pytest.fixture(scope="module")
def pair():
    """A small cointegrated pair, its Y series and an ARDL(1, 1) fit."""
    ds = generate(CointegratedPair(T=80, seed=25))
    return ds, ds["Y"], estimate_ardl(ds, ArdlSpec("Y", ("X",), 1,
                                                   {"X": 1})).levels_fit


# (call with the value, key named, floor, error type, CLI exit code): each
# library function and config class that takes a whole number
_LIBRARY_WHOLE_NUMBERS = {
    "select_lags-max_p": (lambda d, s, f, v: select_lags(d, v, 1),
                          "max_p", 1, InvalidParameters, 2),
    "select_lags-max_q": (lambda d, s, f, v: select_lags(d, 1, v),
                          "max_q", 0, InvalidParameters, 2),
    "ArdlSpec-p": (lambda d, s, f, v: ArdlSpec("Y", ("X",), v, {"X": 0}),
                   "p", 1, InvalidParameters, 2),
    "ArdlSpec-q": (lambda d, s, f, v: ArdlSpec("Y", ("X",), 1, {"X": v}),
                   "q['X']", 0, InvalidParameters, 2),
    "adf_test-max_lag": (lambda d, s, f, v: adf_test(s, max_lag=v),
                         "max_lag", 0, ValueError, None),
    "pp_test-bandwidth": (lambda d, s, f, v: pp_test(s, bandwidth=v),
                          "bandwidth", 0, ValueError, None),
    "breusch_godfrey-lags": (lambda d, s, f, v: breusch_godfrey(f, v),
                             "lags", 1, ValueError, None),
    "UnitRootConfig-max_lag": (lambda d, s, f, v: UnitRootConfig(max_lag=v),
                               "unit_root.max_lag", 0, ConfigError, 2),
    "UnitRootConfig-bandwidth": (
        lambda d, s, f, v: UnitRootConfig(bandwidth=v),
        "unit_root.bandwidth", 0, ConfigError, 2),
    "ModelSpec-max_p": (lambda d, s, f, v: ModelSpec("m", "Y", ("X",), v),
                        "model 'm': max_p", 1, ConfigError, 2),
    "ModelSpec-max_q": (
        lambda d, s, f, v: ModelSpec("m", "Y", ("X",), 1, v),
        "model 'm': max_q", 0, ConfigError, 2),
    "DiagnosticsStage-bg_lags": (
        lambda d, s, f, v: DiagnosticsStage(bg_lags=v),
        "diagnostics.bg_lags", 1, ConfigError, 2),
}


@pytest.mark.parametrize("value", _NOT_WHOLE.values(), ids=_NOT_WHOLE)
@pytest.mark.parametrize("case", _LIBRARY_WHOLE_NUMBERS)
def test_library_whole_numbers_follow_the_config_rule(pair, case, value):
    call, key, floor, error, code = _LIBRARY_WHOLE_NUMBERS[case]
    value = value(floor)
    with pytest.raises(error) as info:
        call(*pair, value)
    assert str(info.value) == (f"{key} must be a whole number >= {floor}, "
                               f"got {value!r}")
    # an ardlkit error has its exit code; a plain ValueError has none
    assert next((c for kind, c in cli._EXIT_CODES
                 if isinstance(info.value, kind)), None) == code
    call(*pair, np.int64(2))


# (call with the value, key named, error type): each library function and
# config class that takes a choice of names, given 5, None and "bogus"
_LIBRARY_CHOICES = {
    "select_lags-criterion": (
        lambda d, v: select_lags(d, 1, 1, v), "criterion",
        InvalidParameters),
    "bounds_test-case": (
        lambda d, v: bounds_test(estimate_ardl(
            d, ArdlSpec("Y", ("X",), 1, {"X": 1})), v),
        "bounds-test case", InvalidParameters),
    "adf_test-rule": (lambda d, v: adf_test(d["Y"], rule=v), "rule",
                      ValueError),
    "UnitRootConfig-rule": (lambda d, v: UnitRootConfig(rule=v),
                            "unit_root.rule", ConfigError),
    "UnitRootConfig-test": (lambda d, v: UnitRootConfig(test=v),
                            "unit_root.test", ConfigError),
    "ModelSpec-criterion": (
        lambda d, v: ModelSpec("m", "Y", ("X",), criterion=v),
        "model 'm': criterion", ConfigError),
    "ModelSpec-bounds_case": (
        lambda d, v: ModelSpec("m", "Y", ("X",), bounds_case=v),
        "model 'm': bounds_case", ConfigError),
}


@pytest.mark.parametrize("value", [5, None, "bogus"])
@pytest.mark.parametrize("case", _LIBRARY_CHOICES)
def test_a_choice_that_is_not_one_of_the_names_is_refused(pair, case, value):
    call, key, error = _LIBRARY_CHOICES[case]
    with pytest.raises(error, match=f"^{re.escape(key)} must be .*, got "
                                    f"{re.escape(repr(value))}$"):
        call(pair[0], value)


def test_a_choice_in_any_case_keeps_its_own_spelling(pair):
    ds = pair[0]
    assert select_lags(ds, 2, 2, "aic") == select_lags(ds, 2, 2, "AIC")
    assert adf_test(ds["Y"], rule="Fixed", max_lag=1).selection_rule == \
        "fixed"
    assert ModelSpec("m", "Y", ("X",), criterion="sbc",
                     bounds_case="ii").criterion == "sbc"
    assert UnitRootConfig(test="pp", rule="sbc").rule == "sbc"


# A fuzz of the command line: seed13's first rows and config, with a few
# CSV cells and config values replaced by drawn ones.
_FUZZ_ROWS = 120
_FUZZ_LINES = (DATA / "seed13.csv").read_text().splitlines()[:_FUZZ_ROWS + 1]
_FUZZ_CELLS = st.one_of(
    st.sampled_from(["", "NA", ".", "nan", "inf", "-inf", "1e400", "-0",
                     "x", "2000-13", "1999-12", "2000-Q1", "2000",
                     '"1"']),
    st.floats().map(repr),
    st.text(max_size=6),
)
_FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 30), st.floats(),
    st.text(max_size=8),
    st.sampled_from(["ADF", "PP", "trend", "none", "AIC", "II", "V",
                     "drop_row", "interpolate", "YYYY", "Y", "X"]),
    st.lists(st.one_of(st.integers(-1, 5), st.sampled_from(["Y", "X"])),
             max_size=3),
    st.dictionaries(st.sampled_from(["source", "transforms", "path"]),
                    st.one_of(st.text(max_size=4),
                              st.lists(st.text(max_size=4), max_size=2))),
)
_FUZZ_KEYS = [
    ("alpha",), ("levels",), ("force",), ("variables",), ("output",),
    ("input", "date_format"), ("input", "missing_policy"),
    ("input", "value_columns"), ("input", "dependent"),
    ("input", "date_column"),
    ("models",), ("models", 0, "max_p"), ("models", 0, "max_q"),
    ("models", 0, "criterion"), ("models", 0, "bounds_case"),
    ("models", 0, "dependent"), ("models", 0, "regressors"),
    ("unit_root",), ("unit_root", "test"), ("unit_root", "spec"),
    ("unit_root", "alpha"), ("unit_root", "max_lag"),
    ("unit_root", "rule"), ("unit_root", "bandwidth"),
    ("diagnostics",), ("diagnostics", "enabled"),
    ("diagnostics", "bg_lags"), ("diagnostics", "reset_powers"),
]


def _holds(node, key) -> bool:
    if isinstance(node, dict):
        return key in node
    return isinstance(node, list) and isinstance(key, int) and key < len(node)


def _fuzz_config(csv_path, edits):
    """seed13's config on csv_path, with each edit's value set at its key
    path wherever an earlier edit left that path standing."""
    cfg = yaml.safe_load((DATA / "seed13_config.yaml").read_text())
    cfg["input"]["path"] = str(csv_path)
    for key, value in edits:
        node = cfg
        for part in key[:-1]:
            node = node[part] if _holds(node, part) else None
        if isinstance(node, dict) or _holds(node, key[-1]):
            node[key[-1]] = value
    return cfg


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["pipeline", "ardl", "unitroot"]),
       cells=st.lists(st.tuples(st.integers(0, _FUZZ_ROWS),
                                st.integers(0, 2), _FUZZ_CELLS), max_size=3),
       edits=st.lists(st.tuples(st.sampled_from(_FUZZ_KEYS), _FUZZ_VALUES),
                      max_size=3))
def test_cli_maps_drawn_inputs_to_exit_codes(command, cells, edits):
    rows = [line.split(",") for line in _FUZZ_LINES]
    for r, c, cell in cells:
        rows[r][c] = cell

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data, cfg, out = tmp / "data.csv", tmp / "cfg.yaml", tmp / "out.json"
        data.write_text("\n".join(",".join(r) for r in rows) + "\n",
                        encoding="utf-8")
        cfg.write_text(yaml.safe_dump(_fuzz_config(data, edits)),
                       encoding="utf-8")
        argv = [command, "--config", str(cfg), "--output", str(out),
                "--format", "json"]
        if command == "unitroot":
            argv += ["--input", str(data)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
        assert code in {0, 2, 3, 4, 5}
        assert "Traceback" not in stderr.getvalue()
        for text in (stdout.getvalue(),
                     out.read_text(encoding="utf-8") if out.exists() else ""):
            if text:
                json.loads(text, parse_constant=refuse)


# --- the config reader and the CLI parser ------------------------------------

SIMULATE_PAYLOAD = {"dgp": {"kind": "ar1", "T": 50, "seed": 1, "phi": 0.5}}


def _config_texts():
    seed13 = (DATA / "seed13_config.yaml").read_text(encoding="utf-8")
    return {
        "seed13": seed13,
        "seed13-as-json": json.dumps(yaml.safe_load(seed13)),
        "base-config": yaml.safe_dump(base_config("data.csv")),
        "simulate": yaml.safe_dump(SIMULATE_PAYLOAD),
        "fuzz-edits": yaml.safe_dump(_fuzz_config(
            "data.csv", [(("alpha",), "x"), (("models", 0, "max_p"), -1),
                         (("diagnostics", "reset_powers"), ["Y", 2])])),
    }


@pytest.mark.parametrize("name", list(_config_texts()))
def test_libyaml_and_python_loaders_read_the_same_mapping(name):
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    text = _config_texts()[name]
    assert (yaml.load(text, Loader=yaml.CSafeLoader)
            == yaml.load(text, Loader=yaml.SafeLoader))


@pytest.fixture(params=["libyaml", "python"])
def loader(request, monkeypatch):
    """Runs a test with libyaml's loader, and again with PyYAML's own as
    on an install without libyaml."""
    if request.param == "libyaml" and not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    if request.param == "python":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    return request.param


def test_config_reads_alike_with_either_loader(loader, tmp_path):
    cfg = tmp_path / "seed13.json"
    cfg.write_text(_config_texts()["seed13-as-json"], encoding="utf-8")
    expected = parse_config(
        yaml.safe_load((DATA / "seed13_config.yaml").read_text()),
        base_dir=DATA)
    assert load_config(DATA / "seed13_config.yaml") == expected
    assert load_config(cfg) == parse_config(
        json.loads(cfg.read_text()), base_dir=tmp_path)


@pytest.mark.parametrize("text", [
    "alpha: [0.05,\n", "models: a: b\n", "alpha: \x07\n",
    "alpha: !!python/object:os.system x\n", "alpha: 2020-02-30\n",
])
@pytest.mark.parametrize("command", ["pipeline", "ardl", "unitroot",
                                     "simulate"])
def test_unreadable_config_exits_2(loader, tmp_path, capsys, command, text):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text, encoding="utf-8")
    argv = {"pipeline": ["pipeline", "--config", str(cfg)],
            "ardl": ["ardl", "--config", str(cfg)],
            "unitroot": ["unitroot", "--config", str(cfg),
                         "--input", str(DATA / "seed13.csv")],
            "simulate": ["simulate", "--config", str(cfg),
                         "--output", str(tmp_path / "out.csv")]}[command]
    assert main(argv) == 2
    assert "config parse failure" in capsys.readouterr().err


def test_successive_main_calls_share_no_state(monkeypatch):
    seen = []
    for name in ("_cmd_pipeline", "_cmd_ardl", "_cmd_unitroot",
                 "_cmd_simulate", "_cmd_render"):
        monkeypatch.setattr(cli, name,
                            lambda args: seen.append(vars(args)) or 0)
    argvs = [
        ["pipeline", "--config", "a.yaml", "--force", "--format", "json",
         "--output", "o.json", "--input", "d.csv"],
        ["ardl", "--config", "b.yaml"],
        ["pipeline", "--config", "c.yaml"],
        ["simulate", "--config", "s.yaml", "--seed", "4", "--output", "x"],
        ["simulate", "--config", "s.yaml", "--output", "y"],
        ["render", "--input", "r.json", "--format", "json"],
        ["unitroot", "--input", "d.csv"],
    ]
    for argv in argvs:
        assert main(argv) == 0
    pipeline_defaults = {"input": None, "output": None, "format": "text",
                         "force": False}
    assert seen == [
        {"command": "pipeline", "config": "a.yaml", "input": "d.csv",
         "output": "o.json", "format": "json", "force": True},
        {"command": "ardl", "config": "b.yaml", **pipeline_defaults},
        {"command": "pipeline", "config": "c.yaml", **pipeline_defaults},
        {"command": "simulate", "config": "s.yaml", "seed": 4,
         "output": "x"},
        {"command": "simulate", "config": "s.yaml", "seed": None,
         "output": "y"},
        {"command": "render", "input": "r.json", "output": None,
         "format": "json"},
        {"command": "unitroot", "input": "d.csv", "config": None,
         "output": None, "format": "text"},
    ]
    assert cli._build_parser() is cli._build_parser()
