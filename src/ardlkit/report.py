"""Report rendering: versioned JSON and aligned plain-text tables.

Significance stars follow the usual convention — * at 10%, ** at 5%,
*** at 1% — and are always derived from the same decision maps the JSON
carries, so the two encodings can never disagree. Rendering is pure:
the same report renders to the same bytes.

Schema 2 serializes every p-value at ``P_VALUE_DIGITS`` significant
digits. The trailing digits of a distribution tail are below the
accuracy of any library's tail routine and move between scipy releases;
stars and decisions are still derived from the unrounded value.
"""

from __future__ import annotations

import json
import math
from pathlib import PurePath

from .ardl import coefficient_pvalues
from .diagnostics import BATTERY, DiagnosticsReport, StabilityResult
from .errors import ConfigError
from .linreg import DEFAULT_LEVELS, TestStatistic, decisions_from_pvalue
from .pipeline import AnalysisReport, ModelResult
from .unitroot import UnitRootResult

SCHEMA_VERSION = 2
P_VALUE_DIGITS = 10

_ORDER_LABEL = {"I0": "I(0)", "I1": "I(1)", "higher": "I(2) or higher"}
STARS_LEGEND = "significance stars: * 10%, ** 5%, *** 1%"
# the battery's LM and F tests, each a TestStatistic; its last test,
# stability, reports CUSUM and CUSUMSQ
_LM_TESTS = BATTERY[:-1]


def pct(alpha: float) -> str:
    return f"{alpha * 100:g}%"


def _serialized_pvalue(p: float | None) -> float | None:
    """A p-value as serialized: rounded to ``P_VALUE_DIGITS`` digits."""
    return None if p is None else float(f"{p:.{P_VALUE_DIGITS}g}")


def stars_from_map(decisions: dict[float, str], positive: str) -> str:
    """Stars from a decision map: *** at 1%, ** at 5%, * at 10%."""
    for alpha, mark in ((0.01, "***"), (0.05, "**"), (0.10, "*")):
        if decisions.get(alpha) == positive:
            return mark
    return ""


def _coef_row(name: str, coef: float, se: float, t: float,
              p: float) -> dict:
    """One row of a coefficient table, starred by p at the default
    levels (no stars when p is not finite)."""
    decisions = (decisions_from_pvalue(p, DEFAULT_LEVELS)
                 if math.isfinite(p) else {})
    return {"variable": name, "coefficient": coef, "std_error": se,
            "t_stat": t, "p_value": _serialized_pvalue(p),
            "stars": stars_from_map(decisions, "reject")}


def _fit_rows(fit, names) -> list[dict]:
    """The named coefficients of a fit, with t-distribution p-values."""
    pvals = coefficient_pvalues(fit)
    return [_coef_row(name, fit.coefficients[name], fit.std_errors[name],
                      fit.t_stats[name], pvals[name]) for name in names]


def _test_payload(t: TestStatistic | None, alpha: float) -> dict | None:
    if t is None:
        return None
    return {
        "name": t.name,
        "statistic": t.statistic,
        "distribution": t.distribution,
        "p_value": _serialized_pvalue(t.p_value),
        "decision": t.decision_at.get(alpha),
        "decision_at": {pct(a): d for a, d in sorted(t.decision_at.items())},
    }


def _stability_payload(s: StabilityResult | None) -> dict | None:
    if s is None:
        return None
    return {
        "test": s.test,
        "stable": s.stable,
        "alpha": s.alpha,
        "max_path": float(max(abs(v) for v in s.path)) if len(s.path) else 0.0,
        "n_steps": int(len(s.path)),
    }


def _diagnostics_payload(d: DiagnosticsReport | None) -> dict | None:
    if d is None:
        return None
    return {
        "alpha": d.alpha,
        **{key: _test_payload(getattr(d, key), d.alpha) for key in _LM_TESTS},
        "cusum": _stability_payload(d.cusum),
        "cusumsq": _stability_payload(d.cusumsq),
        "verdict": d.verdict,
    }


def _model_payload(mr: ModelResult) -> dict:
    spec = mr.ardl.spec
    fit = mr.ardl.levels_fit
    out = {
        "name": mr.spec.name,
        "dependent": spec.dependent,
        "regressors": list(spec.regressors),
        "selected": {
            "p": spec.p,
            "q": dict(spec.q),
            "criterion": mr.spec.criterion.upper(),
            "description": spec.describe(),
        },
        "n_effective": mr.ardl.n_effective,
        "conditional_ecm_rows": _fit_rows(fit, fit.design.names),
        "bounds": {
            "f_statistic": mr.bounds.f_statistic,
            "case": mr.bounds.case,
            "k": mr.bounds.k,
            "alpha": mr.bounds.alpha,
            "decision": mr.bounds.decision,
            "restricted": list(mr.bounds.restricted),
            "bounds": {pct(a): list(b)
                       for a, b in sorted(mr.bounds.bounds.items())},
        },
        "long_run": None,
        "short_run": None,
        "diagnostics": _diagnostics_payload(mr.diagnostics),
    }
    lr = mr.long_run
    if lr is not None:
        out["long_run"] = {"rows": [
            _coef_row(name, value, lr.std_errors[name], lr.t_stats[name],
                      _normal_p(lr.t_stats[name]))
            for name, value in lr.values.items()]}
    if mr.ecm is not None:
        efit = mr.ecm.fit
        out["short_run"] = {
            "rows": _fit_rows(efit, [*mr.ecm.short_run, "ECM(-1)"]),
            "ecm_coefficient": mr.ecm.ecm_coefficient,
            "non_negative_loading": mr.ecm.non_negative_loading,
            "speed_of_adjustment_pct": mr.ecm.speed_of_adjustment_pct,
            "one_step_gap": mr.ecm.adjustment_gap,
            "r_squared": efit.r_squared,
            "adj_r_squared": efit.adj_r_squared,
            "f_statistic": efit.f_statistic,
            "durbin_watson": efit.durbin_watson,
        }
    return out


def _normal_p(t: float) -> float:
    """Two-sided standard-normal p-value of t; NaN when t is not finite."""
    if not math.isfinite(t):
        return math.nan
    return 2.0 * (0.5 * math.erfc(abs(t) / math.sqrt(2.0)))


def _unit_root_payload(report: AnalysisReport) -> dict:
    ur = report.config.unit_root
    return {
        "classification": {
            "test": ur.test,
            "spec": ur.spec.value,
            "alpha": ur.alpha,
        },
        "table": unit_root_rows(report.unit_root_table),
        "integration": [
            {"variable": io.series_name, "order": io.order,
             "label": _ORDER_LABEL[io.order], "alpha": io.alpha}
            for io in report.integration
        ],
    }


def to_payload(report: AnalysisReport) -> dict:
    """Plain-primitive mapping of the whole report (JSON-ready)."""
    prov = report.provenance
    return {
        "schema_version": SCHEMA_VERSION,
        "provenance": {
            # basename only: absolute paths would make the encoding
            # machine-dependent and break golden-file comparisons
            "source_file": PurePath(prov.source_path).name,
            "rows_read": prov.rows_read,
            "rows_used": prov.rows_used,
            "policy": prov.policy,
            "rows_dropped": prov.rows_dropped,
            "cells_imputed": prov.cells_imputed,
        },
        "levels": [pct(a) for a in sorted(report.config.levels)],
        "alpha": report.config.alpha,
        "variables": [
            {"name": v.name, "source": v.source,
             "transforms": list(v.transforms)}
            for v in report.config.variables
        ],
        "unit_root": _unit_root_payload(report),
        "models": [_model_payload(mr) for mr in report.models],
        "warnings": list(report.warnings),
    }


def render_report(report: AnalysisReport, fmt: str = "json") -> bytes:
    """Encode a report as UTF-8 bytes in the requested format."""
    return render_payload(to_payload(report), fmt)


def _finite_or_null(value):
    """value with every non-finite float, however deeply nested, as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def render_payload(payload: dict, fmt: str = "json") -> bytes:
    """Encode a payload as UTF-8 bytes: indented, key-sorted JSON, or
    (for a to_payload mapping) the text report. JSON is strict RFC 8259:
    NaN and infinities are written as null."""
    if fmt == "json":
        text = json.dumps(_finite_or_null(payload), indent=2,
                          sort_keys=True, allow_nan=False)
        return (text + "\n").encode("utf-8")
    if fmt == "text":
        return render_text(payload).encode("utf-8")
    raise ConfigError(f"unknown report format {fmt!r}")


# --- text rendering --------------------------------------------------------

def _fmt(value, nd=6) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not math.isfinite(value):
        return "inf" if value > 0 else ("-inf" if value < 0 else "nan")
    return f"{value:.{nd}f}"


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))
    def line(cells):
        return "  ".join(c.ljust(w) if j == 0 else c.rjust(w)
                         for j, (c, w) in enumerate(zip(cells, widths)))
    out = [line(headers), line(["-" * w for w in widths])]
    out += [line(r) for r in rows]
    return out


def unit_root_rows(results: dict[tuple, UnitRootResult]) -> list[dict]:
    """The unit-root table's rows, one per pipeline.unit_root_table
    result and in its order."""
    return [{
        "variable": variable,
        "test": res.test,
        "spec": res.spec.value,
        "stage": stage,
        "statistic": res.statistic,
        "lag_or_bandwidth": res.lag_or_bandwidth,
        "nobs": res.nobs,
        "critical_values": {pct(a): cv for a, cv
                            in sorted(res.critical_values.items())},
        "verdict_at": {pct(a): v for a, v in sorted(res.verdict_at.items())},
        "stars": stars_from_map(res.verdict_at, "stationary"),
    } for (variable, _, _, stage), res in results.items()]


def unit_root_lines(table: list[dict]) -> list[str]:
    """The unit-root table's text section: heading, rule and table."""
    rows = [[r["variable"], r["test"],
             "trend" if r["spec"] == "constant_and_trend" else "no trend",
             r["stage"].replace("_", " "),
             _fmt(r["statistic"], 3) + r["stars"],
             str(r["lag_or_bandwidth"])]
            for r in table]
    return ["UNIT ROOT TESTS", "-" * 60] + _table(
        ["variable", "test", "deterministic", "stage", "statistic",
         "lags/bw"], rows)


def _coef_lines(title: str, rows: list[dict]) -> list[str]:
    """A coefficient table's text section: title and table."""
    return [title] + _table(
        ["variable", "coefficient", "std. error", "t-statistic"],
        [[r["variable"], _fmt(r["coefficient"]) + r["stars"],
          _fmt(r["std_error"]), _fmt(r["t_stat"])] for r in rows])


def render_text(payload: dict) -> str:
    lines: list[str] = []
    push = lines.append
    push("ARDL BOUNDS-TESTING ANALYSIS")
    push("=" * 60)
    prov = payload["provenance"]
    push(f"input: {prov['source_file']} "
         f"({prov['rows_used']} rows used of {prov['rows_read']} read, "
         f"missing-value policy {prov['policy']})")
    push("")

    if payload.get("unit_root"):
        lines += unit_root_lines(payload["unit_root"]["table"])
        cls = payload["unit_root"]["classification"]
        push("")
        push(f"integration orders ({cls['test']}, {cls['spec']}, "
             f"alpha {pct(cls['alpha'])}):")
        for io in payload["unit_root"]["integration"]:
            push(f"  {io['variable']}: {io['label']}")
        push("")

    for m in payload["models"]:
        push(f"MODEL {m['name']}: {m['dependent']} on "
             f"{', '.join(m['regressors'])} - {m['selected']['description']} "
             f"selected by {m['selected']['criterion']}")
        push("-" * 60)
        b = m["bounds"]
        band = b["bounds"][pct(b["alpha"])]
        push(f"bounds test (case {b['case']}, k={b['k']}): "
             f"F = {_fmt(b['f_statistic'], 4)}, "
             f"{pct(b['alpha'])} band {_fmt(band[0], 2)} - {_fmt(band[1], 2)} "
             f"=> {b['decision'].replace('_', ' ')}")
        push("")

        if m["long_run"] is not None:
            lines += _coef_lines("long-run coefficients",
                                 m["long_run"]["rows"])
            push("")
        if m["short_run"] is not None:
            sr = m["short_run"]
            lines += _coef_lines("short-run (error-correction) coefficients",
                                 sr["rows"])
            push(f"R-squared {_fmt(sr['r_squared'])}   "
                 f"Adj. R-squared {_fmt(sr['adj_r_squared'])}   "
                 f"F-statistic (overall) {_fmt(sr['f_statistic'], 4)}   "
                 f"DW {_fmt(sr['durbin_watson'])}")
            push(f"speed of adjustment: "
                 f"{_fmt(sr['speed_of_adjustment_pct'], 1)}% of a "
                 "disequilibrium shock is corrected each period")
            push("")
        if m["diagnostics"] is not None:
            d = m["diagnostics"]
            push(f"diagnostics (alpha {pct(d['alpha'])})")
            drows = [[
                key.replace("_", " "), _fmt(t["statistic"], 6),
                _fmt(t["p_value"], 6) if t["p_value"] is not None else "-",
                t["decision"] or "-",
            ] for key in _LM_TESTS if (t := d[key]) is not None]
            lines += _table(["test", "statistic", "p-value", "decision"],
                            drows)
            for key, label in (("cusum", "CUSUM"), ("cusumsq", "CUSUMSQ")):
                s = d[key]
                if s is not None:
                    push(f"{label}: {'Stable' if s['stable'] else 'Unstable'}")
            push(f"diagnostics verdict: {d['verdict']}")
            push("")

    if payload["warnings"]:
        push("WARNINGS")
        push("-" * 60)
        for w in payload["warnings"]:
            push(f"  - {w}")
        push("")
    push(STARS_LEGEND)
    return "\n".join(lines) + "\n"
