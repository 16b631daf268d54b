"""Config-driven batch pipeline: ingest, transform, test, estimate, report.

The pipeline reproduces the full level-relationship workflow for each
configured model: unit-root screening of every variable (refusing to
proceed past I(1)), lag selection, the bounds cointegration test,
long-run and error-correction estimation, and the diagnostics battery.
Results land in an AnalysisReport whose JSON rendering is byte-stable:
same config and input file, same bytes out.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

from . import dataio
from .ardl import (
    ArdlModel,
    BoundsTestResult,
    EcmResult,
    LongRunCoefficients,
    bounds_test,
    estimate_ardl,
    long_run,
    select_lags,
    estimate_ecm,
)
from .dataio import Dataset, IngestionConfig, TimeSeries
from .diagnostics import BATTERY, DiagnosticsReport, run_battery
from .errors import ConfigError, I2VariablePresent
from .linreg import DEFAULT_LEVELS
from .unitroot import (
    Deterministic,
    IntegrationOrder,
    UnitRootConfig,
    UnitRootResult,
    adf_test,
    classify_integration,
    pp_test,
)


@dataclass(frozen=True)
class VariableSpec:
    """A derived variable: a source column plus a transform chain."""

    name: str
    source: str
    transforms: tuple[str, ...] = ()

    def __post_init__(self):
        for t in self.transforms:
            if t not in ("log", "diff"):
                raise ConfigError(
                    f"variable {self.name!r}: unknown transform {t!r} "
                    "(expected 'log' or 'diff')"
                )


@dataclass(frozen=True)
class ModelSpec:
    """One ARDL model to estimate."""

    name: str
    dependent: str
    regressors: tuple[str, ...]
    max_p: int = 2
    max_q: int = 2
    criterion: str = "SBC"
    bounds_case: str = "III"

    def __post_init__(self):
        if not self.regressors:
            raise ConfigError(f"model {self.name!r} needs >= 1 regressor")
        if self.dependent in self.regressors:
            raise ConfigError(
                f"model {self.name!r}: dependent cannot be a regressor"
            )
        if self.criterion.upper() not in ("AIC", "SBC"):
            raise ConfigError(f"model {self.name!r}: criterion must be "
                              "AIC or SBC")
        if self.bounds_case.upper() not in ("II", "III"):
            raise ConfigError(f"model {self.name!r}: bounds_case must be "
                              "II or III")


@dataclass(frozen=True)
class DiagnosticsStage:
    enabled: bool = True
    bg_lags: int = 2
    reset_powers: tuple[int, ...] = (2,)
    serial_correlation: bool = True
    functional_form: bool = True
    normality: bool = True
    heteroscedasticity: bool = True
    stability: bool = True

    def __post_init__(self):
        if (isinstance(self.bg_lags, bool) or not isinstance(self.bg_lags, int)
                or self.bg_lags < 1):
            raise ConfigError(f"diagnostics.bg_lags must be a whole number "
                              f">= 1, got {self.bg_lags!r}")
        if not self.reset_powers or not all(p in (2, 3, 4)
                                            for p in self.reset_powers):
            raise ConfigError("diagnostics.reset_powers must be a nonempty "
                              f"subset of [2, 3, 4], got "
                              f"{list(self.reset_powers)!r}")

    def include(self) -> tuple[str, ...]:
        """The switched-on tests, in BATTERY order."""
        return tuple(t for t in BATTERY if getattr(self, t))


@dataclass(frozen=True)
class PipelineConfig:
    input_path: str
    ingestion: IngestionConfig
    variables: tuple[VariableSpec, ...]
    models: tuple[ModelSpec, ...]
    levels: tuple[float, ...] = DEFAULT_LEVELS
    unit_root: UnitRootConfig = UnitRootConfig()
    diagnostics: DiagnosticsStage = DiagnosticsStage()
    alpha: float = 0.05
    force: bool = False
    json_path: str | None = None
    text_path: str | None = None


@dataclass(frozen=True, eq=False)
class ModelResult:
    """Everything the pipeline produced for one configured model."""

    spec: ModelSpec
    ardl: ArdlModel
    bounds: BoundsTestResult
    long_run: LongRunCoefficients | None
    ecm: EcmResult | None
    diagnostics: DiagnosticsReport | None


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    """Structured pipeline output; see report.render_report for encodings."""

    config: PipelineConfig
    provenance: dataio.Provenance
    unit_root_table: dict[tuple[str, str, Deterministic, str],
                          UnitRootResult]
    integration: tuple[IntegrationOrder, ...]
    models: tuple[ModelResult, ...]
    warnings: tuple[str, ...]


def _as_tuple(value, what: str) -> tuple:
    if value is None:
        return ()
    if isinstance(value, (list, tuple)):
        return tuple(value)
    raise ConfigError(f"{what} must be a list")


def _mapping(value, what: str) -> dict:
    """A config section: value when it is a mapping, {} when it is empty
    or left out; anything else is a ConfigError naming the section."""
    if isinstance(value, dict):
        return value
    if not value:
        return {}
    raise ConfigError(f"{what} must be a mapping, got {value!r}")


def _name(value, key: str) -> str:
    """value when it is text; a number, a list or a mapping is a
    ConfigError naming the key."""
    if isinstance(value, str):
        return value
    raise ConfigError(f"{key} must be a name, got {value!r}")


def _converted(value, key: str, kind: type = float):
    """value as a float, or as an int when it is a whole number; any
    other value, a bool included, is a ConfigError naming the key."""
    what = "a number" if kind is float else "a whole number"
    try:
        if isinstance(value, bool):
            raise TypeError
        out = kind(value)
        if kind is int and out != float(value):   # int(2.7) is 2
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be {what}, got {value!r}") from None
    return out


def _flag(value, key: str) -> bool:
    """value when it is a YAML boolean; any other value, the text
    "false" included, is a ConfigError naming the key."""
    if isinstance(value, bool):
        return value
    raise ConfigError(f"{key} must be true or false, got {value!r}")


def parse_config(payload: dict, base_dir: Path | None = None) -> PipelineConfig:
    """Build and validate a PipelineConfig from a parsed mapping.

    Raises ConfigError on any structural problem before data is read.
    """
    if not isinstance(payload, dict):
        raise ConfigError("config root must be a mapping")
    payload = dict(payload)

    inp = payload.get("input")
    if not isinstance(inp, dict) or "path" not in inp:
        raise ConfigError("config needs an input section with a path")

    def _resolve(p):
        """p as text, under base_dir when relative; None if not given."""
        if p is None:
            return None
        p = str(p)
        if base_dir is not None and not Path(p).is_absolute():
            return str(base_dir / p)
        return p

    ingestion = IngestionConfig(
        date_column=_name(inp.get("date_column", "date"),
                          "input.date_column"),
        date_format=_name(inp.get("date_format", "YYYY-MM"),
                          "input.date_format"),
        value_columns=tuple(
            _name(c, "input.value_columns")
            for c in _as_tuple(inp.get("value_columns"),
                               "input.value_columns")) or None,
        missing_policy=inp.get("missing_policy", "reject"),
        dependent=(None if inp.get("dependent") is None
                   else _name(inp["dependent"], "input.dependent")),
    )

    variables = []
    for name, vspec in _mapping(payload.get("variables"),
                                "variables").items():
        if isinstance(vspec, str):
            variables.append(VariableSpec(name, vspec))
        elif isinstance(vspec, dict):
            variables.append(VariableSpec(
                name, vspec.get("source", name),
                _as_tuple(vspec.get("transforms"),
                          f"variable {name!r}: transforms"),
            ))
        else:
            raise ConfigError(f"variable {name!r} must map to a source "
                              "name or a mapping")

    models = []
    for mpayload in _as_tuple(payload.get("models"), "models"):
        if not isinstance(mpayload, dict):
            raise ConfigError("each model must be a mapping")
        name = mpayload.get("name", f"model{len(models) + 1}")
        try:
            models.append(ModelSpec(
                name=name,
                dependent=_name(mpayload["dependent"],
                                f"model {name!r}: dependent"),
                regressors=tuple(
                    _name(r, f"model {name!r}: regressors")
                    for r in _as_tuple(mpayload.get("regressors"),
                                       "regressors")),
                max_p=_converted(mpayload.get("max_p", 2),
                                 f"model {name!r}: max_p", int),
                max_q=_converted(mpayload.get("max_q", 2),
                                 f"model {name!r}: max_q", int),
                criterion=str(mpayload.get("criterion", "SBC")),
                bounds_case=str(mpayload.get("bounds_case", "III")),
            ))
        except KeyError as exc:
            raise ConfigError(f"model missing required key {exc}") from None
    if not models:
        raise ConfigError("config defines no models")

    levels = tuple(_converted(a, f"levels[{i}]") for i, a in enumerate(
        _as_tuple(payload.get("levels"), "levels") or DEFAULT_LEVELS))
    bad = [a for a in levels if a not in DEFAULT_LEVELS]
    if bad:
        raise ConfigError(
            f"significance levels {bad} unsupported; allowed {DEFAULT_LEVELS}"
        )

    ur = _mapping(payload.get("unit_root"), "unit_root")
    spec_name = ur.get("spec", "constant")
    try:
        ur_spec = Deterministic(spec_name)
    except ValueError:
        raise ConfigError(f"unknown deterministic spec {spec_name!r}") from None
    unit_root = UnitRootConfig(
        test=str(ur.get("test", "ADF")).upper(),
        spec=ur_spec,
        alpha=_converted(ur.get("alpha", 0.05), "unit_root.alpha"),
        max_lag=ur.get("max_lag"),
        rule=str(ur.get("rule", "AIC")),
        bandwidth=ur.get("bandwidth"),
    )

    dg = _mapping(payload.get("diagnostics"), "diagnostics")
    diagnostics = DiagnosticsStage(
        bg_lags=dg.get("bg_lags", 2),
        reset_powers=_as_tuple(dg.get("reset_powers", (2,)),
                               "diagnostics.reset_powers"),
        **{key: _flag(dg.get(key, True), f"diagnostics.{key}")
           for key in ("enabled", *BATTERY)},
    )

    alpha = _converted(payload.get("alpha", 0.05), "alpha")
    if alpha not in DEFAULT_LEVELS:
        raise ConfigError(f"alpha must be one of 1%, 5%, 10%, got {alpha!r}")

    out = _mapping(payload.get("output"), "output")
    cfg = PipelineConfig(
        input_path=_resolve(str(inp["path"])),
        ingestion=ingestion,
        variables=tuple(variables),
        models=tuple(models),
        levels=levels,
        unit_root=unit_root,
        diagnostics=diagnostics,
        alpha=alpha,
        force=_flag(payload.get("force", False), "force"),
        json_path=_resolve(out.get("json")),
        text_path=_resolve(out.get("text")),
    )
    _validate_references(cfg)
    return cfg


def read_config_file(path):
    """The document in a YAML (or JSON; JSON is a YAML subset) file, read
    by PyYAML's safe loader: libyaml's CSafeLoader where PyYAML was built
    with it, SafeLoader otherwise.

    Raises ConfigError when the file is missing or does not parse, or
    when a scalar is malformed for its tag (a date like 2020-02-30).
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        return yaml.load(path.read_text(encoding="utf-8"), Loader=loader)
    except (yaml.YAMLError, ValueError) as exc:
        raise ConfigError(f"config parse failure: {exc}") from None


def load_config(path) -> PipelineConfig:
    """Parse a YAML (or JSON; JSON is a YAML subset) config file."""
    return parse_config(read_config_file(path), base_dir=Path(path).parent)


def _validate_references(cfg: PipelineConfig) -> None:
    declared = {v.name for v in cfg.variables}
    known: set[str] | None = None
    if cfg.ingestion.value_columns is not None:
        known = declared | set(cfg.ingestion.value_columns)
    for m in cfg.models:
        for name in (m.dependent, *m.regressors):
            if known is not None and name not in known:
                raise ConfigError(
                    f"model {m.name!r} references undefined variable {name!r}"
                )


def _build_variables(ds: Dataset,
                     specs: tuple[VariableSpec, ...]) -> dict[str, TimeSeries]:
    out: dict[str, TimeSeries] = {name: ds[name] for name in ds.series}
    for vs in specs:
        if vs.source not in out:
            raise ConfigError(
                f"variable {vs.name!r}: source column {vs.source!r} "
                "not in the input file"
            )
        s = out[vs.source]
        for t in vs.transforms:
            s = dataio.log_transform(s) if t == "log" else dataio.difference(s)
        out[vs.name] = s.rename(vs.name)
    return out


def _align(variables: dict[str, TimeSeries], names: tuple[str, ...],
           dependent: str) -> Dataset:
    """Trim the named series to their common (intersection) sample."""
    missing = [n for n in names if n not in variables]
    if missing:
        raise ConfigError(f"undefined variables referenced: {missing}")
    trimmed = dataio.common_sample([variables[n] for n in names])
    if not trimmed:
        raise ConfigError("series have no overlapping sample")
    roles = {n: ("dependent" if n == dependent else "regressor")
             for n in names}
    return Dataset(series=dict(zip(names, trimmed)), roles=roles)


def unit_root_table(series: dict[str, TimeSeries],
                    ur: UnitRootConfig = UnitRootConfig()
                    ) -> dict[tuple[str, str, Deterministic, str],
                              UnitRootResult]:
    """ADF and PP, without and with a trend, on each series' level and
    first difference.

    The results are keyed by (series, test, spec, stage) and ordered as
    the report's rows: by series, then deterministic spec, then test
    (ADF first), then stage (level first).
    """
    results: dict[tuple[str, str, Deterministic, str], UnitRootResult] = {}
    for name, s in series.items():
        stages = (("level", s), ("first_difference", dataio.difference(s, 1)))
        for det in (Deterministic.CONSTANT, Deterministic.CONSTANT_TREND):
            for stage, v in stages:
                results[name, "ADF", det, stage] = adf_test(
                    v, det, ur.max_lag, ur.rule)
            for stage, v in stages:
                results[name, "PP", det, stage] = pp_test(v, det,
                                                          ur.bandwidth)
    return results


def run_pipeline(cfg: PipelineConfig) -> AnalysisReport:
    """Execute the full chain for every configured model.

    Refuses (I2VariablePresent) to run any bounds test when a model
    variable classifies beyond I(1); errors from any stage propagate
    with their own types so the CLI can map them to exit codes.
    """
    ds = dataio.load_csv(cfg.input_path, cfg.ingestion)
    variables = _build_variables(ds, cfg.variables)

    used: dict[str, TimeSeries] = {}
    for m in cfg.models:
        for name in (m.dependent, *m.regressors):
            if name not in variables:
                raise ConfigError(
                    f"model references undefined variable {name!r}")
            used[name] = variables[name]

    ur = cfg.unit_root
    table = unit_root_table(used, ur)
    if ur.spec is Deterministic.NONE:
        # the table has no test without deterministic terms
        integration = tuple(classify_integration(s, ur)
                            for s in used.values())
    else:
        test = ur.test.upper()
        integration = tuple(
            IntegrationOrder.from_tests(
                name, table[name, test, ur.spec, "level"],
                table[name, test, ur.spec, "first_difference"], ur.alpha)
            for name in used)
    beyond = [io.series_name for io in integration if io.order == "higher"]
    if beyond:
        raise I2VariablePresent(
            f"variables classified beyond I(1) at alpha={ur.alpha}: "
            f"{', '.join(beyond)}; the bounds test is invalid there"
        )

    return _analyse_models(cfg, ds, variables, table, integration)


def _analyse_models(cfg: PipelineConfig, ds: Dataset,
                    variables: dict[str, TimeSeries], table,
                    integration) -> AnalysisReport:
    """The report of lag selection, the bounds test, the long run, the
    ECM and the diagnostics battery for every configured model, next to
    the unit-root table and integration orders given."""
    from .report import pct   # report imports this module

    warnings: list[str] = []
    model_results: list[ModelResult] = []
    for m in cfg.models:
        dset = _align(variables, (m.dependent, *m.regressors), m.dependent)
        spec = select_lags(dset, m.max_p, m.max_q, m.criterion)
        model = estimate_ardl(dset, spec)
        bounds = bounds_test(model, m.bounds_case, cfg.alpha)
        if bounds.decision == "inconclusive":
            warnings.append(
                f"{m.name}: bounds F {bounds.f_statistic:.4f} falls inside "
                f"the {pct(cfg.alpha)} band; cointegration inconclusive"
            )

        gated = bounds.decision == "not_cointegrated" and not cfg.force
        lr = ecm = diag = None
        if gated:
            warnings.append(
                f"{m.name}: no cointegration at {pct(cfg.alpha)}; long-run "
                "and error-correction tables suppressed (set force: true "
                "to override)"
            )
        else:
            lr = long_run(model)
            ecm = estimate_ecm(model, lr)
            if ecm.non_negative_loading:
                warnings.append(
                    f"{m.name}: error-correction loading "
                    f"{ecm.ecm_coefficient:.4f} is non-negative; no "
                    "error correction toward the long run"
                )
        # the battery diagnoses the conditional-ECM regression, which
        # exists whatever the bounds decision was
        if cfg.diagnostics.enabled:
            diag = run_battery(
                model.levels_fit,
                bg_lags=cfg.diagnostics.bg_lags,
                reset_powers=cfg.diagnostics.reset_powers,
                alpha=cfg.alpha,
                include=cfg.diagnostics.include(),
            )
            if diag.verdict == "fail":
                warnings.append(
                    f"{m.name}: diagnostics verdict fail at "
                    f"{pct(cfg.alpha)}"
                )
        else:
            warnings.append(f"{m.name}: diagnostics disabled by config")
        model_results.append(ModelResult(
            spec=m, ardl=model, bounds=bounds,
            long_run=lr, ecm=ecm, diagnostics=diag,
        ))

    return AnalysisReport(
        config=cfg,
        provenance=ds.provenance,
        unit_root_table=table,
        integration=integration,
        models=tuple(model_results),
        warnings=tuple(warnings),
    )
