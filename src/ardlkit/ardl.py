"""ARDL estimation, bounds cointegration test, long-run recovery and the
error-correction model.

The workhorse regression is the conditional error-correction form: the
dependent difference on its own lagged differences, the regressors'
current and lagged differences, and the lagged levels. That form is an
exact linear reparameterization of the levels ARDL(p, q), so the two
fits share residuals and the levels feedback coefficient equals the sum
of the autoregressive coefficients minus one.

Lag-order conventions: p >= 1 counts lags of the dependent variable in
the levels form, q >= 0 counts distributed lags of a regressor. A
regressor with q = 0 enters the error-correction design through its
current level (there is no separate lagged-level column to estimate).

The (p, q) search fits no candidate: every candidate's design spans a
column subset of the ARDL(max_p, max_q, ...) levels design, so one QR of
that superset scores them all (``select_lags``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .critvals import pss_bounds
from .dataio import Dataset
from .errors import DegenerateAdjustment, InvalidParameters
from .linreg import (
    CONST_NAME,
    DesignMatrix,
    RegressionResult,
    TREND_NAME,
    _choice,
    _smallest,
    _whole_number,
    ols,
    subset_criteria,
    wald_f_test,
)
from .unitroot import Deterministic, _differenced


@dataclass(frozen=True)
class ArdlSpec:
    """Lag structure of one ARDL model."""

    dependent: str
    regressors: tuple[str, ...]
    p: int
    q: dict[str, int]
    det: Deterministic = Deterministic.CONSTANT

    def __post_init__(self):
        object.__setattr__(self, "regressors", tuple(self.regressors))
        _whole_number("p", self.p, 1, InvalidParameters)
        if self.dependent in self.regressors:
            raise InvalidParameters("dependent variable cannot be a regressor")
        if set(self.q) != set(self.regressors):
            raise InvalidParameters("q must map every regressor to a lag order")
        for x, q in self.q.items():
            _whole_number(f"q[{x!r}]", q, 0, InvalidParameters)
        if self.det is Deterministic.NONE:
            raise InvalidParameters(
                "ARDL estimation requires a constant (det none unsupported)"
            )

    @property
    def max_order(self) -> int:
        return max([self.p, 1, *self.q.values()])

    def level_name(self, variable: str) -> str:
        """Design-column name of a variable's long-run level term."""
        if variable == self.dependent:
            return f"{variable}(-1)"
        return f"{variable}(-1)" if self.q[variable] >= 1 else variable

    def describe(self) -> str:
        qs = ", ".join(str(self.q[x]) for x in self.regressors)
        return f"ARDL({self.p}, {qs})"


@dataclass(frozen=True, eq=False)
class ArdlModel:
    """A fitted conditional error-correction regression."""

    spec: ArdlSpec
    levels_fit: RegressionResult
    n_effective: int

    @property
    def adjustment_coefficient(self) -> float:
        """Loading on the dependent variable's lagged level."""
        return self.levels_fit.coefficients[f"{self.spec.dependent}(-1)"]


@dataclass(frozen=True, eq=False)
class BoundsTestResult:
    """Bounds F-test outcome with its (I0, I1) critical band."""

    f_statistic: float
    case: str
    k: int
    bounds: dict[float, tuple[float, float]]
    decision: str
    alpha: float
    restricted: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class LongRunCoefficients:
    """Long-run solution of an ARDL model with delta-method inference."""

    values: dict[str, float]
    std_errors: dict[str, float]
    t_stats: dict[str, float]


@dataclass(frozen=True, eq=False)
class EcmResult:
    """Two-step error-correction regression.

    ecm_coefficient is the loading on the lagged equilibrium error;
    adjustment_gap records |loading - lambda_1| against the one-step
    form as a cross-check (zero up to rounding by construction).
    """

    short_run: dict[str, tuple[float, float, float]]
    ecm_coefficient: float
    fit: RegressionResult
    non_negative_loading: bool
    adjustment_gap: float

    @property
    def speed_of_adjustment_pct(self) -> float:
        """|loading| as the percentage of a shock corrected per period."""
        return abs(self.ecm_coefficient) * 100.0


def _aligned_values(d: Dataset, names) -> dict[str, np.ndarray]:
    missing = [v for v in names if v not in d.series]
    if missing:
        raise InvalidParameters(f"dataset lacks series {missing}")
    return {v: np.asarray(d[v].values, dtype=np.float64) for v in names}


def _lag_name(name: str, lag: int) -> str:
    return f"{name}(-{lag})" if lag else name


def _ecm_design(values: dict[str, np.ndarray], spec: ArdlSpec,
                start: int) -> tuple[np.ndarray, DesignMatrix]:
    """Dependent difference and conditional-ECM regressors from ``start``:
    det, DY(-1..-(p-1)), per regressor DX(0..-(q-1)), Y(-1), levels."""
    y = values[spec.dependent]
    dy = _differenced(y)
    terms = [(f"D{spec.dependent}(-{i})", dy, i) for i in range(1, spec.p)]
    for x in spec.regressors:
        if spec.q[x] >= 1:
            dx = _differenced(values[x])
            terms += [(_lag_name(f"D{x}", i), dx, i)
                      for i in range(spec.q[x])]
    terms.append((f"{spec.dependent}(-1)", y, 1))
    # q = 0: the regressor enters through its current level only; adding
    # a separate difference column would silently promote the model to
    # q = 1
    terms += [(spec.level_name(x), values[x], min(spec.q[x], 1))
              for x in spec.regressors]
    return spec.det._design(start, dy, terms)


def _levels_terms(values: dict[str, np.ndarray], spec: ArdlSpec) -> list:
    """Levels-form terms: Y(-1..-p), then X(0..-q) per regressor."""
    y = values[spec.dependent]
    return [(f"{spec.dependent}(-{i})", y, i) for i in range(1, spec.p + 1)] \
        + [(_lag_name(x, i), values[x], i)
           for x in spec.regressors for i in range(spec.q[x] + 1)]


def estimate_ardl(d: Dataset, spec: ArdlSpec) -> ArdlModel:
    """Fit the conditional error-correction form of an ARDL model.

    Raises RankDeficient for collinear regressors and SampleTooShort
    when the lag structure exhausts the sample.
    """
    values = _aligned_values(d, (spec.dependent, *spec.regressors))
    dep, design = _ecm_design(values, spec, spec.max_order)
    fit = ols(dep, design)
    return ArdlModel(spec=spec, levels_fit=fit, n_effective=fit.n)


def estimate_levels(d: Dataset, spec: ArdlSpec) -> RegressionResult:
    """Fit the equivalent levels form (used for cross-checking; shares
    residuals with estimate_ardl on the same data)."""
    values = _aligned_values(d, (spec.dependent, *spec.regressors))
    return ols(*spec.det._design(spec.max_order, values[spec.dependent],
                                 _levels_terms(values, spec)))


def select_lags(d: Dataset, max_p: int, max_q: int,
                criterion: str = "SBC",
                dependent: str | None = None,
                regressors: tuple[str, ...] | None = None,
                det: Deterministic = Deterministic.CONSTANT) -> ArdlSpec:
    """Exhaustive (p, q) grid search scored on a common sample.

    Every candidate is scored on the sample implied by the largest lags
    so information criteria are comparable. Ties within 1e-9 break
    toward the smaller total lag count, then the smaller p, then the q
    vector.

    No candidate is fit. Candidate (p, q)'s error-correction design
    spans its levels form [det, Y(-1..p), X(0..q)], a column subset of
    the ARDL(max_p, max_q, ...) levels design, so one QR of that
    superset with the dependent difference scores every candidate
    (linreg.subset_criteria). Its columns are ordered [det, Y(-1),
    X blocks, Y(-2..-max_p)] per q vector, which makes every p a leading
    block.

    Raises InvalidParameters, before anything else, unless max_p is a
    whole number >= 1, max_q one >= 0 and criterion AIC or SBC in any
    case; RankDeficient when the superset fails the rank check of
    ``ols`` and SampleTooShort when its lags exhaust the sample.
    """
    _whole_number("max_p", max_p, 1, InvalidParameters)
    _whole_number("max_q", max_q, 0, InvalidParameters)
    criterion = _choice("criterion", criterion, ("AIC", "SBC"),
                        InvalidParameters)
    dependent = dependent or d.dependent
    regressors = tuple(regressors) if regressors is not None else d.regressors

    values = _aligned_values(d, (dependent, *regressors))
    largest = ArdlSpec(dependent, regressors, max_p,
                       {x: max_q for x in regressors}, det)
    dy, design = det._design(largest.max_order,
                             _differenced(values[dependent]),
                             _levels_terms(values, largest))

    # the deterministic columns and Y(-1) lead the levels design
    index = {name: j for j, name in enumerate(design.names)}
    head = list(range(index[f"{dependent}(-1)"] + 1))
    tail = [index[f"{dependent}(-{i})"] for i in range(2, max_p + 1)]
    grid = list(itertools.product(range(max_q + 1), repeat=len(regressors)))
    orderings = [head + [index[_lag_name(x, i)]
                         for x, q in zip(regressors, qs)
                         for i in range(q + 1)] + tail
                 for qs in grid]
    scores = subset_criteria(dy, design, orderings)

    which = 0 if criterion == "AIC" else 1
    _, p, qs = _smallest(
        ((crits[len(ordering) - max_p + p][which], (p + sum(qs), p, qs))
         for p in range(1, max_p + 1)
         for qs, ordering, crits in zip(grid, orderings, scores)), 1e-9)
    return ArdlSpec(dependent, regressors, p, dict(zip(regressors, qs)), det)


def bounds_decision(f_statistic: float, case: str = "III", k: int = 1,
                    alpha: float = 0.05,
                    restricted: tuple[str, ...] = ()) -> BoundsTestResult:
    """Decision rule for a given bounds F statistic.

    Above the upper (I1) bound at ``alpha`` the no-level-relationship
    null is rejected; below the lower (I0) bound it stands; inside the
    band the test is inconclusive.
    """
    case = case.upper()
    bounds = pss_bounds(case, k)
    if alpha not in bounds:
        raise InvalidParameters(
            f"no bounds tabulated at level {alpha} (have {sorted(bounds)})"
        )
    lower, upper = bounds[alpha]
    if f_statistic > upper:
        decision = "cointegrated"
    elif f_statistic < lower:
        decision = "not_cointegrated"
    else:
        decision = "inconclusive"
    return BoundsTestResult(
        f_statistic=float(f_statistic),
        case=case,
        k=k,
        bounds=bounds,
        decision=decision,
        alpha=alpha,
        restricted=tuple(restricted),
    )


def bounds_test(m: ArdlModel, case: str = "III",
                alpha: float = 0.05) -> BoundsTestResult:
    """Bounds F-test for a level relationship.

    The joint restriction zeroes every level term (case III) or the
    level terms plus the constant (case II, restricted intercept). The
    F statistic's distribution is nonstandard; the decision compares it
    with the tabulated (I0, I1) band at ``alpha``: above the band is
    cointegrated, below is not, inside is inconclusive.
    """
    case = _choice("bounds-test case", case, ("II", "III"),
                   InvalidParameters)
    if m.spec.det is Deterministic.CONSTANT_TREND:
        raise InvalidParameters(
            "bounds cases II/III assume no trend term; "
            "re-estimate with det=constant"
        )
    restricted = [m.spec.level_name(m.spec.dependent)]
    restricted += [m.spec.level_name(x) for x in m.spec.regressors]
    if case == "II":
        restricted.append(CONST_NAME)
    f_stat = wald_f_test(m.levels_fit, restricted,
                         bounds_context=True).statistic
    return bounds_decision(f_stat, case, len(m.spec.regressors), alpha,
                           tuple(restricted))


def long_run(m: ArdlModel) -> LongRunCoefficients:
    """Long-run solution: each level coefficient divided by minus the
    dependent's levels loading, with delta-method standard errors.

    Raises DegenerateAdjustment when the levels loading is numerically
    zero (no feedback toward a long run).
    """
    fit = m.levels_fit
    lam_name = f"{m.spec.dependent}(-1)"
    lam = fit.coefficients[lam_name]
    if abs(lam) < 1e-10:
        raise DegenerateAdjustment(
            f"levels loading {lam_name} is {lam:.3e}; long run undefined"
        )
    names = fit.design.names
    lam_idx = names.index(lam_name)

    targets = [(x, m.spec.level_name(x)) for x in m.spec.regressors]
    targets.append((CONST_NAME, CONST_NAME))
    if m.spec.det is Deterministic.CONSTANT_TREND:
        targets.append((TREND_NAME, TREND_NAME))

    values, ses, ts = {}, {}, {}
    for label, col in targets:
        beta = fit.coefficients[col]
        idx = names.index(col)
        value = -beta / lam
        grad = np.zeros(len(names))
        grad[idx] = -1.0 / lam
        grad[lam_idx] = beta / lam**2
        var = float(grad @ fit.cov_matrix @ grad)
        se = math.sqrt(max(var, 0.0))
        values[label] = float(value)
        ses[label] = se
        ts[label] = float(value / se) if se > 0.0 else math.nan
    return LongRunCoefficients(values=values, std_errors=ses, t_stats=ts)


def estimate_ecm(m: ArdlModel,
                 lr: LongRunCoefficients | None = None) -> EcmResult:
    """Two-step error-correction regression.

    The one-step design loses its level columns and gains ECM(-1), the
    long-run solution applied to those same columns: the dependent's
    lagged level minus the long-run constant, each long-run slope times
    its regressor's level column (the current level when q = 0) and,
    with a trend, the long-run trend times TREND - 1. The dependent
    difference is regressed on the result. ECM(-1) spans what the level
    columns spanned next to the constant, so the loading reproduces the
    one-step feedback; the residual gap is reported as a cross-check.
    """
    if lr is None:
        lr = long_run(m)
    spec = m.spec
    design = m.levels_fit.design
    levels = [spec.level_name(v) for v in (spec.dependent, *spec.regressors)]

    ec = design.column(levels[0]) - lr.values[CONST_NAME]
    for x, name in zip(spec.regressors, levels[1:]):
        ec = ec - lr.values[x] * design.column(name)
    if spec.det is Deterministic.CONSTANT_TREND:
        ec = ec - lr.values[TREND_NAME] * (design.column(TREND_NAME) - 1.0)

    short = design.drop(levels)
    fit = ols(m.levels_fit.y,
              DesignMatrix((*short.names, "ECM(-1)"),
                           np.column_stack([short.matrix, ec])))
    loading = fit.coefficients["ECM(-1)"]
    short_run = {
        name: (fit.coefficients[name], fit.std_errors[name],
               fit.t_stats[name])
        for name in fit.design.names
        if name.startswith("D")
    }
    return EcmResult(
        short_run=short_run,
        ecm_coefficient=float(loading),
        fit=fit,
        non_negative_loading=loading >= 0.0,
        adjustment_gap=abs(loading - m.adjustment_coefficient),
    )


def coefficient_pvalues(fit: RegressionResult) -> dict[str, float]:
    """Two-sided t-distribution p-values for every coefficient."""
    df = fit.n - fit.k
    return {
        name: (float(2.0 * special.stdtr(df, -abs(t)))
               if math.isfinite(t) else math.nan)
        for name, t in fit.t_stats.items()
    }
