"""ADF and Phillips-Perron unit-root tests with integration-order
classification.

Both tests regress the first difference on the lagged level plus
deterministic terms; the ADF augments with lagged differences chosen by
an information criterion, the PP instead corrects the t-ratio
nonparametrically with the Bartlett-kernel long-run variance. Critical
values come from the embedded response-surface table, evaluated at the
test regression's own sample size. The null is a unit root; a statistic
below the critical value rejects it (left-tail test).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .critvals import adf_critical_values
from .dataio import TimeSeries, difference
from .errors import ConfigError, PerfectFitDegenerate, SampleTooShort
from .linreg import (
    CONST_NAME,
    DEFAULT_LEVELS,
    TREND_NAME,
    DesignMatrix,
    RegressionResult,
    default_bandwidth,
    nested_criteria,
    newey_west_lrv,
    ols,
)


class Deterministic(str, Enum):
    NONE = "none"
    CONSTANT = "constant"
    CONSTANT_TREND = "constant_and_trend"

    def columns(self, start: int, n: int) -> dict[str, np.ndarray]:
        """The constant and trend columns for rows start..n-1 of an
        n-observation sample; the trend counts observations from 1."""
        cols: dict[str, np.ndarray] = {}
        if self is not Deterministic.NONE:
            cols[CONST_NAME] = np.ones(n - start)
        if self is Deterministic.CONSTANT_TREND:
            cols[TREND_NAME] = np.arange(start + 1, n + 1, dtype=np.float64)
        return cols


@dataclass(frozen=True, eq=False)
class UnitRootResult:
    """Outcome of one unit-root test on one series.

    verdict_at[alpha] is ``stationary`` exactly when the statistic lies
    below the alpha critical value, so verdicts are monotone across
    levels by construction.
    """

    test: str
    spec: Deterministic
    lag_or_bandwidth: int
    statistic: float
    critical_values: dict[float, float]
    verdict_at: dict[float, str]
    selection_rule: str
    nobs: int
    regression: RegressionResult

    def stationary_at(self, alpha: float) -> bool:
        return self.verdict_at[alpha] == "stationary"


@dataclass(frozen=True, eq=False)
class IntegrationOrder:
    """Level-then-difference classification of one series."""

    series_name: str
    order: str  # "I0", "I1" or "higher"
    evidence: tuple[UnitRootResult, UnitRootResult]
    alpha: float

    @classmethod
    def from_tests(cls, series_name: str, level: UnitRootResult,
                   diff: UnitRootResult, alpha: float) -> "IntegrationOrder":
        """I(0) when the level rejects the unit root at alpha; I(1) when
        the level fails but the first difference rejects; ``higher``
        otherwise."""
        if level.stationary_at(alpha):
            order = "I0"
        elif diff.stationary_at(alpha):
            order = "I1"
        else:
            order = "higher"
        return cls(series_name, order, (level, diff), alpha)


@dataclass(frozen=True)
class UnitRootConfig:
    """How classify_integration should test a series."""

    test: str = "ADF"
    spec: Deterministic = Deterministic.CONSTANT
    alpha: float = 0.05
    max_lag: int | None = None
    rule: str = "AIC"
    bandwidth: int | None = None

    def __post_init__(self):
        if self.test.upper() not in ("ADF", "PP"):
            raise ConfigError(f"unit_root.test must be ADF or PP, "
                              f"got {self.test!r}")
        if self.alpha not in DEFAULT_LEVELS:
            raise ConfigError("unit_root.alpha must be one of 1%, 5%, 10%")
        if self.rule.upper() not in ("AIC", "SBC", "FIXED"):
            raise ConfigError(f"unit_root.rule must be AIC, SBC or fixed, "
                              f"got {self.rule!r}")
        for key in ("max_lag", "bandwidth"):
            value = getattr(self, key)
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, int)
                                      or value < 0):
                raise ConfigError(f"unit_root.{key} must be a whole number "
                                  f">= 0, got {value!r}")


def default_max_lag(n: int) -> int:
    """Schwert-style rule floor(12 (n/100)^(1/4))."""
    return int(math.floor(12.0 * (n / 100.0) ** 0.25))


def _verdicts(statistic: float, cvs: dict[float, float]) -> dict[float, str]:
    return {a: ("stationary" if statistic < cv else "unit_root")
            for a, cv in cvs.items()}


def _dickey_fuller_design(y: np.ndarray, spec: Deterministic,
                          k: int) -> tuple[np.ndarray, DesignMatrix]:
    """Dependent Delta-y and regressors for an order-k augmentation, on
    the longest sample that order allows (levels k+1..n-1).

    The columns are ordered C, [TREND], Y(-1), DY(-1..k), so the design
    of every lower order is a leading block of this one.
    """
    n = len(y)
    dy = np.diff(y)
    dep = dy[k:]
    cols = spec.columns(k + 1, n)
    cols["Y(-1)"] = y[k:-1]
    for i in range(1, k + 1):
        cols[f"DY(-{i})"] = dy[k - i:-i]
    return dep, DesignMatrix.from_columns(cols)


def _test_regression(y: np.ndarray, spec: Deterministic,
                     k: int) -> RegressionResult:
    """The order-k Dickey-Fuller regression, fit by ``ols``.

    Raises PerfectFitDegenerate when it fits exactly (the rule of
    ``wald_f_test``): its t-ratio is then rounding noise, NaN or
    +-1e16, not evidence.
    """
    fit = ols(*_dickey_fuller_design(y, spec, k))
    if fit.fits_exactly:
        raise PerfectFitDegenerate(
            f"order-{k} Dickey-Fuller regression fits exactly; "
            "t-ratio undefined")
    return fit


def _select_lag(y: np.ndarray, spec: Deterministic, max_lag: int,
                rule: str) -> int:
    """The augmentation order in 0..max_lag that minimises the rule's
    criterion on the common max-lag sample; ties go to the smaller
    order. Every order is scored from one factorization of the max-lag
    design (linreg.nested_criteria)."""
    dep, design = _dickey_fuller_design(y, spec, max_lag)
    order0 = design.k - max_lag   # columns of the order-0 design
    scores = nested_criteria(dep, design)[order0:]
    best = None
    for k, (aic, sbc) in enumerate(scores):
        crit = aic if rule == "AIC" else sbc
        if best is None or crit < best[0] - 1e-12:
            best = (crit, k)
    return best[1]


def adf_test(s: TimeSeries, spec: Deterministic = Deterministic.CONSTANT,
             max_lag: int | None = None, rule: str = "AIC") -> UnitRootResult:
    """Augmented Dickey-Fuller test.

    Candidate augmentation orders 0..max_lag are all scored on the common
    (max-lag-trimmed) sample so their information criteria are
    comparable; ties break toward the smaller lag. The scores come from
    one QR of the max-lag design, whose leading column blocks are the
    lower orders' designs. The chosen order is then fit by ``ols`` on
    its own longest sample and the t-ratio on the lagged level is the
    statistic.

    Parameters
    ----------
    s : TimeSeries
    spec : Deterministic
        Deterministic terms included in the test regression.
    max_lag : int, optional
        Largest augmentation order; default floor(12 (n/100)^(1/4)).
    rule : {"AIC", "SBC", "fixed"}
        Selection criterion; ``fixed`` uses max_lag as the order.

    Raises
    ------
    RankDeficient
        The max-lag design is collinear.
    PerfectFitDegenerate
        The chosen order's regression fits exactly.
    """
    y = np.asarray(s.values, dtype=np.float64)
    n = len(y)
    if max_lag is None:
        max_lag = default_max_lag(n)
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative")
    if n < max_lag + 10:
        raise SampleTooShort(
            f"ADF with max_lag={max_lag} needs at least {max_lag + 10} "
            f"observations, got {n}"
        )
    rule = rule.upper() if rule.lower() != "fixed" else "fixed"
    if rule not in ("AIC", "SBC", "fixed"):
        raise ValueError(f"unknown selection rule {rule!r}")

    chosen = (max_lag if rule == "fixed"
              else _select_lag(y, spec, max_lag, rule))
    fit = _test_regression(y, spec, chosen)
    statistic = fit.t_stats["Y(-1)"]
    cvs = adf_critical_values(spec.value, fit.n)
    return UnitRootResult(
        test="ADF",
        spec=spec,
        lag_or_bandwidth=chosen,
        statistic=statistic,
        critical_values=cvs,
        verdict_at=_verdicts(statistic, cvs),
        selection_rule=rule,
        nobs=fit.n,
        regression=fit,
    )


def pp_test(s: TimeSeries, spec: Deterministic = Deterministic.CONSTANT,
            bandwidth: int | None = None) -> UnitRootResult:
    """Phillips-Perron test (Z_t form).

    Fits the unaugmented difference regression and corrects its t-ratio
    with the Bartlett long-run variance of the residuals:

        Z_t = sqrt(g0/l2) t - (l2 - g0) n se / (2 sqrt(l2) s)

    where g0 is the short-run residual variance (divisor n), l2 the
    long-run variance at the chosen bandwidth, se the OLS standard error
    of the lagged-level coefficient and s the regression standard error.
    With zero bandwidth l2 == g0 and Z_t is the plain t-ratio. An exact
    fit raises PerfectFitDegenerate, as in ``adf_test``.
    """
    y = np.asarray(s.values, dtype=np.float64)
    n = len(y)
    if n < 15:
        raise SampleTooShort(f"PP needs at least 15 observations, got {n}")
    fit = _test_regression(y, spec, 0)
    if bandwidth is None:
        bandwidth = default_bandwidth(fit.n)
    if bandwidth < 0:
        raise ValueError("bandwidth must be nonnegative")

    resid = fit.residuals
    gamma0 = newey_west_lrv(resid, 0)
    lam2 = newey_west_lrv(resid, bandwidth)
    t_stat = fit.t_stats["Y(-1)"]
    se = fit.std_errors["Y(-1)"]
    s_reg = math.sqrt(fit.sigma2)
    statistic = (
        math.sqrt(gamma0 / lam2) * t_stat
        - (lam2 - gamma0) * fit.n * se / (2.0 * math.sqrt(lam2) * s_reg)
    )
    cvs = adf_critical_values(spec.value, fit.n)
    return UnitRootResult(
        test="PP",
        spec=spec,
        lag_or_bandwidth=bandwidth,
        statistic=statistic,
        critical_values=cvs,
        verdict_at=_verdicts(statistic, cvs),
        selection_rule="fixed",
        nobs=fit.n,
        regression=fit,
    )


def _run_test(s: TimeSeries, cfg: UnitRootConfig) -> UnitRootResult:
    if cfg.test.upper() == "ADF":
        return adf_test(s, cfg.spec, cfg.max_lag, cfg.rule)
    return pp_test(s, cfg.spec, cfg.bandwidth)


def classify_integration(s: TimeSeries,
                         cfg: UnitRootConfig = UnitRootConfig()
                         ) -> IntegrationOrder:
    """Classify a series as I(0), I(1) or higher from cfg's test on its
    level and first difference (see IntegrationOrder.from_tests). Both
    test results ship as evidence.
    """
    return IntegrationOrder.from_tests(
        s.name, _run_test(s, cfg), _run_test(difference(s, 1), cfg),
        cfg.alpha)
