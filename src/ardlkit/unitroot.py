"""ADF and Phillips-Perron unit-root tests with integration-order
classification.

Both tests regress the first difference on the lagged level plus
deterministic terms; the ADF augments with lagged differences chosen by
an information criterion, the PP instead corrects the t-ratio
nonparametrically with the Bartlett-kernel long-run variance. Neither
fits the regression by ``ols``: its t-ratio is read from the triangle of
one QR of [X | Delta-y] with the lagged level ordered last. Critical
values come from the embedded response-surface table, evaluated at the
test regression's own sample size. The null is a unit root; a statistic
below the critical value rejects it (left-tail test).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

import numpy as np

from .critvals import adf_critical_values
from .dataio import TimeSeries, difference
from .errors import ConfigError, PerfectFitDegenerate, SampleTooShort
from .linreg import (
    CONST_NAME,
    DEFAULT_LEVELS,
    EXACT_FIT_RTOL,
    TREND_NAME,
    DesignMatrix,
    _effects_triangle,
    _solve_upper,
    default_bandwidth,
    nested_criteria,
    newey_west_lrv,
    # not called here; perfbench/test_perfbench.py::
    # test_tracer_wraps_every_namespace_and_restores_it wraps it here
    ols,
)


class Deterministic(str, Enum):
    NONE = "none"
    CONSTANT = "constant"
    CONSTANT_TREND = "constant_and_trend"

    def _design(self, start: int, dependent: np.ndarray,
                terms) -> tuple[np.ndarray, DesignMatrix]:
        """The regressand and design on levels start..n-1 of n, as views
        of one Fortran-order array [C, TREND, terms | dependent]: this
        spec's constant and trend (counting from 1), then per term (name,
        values, lag) the column values[t - lag] at row t. Every values
        array is indexed by level t = 0..n-1, a difference through
        ``_differenced``. Raises SampleTooShort when start >= n.
        """
        n = len(dependent)
        if start >= n:
            raise SampleTooShort("lag structure leaves no usable observations")
        trend = self is Deterministic.CONSTANT_TREND
        d = (self is not Deterministic.NONE) + trend
        A = np.empty((n - start, d + len(terms) + 1), order="F")
        if d:
            A[:, 0] = 1.0
        if trend:
            A[:, 1] = np.arange(start + 1, n + 1)
        for j, (_, values, lag) in enumerate(terms, d):
            A[:, j] = values[start - lag:n - lag]
        A[:, -1] = dependent[start:]
        names = (CONST_NAME, TREND_NAME)[:d] + tuple(map(itemgetter(0), terms))
        return A[:, -1], DesignMatrix(names, A[:, :-1])


def _differenced(v: np.ndarray) -> np.ndarray:
    """v[t] - v[t-1] at each level t >= 1, NaN at t = 0 (never read)."""
    d = np.empty_like(v)
    d[:1] = np.nan
    np.subtract(v[1:], v[:-1], out=d[1:])
    return d


@dataclass(frozen=True, eq=False)
class UnitRootResult:
    """Outcome of one unit-root test on one series: the numbers a report
    shows, not the test regression, which is never fit.

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
        if not isinstance(self.test, str) or self.test.upper() not in (
                "ADF", "PP"):
            raise ConfigError(f"unit_root.test must be ADF or PP, "
                              f"got {self.test!r}")
        if self.alpha not in DEFAULT_LEVELS:
            raise ConfigError("unit_root.alpha must be one of 1%, 5%, 10%")
        if not isinstance(self.rule, str) or self.rule.upper() not in (
                "AIC", "SBC", "FIXED"):
            raise ConfigError(f"unit_root.rule must be AIC, SBC or fixed, "
                              f"got {self.rule!r}")
        for key in ("max_lag", "bandwidth"):
            _whole_number(f"unit_root.{key}", getattr(self, key), ConfigError)


def default_max_lag(n: int) -> int:
    """Schwert-style rule floor(12 (n/100)^(1/4))."""
    return int(math.floor(12.0 * (n / 100.0) ** 0.25))


def _verdicts(statistic: float, cvs: dict[float, float]) -> dict[float, str]:
    return {a: ("stationary" if statistic < cv else "unit_root")
            for a, cv in cvs.items()}


def _dickey_fuller_design(y: np.ndarray, dy: np.ndarray,
                          spec: Deterministic,
                          k: int) -> tuple[np.ndarray, DesignMatrix]:
    """Dependent Delta-y and regressors for an order-k augmentation, on
    the longest sample that order allows (levels k+1..n-1), from y and
    its ``_differenced`` dy. The columns are C, [TREND], Y(-1), DY(-1..k),
    so the design of every lower order is a leading block of this one.
    """
    return spec._design(k + 1, dy, [("Y(-1)", y, 1)] + [
        (f"DY(-{i})", dy, i) for i in range(1, k + 1)])


def _level_t(y: np.ndarray, dy: np.ndarray, spec: Deterministic, k: int,
             residuals: bool = False):
    """(t, se, s, n, e) of the order-k Dickey-Fuller regression, without
    a fit: the lagged level's t-ratio and standard error, the regression
    standard error, the sample size and, if asked for, the residuals.

    R is the triangle of one Householder QR of [C, TREND, DY(-1..k), Y(-1)
    | Delta-y], once the design passes the rank check of ``ols`` in its
    own column order. With p regressors s = |R[p, p]| / sqrt(n - p),
    se = s / |R[p-1, p-1]| and t = sign(R[p-1, p-1]) R[p-1, p] / s. An
    exact fit, RSS = R[p, p]^2 at or below 1e-13 max(Delta-y'Delta-y, 1)
    as in ``wald_f_test``, raises PerfectFitDegenerate.
    """
    dep, X = _dickey_fuller_design(y, dy, spec, k)
    p, j = X.k, X.k - k - 1
    order = [*range(j), *range(j + 1, p), j]
    R = _effects_triangle(dep, X, order)
    if R[p, p] ** 2 <= EXACT_FIT_RTOL * max(float(dep @ dep), 1.0):
        raise PerfectFitDegenerate(f"order-{k} Dickey-Fuller regression "
                                   "fits exactly; t-ratio undefined")
    s = abs(float(R[p, p])) / math.sqrt(X.n - p)
    r = float(R[p - 1, p - 1])
    e = (dep - X.matrix[:, order] @ _solve_upper(R[:p, :p], R[:p, p])
         if residuals else None)
    return math.copysign(1.0, r) * float(R[p - 1, p]) / s, s / abs(r), s, \
        X.n, e


def _result(test: str, spec: Deterministic, lag_or_bandwidth: int,
            statistic: float, rule: str, nobs: int) -> UnitRootResult:
    cvs = adf_critical_values(spec.value, nobs)
    return UnitRootResult(test, spec, lag_or_bandwidth, statistic, cvs,
                          _verdicts(statistic, cvs), rule, nobs)


def _whole_number(key: str, value, error=ValueError) -> None:
    """Raise ``error`` unless value is None or a whole number >= 0."""
    if value is not None and (isinstance(value, bool)
                              or not isinstance(value, numbers.Integral)
                              or value < 0):
        raise error(f"{key} must be a whole number >= 0, got {value!r}")


def _select_lag(y: np.ndarray, dy: np.ndarray, spec: Deterministic,
                max_lag: int, rule: str) -> int:
    """The augmentation order in 0..max_lag that minimises the rule's
    criterion on the common max-lag sample; ties go to the smaller
    order. Every order is scored from one factorization of the max-lag
    design (linreg.nested_criteria)."""
    dep, design = _dickey_fuller_design(y, dy, spec, max_lag)
    order0 = design.k - max_lag   # columns of the order-0 design
    crits = [aic if rule == "AIC" else sbc
             for aic, sbc in nested_criteria(dep, design)[order0:]]
    best = 0
    for k, crit in enumerate(crits):
        if crit < crits[best] - 1e-12:
            best = k
    return best


def adf_test(s: TimeSeries, spec: Deterministic = Deterministic.CONSTANT,
             max_lag: int | None = None, rule: str = "AIC") -> UnitRootResult:
    """Augmented Dickey-Fuller test.

    Candidate augmentation orders 0..max_lag are all scored on the common
    (max-lag-trimmed) sample so their information criteria are
    comparable; ties break toward the smaller lag. The scores come from
    one QR of the max-lag design, whose leading column blocks are the
    lower orders' designs. The statistic is the t-ratio on the lagged
    level in the chosen order's regression on its own longest sample,
    read from one QR of that regression, not fit (``_level_t``).

    Parameters
    ----------
    s : TimeSeries
    spec : Deterministic or its value
        Deterministic terms included in the test regression.
    max_lag : int, optional
        Largest augmentation order; default floor(12 (n/100)^(1/4)).
    rule : {"AIC", "SBC", "fixed"}
        Selection criterion; ``fixed`` uses max_lag as the order.

    Raises
    ------
    ValueError
        Before anything else: max_lag is neither None nor a whole number
        >= 0 (a bool is not one), spec is not a Deterministic value, or
        rule is not one of the rule names.
    RankDeficient
        The max-lag design, or the chosen order's, is collinear.
    PerfectFitDegenerate
        The chosen order's regression fits exactly.
    """
    _whole_number("max_lag", max_lag)
    spec = Deterministic(spec)
    if not isinstance(rule, str) or rule.upper() not in ("AIC", "SBC",
                                                         "FIXED"):
        raise ValueError(f"unknown selection rule {rule!r}")
    rule = "fixed" if rule.upper() == "FIXED" else rule.upper()
    y = np.asarray(s.values, dtype=np.float64)
    n = len(y)
    if max_lag is None:
        max_lag = default_max_lag(n)
    if n < max_lag + 10:
        raise SampleTooShort(f"ADF with max_lag={max_lag} needs at least "
                             f"{max_lag + 10} observations, got {n}")
    dy = _differenced(y)
    chosen = (max_lag if rule == "fixed"
              else _select_lag(y, dy, spec, max_lag, rule))
    t_stat, _, _, nobs, _ = _level_t(y, dy, spec, chosen)
    return _result("ADF", spec, chosen, t_stat, rule, nobs)


def pp_test(s: TimeSeries, spec: Deterministic = Deterministic.CONSTANT,
            bandwidth: int | None = None) -> UnitRootResult:
    """Phillips-Perron test (Z_t form).

    Corrects the t-ratio of the unaugmented difference regression with
    the Bartlett long-run variance of its residuals:

        Z_t = sqrt(g0/l2) t - (l2 - g0) n se / (2 sqrt(l2) s)

    where g0 is the short-run residual variance (divisor n), l2 the
    long-run variance at the chosen bandwidth, se the OLS standard error
    of the lagged-level coefficient and s the regression standard error.
    With zero bandwidth l2 == g0 and Z_t is the plain t-ratio. All come
    from one QR of the regression, not a fit (``_level_t``). A bandwidth
    neither None nor a whole number >= 0, or a spec that is not a
    Deterministic value, raises ValueError before anything else; an
    exact fit raises PerfectFitDegenerate.
    """
    _whole_number("bandwidth", bandwidth)
    spec = Deterministic(spec)
    n = len(s.values)
    if n < 15:
        raise SampleTooShort(f"PP needs at least 15 observations, got {n}")
    y = np.asarray(s.values, dtype=np.float64)
    t_stat, se, s_reg, m, resid = _level_t(y, _differenced(y), spec, 0,
                                           residuals=True)
    if bandwidth is None:
        bandwidth = default_bandwidth(m)
    gamma0 = newey_west_lrv(resid, 0)
    lam2 = newey_west_lrv(resid, bandwidth)
    statistic = (math.sqrt(gamma0 / lam2) * t_stat
                 - (lam2 - gamma0) * m * se / (2.0 * math.sqrt(lam2) * s_reg))
    return _result("PP", spec, bandwidth, statistic, "fixed", m)


def _run_test(s: TimeSeries, cfg: UnitRootConfig) -> UnitRootResult:
    if cfg.test.upper() == "ADF":
        return adf_test(s, cfg.spec, cfg.max_lag, cfg.rule)
    return pp_test(s, cfg.spec, cfg.bandwidth)


def classify_integration(s: TimeSeries,
                         cfg: UnitRootConfig = UnitRootConfig()
                         ) -> IntegrationOrder:
    """Classify a series as I(0), I(1) or higher from cfg's test on its
    level and first difference (see IntegrationOrder.from_tests). Both
    test results ship as evidence. It stays for the pipeline's
    ``unit_root.spec: none`` path, which its table does not cover, and
    for one series outside a pipeline, as in demo 01.
    """
    return IntegrationOrder.from_tests(
        s.name, _run_test(s, cfg), _run_test(difference(s, 1), cfg),
        cfg.alpha)
