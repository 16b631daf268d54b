"""Residual diagnostics and structural-stability tests.

The battery covers serial correlation (Breusch-Godfrey LM), functional
form (Ramsey RESET), normality (Jarque-Bera), heteroscedasticity
(Breusch-Pagan-Godfrey LM), and parameter stability (CUSUM and CUSUM of
squares on recursive residuals). Each test stands alone; run_battery
bundles them into one report with an overall verdict.

Every test diagnoses the fit it is given on that fit's own design;
none takes another design. No test refits the model. The auxiliary
regressions of Breusch-Godfrey, Breusch-Pagan and RESET are read from
the fit's own QR with the lagged residuals, nothing, or the powers of
the fitted values appended (``linreg.appended_effects``); the recursive
residuals come from one blocked QR of the row prefixes
(``linreg.prefix_residuals``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .critvals import cusumsq_c0
from .errors import (
    ConfigError,
    ConstantFitted,
    PerfectFitDegenerate,
    SampleTooShort,
    ZeroVariance,
)
from .linreg import (
    EXACT_FIT_RTOL,
    DesignMatrix,
    RegressionResult,
    TestStatistic,
    appended_effects,
    auxiliary_r_squared,
    decisions_from_pvalue,
    ols,  # not called here; kept in this namespace, which perfbench wraps
    prefix_residuals,
)

# Straight-line CUSUM boundary slopes from the Brownian-motion crossing
# probabilities (Brown-Durbin-Evans).
CUSUM_CRITICAL = {0.01: 1.143, 0.05: 0.948, 0.10: 0.850}

# The battery's tests in report order, as run_battery's include names them
BATTERY = ("serial_correlation", "functional_form", "normality",
           "heteroscedasticity", "stability")


@dataclass(frozen=True, eq=False)
class StabilityResult:
    """A cumulative statistic path against its significance bounds."""

    test: str
    path: np.ndarray
    lower_bound: np.ndarray
    upper_bound: np.ndarray
    stable: bool
    alpha: float


@dataclass(frozen=True, eq=False)
class DiagnosticsReport:
    """The six-test battery with a pass/fail verdict.

    verdict is "pass" exactly when no enabled LM/F test rejects at the
    configured alpha and both enabled stability paths stay in bounds.
    """

    serial_correlation: TestStatistic | None
    functional_form: TestStatistic | None
    normality: TestStatistic | None
    heteroscedasticity: TestStatistic | None
    cusum: StabilityResult | None
    cusumsq: StabilityResult | None
    alpha: float
    verdict: str


def _decided(name: str, statistic: float, distribution: str,
             p: float) -> TestStatistic:
    """A statistic with a standard reference distribution, decided at the
    default levels by its p-value."""
    return TestStatistic(name, float(statistic), distribution, p,
                         decisions_from_pvalue(p))


def breusch_godfrey(rr: RegressionResult, lags: int = 1) -> TestStatistic:
    """LM test for residual serial correlation up to ``lags``.

    The auxiliary regression puts the residuals on the fit's design
    plus their own lags (zero-padded before the sample), and LM = n R^2
    is referred to chi2(lags). Its RSS comes from the fit's own QR with
    the lag block appended (``linreg.auxiliary_r_squared``); nothing is
    refit.
    """
    if lags < 1:
        raise ValueError("lags must be >= 1")
    e = rr.residuals
    n = e.shape[0]
    if n <= rr.k + lags + 1:
        raise SampleTooShort(
            f"breusch_godfrey with {lags} lags needs more than "
            f"{rr.k + lags + 1} observations, got {n}"
        )
    lagged = np.zeros((n, lags))
    for j in range(1, lags + 1):
        lagged[j:, j - 1] = e[:-j]
    names = [f"RESID(-{j})" for j in range(1, lags + 1)]
    lm = n * auxiliary_r_squared(rr, e, names, lagged)
    p = float(special.chdtrc(lags, lm))
    return _decided("breusch_godfrey", lm, f"chi2({lags})", p)


def ramsey_reset(rr: RegressionResult, powers=(2,)) -> TestStatistic:
    """RESET functional-form test: F on powers of the fitted values.

    powers must be a nonempty subset of {2, 3, 4}. The fitted values
    are rescaled to unit maximum before powering; the F statistic is
    invariant to that rescaling and conditioning improves.

    The restricted model is the fit given. The augmented one is its
    residuals on the powers appended to the fit's design
    (``linreg.appended_effects``): with effects z, RSS_r - RSS_aug =
    ||z[:a]||^2 and RSS_aug = z[a]^2. So nothing is refit.
    """
    powers = tuple(sorted(set(powers)))
    if not powers or not set(powers) <= {2, 3, 4}:
        raise ValueError(f"powers must be a nonempty subset of {{2,3,4}}")
    fitted = rr.fitted
    spread = float(fitted.max() - fitted.min())
    scale = float(np.max(np.abs(fitted)))
    if scale == 0.0 or spread <= 1e-12 * scale:
        raise ConstantFitted("fitted values are constant")
    if rr.fits_exactly:
        raise PerfectFitDegenerate("zero residual variance")
    f_scaled = fitted / scale
    z = appended_effects(rr, rr.residuals,
                         [f"FITTED^{pwr}" for pwr in powers],
                         np.column_stack([f_scaled ** pwr for pwr in powers]))
    q = len(powers)
    rss_aug = float(z[q]) ** 2
    if rss_aug <= EXACT_FIT_RTOL * max(float(rr.y @ rr.y), 1.0):
        raise PerfectFitDegenerate(
            "unrestricted model fits exactly; F ratio undefined"
        )
    df = rr.n - rr.k - q
    f_stat = float(z[:q] @ z[:q]) / q / (rss_aug / df)
    p = float(special.fdtrc(q, df, f_stat))
    return _decided("ramsey_reset", f_stat, f"F({q}, {df})", p)


def jarque_bera(residuals) -> TestStatistic:
    """Normality test from moment skewness and kurtosis (divisor n)."""
    e = np.asarray(residuals, dtype=np.float64)
    n = e.shape[0]
    if n < 8:
        raise SampleTooShort(f"jarque_bera needs >= 8 observations, got {n}")
    d = e - e.mean()
    m2 = float(d @ d) / n
    if m2 == 0.0:
        raise ZeroVariance("constant residuals")
    skew = float(np.mean(d**3)) / m2**1.5
    kurt = float(np.mean(d**4)) / m2**2
    jb = n / 6.0 * (skew**2 + (kurt - 3.0) ** 2 / 4.0)
    p = float(special.chdtrc(2, jb))
    return _decided("jarque_bera", jb, "chi2(2)", p)


def breusch_pagan(rr: RegressionResult) -> TestStatistic:
    """LM heteroscedasticity test: squared residuals on the fit's design.

    LM = n R^2 of the auxiliary regression, chi2 with one degree of
    freedom per non-constant regressor. Its RSS is that of e^2 less its
    projection on the fit's own Q (``linreg.auxiliary_r_squared``).
    """
    df = rr.k - 1 if rr.design.has_constant() else rr.k
    if df < 1:
        raise ConfigError("breusch_pagan needs at least one non-constant "
                          "regressor")
    e2 = rr.residuals**2
    lm = len(e2) * auxiliary_r_squared(rr, e2)
    p = float(special.chdtrc(df, lm))
    return _decided("breusch_pagan", lm, f"chi2({df})", p)


def recursive_residuals(y, X: DesignMatrix) -> np.ndarray:
    """Standardized one-step-ahead prediction errors, n - k of them.

    Starting from the first k observations, each subsequent y is
    predicted from the fit so far; the errors are scaled so they are
    iid N(0, sigma^2) under stability, and their squares add up to the
    full-sample RSS. Computed from QR triangles of the growing prefixes
    of [X y] by ``linreg.prefix_residuals``, after the first k rows pass
    the rank check of ``ols``.

    Raises
    ------
    SampleTooShort
        n <= k + 2: fewer than three residuals.
    DimensionMismatch
        y does not match the design's row count.
    RankDeficientPrefix
        The first k rows fail the rank check of ``ols``.
    """
    if X.n <= X.k + 2:
        raise SampleTooShort(
            f"recursive residuals need n > k + 2, got n={X.n}, k={X.k}"
        )
    return prefix_residuals(y, X)


def _stability_input(w) -> np.ndarray:
    """w as a float array; ValueError unless it is 1-d and nonempty."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("recursive residuals must be a nonempty 1-d array")
    return w


def cusum(w, alpha: float = 0.05) -> StabilityResult:
    """Cumulative sum of the recursive residuals w, each scaled by their
    root mean square, with straight-line bounds
    +/- a (sqrt(m) + 2 r / sqrt(m)), m = len(w)."""
    if alpha not in CUSUM_CRITICAL:
        raise ConfigError(
            f"CUSUM bounds tabulated at {sorted(CUSUM_CRITICAL)}, got {alpha}"
        )
    w = _stability_input(w)
    m = w.shape[0]
    sigma = math.sqrt(float(w @ w) / m)
    path = np.cumsum(w) / sigma if sigma > 0.0 else np.zeros(m)
    a = CUSUM_CRITICAL[alpha]
    r = np.arange(1, m + 1)
    upper = a * (math.sqrt(m) + 2.0 * r / math.sqrt(m))
    lower = -upper
    stable = bool(np.all((path >= lower) & (path <= upper)))
    return StabilityResult("CUSUM", path, lower, upper, stable, alpha)


def cusumsq(w, alpha: float = 0.05) -> StabilityResult:
    """Cumulative share of the squared recursive residuals w against
    parallel bounds r/m +/- c0 from the embedded table (5% only)."""
    if alpha != 0.05:
        raise ConfigError("CUSUMSQ offsets are tabulated at 5% only")
    w = _stability_input(w)
    m = w.shape[0]
    # divided by its own last point, so the path ends at exactly 1
    cum = np.cumsum(w**2)
    if cum[-1] == 0.0:
        raise ZeroVariance("all recursive residuals are zero")
    path = cum / cum[-1]
    expected = np.arange(1, m + 1) / m
    c0 = cusumsq_c0(m)
    upper = expected + c0
    lower = expected - c0
    stable = bool(np.all((path >= lower) & (path <= upper)))
    return StabilityResult("CUSUMSQ", path, lower, upper, stable, alpha)


def run_battery(rr: RegressionResult, bg_lags: int = 2, reset_powers=(2,),
                alpha: float = 0.05,
                include: tuple[str, ...] = BATTERY) -> DiagnosticsReport:
    """Run the tests of the battery that include names (a subset of
    BATTERY) on one regression; CUSUM and CUSUMSQ read one set of
    recursive residuals. A name not in BATTERY is a ValueError."""
    unknown = [t for t in include if t not in BATTERY]
    if unknown:
        raise ValueError(f"unknown diagnostics {unknown}; expected names "
                         f"from {BATTERY}")
    sc = breusch_godfrey(rr, bg_lags) \
        if "serial_correlation" in include else None
    ff = ramsey_reset(rr, reset_powers) \
        if "functional_form" in include else None
    nm = jarque_bera(rr.residuals) if "normality" in include else None
    ht = breusch_pagan(rr) if "heteroscedasticity" in include else None
    cs = csq = None
    if "stability" in include:
        w = recursive_residuals(rr.y, rr.design)
        cs, csq = cusum(w, alpha), cusumsq(w)

    ok = (all(t is None or t.decision_at.get(alpha) != "reject"
              for t in (sc, ff, nm, ht))
          and all(s is None or s.stable for s in (cs, csq)))
    return DiagnosticsReport(
        serial_correlation=sc,
        functional_form=ff,
        normality=nm,
        heteroscedasticity=ht,
        cusum=cs,
        cusumsq=csq,
        alpha=alpha,
        verdict="pass" if ok else "fail",
    )
