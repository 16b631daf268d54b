import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ardlkit.unitroot
from ardlkit import (
    Ar1,
    DesignMatrix,
    Deterministic,
    RandomWalk,
    UnitRootConfig,
    adf_test,
    classify_integration,
    generate,
    ols,
    pp_test,
)
from ardlkit.critvals import adf_critical_values
from ardlkit.errors import (
    ArdlkitError,
    ConfigError,
    PerfectFitDegenerate,
    RankDeficient,
    SampleTooShort,
)
from ardlkit.unitroot import default_max_lag, _verdicts

from conftest import make_series, oracle_ols


class TestAdf:
    def test_constant_series_degenerate(self):
        with pytest.raises(RankDeficient):
            adf_test(make_series([5.0] * 50), Deterministic.CONSTANT)

    def test_stationary_ar_rejects(self):
        s = generate(Ar1(T=500, seed=42, phi=0.5))["Y"]
        res = adf_test(s, Deterministic.CONSTANT)
        assert res.statistic < -2.87
        assert res.verdict_at[0.05] == "stationary"

    def test_statistic_matches_hand_rolled_regression(self):
        # rebuild the selected test regression with the normal-equations
        # oracle and recompute the t-ratio independently
        s = generate(Ar1(T=500, seed=42, phi=0.5))["Y"]
        res = adf_test(s, Deterministic.CONSTANT)
        y = s.values
        k = res.lag_or_bandwidth
        dy = np.diff(y)
        dep = dy[k:]
        cols = {"C": np.ones(len(dep)), "Y1": y[k:-1]}
        for i in range(1, k + 1):
            cols[f"D{i}"] = dy[k - i:-i]
        oracle = oracle_ols(dep, cols)
        t_ratio = oracle["coefficients"]["Y1"] / oracle["std_errors"]["Y1"]
        assert res.statistic == pytest.approx(t_ratio, rel=1e-9)

    def test_random_walk_fails_to_reject(self):
        s = generate(RandomWalk(T=500, seed=7))["Y"]
        res = adf_test(s, Deterministic.CONSTANT)
        assert res.verdict_at[0.05] == "unit_root"

    def test_sample_too_short(self):
        with pytest.raises(SampleTooShort):
            adf_test(make_series(np.arange(12.0)), max_lag=4)

    def test_fixed_rule_uses_given_lag(self):
        s = generate(Ar1(T=200, seed=3, phi=0.4))["Y"]
        res = adf_test(s, max_lag=3, rule="fixed")
        assert res.lag_or_bandwidth == 3
        assert res.selection_rule == "fixed"

    def test_location_invariance_with_constant(self):
        s = generate(Ar1(T=300, seed=11, phi=0.6))["Y"]
        shifted = make_series(s.values + 1000.0)
        a = adf_test(s, Deterministic.CONSTANT)
        b = adf_test(shifted, Deterministic.CONSTANT)
        assert a.statistic == pytest.approx(b.statistic, abs=1e-8)

    def test_monotone_verdicts(self):
        s = generate(Ar1(T=300, seed=5, phi=0.7))["Y"]
        res = adf_test(s)
        if res.verdict_at[0.01] == "stationary":
            assert res.verdict_at[0.05] == "stationary"
        if res.verdict_at[0.05] == "stationary":
            assert res.verdict_at[0.10] == "stationary"

    def test_default_max_lag_rule(self):
        assert default_max_lag(100) == 12
        assert default_max_lag(200) == 14


def _oracle_design(y, spec, k, start):
    """The order-k Dickey-Fuller regression on levels start..n-1."""
    dy = np.diff(y)
    m = len(y) - start
    cols = {}
    if spec is not Deterministic.NONE:
        cols["C"] = np.ones(m)
    if spec is Deterministic.CONSTANT_TREND:
        cols["TREND"] = np.arange(start + 1, len(y) + 1, dtype=np.float64)
    cols["Y(-1)"] = y[start - 1:-1]
    for i in range(1, k + 1):
        cols[f"DY(-{i})"] = dy[start - 1 - i:-i]
    return dy[start - 1:], DesignMatrix.from_columns(cols)


def _t_tolerance(fit, t):
    """How far two computations of the t-ratio t of ``fit`` may round
    apart: 1e-12 max(|t|, 1), or 4 eps kappa (|t| + sqrt(n - k)) with
    kappa = sqrt(Delta-y'Delta-y / RSS) where that is larger.

    Both sides read t = sqrt(n - k) R[k-1, k] / |R[k, k]| off a triangle
    of [X | Delta-y] (the oracle through its QR). A backward-stable QR
    moves its last column, the effects of Delta-y, by about
    eps ||Delta-y||, so R[k-1, k] and |R[k, k]| = sqrt(RSS) move by
    eps kappa sqrt(RSS) and t by about eps kappa (sqrt(n - k) + |t|). That
    is 1e-12-size for kappa up to about 1e3, and larger when the
    regression explains almost all of Delta-y: at n = 17 an order-7
    regression left 1 residual degree of freedom and kappa = 11,411,
    and t = -5373.190956979 (mpmath, 60 digits) came out 1.5e-12
    relative off from the triangle and 4e-13 from the oracle."""
    kappa = math.sqrt(float(fit.y @ fit.y) / fit.rss)
    return max(1e-12 * max(abs(t), 1.0),
               4.0 * np.finfo(np.float64).eps * kappa
               * (abs(t) + math.sqrt(fit.n - fit.k)))


def _oracle_adf(s, spec, max_lag, rule):
    """(lag, statistic, tolerance) by one ols fit per candidate lag on
    the common max-lag sample (none under the fixed rule), then an ols
    refit of the chosen lag; an exact refit (the rule of wald_f_test) has
    no statistic. The tolerance is ``_t_tolerance`` of the refit."""
    y = s.values
    if max_lag is None:
        max_lag = default_max_lag(len(y))
    best = (None, max_lag) if rule == "fixed" else None
    for k in range(max_lag + 1 if best is None else 0):
        fit = ols(*_oracle_design(y, spec, k, max_lag + 1))
        crit = fit.aic if rule == "AIC" else fit.sbc
        if best is None or crit < best[0] - 1e-12:
            best = (crit, k)
    lag = best[1]
    fit = ols(*_oracle_design(y, spec, lag, lag + 1))
    if fit.rss <= 1e-13 * max(float(fit.y @ fit.y), 1.0):
        raise PerfectFitDegenerate("exact fit")
    t = fit.t_stats["Y(-1)"]
    return lag, t, _t_tolerance(fit, t)


def _adf_lag_and_statistic(s, spec, max_lag, rule):
    res = adf_test(s, spec, max_lag, rule)
    return res.lag_or_bandwidth, res.statistic


def _outcome(search, s, spec, max_lag, rule):
    """(lag, statistic), or repr of the ardlkit error's type."""
    try:
        return search(s, spec, max_lag, rule)
    except ArdlkitError as exc:
        return repr(type(exc))


def _same_outcome(got, want) -> bool:
    """The same error type, or the same lag and a statistic within the
    oracle's tolerance of its statistic: the triangle and the oracle's
    ols fit round differently."""
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    return got[0] == want[0] and abs(got[1] - want[1]) <= want[2]


def _simulated(kind, n, seed):
    e = np.random.default_rng(seed).standard_normal(n)
    if kind == "walk":
        return np.cumsum(e)
    if kind == "i2":
        return np.cumsum(np.cumsum(e))
    y = np.empty(n)
    y[0] = e[0]
    for t in range(1, n):
        y[t] = 0.5 * y[t - 1] + e[t]
    return y


# the smallest sample the default max_lag accepts: n >= max_lag + 10
_DEFAULT_MIN_T = next(n for n in range(1, 100) if n >= default_max_lag(n) + 10)


# (shape, spec, max_lag) rows of the degenerate-series table whose
# chosen Dickey-Fuller regression fits exactly
_EXACT_FITS = {
    ("constant", "none", 0),
    ("linear", "constant", 0),
    ("quadratic", "none", 2),
    ("quadratic", "constant_and_trend", 0),
    ("alternating", "none", 0),
    ("alternating", "constant", 0),
    ("alternating", "constant_and_trend", 0),
    ("period3", "none", 2),
}


class TestLagSelectionOracle:
    """The one-factorization lag search against a fit per candidate."""

    @pytest.mark.parametrize("max_lag", [0, 1, None])
    @pytest.mark.parametrize("rule", ["AIC", "SBC"])
    @pytest.mark.parametrize("spec", list(Deterministic))
    @given(kind=st.sampled_from(["walk", "ar", "i2"]),
           extra=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    # n = 17 with 1 residual degree of freedom and kappa = 11,411: the
    # two sides are 1.05e-12 relative apart (see _t_tolerance)
    @example(kind="ar", extra=0, seed=177090294)
    def test_same_lag_and_statistic(self, spec, rule, max_lag, kind, extra,
                                    seed):
        # short samples with a trend raise SampleTooShort on both sides
        n = (_DEFAULT_MIN_T if max_lag is None else max_lag + 10) + extra
        s = make_series(_simulated(kind, n, seed))
        assert _same_outcome(
            _outcome(_adf_lag_and_statistic, s, spec, max_lag, rule),
            _outcome(_oracle_adf, s, spec, max_lag, rule))

    @pytest.mark.parametrize("scores, chosen", [
        ((0.0, 0.0, 0.0, 0.0), 0),
        ((0.0, -5e-13, 1.0, 1.0), 0),
        ((0.0, -2e-12, 1.0, 1.0), 1),
        ((0.0, -5e-13, -1e-12, -1.5e-12), 3),
    ])
    def test_ties_within_1e_12_go_to_the_smaller_lag(self, monkeypatch,
                                                     scores, chosen):
        # the criteria of orders 0..3; the search compares each order
        # with the best so far, not with the order before it
        monkeypatch.setattr(
            ardlkit.unitroot, "nested_criteria",
            lambda y, X: [(9.0, 9.0)] * (X.k - 3) + [(c, c) for c in scores])
        s = make_series(_simulated("walk", 100, 1))
        for rule in ("AIC", "SBC"):
            assert adf_test(s, max_lag=3, rule=rule).lag_or_bandwidth == \
                chosen

    @pytest.mark.parametrize("max_lag", [None, 2, 0])
    @pytest.mark.parametrize("rule", ["AIC", "SBC"])
    @pytest.mark.parametrize("spec", list(Deterministic))
    @pytest.mark.parametrize("shape", [
        "constant", "linear", "quadratic", "alternating", "period3"])
    def test_rank_deficient_exactly_where_the_oracle_is(self, shape, spec,
                                                        rule, max_lag):
        t = np.arange(60.0)
        s = make_series({"constant": np.full(60, 5.0),
                         "linear": 2.0 + 0.5 * t,
                         "quadratic": 1.0 + 0.1 * t + 0.02 * t ** 2,
                         "alternating": (-1.0) ** t,
                         "period3": np.tile([1.0, 4.0, -2.0], 20)}[shape])
        outcome = _outcome(_adf_lag_and_statistic, s, spec, max_lag, rule)
        assert _same_outcome(outcome,
                             _outcome(_oracle_adf, s, spec, max_lag, rule))
        # these test regressions fit exactly: their t-ratio used to come
        # out as NaN or about -1e16
        assert (outcome == repr(PerfectFitDegenerate)) == (
            (shape, spec.value, max_lag) in _EXACT_FITS)


@pytest.mark.parametrize("shape, spec", [
    ("constant", Deterministic.NONE),
    ("alternating", Deterministic.NONE),
    ("alternating", Deterministic.CONSTANT),
    ("alternating", Deterministic.CONSTANT_TREND),
])
def test_exact_test_regression_has_no_statistic(shape, spec):
    # the regression of a constant series on Y(-1) leaves RSS 0 and
    # gave NaN; (-1)^t gave t-ratios near -1e16 (PP: ZeroDivisionError
    # on the constant series)
    s = make_series({"constant": np.full(60, 5.0),
                     "alternating": (-1.0) ** np.arange(60.0)}[shape])
    with pytest.raises(PerfectFitDegenerate):
        adf_test(s, spec, max_lag=0)
    with pytest.raises(PerfectFitDegenerate):
        pp_test(s, spec)


def _oracle_pp(y, spec, bandwidth):
    """(Z_t, nobs) from an ols fit of the order-0 regression and the
    README formula, with the long-run variance summed here."""
    fit = ols(*_oracle_design(y, spec, 0, 1))
    d = fit.residuals - fit.residuals.mean()
    n = d.size
    g0 = float(d @ d) / n
    l2 = g0 + sum(2.0 * (1.0 - j / (bandwidth + 1.0)) * float(d[j:] @ d[:-j])
                  / n for j in range(1, bandwidth + 1))
    s_reg = np.sqrt(fit.sigma2)
    z = (np.sqrt(g0 / l2) * fit.t_stats["Y(-1)"]
         - (l2 - g0) * n * fit.std_errors["Y(-1)"]
         / (2.0 * np.sqrt(l2) * s_reg))
    return z, fit.n


class TestTriangleAgainstOls:
    """The statistics read from one triangle of [X | Delta-y] against an
    ols fit of the same regression."""

    @pytest.mark.parametrize("max_lag", [0, 2, None])
    @pytest.mark.parametrize("rule", ["AIC", "SBC", "fixed"])
    @pytest.mark.parametrize("spec", list(Deterministic))
    def test_adf_statistic_lag_and_nobs(self, spec, rule, max_lag):
        for seed in range(20):
            for kind in ("walk", "ar"):
                s = make_series(_simulated(kind, 150, seed))
                adf = adf_test(s, spec, max_lag, rule)
                lag, t, _ = _oracle_adf(s, spec, max_lag, rule)
                assert adf.lag_or_bandwidth == lag
                assert adf.nobs == 149 - lag
                assert adf.statistic == pytest.approx(t, rel=1e-12)

    @pytest.mark.parametrize("spec", list(Deterministic))
    def test_pp_statistic_and_nobs(self, spec):
        for seed in range(20):
            for kind in ("walk", "ar"):
                s = make_series(_simulated(kind, 150, seed))
                pp = pp_test(s, spec)
                z, nobs = _oracle_pp(s.values, spec, pp.lag_or_bandwidth)
                assert pp.nobs == nobs == 149
                assert pp.statistic == pytest.approx(z, rel=1e-11)

    @pytest.mark.parametrize("max_lag", [0, 2])
    @pytest.mark.parametrize("spec", list(Deterministic))
    @pytest.mark.parametrize("shape", [
        "constant", "linear", "quadratic", "period3"])
    def test_rank_deficient_names_the_columns_ols_names(self, shape, spec,
                                                        max_lag):
        # the fixed rule runs no search, so the chosen order's design gets
        # the first rank check
        t = np.arange(60.0)
        y = {"constant": np.full(60, 5.0),
             "linear": 2.0 + 0.5 * t,
             "quadratic": 1.0 + 0.1 * t + 0.02 * t ** 2,
             "period3": np.tile([1.0, 4.0, -2.0], 20)}[shape]
        tests = [(lambda: adf_test(make_series(y), spec, max_lag, "fixed"),
                  max_lag)]
        if max_lag == 0:
            tests.append((lambda: pp_test(make_series(y), spec), 0))
        for run, lag in tests:
            want = got = None
            try:
                ols(*_oracle_design(y, spec, lag, lag + 1))
            except RankDeficient as exc:
                want = exc.columns
            try:
                run()
            except RankDeficient as exc:
                got = exc.columns
            except PerfectFitDegenerate:
                pass
            assert got == want


@pytest.mark.parametrize("value, valid", [
    (-1, False), (2.5, False), (True, False), (None, True), (0, True),
    (3, True)])
def test_lag_arguments_are_checked_before_any_work(value, valid):
    # a constant series under spec none fits exactly, and 9 observations
    # are too few for either test: an invalid argument is reported first
    degenerate = make_series(np.full(60, 5.0))
    short = make_series(np.arange(9.0))
    for run in (lambda s: adf_test(s, Deterministic.NONE, max_lag=value),
                lambda s: pp_test(s, Deterministic.NONE, bandwidth=value)):
        for s in (degenerate, short):
            with pytest.raises(ArdlkitError if valid else ValueError) as exc:
                run(s)
            assert isinstance(exc.value, ValueError) is not valid
        if valid:
            res = run(generate(Ar1(T=100, seed=4, phi=0.5))["Y"])
            assert value is None or res.lag_or_bandwidth <= value


@pytest.mark.parametrize("rule", ["aic", None, 1])
@pytest.mark.parametrize("spec", ["constant", Deterministic.CONSTANT,
                                  "bogus", 3, None])
def test_spec_and_rule_are_checked_before_any_work(spec, rule):
    # 9 observations are too few for either test: an invalid spec or rule
    # is reported first, and a spec's value is read as its Deterministic
    short = make_series(np.arange(9.0))
    series = generate(Ar1(T=100, seed=4, phi=0.5))["Y"]
    spec_ok = spec in ("constant", Deterministic.CONSTANT)
    for run, valid, same in (
            (lambda s: adf_test(s, spec, rule=rule), spec_ok and rule == "aic",
             lambda s: adf_test(s, Deterministic.CONSTANT, rule="AIC")),
            (lambda s: pp_test(s, spec), spec_ok,
             lambda s: pp_test(s, Deterministic.CONSTANT))):
        with pytest.raises(SampleTooShort if valid else ValueError):
            run(short)
        if valid:
            res, want = run(series), same(series)
            assert res.spec is Deterministic.CONSTANT
            assert (res.statistic, res.lag_or_bandwidth) == \
                (want.statistic, want.lag_or_bandwidth)


class TestCriticalValues:
    def test_response_surface_magnitudes(self):
        # large-sample values must approach the textbook asymptotics
        cv = adf_critical_values("constant", 10_000)
        assert cv[0.05] == pytest.approx(-2.86, abs=0.01)
        cv_t = adf_critical_values("constant_and_trend", 10_000)
        assert cv_t[0.05] == pytest.approx(-3.41, abs=0.01)

    def test_small_samples_are_harder_to_reject(self):
        small = adf_critical_values("constant", 25)
        big = adf_critical_values("constant", 500)
        assert small[0.05] < big[0.05]


class TestDecisionRule:
    def test_published_style_level_statistics(self):
        # statistics of this magnitude must classify as stationary at 5%
        # under a constant-only spec near T = 228
        cvs = adf_critical_values("constant", 228)
        assert _verdicts(-4.113, cvs)[0.05] == "stationary"
        assert _verdicts(-3.933, cvs)[0.05] == "stationary"
        assert _verdicts(-1.459, adf_critical_values(
            "constant_and_trend", 228))[0.05] == "unit_root"


class TestPhillipsPerron:
    def test_zero_bandwidth_equals_plain_t(self):
        s = generate(Ar1(T=300, seed=21, phi=0.5))["Y"]
        res = pp_test(s, bandwidth=0)
        fit = ols(*_oracle_design(s.values, Deterministic.CONSTANT, 0, 1))
        assert res.nobs == fit.n
        assert res.statistic == pytest.approx(fit.t_stats["Y(-1)"],
                                              rel=1e-12)

    def test_close_to_adf_on_same_sample(self):
        s = generate(Ar1(T=500, seed=42, phi=0.5))["Y"]
        adf = adf_test(s)
        pp = pp_test(s)
        assert abs(pp.statistic - adf.statistic) < 0.3

    def test_sample_floor(self):
        with pytest.raises(SampleTooShort):
            pp_test(make_series(np.arange(10.0)))

    def test_random_walk_fails_to_reject(self):
        s = generate(RandomWalk(T=400, seed=23))["Y"]
        assert pp_test(s).verdict_at[0.05] == "unit_root"


class TestClassification:
    def test_random_walk_is_i1(self):
        s = generate(RandomWalk(T=500, seed=7))["Y"]
        order = classify_integration(s)
        assert order.order == "I1"
        assert order.evidence[0].verdict_at[0.05] == "unit_root"
        assert order.evidence[1].verdict_at[0.05] == "stationary"

    def test_stationary_ar_is_i0(self):
        s = generate(Ar1(T=500, seed=7, phi=0.3))["Y"]
        assert classify_integration(s).order == "I0"

    def test_twice_cumulated_noise_is_higher(self):
        z = generate(RandomWalk(T=400, seed=9))["Y"].values
        s = make_series(np.cumsum(z))
        assert classify_integration(s).order == "higher"

    def test_pp_classifier(self):
        s = generate(RandomWalk(T=400, seed=19))["Y"]
        order = classify_integration(s, UnitRootConfig(test="PP"))
        assert order.order == "I1"
        assert order.evidence[0].test == "PP"


class TestUnitRootConfig:
    @pytest.mark.parametrize("rule", [None, 1, "aic", "bogus"])
    @pytest.mark.parametrize("test", [None, 3, "adf", "bogus"])
    def test_a_test_or_rule_that_is_not_a_name_is_a_config_error(self, test,
                                                                 rule):
        if test == "adf" and rule == "aic":
            cfg = UnitRootConfig(test=test, rule=rule)
            assert (cfg.test, cfg.rule) == ("adf", "aic")
        else:
            bad = "test" if test != "adf" else "rule"
            with pytest.raises(ConfigError, match=f"unit_root.{bad}"):
                UnitRootConfig(test=test, rule=rule)
