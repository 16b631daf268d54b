import numpy as np
import pytest
from hypothesis import given, settings
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


def _oracle_adf(s, spec, max_lag, rule):
    """(lag, statistic) by one ols fit per candidate lag on the common
    max-lag sample, then an ols refit of the chosen lag; an exact refit
    (the rule of wald_f_test) has no statistic."""
    y = s.values
    if max_lag is None:
        max_lag = default_max_lag(len(y))
    best = None
    for k in range(max_lag + 1):
        fit = ols(*_oracle_design(y, spec, k, max_lag + 1))
        crit = fit.aic if rule == "AIC" else fit.sbc
        if best is None or crit < best[0] - 1e-12:
            best = (crit, k)
    lag = best[1]
    fit = ols(*_oracle_design(y, spec, lag, lag + 1))
    if fit.rss <= 1e-13 * max(float(fit.y @ fit.y), 1.0):
        raise PerfectFitDegenerate("exact fit")
    return lag, fit.t_stats["Y(-1)"]


def _adf_lag_and_statistic(s, spec, max_lag, rule):
    res = adf_test(s, spec, max_lag, rule)
    return res.lag_or_bandwidth, res.statistic


def _outcome(search, s, spec, max_lag, rule) -> str:
    """repr of (lag, statistic), or of the ardlkit error's type; repr
    keeps every bit of the statistic and lets NaN equal NaN."""
    try:
        return repr(search(s, spec, max_lag, rule))
    except ArdlkitError as exc:
        return repr(type(exc))


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
    def test_same_lag_and_statistic(self, spec, rule, max_lag, kind, extra,
                                    seed):
        # short samples with a trend raise SampleTooShort on both sides
        n = (_DEFAULT_MIN_T if max_lag is None else max_lag + 10) + extra
        s = make_series(_simulated(kind, n, seed))
        assert _outcome(_adf_lag_and_statistic, s, spec, max_lag, rule) == \
            _outcome(_oracle_adf, s, spec, max_lag, rule)

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
        assert outcome == _outcome(_oracle_adf, s, spec, max_lag, rule)
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
        fit = res.regression
        assert res.statistic == pytest.approx(fit.t_stats["Y(-1)"], abs=1e-6)

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
