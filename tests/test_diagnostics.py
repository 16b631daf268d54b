import itertools
import math
import re

import numpy as np
import pytest
from scipy import linalg as sla
from scipy import stats

from ardlkit import (
    BreakModel,
    DesignMatrix,
    breusch_godfrey,
    breusch_pagan,
    coefficient_pvalues,
    cusum,
    cusumsq,
    generate,
    jarque_bera,
    ols,
    ramsey_reset,
    recursive_residuals,
    run_battery,
    wald_f_test,
)
from ardlkit.errors import (
    ConfigError,
    ConstantFitted,
    DimensionMismatch,
    RankDeficientPrefix,
    SampleTooShort,
    ZeroVariance,
)
from ardlkit import diagnostics
from ardlkit.diagnostics import CUSUM_CRITICAL
from ardlkit.linreg import TestStatistic as StatResult
from ardlkit.linreg import (
    _PREFIX_BLOCK,
    RANK_RTOL,
    decisions_from_pvalue,
    prefix_residuals,
)
from ardlkit.simgen import gaussian_stream


def fit(y, **cols):
    X = DesignMatrix.from_columns(
        {k: np.asarray(v, dtype=np.float64) for k, v in cols.items()})
    return ols(np.asarray(y, dtype=np.float64), X)


class TestBreuschGodfrey:
    def test_exactly_uncorrelated_residuals_give_zero_lm(self):
        # period-4 pattern: every product e_t * e_{t-1} is zero, and the
        # mean is zero, so the auxiliary regression explains nothing
        e = np.tile([1.0, 0.0, -1.0, 0.0], 10)
        rr = fit(5.0 + e, C=np.ones(40))
        res = breusch_godfrey(rr, lags=1)
        assert res.statistic == pytest.approx(0.0, abs=1e-8)

    def test_ar1_residuals_rejected(self):
        n = 200
        z = gaussian_stream(23, 2 * n)
        x = z[:n]
        u = np.empty(n)
        u[0] = z[n]
        for t in range(1, n):
            u[t] = 0.7 * u[t - 1] + z[n + t]
        rr = fit(1.0 + x + u, C=np.ones(n), X=x)
        res = breusch_godfrey(rr, lags=2)
        assert res.p_value < 0.01
        assert res.distribution == "chi2(2)"

    def test_published_style_report_echo(self):
        stat = StatResult("breusch_godfrey", 5.733585, "chi2(2)", 0.0335,
                             decisions_from_pvalue(0.0335))
        assert stat.decision_at[0.05] == "reject"
        assert stat.decision_at[0.01] == "fail-to-reject"

    def test_short_sample(self):
        rr = fit(np.arange(5.0) + 0.1, C=np.ones(5), X=np.arange(5.0))
        with pytest.raises(SampleTooShort):
            breusch_godfrey(rr, lags=3)


class TestRamseyReset:
    def test_linear_data_not_rejected(self):
        n = 200
        z = gaussian_stream(29, 2 * n)
        x = z[:n]
        rr = fit(1.0 + 2.0 * x + z[n:], C=np.ones(n), X=x)
        assert ramsey_reset(rr, powers=(2,)).p_value > 0.10

    def test_quadratic_data_rejected(self):
        n = 200
        z = gaussian_stream(29, 2 * n)
        x = z[:n]
        rr = fit(x**2 + 0.5 * z[n:], C=np.ones(n), X=x)
        assert ramsey_reset(rr, powers=(2,)).p_value < 0.01

    def test_constant_model_refused(self):
        rr = fit(np.arange(10.0), C=np.ones(10))
        with pytest.raises(ConstantFitted):
            ramsey_reset(rr, powers=(2,))

    def test_powers_validated(self):
        n = 30
        z = gaussian_stream(1, 2 * n)
        rr = fit(z[:n], C=np.ones(n), X=z[n:])
        with pytest.raises(ValueError):
            ramsey_reset(rr, powers=(5,))

    def test_f_invariant_to_fitted_scale(self):
        n = 120
        z = gaussian_stream(57, 2 * n)
        x = z[:n]
        rr_small = fit(1.0 + x + z[n:], C=np.ones(n), X=x)
        rr_big = fit(1e6 * (1.0 + x + z[n:]), C=np.ones(n), X=x)
        a = ramsey_reset(rr_small, powers=(2, 3)).statistic
        b = ramsey_reset(rr_big, powers=(2, 3)).statistic
        assert a == pytest.approx(b, rel=1e-6)


class TestJarqueBera:
    def test_forced_moments_statistic(self):
        # alternating signs force skewness 0 and kurtosis 1 analytically,
        # so JB = n/6 (0 + 4/4) = n/6; n = 12 here to satisfy the length
        # floor of the test
        res = jarque_bera([-1.0, 1.0] * 6)
        assert res.statistic == pytest.approx(2.0, abs=1e-12)
        assert res.distribution == "chi2(2)"

    def test_gaussian_sample_passes(self):
        assert jarque_bera(gaussian_stream(31, 10000)).p_value > 0.05

    def test_exponential_sample_fails(self):
        rng = np.random.default_rng(31)
        assert jarque_bera(rng.exponential(size=10000)).p_value < 0.001

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            jarque_bera([2.0] * 12)

    def test_minimum_length(self):
        with pytest.raises(SampleTooShort):
            jarque_bera([1.0, -1.0, 2.0])


class TestBreuschPagan:
    def test_constant_squared_residuals_give_zero_lm(self):
        # e = [1,-1,-1,1] is orthogonal to the constant and to x = 1..4,
        # and e^2 is constant, so the auxiliary R^2 is exactly zero
        x = np.array([1.0, 2.0, 3.0, 4.0])
        e = np.array([1.0, -1.0, -1.0, 1.0])
        rr = fit(x + e, C=np.ones(4), X=x)
        assert np.allclose(rr.residuals, e, atol=1e-12)
        res = breusch_pagan(rr)
        assert res.statistic == pytest.approx(0.0, abs=1e-10)

    def test_variance_proportional_to_x2_rejected(self):
        # the regressor is shifted away from zero so that x^2 projects
        # onto x and the linear auxiliary regression can see it
        n = 300
        z = gaussian_stream(37, 2 * n)
        x = 2.0 + z[:n]
        rr = fit(1.0 + x + np.abs(x) * z[n:], C=np.ones(n), X=x)
        assert breusch_pagan(rr).p_value < 0.01

    def test_published_style_report_echo(self):
        stat = StatResult("breusch_pagan", 0.676298, "chi2(1)", 0.7319,
                             decisions_from_pvalue(0.7319))
        assert stat.decision_at[0.05] == "fail-to-reject"

    def test_needs_nonconstant_regressor(self):
        rr = fit(np.arange(10.0) % 3, C=np.ones(10))
        with pytest.raises(ConfigError):
            breusch_pagan(rr)


def oracle_recursive_residuals(y, X):
    """Recursive residuals by an independent fit of every prefix: the
    coefficients of rows 0..t-1 by lstsq, the variance factor
    x_t'(X'X)^{-1}x_t as |R^{-T} x_t|^2 from that prefix's own QR."""
    n, k = X.shape
    w = np.empty(n - k)
    for t in range(k, n):
        beta = np.linalg.lstsq(X[:t], y[:t], rcond=None)[0]
        u = sla.solve_triangular(np.linalg.qr(X[:t], mode="r"), X[t],
                                 trans="T")
        w[t - k] = (y[t] - X[t] @ beta) / math.sqrt(1.0 + u @ u)
    return w


def recursive_design(kind, k, n, seed):
    """k columns: a constant, a constant and a trend, or none of them,
    filled up with random walks and white noise."""
    rng = np.random.default_rng(seed)
    det = {"C": [np.ones(n)],
           "C+TREND": [np.ones(n), np.arange(1.0, n + 1)],
           "none": []}[kind]
    free = [rng.standard_normal(n).cumsum() if j % 2 else
            rng.standard_normal(n) for j in range(k - len(det))]
    cols = det + free
    X = DesignMatrix(tuple(f"X{j}" for j in range(k)), np.column_stack(cols))
    y = X.matrix @ rng.standard_normal(k) + rng.standard_normal(n)
    return y, X


def prefix_fails_rank_check(X):
    """The pivoted-QR rank check of ols on the first k rows."""
    R = sla.qr(X.matrix[:X.k], mode="r", pivoting=True)[0]
    diag = np.abs(np.diag(R))
    return diag[0] == 0.0 or bool(np.any(diag < RANK_RTOL * diag[0]))


BLOCK = _PREFIX_BLOCK


class TestRecursiveResiduals:
    def test_sum_of_squares_equals_full_rss(self):
        # classical identity: the squared recursive residuals add up to
        # the full-sample residual sum of squares
        n = 80
        z = gaussian_stream(61, 2 * n)
        x = z[:n]
        rr = fit(1.0 + x + z[n:], C=np.ones(n), X=x)
        w = recursive_residuals(rr.y, rr.design)
        assert float(w @ w) == pytest.approx(rr.rss, rel=1e-12)

    @pytest.mark.parametrize("m", [3, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK,
                                   400])
    @pytest.mark.parametrize("kind, k", [
        (kind, k) for kind in ("C", "C+TREND", "none") for k in range(1, 7)
        if kind != "C+TREND" or k >= 2])
    def test_matches_a_fit_of_every_prefix(self, kind, k, m):
        # m = n - k residuals; the block edges are where prefixes pass
        # from one batched QR to the next
        y, X = recursive_design(kind, k, k + m, seed=100 * k + m)
        w = recursive_residuals(y, X)
        ref = oracle_recursive_residuals(y, X.matrix)
        scale = np.max(np.abs(ref))
        assert w.shape == (m,)
        assert np.max(np.abs(w - ref)) <= 1e-10 * scale
        clear = np.abs(ref) > 1e-10 * scale
        assert np.array_equal(np.sign(w[clear]), np.sign(ref[clear]))
        assert float(w @ w) == pytest.approx(ols(y, X).rss, rel=1e-12)

    @pytest.mark.parametrize("cond", [1e7, 6.2e7, 1e8, 1e9])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_ill_conditioned_full_rank_start(self, k, cond):
        # the first k rows nearly repeat one column in another; the
        # rest of the sample is well conditioned
        y, X = recursive_design("C", k, 200, seed=k)
        mat = X.matrix.copy()
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2.0
            mat[:k, -1] = mat[:k, -2] * (1.0 + mid * np.arange(k))
            if np.linalg.cond(mat[:k]) > cond:
                lo = mid
            else:
                hi = mid
        X = DesignMatrix(X.names, mat)
        assert np.linalg.cond(X.matrix[:k]) == pytest.approx(cond, rel=0.01)
        w = recursive_residuals(y, X)
        assert np.all(np.isfinite(w))
        assert float(w @ w) == pytest.approx(ols(y, X).rss, rel=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_rank_deficient_prefix_exactly_when_the_check_fails(self, k):
        y, X = recursive_design("C", k, 60, seed=7 + k)
        outcomes = set()
        for eps in [0.0, *np.logspace(-14, -7, 29)]:
            mat = X.matrix.copy()
            mat[:k, -1] = 2.0 * mat[:k, 0] + eps * np.arange(k)
            Xe = DesignMatrix(X.names, mat)
            fails = prefix_fails_rank_check(Xe)
            outcomes.add(fails)
            if fails:
                with pytest.raises(RankDeficientPrefix):
                    recursive_residuals(y, Xe)
            else:
                assert np.all(np.isfinite(recursive_residuals(y, Xe)))
        assert outcomes == {True, False}

    def test_singular_prefix(self):
        x = np.array([0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        X = DesignMatrix.from_columns({"C": np.ones(8), "X": x})
        with pytest.raises(RankDeficientPrefix):
            recursive_residuals(np.arange(8.0) + 0.5, X)

    @pytest.mark.parametrize("y", [np.arange(10.0), np.arange(6.0),
                                   np.ones((8, 1))],
                             ids=["two-rows-long", "two-rows-short", "2-d"])
    def test_dependent_must_match_the_design(self, y):
        X = DesignMatrix.from_columns({"C": np.ones(8),
                                       "X": np.arange(8.0) ** 2})
        with pytest.raises(DimensionMismatch):
            recursive_residuals(y, X)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["y", "X"],
                             ids=lambda where: f"prefix_residuals-{where}")
    def test_non_finite_input_raises_value_error(self, where, bad):
        # row 40 lies past the first k rows, which the rank check reads;
        # NaN residuals from there on would read as a stable CUSUM
        y, X = recursive_design("C", 2, 60, seed=5)
        if where == "y":
            y = y.copy()
            y[40] = bad
        else:
            mat = X.matrix.copy()
            mat[40, 1] = bad
            X = DesignMatrix(X.names, mat)
        with pytest.raises(ValueError, match="infs or NaNs"):
            prefix_residuals(y, X)

    def test_half_sample_orthogonality(self):
        ds = generate(BreakModel(T=200, seed=43, break_point=100,
                                 pre=(1.0, 1.0), post=(1.0, 1.0)))
        rr = fit(ds["Y"].values, C=np.ones(200), X=ds["X"].values)
        w = recursive_residuals(rr.y, rr.design)
        half = len(w) // 2
        corr = np.corrcoef(w[:half], w[half:2 * half])[0, 1]
        assert abs(corr) <= 0.1

    def test_sample_floor(self):
        X = DesignMatrix.from_columns({"C": np.ones(4),
                                       "X": np.arange(4.0)})
        with pytest.raises(SampleTooShort):
            recursive_residuals(np.arange(4.0), X)


def break_residuals(seed, **break_model):
    """Recursive residuals of Y on C and X from a BreakModel with T 200."""
    ds = generate(BreakModel(T=200, seed=seed, **break_model))
    rr = fit(ds["Y"].values, C=np.ones(200), X=ds["X"].values)
    return recursive_residuals(rr.y, rr.design)


class TestStability:
    def stable_w(self, seed=43):
        return break_residuals(seed, break_point=100, pre=(1.0, 1.0),
                               post=(1.0, 1.0))

    def test_stable_fixture_passes_both(self):
        w = self.stable_w()
        assert cusum(w).stable
        assert cusumsq(w).stable

    def test_slope_doubling_break_flags_cusumsq(self):
        w = break_residuals(5, break_point=100, pre=(0.0, 1.0),
                            post=(0.0, 2.0), sigma=0.5)
        assert not cusumsq(w).stable

    def test_paths_inside_bounds_iff_stable(self):
        w = self.stable_w()
        for res in (cusum(w), cusumsq(w)):
            inside = np.all((res.path >= res.lower_bound)
                            & (res.path <= res.upper_bound))
            assert bool(inside) == res.stable

    def test_cusum_bound_shape(self):
        res = cusum(self.stable_w())
        m = len(res.path)
        expected = 0.948 * (math.sqrt(m) + 2.0 * 1 / math.sqrt(m))
        assert res.upper_bound[0] == pytest.approx(expected, rel=1e-12)
        assert res.upper_bound[-1] == pytest.approx(3 * 0.948 * math.sqrt(m),
                                                    rel=1e-12)

    @pytest.mark.parametrize("m", [3, 7, 8, 9, 50, 129, 300, 1000])
    @pytest.mark.parametrize("scale", [1e-150, 1e-3, 1.0, 1e3, 1e120])
    def test_cusumsq_path_ends_at_exactly_one(self, m, scale):
        # the share of the squares seen so far is 1 by definition at the
        # end, whatever order the sum of all squares would add them in
        z = gaussian_stream(m, m)
        for w in (scale * z, scale * np.abs(z) ** 3, scale * np.exp(3 * z)):
            path = cusumsq(w).path
            assert path[-1] == 1.0
            assert np.all(np.diff(path) >= 0.0)

    def test_cusumsq_alpha_restricted(self):
        with pytest.raises(ConfigError):
            cusumsq(self.stable_w(), alpha=0.10)

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.10])
    def test_cusum_reads_its_alpha_row(self, alpha):
        w = self.stable_w()
        res = cusum(w, alpha)
        m = len(w)
        assert res.alpha == alpha and m == len(res.path)
        assert res.upper_bound[-1] == pytest.approx(
            3 * CUSUM_CRITICAL[alpha] * math.sqrt(m), rel=1e-12)

    @pytest.mark.parametrize("test", [cusum, cusumsq])
    @pytest.mark.parametrize("w", [np.array([]), np.ones((4, 2))],
                             ids=["empty", "2-d"])
    def test_residuals_must_be_a_nonempty_vector(self, test, w):
        with pytest.raises(ValueError, match="nonempty 1-d"):
            test(w)

    @pytest.mark.parametrize("test", [cusum, cusumsq])
    def test_a_list_reads_as_its_array(self, test):
        w = self.stable_w()
        a, b = test(list(w)), test(w)
        assert a.stable == b.stable
        assert a.path.tobytes() == b.path.tobytes()


class TestBattery:
    def test_all_sections_present_and_pass(self):
        n = 200
        z = gaussian_stream(72, 2 * n)
        x = z[:n]
        rr = fit(1.0 + x + z[n:], C=np.ones(n), X=x)
        report = run_battery(rr)
        assert report.verdict == "pass"
        for t in (report.serial_correlation, report.functional_form,
                  report.normality, report.heteroscedasticity):
            assert t.p_value >= 0.0
            assert t.statistic >= 0.0
        assert report.cusum.stable and report.cusumsq.stable

    def test_verdict_fails_on_break(self):
        ds = generate(BreakModel(T=200, seed=5, break_point=100,
                                 pre=(0.0, 1.0), post=(2.0, 2.0), sigma=0.5))
        rr = fit(ds["Y"].values, C=np.ones(200), X=ds["X"].values)
        assert run_battery(rr).verdict == "fail"

    @pytest.mark.parametrize("seed", [43, 5])
    def test_stability_pair_shares_one_set_of_recursive_residuals(
            self, seed, monkeypatch):
        ds = generate(BreakModel(T=200, seed=seed, break_point=100,
                                 pre=(0.0, 1.0), post=(2.0, 2.0), sigma=0.5))
        rr = fit(ds["Y"].values, C=np.ones(200), X=ds["X"].values)
        w = recursive_residuals(rr.y, rr.design)
        calls = []

        def counted(y, X):
            calls.append(X)
            return recursive_residuals(y, X)

        monkeypatch.setattr(diagnostics, "recursive_residuals", counted)
        report = run_battery(rr)
        assert len(calls) == 1 and calls[0] is rr.design
        for got, want in ((report.cusum, cusum(w)),
                          (report.cusumsq, cusumsq(w))):
            assert got.stable == want.stable and got.alpha == want.alpha
            for field in ("path", "lower_bound", "upper_bound"):
                assert getattr(got, field).tobytes() == \
                    getattr(want, field).tobytes()

    def test_default_include_is_the_whole_battery(self):
        assert diagnostics.BATTERY == (
            "serial_correlation", "functional_form", "normality",
            "heteroscedasticity", "stability")
        n = 120
        z = gaussian_stream(73, 2 * n)
        rr = fit(1.0 + z[:n] + z[n:], C=np.ones(n), X=z[:n])
        report = run_battery(rr)
        assert all(getattr(report, name) is not None for name in (
            "serial_correlation", "functional_form", "normality",
            "heteroscedasticity", "cusum", "cusumsq"))

    @pytest.mark.parametrize("include", [
        sub for r in range(len(diagnostics.BATTERY) + 1)
        for sub in itertools.combinations(diagnostics.BATTERY, r)], ids=str)
    def test_subset_selection(self, include):
        n = 120
        z = gaussian_stream(73, 2 * n)
        rr = fit(1.0 + z[:n] + z[n:], C=np.ones(n), X=z[:n])
        report = run_battery(rr, include=include)
        for name in diagnostics.BATTERY:
            fields = ("cusum", "cusumsq") if name == "stability" else (name,)
            for field in fields:
                assert (getattr(report, field) is not None) == (
                    name in include)

    @pytest.mark.parametrize("include, named", [
        (("stabilty",), "['stabilty']"),
        (("normality", "Stability", "cusum"), "['Stability', 'cusum']"),
    ], ids=["misspelled", "case-and-field-names"])
    def test_unknown_test_names_are_refused(self, monkeypatch, include,
                                            named):
        n = 120
        z = gaussian_stream(73, 2 * n)
        rr = fit(1.0 + z[:n] + z[n:], C=np.ones(n), X=z[:n])
        monkeypatch.setattr(diagnostics, "jarque_bera", None)
        with pytest.raises(ValueError, match=re.escape(named)):
            run_battery(rr, include=include)


class TestPValues:
    """Every p-value equals the scipy.stats survival function of its
    statistic and reference distribution, to the last bit."""

    @pytest.mark.parametrize("seed", range(12))
    def test_pvalues_match_scipy_stats(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(12, 300))
        k = int(rng.integers(1, 5))
        cols = {"C": np.ones(n)}
        for j in range(k):
            cols[f"X{j}"] = rng.standard_normal(n)
        beta = rng.standard_normal(k + 1) * rng.choice([0.0, 0.05, 1.0, 5.0],
                                                         size=k + 1)
        noise = rng.standard_t(int(rng.integers(2, 30)), size=n)
        rr = fit(np.column_stack(list(cols.values())) @ beta + noise,
                 **cols)
        df = n - rr.k

        pvals = coefficient_pvalues(rr)
        for name, t in rr.t_stats.items():
            assert pvals[name] == float(2.0 * stats.t.sf(abs(t), df))

        restricted = [f"X{j}" for j in range(int(rng.integers(1, k + 1)))]
        f = wald_f_test(rr, restricted)
        assert f.p_value == float(stats.f.sf(f.statistic, len(restricted),
                                             df))

        lags = int(rng.integers(1, 4))
        for test, dof in ((breusch_godfrey(rr, lags=lags), lags),
                          (jarque_bera(rr.residuals), 2),
                          (breusch_pagan(rr), k)):
            assert test.p_value == float(stats.chi2.sf(test.statistic, dof))

    @pytest.mark.parametrize("tail", [0.0, 0.5, 1.0, 2.0, 3.0])
    def test_jarque_bera_tails_match_scipy_stats(self, tail):
        # from normal to very heavy tails: JB from 2.3 to 1.8e6
        z = gaussian_stream(91, 400)
        jb = jarque_bera(np.sign(z) * np.abs(z) ** (1.0 + tail))
        assert jb.p_value == float(stats.chi2.sf(jb.statistic, 2))
