import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ardlkit.ardl
from ardlkit import (
    Ar1,
    ArdlProcess,
    ArdlSpec,
    CointegratedPair,
    Deterministic,
    RandomWalk,
    adf_test,
    bounds_decision,
    bounds_test,
    derive_seed,
    estimate_ardl,
    estimate_ecm,
    estimate_levels,
    generate,
    long_run,
    ols,
    select_lags,
)
from ardlkit.ardl import _aligned_values, _ecm_design
from ardlkit.errors import (
    ArdlkitError,
    DegenerateAdjustment,
    InvalidParameters,
    RankDeficient,
    SampleTooShort,
)

from conftest import make_dataset, make_series, oracle_ols


def noiseless_ardl10(n=80, const=2.0, phi=0.5, theta=1.0, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = np.empty(n)
    y[0] = const / (1 - phi) + x[0]
    for t in range(1, n):
        y[t] = const + phi * y[t - 1] + theta * x[t]
    return make_dataset({"Y": y, "X": x}, "Y")


SPEC10 = ArdlSpec("Y", ("X",), p=1, q={"X": 0})
SPEC11 = ArdlSpec("Y", ("X",), p=1, q={"X": 1})


class TestSpecValidation:
    def test_p_floor(self):
        with pytest.raises(InvalidParameters):
            ArdlSpec("Y", ("X",), p=0, q={"X": 1})

    def test_dependent_not_regressor(self):
        with pytest.raises(InvalidParameters):
            ArdlSpec("Y", ("Y",), p=1, q={"Y": 1})

    def test_q_covers_regressors(self):
        with pytest.raises(InvalidParameters):
            ArdlSpec("Y", ("X",), p=1, q={})

    def test_no_deterministic_rejected(self):
        with pytest.raises(InvalidParameters):
            ArdlSpec("Y", ("X",), p=1, q={"X": 0}, det=Deterministic.NONE)


class TestEstimation:
    def test_noiseless_system_recovered(self):
        m = estimate_ardl(noiseless_ardl10(), SPEC10)
        assert m.adjustment_coefficient == pytest.approx(-0.5, abs=1e-10)
        assert m.levels_fit.coefficients["X"] == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(m.levels_fit.residuals)) < 1e-10

    def test_duplicated_regressor(self):
        ds = noiseless_ardl10()
        x = ds["X"].values
        dup = make_dataset({"Y": ds["Y"].values, "X": x, "Z": 2.0 * x}, "Y")
        spec = ArdlSpec("Y", ("X", "Z"), p=1, q={"X": 0, "Z": 0})
        with pytest.raises(RankDeficient):
            estimate_ardl(dup, spec)

    def test_effective_sample_length(self, rng):
        # noisy data: an overfit lag structure on the noiseless system
        # would be exactly collinear
        x = rng.normal(size=60)
        y = np.cumsum(rng.normal(size=60))
        ds = make_dataset({"Y": y, "X": x}, "Y")
        m = estimate_ardl(ds, ArdlSpec("Y", ("X",), p=2, q={"X": 1}))
        assert m.n_effective == 58
        m3 = estimate_ardl(ds, ArdlSpec("Y", ("X",), p=1, q={"X": 3}))
        assert m3.n_effective == 57

    def test_lags_beyond_the_sample(self):
        ds = make_dataset({"Y": np.arange(4.0), "X": np.ones(4)}, "Y")
        spec = ArdlSpec("Y", ("X",), p=5, q={"X": 0})
        for estimate in (estimate_ardl, estimate_levels):
            with pytest.raises(SampleTooShort):
                estimate(ds, spec)

    def test_cointegrated_fixture_negative_feedback(self):
        ds = generate(CointegratedPair(T=400, seed=13, beta=3.0,
                                       adjustment=-0.6))
        m = estimate_ardl(ds, SPEC11)
        assert m.adjustment_coefficient < 0.0
        assert m.levels_fit.t_stats["Y(-1)"] < -4.0

    def test_engle_granger_cross_check(self):
        # independent two-step check of the same fixture: the static
        # long-run residual must itself reject a unit root
        ds = generate(CointegratedPair(T=400, seed=13, beta=3.0,
                                       adjustment=-0.6))
        y, x = ds["Y"].values, ds["X"].values
        static = oracle_ols(y, {"C": np.ones(len(y)), "X": x})
        resid = static["residuals"]
        res = adf_test(make_series(resid), Deterministic.NONE)
        assert res.verdict_at[0.05] == "stationary"


class TestReparameterization:
    @pytest.mark.parametrize("p,q", [(1, 0), (1, 1), (2, 1), (3, 2)])
    def test_residuals_and_feedback_identity(self, p, q, rng):
        n = 120
        x = np.cumsum(rng.normal(size=n))
        y = np.cumsum(rng.normal(size=n)) + 0.5 * x
        ds = make_dataset({"Y": y, "X": x}, "Y")
        spec = ArdlSpec("Y", ("X",), p=p, q={"X": q})
        ecm_fit = estimate_ardl(ds, spec).levels_fit
        lev_fit = estimate_levels(ds, spec)
        assert np.max(np.abs(ecm_fit.residuals - lev_fit.residuals)) < 1e-8
        phi_sum = sum(lev_fit.coefficients[f"Y(-{i})"]
                      for i in range(1, p + 1))
        assert ecm_fit.coefficients["Y(-1)"] == pytest.approx(
            phi_sum - 1.0, abs=1e-8)


class TestLagSelection:
    def test_single_candidate(self):
        ds = noiseless_ardl10()
        spec = select_lags(ds, 1, 0, "SBC")
        assert (spec.p, spec.q["X"]) == (1, 0)

    def test_recovers_generating_order(self):
        ds = generate(ArdlProcess(T=400, seed=11, phi=(0.5,), theta=(1.0,),
                                  const=2.0))
        spec = select_lags(ds, 4, 4, "SBC")
        assert (spec.p, spec.q["X"]) == (1, 0)

    def test_criterion_validated(self):
        with pytest.raises(InvalidParameters):
            select_lags(noiseless_ardl10(), 2, 2, "HQC")


def _common_sample_fit(ds, spec, max_p, max_q):
    """ols fit of spec's error-correction form on the sample of the
    largest lags."""
    values = _aligned_values(ds, (spec.dependent, *spec.regressors))
    return ols(*_ecm_design(values, spec, max(max_p, max_q, 1)))


def _oracle_select_lags(ds, max_p, max_q, criterion, det):
    """The (p, q) search by one ols fit per candidate, in grid order."""
    regressors = ds.regressors
    best = None
    for p in range(1, max_p + 1):
        for qs in itertools.product(range(max_q + 1),
                                    repeat=len(regressors)):
            spec = ArdlSpec(ds.dependent, regressors, p,
                            dict(zip(regressors, qs)), det)
            fit = _common_sample_fit(ds, spec, max_p, max_q)
            crit = fit.aic if criterion == "AIC" else fit.sbc
            key = (p + sum(qs), p, qs)
            if best is None or crit < best[0] - 1e-9 or (
                abs(crit - best[0]) <= 1e-9 and key < best[1]
            ):
                best = (crit, key, spec)
    return best[2]


def _chosen(search, ds, max_p, max_q, criterion, det):
    """(p, q vector) of the search's choice, or the ardlkit error type."""
    try:
        spec = search(ds, max_p, max_q, criterion, det)
    except ArdlkitError as exc:
        return type(exc)
    return spec.p, tuple(spec.q[x] for x in spec.regressors)


def _select_lags(ds, max_p, max_q, criterion, det):
    return select_lags(ds, max_p, max_q, criterion, det=det)


def _exact(fit):
    # the exact-fit rule of wald_f_test
    return fit.rss <= 1e-13 * max(float(fit.y @ fit.y), 1.0)


def _series(kind, T, seed):
    if kind == "pair":
        return generate(CointegratedPair(T=T, seed=seed))
    if kind == "ardl":
        return generate(ArdlProcess(T=T, seed=seed, theta=(1.0, 0.5)))
    pair = generate(CointegratedPair(T=T, seed=seed))
    w = generate(Ar1(T=T, seed=derive_seed(seed, 1)))["Y"].values
    return make_dataset({"Y": pair["Y"].values, "X": pair["X"].values,
                         "W": w}, "Y")


def _degenerate(shape):
    T = 60
    t = np.arange(T, dtype=np.float64)
    rng = np.random.default_rng(5)
    y, x = np.cumsum(rng.normal(size=T)), np.cumsum(rng.normal(size=T))
    cols = {
        "x-constant": {"Y": y, "X": np.full(T, 3.0)},
        "x-equals-y": {"Y": y, "X": y.copy()},
        "x-is-lagged-y": {"Y": y, "X": np.r_[0.0, y[:-1]]},
        "x-affine-in-y": {"Y": y, "X": 2.0 * y + 1.0},
        "x-trend": {"Y": y, "X": 1.0 + 0.5 * t},
        "x-quadratic": {"Y": y, "X": 1.0 + 0.1 * t + 0.02 * t ** 2},
        "x-alternating": {"Y": y, "X": (-1.0) ** t},
        "x-period3": {"Y": y, "X": np.tile([1.0, 4.0, -2.0], T // 3)},
        "y-quadratic": {"Y": 1.0 + 0.1 * t + 0.02 * t ** 2, "X": x},
        "duplicate": {"Y": y, "X": x, "Z": 2.0 * x},
        "short": {"Y": y[:8], "X": x[:8]},
        "four-rows": {"Y": y[:4], "X": x[:4]},
    }[shape]
    return make_dataset(cols, "Y")


class TestLagSelectionOracle:
    """The one-factorization (p, q) search against a fit per candidate."""

    @pytest.mark.parametrize("criterion", ["AIC", "SBC"])
    @pytest.mark.parametrize("det", [Deterministic.CONSTANT,
                                     Deterministic.CONSTANT_TREND])
    @given(kind=st.sampled_from(["pair", "ardl", "two"]),
           max_p=st.integers(1, 4), max_q=st.integers(0, 4),
           T=st.integers(20, 300), seed=st.integers(0, 2**32 - 1))
    @example(kind="two", max_p=4, max_q=4, T=20, seed=1)
    @settings(max_examples=30, deadline=None)
    def test_same_choice_or_error(self, det, criterion, kind, max_p, max_q,
                                  T, seed):
        # T near 20 leaves too few rows for the largest lags and two
        # regressors: both searches raise SampleTooShort there
        ds = _series(kind, T, seed)
        assert _chosen(_select_lags, ds, max_p, max_q, criterion, det) == \
            _chosen(_oracle_select_lags, ds, max_p, max_q, criterion, det)

    @pytest.mark.parametrize("criterion", ["AIC", "SBC"])
    @pytest.mark.parametrize("det", [Deterministic.CONSTANT,
                                     Deterministic.CONSTANT_TREND])
    @pytest.mark.parametrize("shape", [
        "x-constant", "x-equals-y", "x-is-lagged-y", "x-affine-in-y",
        "x-trend", "x-quadratic", "x-alternating", "x-period3",
        "y-quadratic", "duplicate", "short", "four-rows"])
    def test_degenerate_inputs(self, shape, det, criterion):
        ds = _degenerate(shape)
        for max_p, max_q in [(1, 0), (2, 0), (1, 1), (1, 2), (2, 1),
                             (2, 2), (3, 1), (4, 4)]:
            got = _chosen(_select_lags, ds, max_p, max_q, criterion, det)
            want = _chosen(_oracle_select_lags, ds, max_p, max_q, criterion,
                           det)
            if got == want:
                continue
            # only where exact fits tie up to rounding may the choices
            # differ, and then the chosen candidate fits exactly too
            assert isinstance(got, tuple) and isinstance(want, tuple)
            for p, qs in (got, want):
                spec = ArdlSpec("Y", ds.regressors, p,
                                dict(zip(ds.regressors, qs)), det)
                assert _exact(_common_sample_fit(ds, spec, max_p, max_q))

    @pytest.mark.parametrize("scores, chosen", [
        ({}, (1, (0, 0))),
        # within 1e-9 of the best is a tie, which the smaller model wins
        ({(1, (0, 0)): 0.0, (2, (1, 1)): -5e-10}, (1, (0, 0))),
        ({(1, (0, 0)): 0.0, (2, (1, 1)): -2e-9}, (2, (1, 1))),
        # then the smaller total lag count, before the smaller p
        ({(2, (0, 0)): 0.0, (1, (1, 1)): -5e-10}, (2, (0, 0))),
        # then the smaller p
        ({(2, (1, 0)): 0.0, (1, (1, 1)): 5e-10}, (1, (1, 1))),
        # then the q vector
        ({(1, (1, 0)): 0.0, (1, (0, 1)): 5e-10}, (1, (0, 1))),
    ])
    def test_tie_rule(self, monkeypatch, scores, chosen):
        # the criteria of every ARDL(p, q1, q2) with p <= 2, q <= 1; a
        # candidate missing from ``scores`` scores 0.0 when scores is
        # empty and 1.0 otherwise
        grid = list(itertools.product(range(2), repeat=2))

        def scorer(y, X, orderings):
            assert len(orderings) == len(grid)
            out = []
            for qs, S in zip(grid, orderings):
                crits = [(9.0, 9.0)] * (len(S) + 1)
                for p in (1, 2):
                    c = scores.get((p, qs), 1.0 if scores else 0.0)
                    crits[len(S) - 2 + p] = (c, c)
                out.append(crits)
            return out

        monkeypatch.setattr(ardlkit.ardl, "subset_criteria", scorer)
        ds = _series("two", 60, 3)
        for criterion in ("AIC", "SBC"):
            spec = select_lags(ds, 2, 1, criterion)
            assert (spec.p, (spec.q["X"], spec.q["W"])) == chosen


class TestBounds:
    def test_published_f_values_reject(self):
        # the decision rule must classify these F statistics as
        # cointegrated against the case III, k=1 5% band (4.94, 5.73)
        for f in (45.5515, 16.8296):
            assert bounds_decision(f, "III", 1, 0.05).decision == "cointegrated"

    def test_between_bounds_inconclusive(self):
        mid = (4.94 + 5.73) / 2.0
        assert bounds_decision(mid, "III", 1, 0.05).decision == "inconclusive"

    def test_below_lower_not_cointegrated(self):
        assert bounds_decision(1.0, "III", 1, 0.05).decision == \
            "not_cointegrated"

    def test_decision_monotone_in_f(self):
        order = {"not_cointegrated": 0, "inconclusive": 1, "cointegrated": 2}
        decisions = [order[bounds_decision(f, "III", 1, 0.05).decision]
                     for f in np.linspace(0.5, 9.0, 40)]
        assert decisions == sorted(decisions)

    def test_case_ii_restricts_constant(self):
        ds = generate(CointegratedPair(T=300, seed=29))
        m = estimate_ardl(ds, SPEC11)
        res = bounds_test(m, case="II")
        assert "C" in res.restricted
        assert res.case == "II"

    def test_model_fixture_cointegrated(self):
        ds = generate(CointegratedPair(T=400, seed=13, beta=3.0,
                                       adjustment=-0.6))
        res = bounds_test(estimate_ardl(ds, SPEC11))
        assert res.decision == "cointegrated"
        assert res.k == 1
        assert res.bounds[0.05] == (4.94, 5.73)

    def test_trend_spec_refused(self):
        ds = noiseless_ardl10()
        spec = ArdlSpec("Y", ("X",), p=1, q={"X": 0},
                        det=Deterministic.CONSTANT_TREND)
        m = estimate_ardl(ds, spec)
        with pytest.raises(InvalidParameters):
            bounds_test(m)

    def test_unknown_case_refused(self):
        ds = noiseless_ardl10()
        with pytest.raises(InvalidParameters):
            bounds_test(estimate_ardl(ds, SPEC10), case="IV")


class TestLongRun:
    def test_closed_form(self):
        m = estimate_ardl(noiseless_ardl10(), SPEC10)
        lr = long_run(m)
        assert lr.values["X"] == pytest.approx(2.0, abs=1e-12)
        assert lr.values["C"] == pytest.approx(4.0, abs=1e-10)

    def test_degenerate_adjustment(self):
        # unit-root dependent with no feedback: y_t = 2 + y_{t-1} + x_t
        rng = np.random.default_rng(3)
        x = rng.normal(size=60)
        y = np.empty(60)
        y[0] = x[0]
        for t in range(1, 60):
            y[t] = 2.0 + y[t - 1] + x[t]
        m = estimate_ardl(make_dataset({"Y": y, "X": x}, "Y"), SPEC10)
        with pytest.raises(DegenerateAdjustment):
            long_run(m)

    def test_scale_invariance(self):
        ds = generate(CointegratedPair(T=300, seed=37))
        m = estimate_ardl(ds, SPEC11)
        lr = long_run(m)
        scaled = make_dataset({"Y": ds["Y"].values,
                               "X": 10.0 * ds["X"].values}, "Y")
        lr10 = long_run(estimate_ardl(scaled, SPEC11))
        assert lr10.values["X"] == pytest.approx(lr.values["X"] / 10.0,
                                                 rel=1e-8)
        assert lr10.t_stats["X"] == pytest.approx(lr.t_stats["X"], rel=1e-8)

    def test_delta_method_errors_positive(self):
        ds = generate(CointegratedPair(T=300, seed=41))
        lr = long_run(estimate_ardl(ds, SPEC11))
        assert all(se > 0.0 for se in lr.std_errors.values())


class TestEcm:
    def test_noiseless_loading(self):
        m = estimate_ardl(noiseless_ardl10(), SPEC10)
        ecm = estimate_ecm(m)
        assert ecm.ecm_coefficient == pytest.approx(-0.5, abs=1e-10)
        assert ecm.adjustment_gap < 1e-6
        assert not ecm.non_negative_loading

    def test_one_step_identity_on_noisy_data(self):
        ds = generate(CointegratedPair(T=400, seed=13))
        m = estimate_ardl(ds, SPEC11)
        ecm = estimate_ecm(m)
        assert ecm.adjustment_gap < 1e-8
        assert ecm.ecm_coefficient == pytest.approx(
            m.adjustment_coefficient, abs=1e-8)

    def test_recovery_near_generating_speed(self):
        ds = generate(CointegratedPair(T=400, seed=13, beta=3.0,
                                       adjustment=-0.6))
        ecm = estimate_ecm(estimate_ardl(ds, SPEC11))
        assert abs(ecm.ecm_coefficient - (-0.6)) < 0.15
        assert ecm.speed_of_adjustment_pct == pytest.approx(
            abs(ecm.ecm_coefficient) * 100.0)

    @pytest.mark.parametrize("det", [Deterministic.CONSTANT,
                                     Deterministic.CONSTANT_TREND])
    @pytest.mark.parametrize("q", [0, 1, 2, 3])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_two_step_loading_is_one_step_feedback(self, p, q, det):
        ds = generate(CointegratedPair(T=300, seed=53))
        m = estimate_ardl(ds, ArdlSpec("Y", ("X",), p=p, q={"X": q},
                                       det=det))
        ecm = estimate_ecm(m)
        assert ecm.adjustment_gap <= 1e-12
        # q = 0: the regressor enters through its current level, so it
        # has no difference terms
        assert {n for n in ecm.short_run if n.startswith("DX")} == (
            {"DX"} | {f"DX(-{i})" for i in range(1, q)} if q else set())

    def test_short_run_block_names(self):
        ds = generate(CointegratedPair(T=300, seed=43))
        spec = ArdlSpec("Y", ("X",), p=2, q={"X": 2})
        ecm = estimate_ecm(estimate_ardl(ds, spec))
        assert set(ecm.short_run) == {"DY(-1)", "DX", "DX(-1)"}
        assert "ECM(-1)" in ecm.fit.coefficients

    def test_negative_loading_share(self):
        hits = 0
        for r in range(50):
            ds = generate(CointegratedPair(T=400, seed=derive_seed(77, r)))
            ecm = estimate_ecm(estimate_ardl(ds, SPEC11))
            hits += ecm.ecm_coefficient < 0.0
        assert hits == 50


class TestBoundsSize:
    def test_independent_walks_mostly_not_cointegrated(self):
        reps = 500
        not_coint = 0
        for r in range(reps):
            a = generate(RandomWalk(T=400, seed=derive_seed(17, 2 * r)))
            b = generate(RandomWalk(T=400, seed=derive_seed(17, 2 * r + 1)))
            ds = make_dataset({"Y": a["Y"].values, "X": b["Y"].values}, "Y")
            res = bounds_test(estimate_ardl(ds, SPEC11))
            not_coint += res.decision == "not_cointegrated"
        assert not_coint / reps >= 0.90
