import numpy as np
import pytest

from ardlkit import (
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
    select_lags,
)
from ardlkit.errors import (
    DegenerateAdjustment,
    InvalidParameters,
    RankDeficient,
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
