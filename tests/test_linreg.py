import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg as sla

from ardlkit import (
    DesignMatrix,
    RegressionResult,
    default_bandwidth,
    durbin_watson,
    information_criteria,
    newey_west_lrv,
    ols,
    subset_criteria,
    wald_f_test,
)
from ardlkit.errors import (
    AllZeroResiduals,
    BandwidthTooLarge,
    DimensionMismatch,
    PerfectFitDegenerate,
    RankDeficient,
    UnknownCoefficient,
)
from ardlkit.linreg import (
    _effects_triangle,
    _householder,
    _lwork,
    _q_factor,
    _short_and_long_run_variance,
    _smallest,
    _solve_upper,
    _tail_criteria,
)

from conftest import oracle_ols


def design(**cols):
    return DesignMatrix.from_columns(
        {k: np.asarray(v, dtype=np.float64) for k, v in cols.items()})


class TestOlsFixtures:
    def test_exact_line(self):
        rr = ols(np.array([2.0, 4.0, 6.0]),
                 design(C=[1, 1, 1], X=[1.0, 2.0, 3.0]))
        assert rr.coefficients["C"] == pytest.approx(0.0, abs=1e-12)
        assert rr.coefficients["X"] == pytest.approx(2.0, abs=1e-12)
        assert rr.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_only_mean(self):
        rr = ols(np.array([5.0, 5.0, 5.0, 5.0]), design(C=[1, 1, 1, 1]))
        assert rr.coefficients["C"] == pytest.approx(5.0, abs=1e-12)
        assert np.allclose(rr.residuals, 0.0, atol=1e-12)

    def test_four_point_normal_equations(self):
        # hand solution: X'X = [[4, 10], [10, 30]], X'y = [17, 51],
        # det = 20  =>  intercept 0, slope 34/20 = 1.7
        y = np.array([2.0, 3.0, 5.0, 7.0])
        cols = {"C": np.ones(4), "X": np.array([1.0, 2.0, 3.0, 4.0])}
        rr = ols(y, design(**cols))
        assert rr.coefficients["X"] == pytest.approx(17.0 / 10.0, abs=1e-12)
        assert rr.coefficients["C"] == pytest.approx(0.0, abs=1e-12)
        oracle = oracle_ols(y, cols)
        for name in cols:
            assert rr.coefficients[name] == pytest.approx(
                oracle["coefficients"][name], rel=1e-10)
            assert rr.std_errors[name] == pytest.approx(
                oracle["std_errors"][name], rel=1e-10)

    def test_matches_oracle_on_random_design(self, rng):
        y = rng.normal(size=30)
        cols = {"C": np.ones(30), "X1": rng.normal(size=30),
                "X2": rng.normal(size=30)}
        rr = ols(y, design(**cols))
        oracle = oracle_ols(y, cols)
        for name in cols:
            assert rr.coefficients[name] == pytest.approx(
                oracle["coefficients"][name], rel=1e-9)
        assert rr.r_squared == pytest.approx(oracle["r_squared"], rel=1e-9)
        assert rr.durbin_watson == pytest.approx(
            oracle["durbin_watson"], rel=1e-9)


class TestOlsInvariants:
    def test_residual_orthogonality_and_reconstruction(self, rng):
        y = rng.normal(size=50)
        X = design(C=np.ones(50), X=rng.normal(size=50),
                   Z=rng.normal(size=50))
        rr = ols(y, X)
        scale = float(np.abs(X.matrix).max() * np.abs(y).max())
        for j in range(X.k):
            assert abs(float(X.matrix[:, j] @ rr.residuals)) <= 1e-8 * scale
        assert np.allclose(rr.fitted + rr.residuals, y, rtol=1e-10)

    def test_t_stat_definition(self, rng):
        y = rng.normal(size=40)
        rr = ols(y, design(C=np.ones(40), X=rng.normal(size=40)))
        for name in rr.coefficients:
            assert rr.t_stats[name] == pytest.approx(
                rr.coefficients[name] / rr.std_errors[name], rel=1e-12)
        assert 0.0 <= rr.durbin_watson <= 4.0

    def test_idempotence(self, rng):
        y = rng.normal(size=40)
        X = design(C=np.ones(40), X=rng.normal(size=40))
        rr = ols(y, X)
        again = ols(rr.fitted, X)
        for name in rr.coefficients:
            assert again.coefficients[name] == pytest.approx(
                rr.coefficients[name], abs=1e-10)

    def test_scale_equivariance(self, rng):
        y = rng.normal(size=60) + 3.0
        X = design(C=np.ones(60), X=rng.normal(size=60))
        base = ols(y, X)
        scaled = ols(7.5 * y, X)
        for name in base.coefficients:
            assert scaled.coefficients[name] == pytest.approx(
                7.5 * base.coefficients[name], rel=1e-10)
            assert scaled.std_errors[name] == pytest.approx(
                7.5 * base.std_errors[name], rel=1e-10)
            assert scaled.t_stats[name] == pytest.approx(
                base.t_stats[name], rel=1e-10)
        assert scaled.r_squared == pytest.approx(base.r_squared, rel=1e-10)
        assert scaled.durbin_watson == pytest.approx(
            base.durbin_watson, rel=1e-10)
        assert scaled.f_statistic == pytest.approx(
            base.f_statistic, rel=1e-10)

    def test_irrelevant_orthogonal_regressor(self, rng):
        y = rng.normal(size=50)
        x = rng.normal(size=50)
        base_cols = {"C": np.ones(50), "X": x}
        rr0 = ols(y, design(**base_cols))
        # orthogonalize an extra column against y and the design
        z = rng.normal(size=50)
        basis = np.column_stack([np.ones(50), x, y])
        z = z - basis @ np.linalg.lstsq(basis, z, rcond=None)[0]
        rr1 = ols(y, design(**base_cols, Z=z))
        assert rr1.rss <= rr0.rss + 1e-10
        assert rr1.r_squared >= rr0.r_squared - 1e-10

    def test_cov_matrix_consistency(self, rng):
        y = rng.normal(size=30)
        rr = ols(y, design(C=np.ones(30), X=rng.normal(size=30)))
        assert np.allclose(rr.cov_matrix, rr.cov_matrix.T)
        assert np.allclose(np.sqrt(np.diag(rr.cov_matrix)),
                           [rr.std_errors[n] for n in rr.design.names])

    def test_rank_deficient_names_columns(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(RankDeficient) as err:
            ols(np.ones(5), design(C=np.ones(5), X=x, X2=2.0 * x))
        assert set(err.value.columns) & {"X", "X2"}

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ols(np.ones(4), design(C=np.ones(5)))

    def test_design_needs_a_column(self):
        with pytest.raises(DimensionMismatch, match="no columns"):
            DesignMatrix((), np.empty((2, 0)))
        with pytest.raises(DimensionMismatch, match="no columns"):
            design(C=np.ones(5)).drop(["C"])


N_CONST = 12
_RAMP = np.arange(1.0, N_CONST + 1.0)
_ALMOST = np.r_[np.full(N_CONST - 1, 2.5), 2.5000000001]


@pytest.mark.parametrize("columns, expected", [
    ({"C": np.ones(N_CONST)}, True),
    ({"X": _RAMP}, False),
    ({"Z": np.zeros(N_CONST), "X": _RAMP}, False),
    ({"X": _RAMP, "C": np.full(N_CONST, -3.0)}, True),
    ({"X": _RAMP, "A": _ALMOST}, False),
    ({"A": _ALMOST, "Z": np.zeros(N_CONST), "C": np.full(N_CONST, 0.5)},
     True),
    ({"N": np.r_[math.nan, np.ones(N_CONST - 1)], "X": _RAMP}, False),
], ids=["k1-constant", "k1-ramp", "zero-column", "constant-not-first",
        "equal-but-the-last-row", "constant-after-near-misses",
        "nan-first-entry"])
def test_has_constant(columns, expected):
    # a column is a constant when every entry equals its first and the
    # first is not zero: the column-by-column rule, row for row
    X = DesignMatrix.from_columns(columns)
    assert X.has_constant() is expected
    assert any(col[0] != 0.0 and np.all(col == col[0])
               for col in X.matrix.T) is expected


@pytest.mark.parametrize("zero_column", [False, True])
@pytest.mark.parametrize("level", [2.5, 0.0])
@pytest.mark.parametrize("where", ["first", "middle", "last", "absent"])
def test_has_constant_column_zero_first(where, level, zero_column):
    # the check of column 0 before the others answers as the one
    # expression over every column
    cols = [_RAMP, _ALMOST, _RAMP ** 2] + [np.zeros(N_CONST)] * zero_column
    at = {"first": 0, "middle": 2, "last": len(cols), "absent": None}[where]
    if at is not None:
        cols.insert(at, np.full(N_CONST, level))
    m = np.column_stack(cols)
    X = DesignMatrix(tuple(f"X{j}" for j in range(m.shape[1])), m)
    assert X.has_constant() is bool(
        ((m[0] != 0.0) & (m == m[0]).all(axis=0)).any())
    assert X.has_constant() is (at is not None and level != 0.0)


class TestInformationCriteria:
    def test_stated_formulas(self):
        rr = _fake_result(log_l=-100.0, k=3, n=50)
        aic, sbc = information_criteria(rr)
        assert aic == pytest.approx(206.0, abs=1e-12)
        assert sbc == pytest.approx(200.0 + 3.0 * math.log(50.0), abs=1e-10)

    def test_no_parameters_degenerate(self):
        rr = _fake_result(log_l=-42.0, k=0, n=10)
        aic, sbc = information_criteria(rr)
        assert aic == sbc == pytest.approx(84.0, abs=1e-12)

    def test_sbc_prefers_smaller_model(self):
        small = information_criteria(_fake_result(-100.0, k=2, n=50))[1]
        large = information_criteria(_fake_result(-100.0, k=3, n=50))[1]
        assert small < large


def _nested_criteria(y, X):
    """(AIC, SBC) of y on each leading block X[:, :k], k = 0..X.k: the
    identity ordering of subset_criteria."""
    return subset_criteria(y, X, [range(X.k)])[0]


class TestNestedCriteria:
    def test_each_block_scores_as_its_own_fit(self, rng):
        n = 60
        cols = {"C": np.ones(n), "X1": rng.normal(size=n),
                "X2": rng.normal(size=n), "X3": rng.normal(size=n)}
        y = 1.0 + cols["X1"] - 0.5 * cols["X3"] + rng.normal(size=n)
        scores = _nested_criteria(y, design(**cols))
        assert len(scores) == len(cols) + 1
        names = list(cols)
        for k in range(1, len(names) + 1):
            fit = ols(y, design(**{nm: cols[nm] for nm in names[:k]}))
            assert scores[k] == pytest.approx(information_criteria(fit),
                                              rel=1e-12)
        # the empty block leaves RSS = y'y
        minus_2_log_l = n * (math.log(2.0 * math.pi)
                             + math.log(float(y @ y) / n) + 1.0)
        assert scores[0] == pytest.approx((minus_2_log_l, minus_2_log_l),
                                          rel=1e-12)

    def test_collinear_design_raises_as_ols_does(self, rng):
        x = rng.normal(size=20)
        X = design(C=np.ones(20), X=x, X2=2.0 * x)
        with pytest.raises(RankDeficient):
            ols(rng.normal(size=20), X)
        with pytest.raises(RankDeficient):
            _nested_criteria(rng.normal(size=20), X)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            _nested_criteria(np.ones(4), design(C=np.ones(5)))


class TestSubsetCriteria:
    def test_each_block_of_each_ordering_scores_as_its_own_fit(self, rng):
        n = 50
        cols = {"C": np.ones(n), "X1": rng.normal(size=n),
                "X2": rng.normal(size=n), "X3": rng.normal(size=n),
                "X4": np.cumsum(rng.normal(size=n))}
        y = 1.0 + cols["X2"] + 0.3 * cols["X4"] + rng.normal(size=n)
        names = list(cols)
        orderings = [[0, 2, 1], [4, 3], [3, 1, 0, 4, 2], []]
        scores = subset_criteria(y, design(**cols), orderings)
        assert [len(s) for s in scores] == [4, 3, 6, 1]
        for S, crits in zip(orderings, scores):
            assert crits[0] == pytest.approx(scores[3][0], rel=1e-12)
            for k in range(1, len(S) + 1):
                fit = ols(y, design(**{names[j]: cols[names[j]]
                                       for j in S[:k]}))
                assert crits[k] == pytest.approx(information_criteria(fit),
                                                 rel=1e-12)

    def test_the_natural_ordering_is_nested_criteria(self, rng):
        # the nested criteria are the tail sums of one triangle, which
        # the ADF lag search reads directly
        X = design(C=np.ones(30), X1=rng.normal(size=30),
                   X2=rng.normal(size=30))
        y = rng.normal(size=30)
        (scores,) = subset_criteria(y, X, [[0, 1, 2]])
        assert scores == pytest.approx(
            _tail_criteria(_effects_triangle(y, X)[:, -1], X.n), rel=1e-12)

    def test_collinear_superset_raises_as_ols_does(self, rng):
        # the ordering leaves the duplicate out, but the superset is
        # factored, and rank-checked, as a whole
        x = rng.normal(size=20)
        X = design(C=np.ones(20), X=x, X2=2.0 * x)
        with pytest.raises(RankDeficient):
            subset_criteria(rng.normal(size=20), X, [[0, 1]])


def _adf_loop(crits):
    """The ADF lag search's own chooser before ``_smallest``: the first
    order whose criterion is more than 1e-12 below the best so far."""
    best = 0
    for k, crit in enumerate(crits):
        if crit < crits[best] - 1e-12:
            best = k
    return best


def _ardl_loop(crits, max_p, grid):
    """select_lags' own chooser before ``_smallest``, over crits[p][qs]."""
    best = None
    for p in range(1, max_p + 1):
        for qs in grid:
            crit = crits[p][qs]
            key = (p + sum(qs), p, qs)
            if best is None or crit < best[0] - 1e-9 or (
                abs(crit - best[0]) <= 1e-9 and key < best[1]
            ):
                best = (crit, key)
    return best[1]


def _tied_criteria(rng, size, tol):
    """Criteria drawn from a few levels, each moved by a few multiples of
    tol around the tie threshold; exact fits score -inf."""
    levels = rng.choice([0.0, 1.0, -40.0, -math.inf], size=size,
                        p=[0.4, 0.3, 0.2, 0.1])
    steps = rng.choice([-3.0, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5,
                        2.0, 3.0], size=size)
    return (levels + tol * steps).tolist()


class TestSmallest:
    """The one chooser against the two loops it replaced."""

    @pytest.mark.parametrize("seed", range(10))
    def test_adf_choice_is_the_old_loops(self, seed):
        rng = np.random.default_rng([25, seed])
        for _ in range(50):
            size = int(rng.integers(1, 14))
            crits = (_tied_criteria(rng, size, 1e-12) if rng.random() < 0.8
                     else rng.normal(size=size).tolist())
            assert _smallest(((c, k) for k, c in enumerate(crits)),
                             1e-12) == _adf_loop(crits)

    @pytest.mark.parametrize("seed", range(10))
    def test_ardl_choice_is_the_old_loops(self, seed):
        rng = np.random.default_rng([26, seed])
        for _ in range(30):
            max_p, max_q = int(rng.integers(1, 4)), int(rng.integers(0, 3))
            grid = list(itertools.product(range(max_q + 1),
                                          repeat=int(rng.integers(1, 3))))
            crits = {p: dict(zip(grid, _tied_criteria(rng, len(grid), 1e-9)
                                 if rng.random() < 0.8
                                 else rng.normal(size=len(grid)).tolist()))
                     for p in range(1, max_p + 1)}
            got = _smallest(((crits[p][qs], (p + sum(qs), p, qs))
                             for p in range(1, max_p + 1) for qs in grid),
                            1e-9)
            assert got == _ardl_loop(crits, max_p, grid)

    def test_a_tie_goes_to_the_smaller_key_not_the_earlier_pair(self):
        assert _smallest([(0.0, 3), (5e-10, 1), (2e-9, 0)], 1e-9) == 1
        assert _smallest([(0.0, 3), (-2e-9, 4)], 1e-9) == 4


_FITS = {
    "ols": ols,
    "nested_criteria": _nested_criteria,
    "subset_criteria": lambda y, X: subset_criteria(y, X, [[0, 1]]),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["X", "y"])
@pytest.mark.parametrize("name", sorted(_FITS))
def test_non_finite_input_raises_value_error(rng, name, where, bad):
    X = design(C=np.ones(20), X1=rng.normal(size=20), X2=rng.normal(size=20))
    y = rng.normal(size=20)
    if where == "X":
        matrix = X.matrix.copy()
        matrix[7, 1] = bad
        X = DesignMatrix(X.names, matrix)
    else:
        y[7] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        _FITS[name](y, X)


def assert_factors_are_scipys(X):
    k = X.shape[1]
    Q, R, piv = sla.qr(X, mode="economic", pivoting=True)
    qr, tau, kernel_piv = _householder(X, pivoting=True)
    assert np.array_equal(np.triu(qr[:k]), R)
    assert np.array_equal(kernel_piv, piv)
    assert np.array_equal(_q_factor(qr, tau), Q)
    (R,) = sla.qr(X, mode="r")
    qr, _, no_piv = _householder(X)
    assert no_piv is None
    assert np.array_equal(np.triu(qr), R)


class TestHouseholderKernel:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("k", range(1, 17))
    def test_factors_are_scipys_bit_for_bit(self, rng, k, order):
        for n in sorted({k + 1, k + 2, 2 * k + 3, 60, 199, 400}):
            assert_factors_are_scipys(np.asarray(
                rng.standard_normal((n, k))
                * 10.0 ** rng.uniform(-4.0, 4.0, k), order=order))

    @pytest.mark.parametrize("k", [129, 200])
    def test_blocked_factorization_gets_the_queried_workspace(self, rng, k):
        # past 128 columns LAPACK factors by blocks, and its bits then
        # depend on the workspace it is given
        assert_factors_are_scipys(rng.standard_normal((400, k)))

    def test_workspace_cache_stays_bounded(self):
        size = _lwork.cache_info().maxsize
        assert size is not None
        for n in range(2, size + 40):
            _householder(np.ones((n, 1)), pivoting=True)
        assert _lwork.cache_info().currsize <= size


@pytest.mark.parametrize("k", [1, 2, 5, 9, 16])
def test_triangular_solves_are_solve_triangulars(rng, k):
    # ols hands trtrs the raw factor, Householder vectors below the
    # diagonal included; trtrs reads only R, so the coefficients and
    # covariance keep the bits of solve_triangular on scipy's R
    for n in (k + 1, 40, 300):
        X = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-3, 4, k)
        Q, R, _ = sla.qr(X, mode="economic", pivoting=True)
        qr, _, _ = _householder(X, pivoting=True)
        for b in (Q.T @ rng.standard_normal(n), np.eye(k)):
            assert np.array_equal(_solve_upper(qr[:k], b),
                                  sla.solve_triangular(R, b))


@pytest.mark.parametrize("seed", range(8))
def test_subset_scores_are_those_of_numpys_qr(seed):
    # each ordering's triangle is refactored by LAPACK geqrf; numpy's qr
    # of the same triangle gives the same effects vector, bit for bit
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 12))
    n = int(rng.integers(k + 2, 300))
    X = DesignMatrix(tuple(f"X{j}" for j in range(k)),
                     rng.standard_normal((n, k))
                     * 10.0 ** rng.uniform(-4.0, 4.0, k))
    y = X.matrix @ rng.standard_normal(k) + rng.standard_normal(n)
    orderings = ([list(rng.permutation(k)[:j]) for j in range(k + 1)]
                 + [list(rng.permutation(k)) for _ in range(4)])
    R = _effects_triangle(y, X)
    assert subset_criteria(y, X, orderings) == [
        _tail_criteria(np.linalg.qr(R[:, [*S, k]], mode="r")[:, -1], n)
        for S in orderings]


def test_collinear_design_is_reported_before_a_non_finite_y(rng):
    x = rng.normal(size=20)
    y = rng.normal(size=20)
    y[3] = math.nan
    with pytest.raises(RankDeficient):
        ols(y, design(C=np.ones(20), X=x, X2=2.0 * x))


def _fake_result(log_l, k, n):
    return RegressionResult(
        coefficients={}, std_errors={}, t_stats={},
        residuals=np.zeros(n), fitted=np.zeros(n),
        r_squared=0.0, adj_r_squared=0.0, f_statistic=0.0,
        durbin_watson=2.0, log_likelihood=log_l,
        sigma2=1.0,
        cov_matrix=np.zeros((max(k, 1), max(k, 1))), n=n, k=k,
        design=DesignMatrix(("C",), np.ones((n, 1))), y=np.zeros(n),
        q_factor=np.ones((n, 1)) / math.sqrt(n),
        r_factor=np.full((1, 1), math.sqrt(n)), pivots=np.zeros(1, int),
    )


class TestWaldF:
    def test_zero_coefficient_gives_zero_f(self, rng):
        y = rng.normal(size=40)
        x = rng.normal(size=40)
        z = rng.normal(size=40)
        basis = np.column_stack([np.ones(40), x, y])
        z = z - basis @ np.linalg.lstsq(basis, z, rcond=None)[0]
        rr = ols(y, design(C=np.ones(40), X=x, Z=z))
        assert abs(rr.coefficients["Z"]) < 1e-10
        assert wald_f_test(rr, ["Z"]).statistic == pytest.approx(0.0,
                                                                 abs=1e-8)

    def test_perfect_fit_is_error_not_infinity(self):
        rr = ols(np.array([2.0, 4.0, 6.0]),
                 design(C=np.ones(3), X=[1.0, 2.0, 3.0]))
        with pytest.raises(PerfectFitDegenerate):
            wald_f_test(rr, ["X"])

    def test_four_point_f_by_hand(self):
        y = np.array([2.0, 3.0, 5.0, 7.0])
        cols = {"C": np.ones(4), "X": np.array([1.0, 2.0, 3.0, 4.0])}
        rr = ols(y, design(**cols))
        rss_u = oracle_ols(y, cols)["rss"]
        rss_r = oracle_ols(y, {"C": np.ones(4)})["rss"]
        expected = (rss_r - rss_u) / 1 / (rss_u / 2)
        result = wald_f_test(rr, ["X"])
        assert result.statistic == pytest.approx(expected, rel=1e-10)
        assert result.distribution == "F(1, 2)"
        assert result.p_value is not None

    def test_unknown_coefficient(self, rng):
        rr = ols(rng.normal(size=10), design(C=np.ones(10)))
        with pytest.raises(UnknownCoefficient):
            wald_f_test(rr, ["NOPE"])

    def test_bounds_context_has_no_pvalue(self, rng):
        # the bounds-test statistic has a nonstandard asymptotic
        # distribution, so no p-value may be attached to it
        y = rng.normal(size=30)
        rr = ols(y, design(C=np.ones(30), X=rng.normal(size=30)))
        result = wald_f_test(rr, ["X"], bounds_context=True)
        assert result.distribution == "nonstandard-tabulated"
        assert result.p_value is None
        assert result.decision_at == {}

    def test_decisions_match_pvalue(self, rng):
        y = rng.normal(size=30)
        rr = ols(y, design(C=np.ones(30), X=rng.normal(size=30)))
        result = wald_f_test(rr, ["X"])
        for alpha, decision in result.decision_at.items():
            assert decision == ("reject" if result.p_value < alpha
                                else "fail-to-reject")


class TestNeweyWest:
    def test_bandwidth_zero_is_plain_variance(self, rng):
        e = rng.normal(size=25)
        d = e - e.mean()
        assert newey_west_lrv(e, 0) == pytest.approx(float(d @ d) / 25,
                                                     rel=1e-12)

    def test_alternating_hand_value(self):
        # gamma_0 = 1, gamma_1 = -3/4, weight 1/2: lrv = 1 - 0.75 = 0.25
        assert newey_west_lrv([1.0, -1.0, 1.0, -1.0], 1) == pytest.approx(
            0.25, abs=1e-12)

    def test_iid_close_to_variance(self):
        e = np.random.default_rng(99).normal(size=20000)
        lrv = newey_west_lrv(e, default_bandwidth(len(e)))
        assert abs(lrv - e.var()) / e.var() < 0.10

    def test_bandwidth_too_large(self):
        with pytest.raises(BandwidthTooLarge):
            newey_west_lrv([1.0, 2.0], 2)

    @pytest.mark.parametrize("bandwidth", [0, 1, 4, 29])
    def test_one_pass_gives_both_variances_bit_for_bit(self, rng,
                                                       bandwidth):
        # Phillips-Perron reads gamma_0 and lambda^2 from one pass;
        # gamma_0 is the kernel's first term d'd/n
        e = rng.normal(size=30).cumsum()
        d = e - e.mean()
        assert _short_and_long_run_variance(e, bandwidth) == (
            float(d @ d) / 30, newey_west_lrv(e, bandwidth))

    def test_nonnegative(self, rng):
        for _ in range(10):
            e = rng.normal(size=30)
            assert newey_west_lrv(e, 5) >= 0.0


class TestDurbinWatson:
    def test_constant_residuals(self):
        assert durbin_watson([1.0, 1.0, 1.0, 1.0]) == pytest.approx(0.0)

    def test_alternating_hand_value(self):
        # diffs [-2, 2, -2]: sum 12 over sum of squares 4
        assert durbin_watson([1.0, -1.0, 1.0, -1.0]) == pytest.approx(3.0)

    def test_iid_near_two(self):
        e = np.random.default_rng(7).normal(size=5000)
        assert abs(durbin_watson(e) - 2.0) < 0.15

    def test_all_zero(self):
        with pytest.raises(AllZeroResiduals):
            durbin_watson([0.0, 0.0, 0.0])


@given(st.integers(10, 200))
@settings(max_examples=30, deadline=None)
def test_default_bandwidth_rule(n):
    assert default_bandwidth(n) == math.floor(4.0 * (n / 100.0) ** (2.0 / 9.0))
