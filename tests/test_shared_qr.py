"""The bounds F, Breusch-Godfrey, Breusch-Pagan and RESET statistics read
from the fitted model's own QR, pinned against the auxiliary and
restricted ``ols`` refits they replace.

The ``oracle_*`` functions below are those refits, kept here as test
oracles only. Every statistic and p-value must match its oracle to
1e-10 max(|oracle|, 1), over the whole grid: n from 30 to 400, k from 2
to 10, designs with a constant, with a constant and a trend and without
a constant, BG lags 1 to 4, RESET powers {2}, {2, 3} and {2, 3, 4}, and
bounds cases II and III on fitted ARDL models. The degenerate inputs
raise the oracle's error.

Where a statistic and its refit differ by more, the refit's rounding is
at fault, and the statistic must be no farther than the refit from the
exact value, computed in rational arithmetic on the same float inputs.
The grid has two such cells. RESET with powers {2, 3, 4} at n = 30,
k = 2: [X | powers] has condition number 4e8, and the refit's F is
9e-9 from the exact value, against 3.7e-9 here. A Wald F of 2e-6 at
n = 150, k = 5: the refit's RSS_r - RSS_u cancels, and its p-value is
1.3e-10 off, against 9e-14 here.

Where the rules can differ: a block column that ``ols`` would test for
collinearity inside the pivoted QR of [X | block] is tested here by its
distance from the span of X and the block's earlier columns, against the
same RANK_RTOL of the largest column norm of [X | block]. The two agree
except for a column within rounding of that edge, and when both raise
they may name different columns.
"""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special

import ardlkit.linreg as linreg
from ardlkit import (
    ArdlSpec,
    DesignMatrix,
    bounds_test,
    breusch_godfrey,
    breusch_pagan,
    estimate_ardl,
    ols,
    ramsey_reset,
    wald_f_test,
)
from ardlkit.errors import (
    ConstantFitted,
    DegenerateRestriction,
    DimensionMismatch,
    PerfectFitDegenerate,
    RankDeficient,
    SampleTooShort,
)
from ardlkit.linreg import appended_effects

from conftest import make_dataset

RTOL = 1e-10


# --- the refits, as oracles --------------------------------------------------

def oracle_wald(rr, restricted):
    """(F, p) of H0: the named coefficients are zero, by refitting the
    restricted model."""
    restricted = tuple(restricted)
    if rr.fits_exactly:
        raise PerfectFitDegenerate("unrestricted model fits exactly")
    remaining = [nm for nm in rr.design.names if nm not in restricted]
    if remaining:
        try:
            rss_r = ols(rr.y, rr.design.drop(restricted)).rss
        except RankDeficient as exc:
            raise DegenerateRestriction(str(exc)) from exc
    else:
        rss_r = float(rr.y @ rr.y)
    q, df = len(restricted), rr.n - rr.k
    f_stat = max(rss_r - rr.rss, 0.0) / q / (rr.rss / df)
    return f_stat, float(special.fdtrc(q, df, f_stat))


def oracle_bg(rr, X, lags):
    e = rr.residuals
    n = e.shape[0]
    if n <= X.k + lags + 1:
        raise SampleTooShort("short")
    cols = {name: X.column(name) for name in X.names}
    for j in range(1, lags + 1):
        lagged = np.zeros(n)
        lagged[j:] = e[:-j]
        cols[f"RESID(-{j})"] = lagged
    lm = n * ols(e, DesignMatrix.from_columns(cols)).r_squared
    return lm, float(special.chdtrc(lags, lm))


def oracle_bp(rr, X):
    df = X.k - 1 if X.has_constant() else X.k
    e2 = rr.residuals ** 2
    lm = len(e2) * ols(e2, X).r_squared
    return lm, float(special.chdtrc(df, lm))


def oracle_reset(rr, X, powers):
    fitted = rr.fitted
    scale = float(np.max(np.abs(fitted)))
    if scale == 0.0 or float(fitted.max() - fitted.min()) <= 1e-12 * scale:
        raise ConstantFitted("fitted values are constant")
    if rr.rss <= 1e-13 * max(float(rr.y @ rr.y), 1.0):
        raise PerfectFitDegenerate("zero residual variance")
    cols = {name: X.column(name) for name in X.names}
    added = []
    for pwr in sorted(set(powers)):
        cols[f"FITTED^{pwr}"] = (fitted / scale) ** pwr
        added.append(f"FITTED^{pwr}")
    return oracle_wald(ols(rr.y, DesignMatrix.from_columns(cols)), added)


# --- exact values of the same statistics -------------------------------------

def _exact_rss(y, X):
    """RSS of y on the columns of X in exact rational arithmetic on the
    float inputs: y'y - c'b with X'X b = c = X'y solved exactly."""
    cols = [[Fraction(v) for v in col] for col in np.asarray(X).T.tolist()]
    y = [Fraction(v) for v in y]
    k = len(cols)
    c = [sum(a * b for a, b in zip(col, y)) for col in cols]
    G = [[sum(a * b for a, b in zip(cols[i], cols[j])) for j in range(k)]
         + [c[i]] for i in range(k)]
    for i in range(k):
        pivot = next(r for r in range(i, k) if G[r][i] != 0)
        G[i], G[pivot] = G[pivot], G[i]
        for r in range(k):
            if r != i and G[r][i] != 0:
                f = G[r][i] / G[i][i]
                G[r] = [a - f * b for a, b in zip(G[r], G[i])]
    return (sum(v * v for v in y)
            - sum(c[i] * G[i][k] / G[i][i] for i in range(k)))


def _exact_tss(y, centred):
    y = [Fraction(v) for v in y]
    mean = sum(y) / len(y) if centred else 0
    return sum((v - mean) ** 2 for v in y)


def _lag_block(e, lags):
    block = np.zeros((e.shape[0], lags))
    for j in range(1, lags + 1):
        block[j:, j - 1] = e[:-j]
    return block


def exact_wald(rr, restricted):
    keep = [j for j, nm in enumerate(rr.design.names) if nm not in restricted]
    rss_u = _exact_rss(rr.y, rr.design.matrix)
    rss_r = (_exact_rss(rr.y, rr.design.matrix[:, keep]) if keep
             else _exact_tss(rr.y, False))
    q, df = len(restricted), rr.n - rr.k
    f_stat = float((rss_r - rss_u) / q / (rss_u / df))
    return f_stat, float(special.fdtrc(q, df, f_stat))


def exact_bg(rr, X, lags):
    e = rr.residuals
    design = np.column_stack([X.matrix, _lag_block(e, lags)])
    lm = float(len(e) * (1 - _exact_rss(e, design)
                         / _exact_tss(e, X.has_constant())))
    return lm, float(special.chdtrc(lags, lm))


def exact_bp(rr, X):
    e2 = rr.residuals ** 2
    lm = float(len(e2) * (1 - _exact_rss(e2, X.matrix)
                          / _exact_tss(e2, X.has_constant())))
    return lm, float(special.chdtrc(X.k - 1 if X.has_constant() else X.k, lm))


def exact_reset(rr, X, powers):
    f_scaled = rr.fitted / np.max(np.abs(rr.fitted))
    block = np.column_stack([f_scaled ** p for p in powers])
    rss_aug = _exact_rss(rr.y, np.column_stack([X.matrix, block]))
    rss_r = _exact_rss(rr.y, X.matrix)
    q, df = len(powers), rr.n - X.k - len(powers)
    f_stat = float((rss_r - rss_aug) / q / (rss_aug / df))
    return f_stat, float(special.fdtrc(q, df, f_stat))


def assert_matches(result, oracle, exact):
    """The statistic and p-value of ``result`` within RTOL max(|oracle|, 1)
    of the refit's. Where they differ by more, the refit's own rounding
    is at fault: ``result`` must then be no farther than the refit from
    the exact value (``exact()``, rational arithmetic on the same float
    inputs), or within RTOL of it."""
    for i, (new, old) in enumerate(zip((result.statistic, result.p_value),
                                       oracle)):
        if old is None:
            assert new is None
        elif abs(new - old) > RTOL * max(abs(old), 1.0):
            true = exact()[i]
            assert abs(new - true) <= max(abs(old - true),
                                          RTOL * max(abs(true), 1.0))


# --- the grid ----------------------------------------------------------------

GRID_N = (30, 45, 80, 150, 400)
GRID_K = (2, 3, 5, 7, 10)
DETS = ("constant", "constant_trend", "none")


def grid_fit(n, k, det):
    """A fit of k columns (deterministic ones included) on n rows, with
    serially correlated, heteroscedastic errors and a quadratic term, so
    that no statistic is trivially zero."""
    rng = np.random.default_rng([n, k, DETS.index(det)])
    cols = {}
    if det != "none":
        cols["C"] = np.ones(n)
    if det == "constant_trend":
        cols["TREND"] = np.arange(1.0, n + 1.0)
    j = 0
    while len(cols) < k:
        kind = j % 3
        if kind == 0:
            v = rng.normal(size=n)
        elif kind == 1:
            v = np.cumsum(rng.normal(size=n))
        else:
            v = 10.0 ** rng.uniform(-2, 2) * rng.normal(size=n) + 3.0
        cols[f"X{j}"] = v
        j += 1
    X = DesignMatrix.from_columns(cols)
    u = np.zeros(n)
    eps = rng.normal(size=n)
    for t in range(n):
        u[t] = 0.4 * (u[t - 1] if t else 0.0) + eps[t]
    lead = X.matrix[:, -1]
    y = (X.matrix @ rng.normal(size=k) + 0.05 * lead ** 2
         + u * (1.0 + 0.5 * np.abs(lead) / (np.abs(lead).max() + 1e-300)))
    return ols(y, X)


def explicit_copy(X):
    """X as a new DesignMatrix, columns reversed: the same span, not the
    fit's own design object."""
    return DesignMatrix(X.names[::-1], X.matrix[:, ::-1])


GRID = [pytest.param(n, k, det, id=f"n{n}-k{k}-{det}")
        for n in GRID_N for k in GRID_K for det in DETS]


@pytest.mark.parametrize("n, k, det", GRID)
class TestMatchesTheRefits:
    def test_breusch_godfrey(self, n, k, det):
        rr = grid_fit(n, k, det)
        for X in (rr.design, explicit_copy(rr.design)):
            for lags in (1, 2, 3, 4):
                assert_matches(breusch_godfrey(rr, X, lags),
                               oracle_bg(rr, X, lags),
                               lambda: exact_bg(rr, X, lags))

    def test_breusch_pagan(self, n, k, det):
        rr = grid_fit(n, k, det)
        for X in (rr.design, explicit_copy(rr.design)):
            assert_matches(breusch_pagan(rr, X), oracle_bp(rr, X),
                           lambda: exact_bp(rr, X))

    def test_ramsey_reset(self, n, k, det):
        rr = grid_fit(n, k, det)
        for X in (rr.design, explicit_copy(rr.design)):
            for powers in ((2,), (2, 3), (2, 3, 4)):
                assert_matches(ramsey_reset(rr, X, powers),
                               oracle_reset(rr, X, powers),
                               lambda: exact_reset(rr, X, powers))

    def test_wald_f(self, n, k, det):
        rr = grid_fit(n, k, det)
        names = rr.design.names
        rng = np.random.default_rng([n, k, 7])
        subsets = [names, names[-1:], names[:1]]
        subsets += [tuple(rng.choice(names, size=rng.integers(1, k),
                                     replace=False)) for _ in range(4)]
        for restricted in subsets:
            assert_matches(wald_f_test(rr, restricted),
                           oracle_wald(rr, restricted),
                           lambda: exact_wald(rr, restricted))


ARDL_GRID = [pytest.param(n, p, q, case, id=f"n{n}-p{p}-q{q}-{case}")
             for n in (30, 60, 150, 400) for p in (1, 2, 3)
             for q in ((0,), (1,), (2,), (1, 0), (2, 1))
             for case in ("II", "III")]


def ardl_model(n, p, q):
    """ARDL(p, q) fitted on a simulated cointegrated system of
    len(q) regressors, n observations."""
    rng = np.random.default_rng([n, p, len(q), sum(q)])
    xs = {f"X{i}": np.cumsum(rng.normal(size=n)) for i in range(len(q))}
    y = np.zeros(n)
    eps = rng.normal(size=n)
    level = sum(xs.values())
    for t in range(1, n):
        y[t] = y[t - 1] - 0.3 * (y[t - 1] - level[t - 1]) + eps[t]
    ds = make_dataset({"Y": y, **xs}, "Y")
    spec = ArdlSpec("Y", tuple(xs), p, dict(zip(xs, q)))
    return estimate_ardl(ds, spec)


@pytest.mark.parametrize("n, p, q, case", ARDL_GRID)
def test_bounds_f_and_battery_on_ardl_models_match_the_refits(n, p, q, case):
    m = ardl_model(n, p, q)
    rr, X = m.levels_fit, m.levels_fit.design
    bounds = bounds_test(m, case)
    assert_matches(SimpleNamespace(statistic=bounds.f_statistic,
                                   p_value=None),
                   (oracle_wald(rr, bounds.restricted)[0], None),
                   lambda: exact_wald(rr, bounds.restricted))
    assert_matches(breusch_godfrey(rr, X, 2), oracle_bg(rr, X, 2),
                   lambda: exact_bg(rr, X, 2))
    assert_matches(breusch_pagan(rr, X), oracle_bp(rr, X),
                   lambda: exact_bp(rr, X))
    assert_matches(ramsey_reset(rr, X, (2, 3)), oracle_reset(rr, X, (2, 3)),
                   lambda: exact_reset(rr, X, (2, 3)))


# --- degenerate inputs -------------------------------------------------------
# Each case returns (the new test, its oracle) as two calls.

def _fit(y, **cols):
    return ols(np.asarray(y, dtype=np.float64), DesignMatrix.from_columns(
        {k: np.asarray(v, dtype=np.float64) for k, v in cols.items()}))


def _nan_design(rr):
    m = rr.design.matrix.copy()
    m[4, -1] = math.nan
    return DesignMatrix(rr.design.names, m)


def reset_powers_in_the_span_of_x(monkeypatch):
    # fitted values a + b D of a 0/1 dummy D: their square lies in the
    # span of [C, D]
    rng = np.random.default_rng(3)
    d = (rng.uniform(size=40) < 0.5).astype(float)
    rr = _fit(1.0 + 2.0 * d + rng.normal(size=40), C=np.ones(40), D=d)
    return (lambda: ramsey_reset(rr),
            lambda: oracle_reset(rr, rr.design, (2,)))


def bg_lag_in_an_explicit_x(monkeypatch):
    rr = grid_fit(60, 3, "constant")
    lag = np.zeros(60)
    lag[1:] = rr.residuals[:-1]
    X = DesignMatrix((*rr.design.names, "L"),
                     np.column_stack([rr.design.matrix, lag]))
    return (lambda: breusch_godfrey(rr, X, 1),
            lambda: oracle_bg(rr, X, 1))


def bg_on_an_exact_fit(monkeypatch):
    # the lagged residuals are rounding noise
    x = np.arange(1.0, 31.0)
    rr = _fit(3.0 + 2.0 * x, C=np.ones(30), X=x)
    return (lambda: breusch_godfrey(rr, lags=2),
            lambda: oracle_bg(rr, rr.design, 2))


def wald_remaining_columns_collinear(monkeypatch):
    # X2 = X1 + 1e-13 noise fails the rank check; the fit is made with
    # the check switched off, as a result whose restricted model cannot
    # be estimated
    rng = np.random.default_rng(5)
    x = rng.normal(size=50)
    with monkeypatch.context() as m:
        m.setattr(linreg, "_check_rank", lambda *args: None)
        rr = _fit(rng.normal(size=50), C=np.ones(50), X1=x,
                  X2=x + 1e-13 * rng.normal(size=50), Z=rng.normal(size=50))
    return (lambda: wald_f_test(rr, ["Z"]),
            lambda: oracle_wald(rr, ["Z"]))


def wald_exact_fit(monkeypatch):
    x = np.arange(1.0, 31.0)
    rr = _fit(3.0 + 2.0 * x, C=np.ones(30), X=x)
    return (lambda: wald_f_test(rr, ["X"]),
            lambda: oracle_wald(rr, ["X"]))


def reset_exact_fit(monkeypatch):
    x = np.arange(1.0, 31.0)
    rr = _fit(3.0 + 2.0 * x, C=np.ones(30), X=x)
    return (lambda: ramsey_reset(rr),
            lambda: oracle_reset(rr, rr.design, (2,)))


def reset_augmented_fit_exact(monkeypatch):
    # y = x^2 is fit exactly once the square of the fitted values is added
    x = np.linspace(1.0, 3.0, 30)
    rr = _fit(x ** 2, C=np.ones(30), X=x)
    return (lambda: ramsey_reset(rr),
            lambda: oracle_reset(rr, rr.design, (2,)))


def reset_constant_fitted(monkeypatch):
    rr = _fit(np.random.default_rng(8).normal(size=30) + 5.0, C=np.ones(30))
    return (lambda: ramsey_reset(rr),
            lambda: oracle_reset(rr, rr.design, (2,)))


def reset_sample_too_short(monkeypatch):
    t = np.arange(6.0)
    rr = _fit(t ** 3, C=np.ones(6), X=t, W=np.sin(t))
    return (lambda: ramsey_reset(rr, powers=(2, 3, 4)),
            lambda: oracle_reset(rr, rr.design, (2, 3, 4)))


def bg_sample_too_short(monkeypatch):
    rr = grid_fit(15, 10, "constant")
    return (lambda: breusch_godfrey(rr, lags=4),
            lambda: oracle_bg(rr, rr.design, 4))


def bp_rows_differ(monkeypatch):
    rr = grid_fit(40, 3, "constant")
    X = DesignMatrix(rr.design.names, rr.design.matrix[:-1])
    return (lambda: breusch_pagan(rr, X), lambda: oracle_bp(rr, X))


def bp_non_finite_x(monkeypatch):
    rr = grid_fit(40, 3, "constant")
    X = _nan_design(rr)
    return (lambda: breusch_pagan(rr, X), lambda: oracle_bp(rr, X))


def bg_non_finite_x(monkeypatch):
    rr = grid_fit(40, 3, "constant")
    X = _nan_design(rr)
    return (lambda: breusch_godfrey(rr, X), lambda: oracle_bg(rr, X, 1))


def reset_non_finite_x(monkeypatch):
    rr = grid_fit(40, 3, "constant")
    X = _nan_design(rr)
    return (lambda: ramsey_reset(rr, X), lambda: oracle_reset(rr, X, (2,)))


DEGENERATE = [
    (reset_powers_in_the_span_of_x, RankDeficient),
    (bg_lag_in_an_explicit_x, RankDeficient),
    (bg_on_an_exact_fit, RankDeficient),
    (wald_remaining_columns_collinear, DegenerateRestriction),
    (wald_exact_fit, PerfectFitDegenerate),
    (reset_exact_fit, PerfectFitDegenerate),
    (reset_augmented_fit_exact, PerfectFitDegenerate),
    (reset_constant_fitted, ConstantFitted),
    (reset_sample_too_short, SampleTooShort),
    (bg_sample_too_short, SampleTooShort),
    (bp_rows_differ, DimensionMismatch),
    (bp_non_finite_x, ValueError),
    (bg_non_finite_x, ValueError),
    (reset_non_finite_x, ValueError),
]


@pytest.mark.parametrize("offset, collinear", [(1e-13, True),
                                               (1e-5, False)])
def test_a_block_column_near_the_span_of_x(offset, collinear):
    # X holds the first residual lag plus offset times its norm in a
    # direction of its own. Both rules call the lag collinear at 1e-13,
    # inside RANK_RTOL, and neither does at 1e-5. In between, the
    # condition number of [X | lag] is about 1/offset, both statistics
    # carry errors near 1e-16/offset, and either may be the closer one.
    rr = grid_fit(80, 4, "constant")
    lag = _lag_block(rr.residuals, 1)[:, 0]
    noise = np.random.default_rng(9).normal(size=80)
    X = DesignMatrix((*rr.design.names, "L"), np.column_stack(
        [rr.design.matrix,
         lag + offset * np.linalg.norm(lag) / np.linalg.norm(noise) * noise]))
    if collinear:
        with pytest.raises(RankDeficient):
            oracle_bg(rr, X, 1)
        with pytest.raises(RankDeficient):
            breusch_godfrey(rr, X, 1)
    else:
        assert_matches(breusch_godfrey(rr, X, 1), oracle_bg(rr, X, 1),
                       lambda: exact_bg(rr, X, 1))


@pytest.mark.parametrize("case, error", DEGENERATE,
                         ids=[case.__name__ for case, _ in DEGENERATE])
def test_degenerate_inputs_raise_the_oracles_error(case, error, monkeypatch):
    new, oracle = case(monkeypatch)
    with pytest.raises(error):
        oracle()
    with pytest.raises(error):
        new()


def test_the_fit_keeps_its_factorization():
    rr = grid_fit(80, 5, "constant_trend")
    X = rr.design.matrix
    np.testing.assert_allclose(rr.q_factor @ rr.r_factor, X[:, rr.pivots],
                               atol=1e-12 * np.abs(X).max())
    np.testing.assert_allclose(rr.q_factor.T @ rr.q_factor, np.eye(5),
                               atol=1e-14)
    assert np.array_equal(np.triu(rr.r_factor), rr.r_factor)
    assert abs(rr.r_factor[0, 0]) == pytest.approx(
        np.linalg.norm(X, axis=0).max(), rel=1e-14)


def test_appended_effects_split_the_residual_sum_of_squares():
    # ||z||^2 is the RSS of the fit: what the block explains plus the
    # augmented fit's RSS
    rr = grid_fit(150, 4, "constant")
    block = np.column_stack([rr.fitted ** 2, np.sin(rr.fitted)])
    z = appended_effects(rr, rr.design, rr.residuals, ["A", "B"], block)
    assert z.shape == (3,)
    assert float(z @ z) == pytest.approx(rr.rss, rel=1e-12)
    aug = ols(rr.y, DesignMatrix((*rr.design.names, "A", "B"),
                                 np.column_stack([rr.design.matrix, block])))
    assert z[2] ** 2 == pytest.approx(aug.rss, rel=1e-10)
