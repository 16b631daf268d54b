"""Least-squares engine: OLS with full inference, nested-model
information criteria, Wald/F tests, and the Bartlett-kernel long-run
variance.

Every test in the toolkit reduces to a call into this module. Fits go
through a pivoted QR decomposition, never the raw normal equations, with
rank declared deficient below 1e-10 of the largest column norm. Every
QR goes through one kernel, ``_householder``, which calls
LAPACK's Householder QR (geqp3 with column pivoting, geqrf without,
orgqr for Q) directly, with the workspace, pivots and finiteness check
of scipy's ``qr`` and its numbers bit for bit; triangular solves
call LAPACK trtrs, and the recursive residuals add one RQ (gerqf, and
orgrq for its Q). Every factorization runs on the LAPACK that scipy
links; numpy only multiplies matrices.

A lag search needs no fit per candidate. One QR of the largest design
with the dependent gives the effects vector, whose tail sums are the
RSS of every leading column block (the sequential sums of squares of
R's ``anova.lm``); ``subset_criteria`` scores the leading blocks of
several column orderings of one superset design from that QR,
refactoring only the small triangle. Each RSS is scored by the same
AIC/SBC formulas as ``ols`` results, and ``_smallest`` is the one rule
that picks the best-scored candidate, ties included. Recursive residuals
(``prefix_residuals``) are the projections of y on the staircase basis
of X's orthogonal complement, a block of rows at a time from one QR and
one RQ.

A fit keeps its factorization (Q, R and the pivots), and the tests on
a fitted model read it instead of refitting (Frisch-Waugh-Lovell, with
columns appended to an existing QR). ``wald_f_test`` scores the
restricted model from one QR of the small triangle [R_remaining | Q'y];
``auxiliary_r_squared`` and ``appended_effects`` give the auxiliary
regressions of the residual tests, a dependent on the fit's design with
or without an added block, from Q and one QR of the block projected off
it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import linalg as sla
from scipy import special
from scipy.linalg import lapack

from .errors import (
    AllZeroResiduals,
    BandwidthTooLarge,
    DegenerateRestriction,
    DimensionMismatch,
    PerfectFitDegenerate,
    RankDeficient,
    RankDeficientPrefix,
    SampleTooShort,
    UnknownCoefficient,
)

RANK_RTOL = 1e-10
EXACT_FIT_RTOL = 1e-13
DEFAULT_LEVELS = (0.01, 0.05, 0.10)

# Rows per block in prefix_residuals. A block costs two LAPACK
# factorizations plus a fixed Python overhead, and its RQ grows as the
# cube of its rows. On 40 levels designs of 299 x 4 (one BLAS thread,
# x86-64 Xeon; median of 15 interleaved rounds) a call took 0.58 ms
# with 16-row blocks, 0.49 ms with 24, 0.48 ms with 32, 0.54 ms with 48
# and 0.60 ms with 64.
_PREFIX_BLOCK = 32

CONST_NAME = "C"
TREND_NAME = "TREND"


# The rules below check a setting for the config and the library alike,
# each raising the error type its caller documents.
def _whole_number(key: str, value, floor: int = 0, error=ValueError,
                  optional: bool = False) -> None:
    """Raise ``error`` unless value is an integer (a numpy integer is
    one; a bool, a float such as 2.0 and text are not) at least
    ``floor``, or None where the setting is ``optional``."""
    if value is None and optional:
        return
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < floor):
        raise error(f"{key} must be a whole number >= {floor}, "
                    f"got {value!r}")


def _choice(key: str, value, options, error=ValueError) -> str:
    """value upper-cased when it is text and that is one of ``options``;
    otherwise raise ``error`` naming the key and the options."""
    if isinstance(value, str) and value.upper() in options:
        return value.upper()
    *head, last = options
    raise error(f"{key} must be {', '.join(head)} or {last}, got {value!r}")


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """Named regressor columns, shape (n, k) with n > k >= 1; a matrix
    with no column is a DimensionMismatch."""

    names: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.float64)
        if mat.ndim != 2:
            raise DimensionMismatch("design matrix must be 2-dimensional")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "names", tuple(self.names))
        if len(self.names) != mat.shape[1]:
            raise DimensionMismatch(
                f"{len(self.names)} names for {mat.shape[1]} columns"
            )
        if not self.names:
            raise DimensionMismatch("design matrix has no columns")
        if len(set(self.names)) != len(self.names):
            raise ValueError("design column names must be unique")
        if mat.shape[0] <= mat.shape[1]:
            raise SampleTooShort(
                f"need n > k, got n={mat.shape[0]}, k={mat.shape[1]}"
            )

    @classmethod
    def from_columns(cls, columns: dict[str, np.ndarray]) -> "DesignMatrix":
        """The design of named column vectors. No estimator calls it; it
        stays to build a design by hand, as the tests and demo 03 do."""
        names = tuple(columns)
        mat = np.column_stack([np.asarray(columns[n], dtype=np.float64)
                               for n in names])
        return cls(names, mat)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def k(self) -> int:
        return self.matrix.shape[1]

    def column(self, name: str) -> np.ndarray:
        return self.matrix[:, self.names.index(name)]

    def drop(self, names) -> "DesignMatrix":
        keep = [i for i, n in enumerate(self.names) if n not in set(names)]
        return DesignMatrix(tuple(self.names[i] for i in keep),
                            self.matrix[:, keep])

    def has_constant(self) -> bool:
        """True when some column equals its first entry in every row and
        that entry is not zero."""
        return _has_constant(self.matrix)


def _has_constant(m: np.ndarray) -> bool:
    # every design ardlkit builds that has a constant puts it first
    if m.shape[1] and m[0, 0] != 0.0 and (m[:, 0] == m[0, 0]).all():
        return True
    return bool(((m[0] != 0.0) & (m == m[0]).all(axis=0)).any())


@dataclass(frozen=True, eq=False)
class TestStatistic:
    """A named statistic with its reference distribution and decisions.

    p_value is present exactly when the distribution is standard; a
    bounds-context Wald statistic is flagged ``nonstandard-tabulated``
    and carries neither p-value nor decisions (the bounds table owns the
    decision there).
    """

    name: str
    statistic: float
    distribution: str
    p_value: float | None
    decision_at: dict[float, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.p_value is not None:
            for alpha, decision in self.decision_at.items():
                expected = "reject" if self.p_value < alpha else "fail-to-reject"
                if decision != expected:
                    raise ValueError(
                        f"decision at {alpha} inconsistent with p-value"
                    )


def decisions_from_pvalue(p: float, levels=DEFAULT_LEVELS) -> dict[float, str]:
    return {a: ("reject" if p < a else "fail-to-reject") for a in levels}


@dataclass(frozen=True, eq=False)
class RegressionResult:
    """OLS estimates plus the full inference payload.

    sigma2 is the unbiased residual variance RSS/(n-k); the Gaussian
    log-likelihood is concentrated, i.e. evaluated at the ML variance
    RSS/n. AIC = -2 logL + 2k and SBC = -2 logL + k ln n use that
    log-likelihood, so the two variance conventions are deliberate; both
    criteria come from information_criteria.

    The fit keeps its factorization: ``design.matrix[:, pivots]`` equals
    ``q_factor @ r_factor``, with q_factor (n x k) orthonormal and
    r_factor (k x k) upper triangular. Tests on the fit read it instead
    of refitting.
    """

    coefficients: dict[str, float]
    std_errors: dict[str, float]
    t_stats: dict[str, float]
    residuals: np.ndarray
    fitted: np.ndarray
    r_squared: float
    adj_r_squared: float
    f_statistic: float
    durbin_watson: float
    log_likelihood: float
    sigma2: float
    cov_matrix: np.ndarray
    n: int
    k: int
    design: DesignMatrix
    y: np.ndarray
    q_factor: np.ndarray = field(repr=False)
    r_factor: np.ndarray = field(repr=False)
    pivots: np.ndarray = field(repr=False)

    @property
    def aic(self) -> float:
        return information_criteria(self)[0]

    @property
    def sbc(self) -> float:
        return information_criteria(self)[1]

    @property
    def rss(self) -> float:
        return float(self.residuals @ self.residuals)

    @property
    def fits_exactly(self) -> bool:
        """RSS at rounding level, at or below 1e-13 max(y'y, 1): ratios
        over this RSS (t, F) are then undefined, not large."""
        return self.rss <= EXACT_FIT_RTOL * max(float(self.y @ self.y), 1.0)

    @property
    def beta(self) -> np.ndarray:
        return np.array([self.coefficients[n] for n in self.design.names])


def ols(y, X: DesignMatrix) -> RegressionResult:
    """Fit y on X by least squares via a pivoted QR decomposition.

    Parameters
    ----------
    y : array_like, shape (n,)
        Dependent variable.
    X : DesignMatrix
        Full-column-rank design; include the constant explicitly.

    Returns
    -------
    RegressionResult

    Raises
    ------
    DimensionMismatch
        y does not match the design's row count.
    RankDeficient
        A pivoted diagonal of R falls below 1e-10 of the largest column
        norm; the error names the offending columns.
    ValueError
        X or y holds a NaN or an infinity.
    """
    y = _dependent(y, X)
    n, k = X.n, X.k

    qr, tau, piv = _householder(X.matrix, pivoting=True)
    _check_rank(qr, piv, X.names)
    # y is checked after X, so a collinear design is reported first
    y = np.asarray_chkfinite(y)
    unpiv = np.argsort(piv)

    R = _triu(qr[:k])
    Q = _q_factor(qr, tau)
    beta = _solve_upper(R, Q.T @ y)[unpiv]

    fitted = X.matrix @ beta
    residuals = y - fitted
    rss = float(residuals @ residuals)
    df = n - k
    sigma2 = rss / df

    r_inv = _solve_upper(R, np.eye(k))
    xtx_inv = (r_inv @ r_inv.T)[unpiv[:, None], unpiv]
    cov = sigma2 * xtx_inv
    cov = (cov + cov.T) / 2.0
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))

    has_const = X.has_constant()
    r2, tss = _r_squared(y, rss, has_const)
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / df if df > 0 else math.nan

    q_overall = k - 1 if has_const else k
    if q_overall >= 1:
        if rss > 0.0:
            f_stat = (max(tss - rss, 0.0) / q_overall) / (rss / df)
        else:
            f_stat = math.inf
    else:
        f_stat = math.nan

    dw = durbin_watson(residuals) if rss > 0.0 else math.nan
    log_l = _log_likelihood(rss, n)

    names, beta_f, se_f = X.names, beta.tolist(), se.tolist()
    return RegressionResult(
        coefficients=dict(zip(names, beta_f)),
        std_errors=dict(zip(names, se_f)),
        t_stats={nm: (b / s if s > 0.0 else math.nan)
                 for nm, b, s in zip(names, beta_f, se_f)},
        residuals=residuals,
        fitted=fitted,
        r_squared=r2,
        adj_r_squared=adj_r2,
        f_statistic=f_stat,
        durbin_watson=dw,
        log_likelihood=log_l,
        sigma2=sigma2,
        cov_matrix=cov,
        n=n,
        k=k,
        design=X,
        y=y,
        q_factor=Q,
        r_factor=R,
        pivots=piv,
    )


def _r_squared(y: np.ndarray, rss: float,
               has_const: bool) -> tuple[float, float]:
    """(R^2, TSS) of a fit of y with residual sum of squares rss: TSS is
    centred when the design has a constant, y'y otherwise, and R^2 is
    1 - rss/TSS clipped to [0, 1] (0 when TSS is 0)."""
    if has_const:
        ybar = y.mean()
        centered = y - ybar
        tss = float(centered @ centered)
        # a dependent that is constant relative to machine precision has
        # nothing to explain; without the guard 0/0 noise leaks into R^2
        if math.sqrt(tss / y.shape[0]) <= 1e-14 * abs(ybar):
            tss = 0.0
    else:
        tss = float(y @ y)
    if tss > 0.0:
        return min(max(1.0 - rss / tss, 0.0), 1.0), tss
    return 0.0, tss


def _dependent(y, X: DesignMatrix) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.shape[0] != X.n:
        raise DimensionMismatch(
            f"y has shape {y.shape}, design has {X.n} rows"
        )
    return y


# The optimal workspace LAPACK reports for a routine depends only on the
# matrix shape; the shapes used last are kept.
@lru_cache(maxsize=256)
def _lwork(routine: str, m: int, n: int) -> int:
    """The lwork that LAPACK's workspace query (lwork=-1) returns for
    ``routine`` on an m x n matrix, the size scipy's ``qr`` passes."""
    a = np.zeros((m, n), order="F")
    args = (a, np.zeros(min(m, n))) if routine.startswith("dorg") else (a,)
    return int(getattr(lapack, routine)(*args, lwork=-1)[-2][0])


def _lapack_info(info: int, routine: str) -> None:
    if info < 0:
        raise ValueError(
            f"illegal value in {-info}th argument of internal {routine}")


def _householder(a, pivoting: bool = False):
    """Householder QR of a, by LAPACK geqp3 (column pivoting) or geqrf.

    Returns (qr, tau, piv): the raw factor, with R on and above its
    diagonal and the Householder vectors below, their scalars, and the
    0-based column pivots (None without pivoting). R and the pivots are
    those of scipy's ``qr`` bit for bit: the same routines, the same
    workspace, and its finiteness check ("array must not contain infs or
    NaNs").
    """
    a = np.asarray_chkfinite(a)
    m, n = a.shape
    if pivoting:
        qr, piv, tau, _, info = lapack.dgeqp3(a, _lwork("dgeqp3", m, n))
        _lapack_info(info, "geqp3")
        piv -= 1
        return qr, tau, piv
    qr, tau, _, info = lapack.dgeqrf(a, _lwork("dgeqrf", m, n))
    _lapack_info(info, "geqrf")
    return qr, tau, None


def _q_factor(qr: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """The m x n orthonormal Q of a raw factor from ``_householder``
    (m >= n), by LAPACK orgqr: the economic Q of scipy's ``qr``. Only
    the first len(tau) columns of qr are read, so a factor widened with
    columns gives as many more columns of the full Q."""
    m, n = qr.shape
    q, _, info = lapack.dorgqr(qr, tau, _lwork("dorgqr", m, n))
    _lapack_info(info, "orgqr")
    return q


@lru_cache(maxsize=256)
def _below_diagonal(m: int, n: int) -> np.ndarray:
    mask = np.tri(m, n, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _triu(a: np.ndarray) -> np.ndarray:
    """np.triu(a) of a 2-d a, with its mask built once per shape."""
    return np.where(_below_diagonal(*a.shape), 0.0, a)


def _solve_upper(R: np.ndarray, b: np.ndarray) -> np.ndarray:
    """R^-1 b for the upper triangle of the square R; entries below its
    diagonal, such as the Householder vectors of a raw factor, are never
    read. LAPACK trtrs on R.T, lower and transposed: the call that
    ``sla.solve_triangular`` makes on a C-ordered triangle, without its
    input checks."""
    x, info = lapack.dtrtrs(R.T, b, lower=1, trans=1)
    if info > 0:
        raise sla.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of trtrs")
    return x


def _check_rank(qr: np.ndarray, piv: np.ndarray, names) -> None:
    """Raise RankDeficient when a diagonal of the pivoted-QR factor
    falls below RANK_RTOL of the largest; names the offending columns."""
    diag = np.abs(qr.diagonal())
    if diag[0] == 0.0:
        raise RankDeficient(names, "design is identically zero")
    deficient = np.flatnonzero(diag < RANK_RTOL * diag[0])
    if deficient.size:
        raise RankDeficient(tuple(names[piv[i]] for i in deficient))


def prefix_residuals(y, X: DesignMatrix) -> np.ndarray:
    """Recursive residuals of y on X: for t = k..n-1, the error of
    predicting y_t from the fit on rows 0..t-1, scaled by
    sqrt(1 + x_t'(X'X)^{-1}_{t-1} x_t) (Brown, Durbin & Evans 1975).

    They are w = C'y for the staircase basis C of the orthogonal
    complement of X: the one orthonormal basis whose column t lies on
    rows 0..t with a positive weight on row t. As in ``ols``, X is
    checked for finiteness, then the first k rows get its rank check,
    then y is checked. Their triangle of [X y] then takes in
    _PREFIX_BLOCK rows at a time, by two orthogonal factorizations per
    block and none per row:

    - the carried triangle T = [R z; 0 rho] is stacked over the block's
      m rows [X_B y_B], and one QR of its X part, with the full Q,
      gives the effects e = Q'[T_y; y_B];
    - the block rows of Q's null columns have the RQ factorization
      Q[r:, k:] = [0 | U] Q_rq, so the block's residuals are
      sign(diag U) (Q_rq e[k:]) over Q_rq's last m rows;
    - the next triangle is [R, e[:k]; 0, ||e[k:]||].

    Every factorization is a LAPACK Householder routine (geqrf and
    orgqr, gerqf and orgrq), and the squared w add up to the RSS of the
    full fit.

    Raises
    ------
    DimensionMismatch
        y does not match the design's row count.
    RankDeficientPrefix
        The first k rows fail the rank check of ``ols``.
    ValueError
        X or y holds a NaN or an infinity.
    """
    y = _dependent(y, X)
    n, k = X.n, X.k
    qr, _, piv = _householder(np.asarray_chkfinite(X.matrix)[:k],
                              pivoting=True)
    try:
        _check_rank(qr, piv, X.names)
    except RankDeficient as exc:
        raise RankDeficientPrefix(
            f"first {k} observations do not identify the coefficients: {exc}"
        ) from exc
    A = np.column_stack([X.matrix, np.asarray_chkfinite(y)])
    T = _triu(_householder(A[:k])[0])
    w = np.empty(n - k)
    for s in range(k, n, _PREFIX_BLOCK):
        S = np.vstack([T, A[s:s + _PREFIX_BLOCK]])
        r, m = T.shape[0], S.shape[0] - T.shape[0]
        qr, tau, _ = _householder(S[:, :k])
        full = np.empty((r + m, r + m), order="F")
        full[:, :k] = qr
        Q = _q_factor(full, tau)
        e = Q.T @ S[:, k]
        N = Q[r:, k:]
        rq, tau, _, info = lapack.dgerqf(N, _lwork("dgerqf", *N.shape))
        _lapack_info(info, "gerqf")
        sign = np.sign(rq.diagonal(r - k))
        q_rq, _, info = lapack.dorgrq(rq, tau, _lwork("dorgrq", *N.shape))
        _lapack_info(info, "orgrq")
        w[s - k:s - k + m] = sign * (q_rq @ e[k:])
        T = np.zeros((k + 1, k + 1))
        T[:k, :k] = _triu(qr[:k])
        T[:k, k] = e[:k]
        T[k, k] = math.sqrt(float(e[k:] @ e[k:]))
    return w


def _log_likelihood(rss: float, n: int) -> float:
    """Concentrated Gaussian log-likelihood (ML variance RSS/n); +inf
    for an exact fit."""
    if rss > 0.0:
        return -0.5 * n * (math.log(2.0 * math.pi) + math.log(rss / n) + 1.0)
    return math.inf


def _criteria(log_l: float, n: int, k: int) -> tuple[float, float]:
    return -2.0 * log_l + 2.0 * k, -2.0 * log_l + k * math.log(n)


def information_criteria(rr: RegressionResult) -> tuple[float, float]:
    """(AIC, SBC) under the contract -2 logL + {2k, k ln n}."""
    return _criteria(rr.log_likelihood, rr.n, rr.k)


def _effects_triangle(y, X: DesignMatrix, order=None) -> np.ndarray:
    """The (k+1)x(k+1) triangle R of one Householder QR of [X | y], or
    of [X[:, order] | y] for a permutation ``order`` of X's columns,
    after X passes the rank check of ``ols``. Its last column is the
    effects vector: the RSS of y on the first j columns is the sum of
    its squared entries from j on."""
    y = _dependent(y, X)
    qr, _, piv = _householder(X.matrix, pivoting=True)
    _check_rank(qr, piv, X.names)
    cols = X.matrix if order is None else X.matrix[:, order]
    qr = _householder(np.column_stack([cols, y]))[0]
    return _triu(qr[:X.k + 1])


def _tail_criteria(z: np.ndarray, n: int) -> list[tuple[float, float]]:
    """(AIC, SBC) of y on each leading column block, j = 0..m, of [X | y]
    with m columns of X, on n observations, from the effects vector z
    (the last column of its triangle, m + 1 entries)."""
    rss = np.cumsum(z[::-1] ** 2)[::-1].tolist()
    return [_criteria(_log_likelihood(r, n), n, j) for j, r in enumerate(rss)]


def subset_criteria(y, X: DesignMatrix,
                    orderings) -> list[list[tuple[float, float]]]:
    """(AIC, SBC) of y on each leading block of X[:, S], for each column
    ordering S in ``orderings`` (a sequence of column-index sequences).

    One Householder QR of [X | y] gives the triangle [R | z]; each
    ordering then refactors only its columns of that small triangle,
    [R_S | z], whose effects vector gives the RSS of its first j columns
    as the sum of its squared entries from j on. Every block is scored
    on X's sample by the formulas of information_criteria, so a search
    over column subsets of one superset design chooses what a fit per
    subset would, and fits nothing.

    Raises
    ------
    DimensionMismatch
        y does not match the design's row count.
    RankDeficient
        X fails the rank check of ``ols``, even when no ordering uses
        the collinear columns; its blocks are then not all estimable.
    ValueError
        X or y holds a NaN or an infinity.
    """
    R = _effects_triangle(y, X)
    return [_tail_criteria(
        _householder(R[:, [*S, X.k]])[0][:len(S) + 1, -1], X.n)
        for S in orderings]


def _smallest(candidates, tol: float):
    """The key of the best of the (criterion, key) pairs, taken in
    order: a pair replaces the best so far when its criterion is lower
    by more than ``tol``, or within ``tol`` of it with a smaller key."""
    best = None
    for crit, key in candidates:
        if best is None or crit < best[0] - tol or (
            abs(crit - best[0]) <= tol and key < best[1]
        ):
            best = (crit, key)
    return best[1]


def wald_f_test(rr: RegressionResult, restricted_names,
                bounds_context: bool = False,
                levels=DEFAULT_LEVELS) -> TestStatistic:
    """F-test of H0: every named coefficient equals zero.

    F = ((RSS_r - RSS_u)/q) / (RSS_u/(n-k)). In a bounds-test context
    the statistic's asymptotic distribution is nonstandard, so the
    result carries no p-value and no decisions; otherwise it is F(q, n-k).

    Nothing is refit. With X = Q R from the fit's own factor and z = Q'y,
    the restricted model's excess RSS is that of z on Z, R's columns of
    the r remaining coefficients: the last diagonal of the triangle of
    the k x (r+1) matrix [Z | z] (``_effects_triangle``), squared. Z has
    the column norms and singular values of X's remaining columns, so
    its rank check stands in for the restricted fit's. With every
    coefficient restricted, RSS_r = y'y.

    Raises
    ------
    UnknownCoefficient
        A restricted name is not in the model.
    PerfectFitDegenerate
        Unrestricted RSS is zero: the ratio is undefined, not infinite.
    DegenerateRestriction
        The restricted model cannot be estimated.
    """
    restricted = tuple(restricted_names)
    if not restricted:
        raise ValueError("need at least one restricted coefficient")
    unknown = [nm for nm in restricted if nm not in rr.coefficients]
    if unknown:
        raise UnknownCoefficient(", ".join(unknown))

    if rr.fits_exactly:
        raise PerfectFitDegenerate(
            "unrestricted model fits exactly; F ratio undefined"
        )

    rss_u = rr.rss
    names = rr.design.names
    remaining = [j for j, nm in enumerate(names) if nm not in set(restricted)]
    if remaining:
        Z = DesignMatrix([names[j] for j in remaining],
                         rr.r_factor[:, np.argsort(rr.pivots)[remaining]])
        try:
            T = _effects_triangle(rr.q_factor.T @ rr.y, Z)
        except RankDeficient as exc:
            raise DegenerateRestriction(str(exc)) from exc
        excess = float(T[Z.k, Z.k]) ** 2
    else:
        excess = max(float(rr.y @ rr.y) - rss_u, 0.0)

    q = len(restricted)
    df = rr.n - rr.k
    f_stat = excess / q / (rss_u / df)

    p = None if bounds_context else float(special.fdtrc(q, df, f_stat))
    return TestStatistic(
        name=f"F({', '.join(restricted)} = 0)",
        statistic=float(f_stat),
        distribution=("nonstandard-tabulated" if bounds_context
                      else f"F({q}, {df})"),
        p_value=p,
        decision_at={} if bounds_context else decisions_from_pvalue(p, levels),
    )


def appended_effects(rr: RegressionResult, dependent, names,
                     block) -> np.ndarray:
    """Effects of ``dependent`` on the columns ``block`` (n x a, named
    ``names``) appended to the fit's design X, without a fit
    (Frisch-Waugh-Lovell): z, a + 1 entries, where ||z[:a]||^2 is what
    the block adds to the explained sum of squares of the regression on
    X and z[a]^2 is the RSS on [X | block].

    With Q the fit's own orthonormal factor, M = block - Q(Q'block) and
    v = dependent - Q(Q'dependent); z is the last column of the triangle
    of one Householder QR of [M | v]. The rank rule for the block: a
    column is collinear when its distance from the span of X and the
    block's earlier columns, the j-th diagonal of that triangle, falls
    below RANK_RTOL of the largest column norm of [X | block]. ``ols``
    applies the same tolerance to [X | block] with column pivoting, so
    the two can disagree only on a column within rounding of that edge,
    and may then name different columns.

    Raises
    ------
    SampleTooShort
        n <= k + a: [X | block] is not a design.
    DimensionMismatch
        dependent does not match X's row count.
    RankDeficient
        A block column is collinear by the rule above; names the columns.
    """
    n, a = block.shape
    if n <= rr.k + a:
        raise SampleTooShort(f"need n > k, got n={n}, k={rr.k + a}")
    dependent = _dependent(dependent, rr.design)
    Q = rr.q_factor
    M = block - Q @ (Q.T @ block)
    v = dependent - Q @ (Q.T @ dependent)
    T = _householder(np.column_stack([M, v]))[0]
    scale = max(abs(float(rr.r_factor[0, 0])),
                float(np.sqrt(np.einsum("ij,ij->j", block, block)).max()))
    deficient = np.flatnonzero(np.abs(T.diagonal()[:a]) < RANK_RTOL * scale)
    if deficient.size:
        raise RankDeficient(tuple(names[j] for j in deficient))
    return T[:a + 1, a].copy()


def auxiliary_r_squared(rr: RegressionResult, dependent, names=(),
                        block=None) -> float:
    """R^2 of ``dependent`` regressed on the fit's design X, or on
    [X | block] when a block is given, by the rule of ``ols`` (centred
    when that design has a constant), without a fit: the RSS is
    ||dependent - Q(Q'dependent)||^2 for the fit's own Q, or the last
    effect of ``appended_effects`` squared.

    Raises as ``appended_effects``.
    """
    dependent = _dependent(dependent, rr.design)
    has_const = rr.design.has_constant()
    if block is None:
        u = dependent - rr.q_factor @ (rr.q_factor.T @ dependent)
        rss = float(u @ u)
    else:
        rss = float(appended_effects(rr, dependent, names, block)[-1]) ** 2
        has_const = has_const or _has_constant(block)
    return _r_squared(dependent, rss, has_const)[0]


def default_bandwidth(n: int) -> int:
    """Bartlett truncation rule floor(4 (n/100)^(2/9)) used when no
    bandwidth is given."""
    return int(math.floor(4.0 * (n / 100.0) ** (2.0 / 9.0)))


def newey_west_lrv(residuals, bandwidth: int) -> float:
    """Bartlett-kernel long-run variance of a residual series.

    lambda^2 = gamma_0 + 2 sum_{j=1..bw} (1 - j/(bw+1)) gamma_j with
    gamma_j the j-th sample autocovariance of the demeaned series
    (divisor n). Nonnegative by construction of the kernel.
    """
    return _short_and_long_run_variance(residuals, bandwidth)[1]


def _short_and_long_run_variance(residuals,
                                 bandwidth: int) -> tuple[float, float]:
    """(gamma_0, lambda^2) of ``newey_west_lrv`` from one pass over the
    residuals: gamma_0 = d'd/n, the kernel's first term, is what
    ``newey_west_lrv`` returns at bandwidth 0."""
    e = np.asarray(residuals, dtype=np.float64)
    if e.size == 0:
        raise SampleTooShort("empty residual vector")
    if bandwidth < 0:
        raise ValueError("bandwidth must be nonnegative")
    if bandwidth >= e.size:
        raise BandwidthTooLarge(
            f"bandwidth {bandwidth} with only {e.size} residuals"
        )
    d = e - e.mean()
    n = e.size
    gamma0 = lrv = float(d @ d) / n
    for j in range(1, bandwidth + 1):
        gamma_j = float(d[j:] @ d[:-j]) / n
        lrv += 2.0 * (1.0 - j / (bandwidth + 1.0)) * gamma_j
    return gamma0, max(lrv, 0.0)


def durbin_watson(residuals) -> float:
    """DW = sum (e_t - e_{t-1})^2 / sum e_t^2."""
    e = np.asarray(residuals, dtype=np.float64)
    if e.size < 2:
        raise SampleTooShort("Durbin-Watson needs at least 2 residuals")
    denom = float(e @ e)
    if denom == 0.0:
        raise AllZeroResiduals("all residuals are zero")
    diffs = np.diff(e)
    return float(diffs @ diffs) / denom
