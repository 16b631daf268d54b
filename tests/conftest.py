"""Shared fixtures: series builders and the normal-equations OLS oracle.

The oracle deliberately solves the raw normal equations with
numpy.linalg.solve so it shares no code path with the package's pivoted
QR solver.
"""

import numpy as np
import pytest

from ardlkit import Dataset, Frequency, TimeSeries


def make_series(values, name="Y"):
    values = np.asarray(values, dtype=np.float64)
    return TimeSeries(name, Frequency.MONTHLY, (2000, 1), values)


def make_dataset(columns, dependent):
    series = {name: make_series(vals, name) for name, vals in columns.items()}
    roles = {name: ("dependent" if name == dependent else "regressor")
             for name in columns}
    return Dataset(series=series, roles=roles)


def oracle_ols(y, columns):
    """Textbook OLS by normal equations: beta = (X'X)^-1 X'y."""
    y = np.asarray(y, dtype=np.float64)
    names = list(columns)
    X = np.column_stack([np.asarray(columns[n], dtype=np.float64)
                         for n in names])
    n, k = X.shape
    xtx = X.T @ X
    beta = np.linalg.solve(xtx, X.T @ y)
    resid = y - X @ beta
    rss = float(resid @ resid)
    sigma2 = rss / (n - k)
    cov = sigma2 * np.linalg.inv(xtx)
    se = np.sqrt(np.diag(cov))
    has_const = any(np.all(X[:, j] == X[0, j]) and X[0, j] != 0
                    for j in range(k))
    tss = float(((y - y.mean()) ** 2).sum()) if has_const \
        else float(y @ y)
    r2 = 1.0 - rss / tss if tss > 0 else 0.0
    diffs = np.diff(resid)
    dw = float(diffs @ diffs) / rss if rss > 0 else float("nan")
    return {
        "coefficients": dict(zip(names, beta)),
        "std_errors": dict(zip(names, se)),
        "r_squared": r2,
        "durbin_watson": dw,
        "rss": rss,
        "residuals": resid,
    }


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
