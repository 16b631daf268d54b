"""Independent re-computations of ardlkit's outputs.

Each oracle works from the raw series with numpy.linalg.lstsq and an SVD,
and builds its own regressor columns from index arithmetic. None of it
calls ardlkit, so an oracle and the program share no code path: not the
pivoted-QR engine, not the lag and difference builders, not the table
loaders. ARDL models are refit in their levels form, an exact
reparameterization of the conditional error-correction form ardlkit fits,
so residuals and RSS agree while every column differs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


def strict_json_loads(text: str):
    """json.loads that refuses the non-standard NaN/Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-finite JSON token {token!r}")

    return json.loads(text, parse_constant=reject)


def close(a: float, b: float, rtol: float) -> bool:
    """|a - b| within rtol of max(|b|, 1)."""
    return abs(a - b) <= rtol * max(abs(b), 1.0)


# --- least squares -----------------------------------------------------------

def lstsq_rss(y: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, float]:
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    resid = y - X @ beta
    return beta, float(resid @ resid)


def unscaled_cov(X: np.ndarray) -> np.ndarray:
    """(X'X)^-1 through the SVD of X."""
    _, sv, vt = np.linalg.svd(X, full_matrices=False)
    return (vt.T / sv**2) @ vt


def gaussian_ic(rss: float, n: int, k: int, penalty: float) -> float:
    """-2 logL + k * penalty with the concentrated Gaussian logL."""
    log_l = -0.5 * n * (math.log(2.0 * math.pi) + math.log(rss / n) + 1.0)
    return -2.0 * log_l + k * penalty


def t_ratio(y: np.ndarray, X: np.ndarray, j: int):
    """(t, se, s, residuals) of coefficient j; s is the regression
    standard error."""
    beta, rss = lstsq_rss(y, X)
    n, k = X.shape
    s2 = rss / (n - k)
    se = math.sqrt(s2 * unscaled_cov(X)[j, j])
    return beta[j] / se, se, math.sqrt(s2), y - X @ beta


# --- critical-value tables, read from the shipped text files ----------------

def _table_rows(path: Path) -> list[list[str]]:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            rows.append(line.split())
    return rows


def pss_band(data_dir: Path, case: str, k: int,
             level: float) -> tuple[float, float]:
    for c, kk, lv, lower, upper in _table_rows(data_dir / "pss_bounds.txt"):
        if c == case and int(kk) == k and float(lv) == level:
            return float(lower), float(upper)
    raise KeyError((case, k, level))


def band_decision(f_stat: float, band: tuple[float, float]) -> str:
    lower, upper = band
    if f_stat > upper:
        return "cointegrated"
    if f_stat < lower:
        return "not_cointegrated"
    return "inconclusive"


def df_critical_value(data_dir: Path, spec: str, level: float,
                      nobs: int) -> float:
    for sp, lv, *b in _table_rows(data_dir / "adf_response_surface.txt"):
        if sp == spec and float(lv) == level:
            b0, b1, b2, b3 = (float(v) for v in b)
            return b0 + b1 / nobs + b2 / nobs**2 + b3 / nobs**3
    raise KeyError((spec, level))


# --- ARDL(p, q) with one regressor -------------------------------------------

def _levels_design(y, x, p, q, start):
    rows = np.arange(start, len(y))
    cols = [np.ones(rows.size)]
    cols += [y[rows - i] for i in range(1, p + 1)]
    cols += [x[rows - j] for j in range(q + 1)]
    return y[rows], np.column_stack(cols)


def _difference_design(y, x, p, q, start):
    """The case-III restricted model: differences only, no levels."""
    rows = np.arange(start, len(y))
    dy = lambda lag: y[rows - lag] - y[rows - lag - 1]  # noqa: E731
    dx = lambda lag: x[rows - lag] - x[rows - lag - 1]  # noqa: E731
    cols = [np.ones(rows.size)]
    cols += [dy(i) for i in range(1, p)]
    cols += [dx(j) for j in range(q)]
    return dy(0), np.column_stack(cols)


def ardl_sbc_grid(y, x, max_p: int,
                  max_q: int) -> dict[tuple[int, int], float]:
    """SBC of every (p, q) on the common sample of the largest lags."""
    start = max(max_p, max_q, 1)
    out = {}
    for p in range(1, max_p + 1):
        for q in range(max_q + 1):
            dep, X = _levels_design(y, x, p, q, start)
            _, rss = lstsq_rss(dep, X)
            n, k = X.shape
            out[(p, q)] = gaussian_ic(rss, n, k, math.log(n))
    return out


def argmin_agrees(scores: dict, chosen, tol: float) -> bool:
    """The chosen key scores within tol of the minimum (ties agree)."""
    return scores[chosen] <= min(scores.values()) + tol


def ardl_fit(y, x, p: int, q: int) -> dict:
    """Bounds F (case III), one-step feedback, long-run slope with its
    delta-method standard error, and the residuals, all from the levels
    form fit on the model's own sample."""
    start = max(p, q, 1)
    dep, X = _levels_design(y, x, p, q, start)
    beta, rss_u = lstsq_rss(dep, X)
    n, k = X.shape
    _, rss_r = lstsq_rss(*_difference_design(y, x, p, q, start))
    f_stat = (rss_r - rss_u) / 2.0 / (rss_u / (n - k))

    phi_sum = float(beta[1:p + 1].sum())
    theta_sum = float(beta[p + 1:].sum())
    denom = 1.0 - phi_sum
    slope = theta_sum / denom
    grad = np.zeros(k)
    grad[1:p + 1] = theta_sum / denom**2
    grad[p + 1:] = 1.0 / denom
    cov = rss_u / (n - k) * unscaled_cov(X)
    return {
        "f_statistic": f_stat,
        "feedback": phi_sum - 1.0,
        "slope": slope,
        "slope_se": math.sqrt(float(grad @ cov @ grad)),
        "residuals": dep - X @ beta,
        "rss": rss_u,
        "nobs": n,
    }


def ecm_prefix_condition(y, x, p: int, q: int) -> float:
    """Condition number of the first k rows of the conditional-ECM design
    of ARDL(p, q), the rows recursive residuals start from. Columns, per
    the README's conventions: C, Dy(-1..-(p-1)), Dx(0..-(q-1)), y(-1), and
    x(-1) when q >= 1 or x when q = 0."""
    start = max(p, q, 1)
    k = p + q + 2 if q >= 1 else p + 2
    rows = np.arange(start, start + k)
    dy = lambda lag: y[rows - lag] - y[rows - lag - 1]  # noqa: E731
    dx = lambda lag: x[rows - lag] - x[rows - lag - 1]  # noqa: E731
    cols = [np.ones(k)] + [dy(i) for i in range(1, p)]
    cols += [dx(j) for j in range(q)]
    cols += [y[rows - 1], x[rows - 1] if q >= 1 else x[rows]]
    return float(np.linalg.cond(np.column_stack(cols)))


def recursive_rss_gap(w: np.ndarray, rss: float) -> float:
    """Relative gap between the sum of squared recursive residuals and the
    full-sample RSS; the two are equal in exact arithmetic."""
    return abs(float(w @ w) - rss) / rss


def jarque_bera(residuals: np.ndarray) -> float:
    d = residuals - residuals.mean()
    n = d.size
    m2 = float(np.mean(d**2))
    skew = float(np.mean(d**3)) / m2**1.5
    kurt = float(np.mean(d**4)) / m2**2
    return n / 6.0 * (skew**2 + (kurt - 3.0) ** 2 / 4.0)


# --- Dickey-Fuller regressions with a constant -------------------------------

def _df_design(y, lags: int, start: int):
    rows = np.arange(start, len(y))
    dy = lambda lag: y[rows - lag] - y[rows - lag - 1]  # noqa: E731
    cols = [np.ones(rows.size), y[rows - 1]]
    cols += [dy(i) for i in range(1, lags + 1)]
    return dy(0), np.column_stack(cols)


def default_max_lag(n: int) -> int:
    return int(math.floor(12.0 * (n / 100.0) ** 0.25))


def default_bandwidth(n: int) -> int:
    return int(math.floor(4.0 * (n / 100.0) ** (2.0 / 9.0)))


def adf_aic_grid(y, max_lag: int) -> dict[int, float]:
    """AIC of every augmentation order on the common max-lag sample.

    The orders are nested prefixes of the largest design, so one unpivoted
    Householder QR of it gives every RSS: RSS_k = RSS_K + sum_{j >= k}
    (Q'y)_j^2 for the first k columns.
    """
    dep, X = _df_design(y, max_lag, max_lag + 1)
    q, _ = np.linalg.qr(X)
    qty = q.T @ dep
    resid = dep - q @ qty
    tail = np.append(np.cumsum((qty**2)[::-1])[::-1], 0.0)
    rss_full = float(resid @ resid)
    n = X.shape[0]
    return {lags: gaussian_ic(rss_full + float(tail[2 + lags]), n, 2 + lags,
                              2.0)
            for lags in range(max_lag + 1)}


def adf_statistic(y, lags: int) -> tuple[float, int]:
    """t-ratio on the lagged level at a given order, on its own sample."""
    dep, X = _df_design(y, lags, lags + 1)
    return t_ratio(dep, X, 1)[0], X.shape[0]


def pp_statistic(y, bandwidth: int) -> tuple[float, int]:
    """Phillips-Perron Z_t from the README formula:
    Z_t = sqrt(g0/l2) t - (l2 - g0) n se / (2 sqrt(l2) s)."""
    dep, X = _df_design(y, 0, 1)
    t, se, s, resid = t_ratio(dep, X, 1)
    d = resid - resid.mean()
    n = d.size
    g0 = float(d @ d) / n
    l2 = g0 + sum(2.0 * (1.0 - j / (bandwidth + 1.0))
                  * float(d[j:] @ d[:-j]) / n
                  for j in range(1, bandwidth + 1))
    z = math.sqrt(g0 / l2) * t - (l2 - g0) * n * se / (2.0 * math.sqrt(l2) * s)
    return z, n
