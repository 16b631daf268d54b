"""Loaders for the embedded critical-value tables.

Three plain-text files ship with the package (see src/ardlkit/data/):
the unit-root response surface, the bounds-test (I0, I1) bands, and the
CUSUM-of-squares deviation offsets. Set the ARDLKIT_DATA_DIR environment
variable to point the loaders at a different directory, e.g. to swap in
extended tables without touching the installed package.
"""

from __future__ import annotations

import os
from functools import lru_cache
from pathlib import Path

from .errors import ConfigError

DATA_DIR_ENV = "ARDLKIT_DATA_DIR"

ADF_SURFACE_FILE = "adf_response_surface.txt"
PSS_BOUNDS_FILE = "pss_bounds.txt"
CUSUMSQ_FILE = "cusumsq_c0.txt"

_PACKAGE_DATA_DIR = Path(__file__).resolve().parent / "data"


def data_dir() -> Path:
    """ARDLKIT_DATA_DIR, read on every call, or else the package's own
    data directory, resolved once at import."""
    override = os.environ.get(DATA_DIR_ENV)
    return Path(override) if override else _PACKAGE_DATA_DIR


def _read_rows(dirpath: str, filename: str) -> list[list[str]]:
    path = Path(dirpath) / filename
    if not path.exists():
        raise ConfigError(f"critical-value table not found: {path}")
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(line.split())
    return rows


@lru_cache(maxsize=None)
def _adf_surface(dirpath: str) -> dict[tuple[str, float], tuple[float, ...]]:
    table = {}
    for spec, level, *coefs in _read_rows(dirpath, ADF_SURFACE_FILE):
        table[(spec, float(level))] = tuple(float(c) for c in coefs)
    return table


def adf_critical_values(spec: str, nobs: int) -> dict[float, float]:
    """Finite-sample critical values for a Dickey-Fuller-type t statistic.

    Parameters
    ----------
    spec : str
        Deterministic specification: ``none``, ``constant`` or
        ``constant_and_trend``.
    nobs : int
        Number of observations in the test regression.
    """
    table = _adf_surface(str(data_dir()))
    out = {}
    for (tab_spec, level), (b0, b1, b2, b3) in table.items():
        if tab_spec == spec:
            out[level] = b0 + b1 / nobs + b2 / nobs**2 + b3 / nobs**3
    if not out:
        raise ConfigError(f"no critical values tabulated for spec {spec!r}")
    return dict(sorted(out.items()))


@lru_cache(maxsize=None)
def _pss_table(dirpath: str) -> dict[tuple[str, int, float], tuple[float, float]]:
    table = {}
    for case, k, level, lower, upper in _read_rows(dirpath, PSS_BOUNDS_FILE):
        table[(case, int(k), float(level))] = (float(lower), float(upper))
    return table


def pss_bounds(case: str, k: int) -> dict[float, tuple[float, float]]:
    """(lower I0, upper I1) bounds per significance level for a bounds test."""
    table = _pss_table(str(data_dir()))
    out = {level: band for (c, kk, level), band in table.items()
           if c == case and kk == k}
    if not out:
        cases = sorted({c for c, _, _ in table})
        ks = sorted({kk for _, kk, _ in table})
        raise ConfigError(
            f"no bounds tabulated for case {case!r}, k={k} "
            f"(have cases {cases}, k in {ks})"
        )
    return dict(sorted(out.items()))


@lru_cache(maxsize=None)
def _cusumsq_table(dirpath: str) -> list[tuple[int, float]]:
    rows = [(int(n), float(c0))
            for n, c0 in _read_rows(dirpath, CUSUMSQ_FILE)]
    return sorted(rows)


def cusumsq_c0(n: int) -> float:
    """Two-sided 5% parallel-line offset for n recursive residuals.

    Linear interpolation in 1/n between tabulated rows; clamped to the
    end rows outside the tabulated range.
    """
    table = _cusumsq_table(str(data_dir()))
    if n <= table[0][0]:
        return table[0][1]
    if n >= table[-1][0]:
        return table[-1][1]
    for (n0, c0), (n1, c1) in zip(table, table[1:]):
        if n0 <= n <= n1:
            w = (1.0 / n - 1.0 / n0) / (1.0 / n1 - 1.0 / n0)
            return c0 + w * (c1 - c0)
    raise AssertionError("unreachable")
