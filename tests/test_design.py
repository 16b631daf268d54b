"""The one design builder, ``Deterministic._design``, pinned bit for bit
against the three hand-written builders it replaced: the conditional-ECM
design, the levels design and the Dickey-Fuller design. The ``oracle_*``
functions below are those builders, kept here as test oracles only.
Names, column order, every value and the regressand must be the same
bits, over deterministic specs x p 1-4 x q 0-4 per regressor x 1-3
regressors, and Dickey-Fuller orders 0-14 under every spec.
"""

import itertools

import numpy as np
import pytest

from ardlkit import ArdlSpec, Deterministic
from ardlkit.ardl import _ecm_design, _levels_terms
from ardlkit.errors import SampleTooShort
from ardlkit.unitroot import _dickey_fuller_design, _differenced

N = 40


# --- the replaced builders, as oracles ---------------------------------------

def _det_columns(det, start, n):
    cols = {}
    if det is not Deterministic.NONE:
        cols["C"] = np.ones(n - start)
    if det is Deterministic.CONSTANT_TREND:
        cols["TREND"] = np.arange(start + 1, n + 1, dtype=np.float64)
    return cols


def oracle_ecm_design(values, spec, start):
    y = values[spec.dependent]
    n = len(y)
    if start >= n:
        raise SampleTooShort("lag structure leaves no usable observations")
    dy = np.diff(y)
    dep = dy[start - 1:]
    cols = _det_columns(spec.det, start, n)
    for i in range(1, spec.p):
        cols[f"D{spec.dependent}(-{i})"] = dy[start - 1 - i:n - 1 - i]
    for x in spec.regressors:
        q = spec.q[x]
        if q >= 1:
            dx = np.diff(values[x])
            cols[f"D{x}"] = dx[start - 1:]
            for i in range(1, q):
                cols[f"D{x}(-{i})"] = dx[start - 1 - i:n - 1 - i]
    cols[f"{spec.dependent}(-1)"] = y[start - 1:n - 1]
    for x in spec.regressors:
        if spec.q[x] >= 1:
            cols[f"{x}(-1)"] = values[x][start - 1:n - 1]
        else:
            cols[x] = values[x][start:]
    return dep, tuple(cols), np.column_stack(list(cols.values()))


def oracle_levels_design(values, spec, start):
    y = values[spec.dependent]
    n = len(y)
    if start >= n:
        raise SampleTooShort("lag structure leaves no usable observations")
    dep = y[start:]
    cols = _det_columns(spec.det, start, n)
    for i in range(1, spec.p + 1):
        cols[f"{spec.dependent}(-{i})"] = y[start - i:n - i]
    for x in spec.regressors:
        xv = values[x]
        cols[x] = xv[start:]
        for i in range(1, spec.q[x] + 1):
            cols[f"{x}(-{i})"] = xv[start - i:n - i]
    return dep, tuple(cols), np.column_stack(list(cols.values()))


def oracle_dickey_fuller_design(y, spec, k):
    det = _det_columns(spec, k + 1, len(y))
    d = len(det)
    A = np.empty((len(y) - 1 - k, d + k + 2), order="F")
    for j, col in enumerate(det.values()):
        A[:, j] = col
    A[:, d] = y[k:-1]
    dy = y[1:] - y[:-1]
    for i in range(1, k + 1):
        A[:, d + i] = dy[k - i:-i]
    A[:, -1] = dy[k:]
    names = (*det, "Y(-1)", *(f"DY(-{i})" for i in range(1, k + 1)))
    return A[:, -1], names, A[:, :-1]


# --- the comparison ----------------------------------------------------------

def assert_same_bits(built, oracle):
    dep, X = built
    odep, onames, omat = oracle
    assert X.names == onames
    assert X.matrix.shape == omat.shape and dep.shape == odep.shape
    assert X.matrix.tobytes() == omat.tobytes()
    assert dep.tobytes() == odep.tobytes()


def _values(m):
    rng = np.random.default_rng(m)
    names = ["Y", *(f"X{i}" for i in range(m))]
    return {v: np.cumsum(rng.normal(size=N)) for v in names}


def _specs(m, det):
    regressors = tuple(f"X{i}" for i in range(m))
    for p in range(1, 5):
        for qs in itertools.product(range(5), repeat=m):
            yield ArdlSpec("Y", regressors, p, dict(zip(regressors, qs)), det)


ARDL_DETS = [Deterministic.CONSTANT, Deterministic.CONSTANT_TREND]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("det", ARDL_DETS, ids=lambda d: d.value)
def test_ecm_and_levels_designs_match_the_old_builders(det, m):
    values = _values(m)
    for spec in _specs(m, det):
        # the model's own sample, and the common sample of the lag search
        for start in (spec.max_order, 5):
            assert_same_bits(_ecm_design(values, spec, start),
                             oracle_ecm_design(values, spec, start))
            levels = det._design(start, values["Y"],
                                 _levels_terms(values, spec))
            oracle = oracle_levels_design(values, spec, start)
            assert_same_bits(levels, oracle)
            # select_lags regresses the difference on the levels design
            dy, X = det._design(start, _differenced(values["Y"]),
                                _levels_terms(values, spec))
            assert X.matrix.tobytes() == levels[1].matrix.tobytes()
            y1 = oracle[1].index("Y(-1)")
            assert dy.tobytes() == (oracle[0] - oracle[2][:, y1]).tobytes()


@pytest.mark.parametrize("spec", list(Deterministic), ids=lambda d: d.value)
def test_dickey_fuller_designs_match_the_old_builder(spec):
    y = _values(0)["Y"]
    for k in range(15):
        assert_same_bits(_dickey_fuller_design(y, _differenced(y), spec, k),
                         oracle_dickey_fuller_design(y, spec, k))


@pytest.mark.parametrize("det", list(Deterministic), ids=lambda d: d.value)
@pytest.mark.parametrize("start", [N, N + 1])
def test_no_row_left_is_sample_too_short(det, start):
    values = _values(2)
    with pytest.raises(SampleTooShort, match="no usable observations"):
        det._design(start, values["Y"], [("X0", values["X0"], 1)])
    with pytest.raises(SampleTooShort, match="no usable observations"):
        _dickey_fuller_design(values["Y"], _differenced(values["Y"]), det,
                              start - 1)
    if det is not Deterministic.NONE:
        spec = ArdlSpec("Y", ("X0", "X1"), 2, {"X0": 1, "X1": 0}, det)
        with pytest.raises(SampleTooShort, match="no usable observations"):
            _ecm_design(values, spec, start)
