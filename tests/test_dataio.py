import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ardlkit import (
    Dataset,
    Frequency,
    IngestionConfig,
    TimeSeries,
    difference,
    lag,
    load_csv,
    log_transform,
    save_csv,
)
from ardlkit.dataio import common_sample, format_period
from ardlkit.errors import (
    MissingValuePolicyViolation,
    NonMonotoneIndex,
    NonPositiveValue,
    ParseError,
    SeriesTooShort,
)

from conftest import make_series


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# One good run of eight stamps per frequency, and faults that make stamp 3
# the first bad one of six (the gap has a second gap after it): the error
# must name stamp 3.
_STAMPS = {
    Frequency.MONTHLY: ([(2000, 11), (2000, 12), (2001, 1), (2001, 2),
                         (2001, 3), (2001, 4), (2001, 5), (2001, 6)],
                        "YYYY-MM"),
    Frequency.QUARTERLY: ([(2000, 3), (2000, 4), (2001, 1), (2001, 2),
                           (2001, 3), (2001, 4), (2002, 1), (2002, 2)],
                          "YYYY-Qq"),
    Frequency.ANNUAL: ([(1998, 1), (1999, 1), (2000, 1), (2001, 1),
                        (2002, 1), (2003, 1), (2004, 1), (2005, 1)], "YYYY"),
}
_FAULTS = {
    # stamp 3 skips one period, stamp 4 another
    "gap": lambda ix: ix[:3] + ix[4:5] + ix[6:],
    # stamp 3 repeats stamp 2
    "duplicate": lambda ix: ix[:3] + [ix[2]] + ix[3:5],
    # stamp 3 steps back to stamp 1
    "backwards": lambda ix: ix[:3] + [ix[1]] + ix[2:4],
}


class TestLoadCsv:
    def test_three_row_echo(self, tmp_path):
        p = write(tmp_path, "date,op\n2000-01,25.0\n2000-02,26.0\n2000-03,27.5\n")
        ds = load_csv(p)
        assert list(ds.series) == ["op"]
        assert ds["op"].values.tolist() == [25.0, 26.0, 27.5]
        assert ds.index == ((2000, 1), (2000, 2), (2000, 3))
        assert ds.dependent == "op"
        assert ds.provenance.rows_read == 3
        assert ds.provenance.policy == "reject"

    def test_out_of_order_dates(self, tmp_path):
        p = write(tmp_path, "date,op\n2000-02,26.0\n2000-01,25.0\n2000-03,27.5\n")
        with pytest.raises(NonMonotoneIndex):
            load_csv(p)

    def test_gapped_dates(self, tmp_path):
        p = write(tmp_path, "date,op\n2000-01,25.0\n2000-03,27.5\n")
        with pytest.raises(NonMonotoneIndex):
            load_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")

    def test_reject_policy_hole(self, tmp_path):
        p = write(tmp_path, "date,op\n2000-01,25.0\n2000-02,\n2000-03,27.5\n")
        with pytest.raises(MissingValuePolicyViolation):
            load_csv(p)

    def test_drop_row_trailing_hole(self, tmp_path):
        p = write(tmp_path, "date,op\n2000-01,25.0\n2000-02,26.0\n2000-03,\n")
        ds = load_csv(p, IngestionConfig(missing_policy="drop_row"))
        assert len(ds["op"]) == 2
        assert ds.provenance.rows_dropped == 1

    def test_drop_row_interior_hole_breaks_contiguity(self, tmp_path):
        # dropping a middle row would punch a hole in the calendar, which
        # would silently corrupt every lag downstream
        p = write(tmp_path, "date,op\n2000-01,25.0\n2000-02,\n2000-03,27.5\n")
        with pytest.raises(NonMonotoneIndex, match="^index not contiguous "
                                                   "at 2000-03 \\(after "
                                                   "2000-01\\)$"):
            load_csv(p, IngestionConfig(missing_policy="drop_row"))

    def test_interpolate_interior_hole(self, tmp_path):
        p = write(tmp_path, "date,op\n2000-01,10.0\n2000-02,\n2000-03,30.0\n")
        ds = load_csv(p, IngestionConfig(missing_policy="interpolate"))
        assert ds["op"].values.tolist() == [10.0, 20.0, 30.0]
        assert ds.provenance.cells_imputed == 1

    def test_interpolate_edge_hole_rejected(self, tmp_path):
        p = write(tmp_path, "date,op\n2000-01,\n2000-02,20.0\n2000-03,30.0\n")
        with pytest.raises(MissingValuePolicyViolation):
            load_csv(p, IngestionConfig(missing_policy="interpolate"))

    def test_parse_error_coordinates(self, tmp_path):
        p = write(tmp_path, "date,op,infl\n2000-01,25.0,3.0\n2000-02,oops,4.0\n")
        with pytest.raises(ParseError) as err:
            load_csv(p)
        assert err.value.row == 3
        assert err.value.column == "op"

    def test_quarterly_format(self, tmp_path):
        p = write(tmp_path, "date,x\n2001-Q4,1.0\n2002-Q1,2.0\n")
        ds = load_csv(p, IngestionConfig(date_format="YYYY-Qq"))
        assert ds.index == ((2001, 4), (2002, 1))

    @pytest.mark.parametrize("freq", list(_STAMPS), ids=lambda f: f.value)
    def test_roundtrip_bit_exact(self, tmp_path, freq):
        vals = [25.125, 1.0 / 3.0, 27.5, math.pi, 1e-17]
        stamps, fmt = _STAMPS[freq]
        rows = "\n".join(f"{format_period(p, freq)},{v!r}"
                         for p, v in zip(stamps, vals))
        p = write(tmp_path, "date,op\n" + rows + "\n")
        cfg = IngestionConfig(date_format=fmt)
        ds = load_csv(p, cfg)
        out = tmp_path / "back.csv"
        save_csv(ds, out)
        again = load_csv(out, cfg)
        assert again["op"].values.tolist() == ds["op"].values.tolist()
        assert again["op"].start == ds["op"].start == stamps[0]
        assert again.index == ds.index == tuple(stamps[:5])

    def test_dependent_role_from_config(self, tmp_path):
        p = write(tmp_path, "date,a,b\n2000-01,1,2\n2000-02,3,4\n")
        ds = load_csv(p, IngestionConfig(dependent="b"))
        assert ds.dependent == "b"
        assert ds.regressors == ("a",)


class TestDatasetInvariants:
    def test_exactly_one_dependent(self):
        s = make_series([1.0, 2.0])
        with pytest.raises(ValueError):
            Dataset(series={"Y": s}, roles={"Y": "regressor"})

    @pytest.mark.parametrize("freq, start, n", [
        (Frequency.MONTHLY, (2000, 1), 2),
        (Frequency.MONTHLY, (2000, 2), 3),
        (Frequency.QUARTERLY, (2000, 1), 3),
    ], ids=["length", "start", "frequency"])
    def test_shared_index_enforced(self, freq, start, n):
        a = make_series([1.0, 2.0, 3.0], "A")
        b = TimeSeries("B", freq, start, np.arange(float(n)))
        with pytest.raises(ValueError, match="one frequency, start and "
                                             "length"):
            Dataset(series={"A": a, "B": b},
                    roles={"A": "dependent", "B": "regressor"})


class TestIndexChecks:
    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    @pytest.mark.parametrize("freq", list(_STAMPS), ids=lambda f: f.value)
    def test_csv_names_the_first_stamp_out_of_order(self, tmp_path, freq,
                                                    fault):
        good, fmt = _STAMPS[freq]
        index = _FAULTS[fault](list(good))
        lines = [f"{format_period(p, freq)},{i}.0"
                 for i, p in enumerate(index)]
        p = write(tmp_path, "date,op\n" + "\n".join(lines) + "\n")
        bad, prev = (format_period(index[i], freq) for i in (3, 2))
        message = (f"^index not contiguous at {bad} \\(after {prev}\\)$"
                   if fault == "gap" else
                   f"^date {bad} at data row 4 does not follow {prev}$")
        with pytest.raises(NonMonotoneIndex, match=message):
            load_csv(p, IngestionConfig(date_format=fmt))

    @pytest.mark.parametrize("freq, start", [
        (Frequency.MONTHLY, (2000,)),
        (Frequency.MONTHLY, (2000, 1, 1)),
        (Frequency.MONTHLY, 2000),
        (Frequency.MONTHLY, (2000, 13)),
        (Frequency.QUARTERLY, (2000, 5)),
        (Frequency.ANNUAL, (2000, 2)),
        (Frequency.ANNUAL, (2000, 0)),
        (Frequency.MONTHLY, (2000, 1.0)),
        (Frequency.MONTHLY, (2000.5, 1)),
        (Frequency.MONTHLY, ("2000", 1)),
    ], ids=str)
    def test_start_must_be_a_period(self, freq, start):
        with pytest.raises(ValueError, match="^series 'Y': start must be"):
            TimeSeries("Y", freq, start, np.zeros(2))

    def test_start_is_normalized_to_ints(self):
        s = TimeSeries("Y", Frequency.QUARTERLY, np.array([2000, 4]),
                       np.zeros(3))
        assert s.start == (2000, 4) and type(s.start[0]) is int
        assert s.index == ((2000, 4), (2001, 1), (2001, 2))

    @pytest.mark.parametrize("freq", list(_STAMPS), ids=lambda f: f.value)
    def test_common_sample_matches_stamp_slicing(self, freq):
        # a levels series and its [log, diff] transform, trimmed by the
        # calendar, equal the values at the stamps both indexes hold
        level = TimeSeries("L", freq, _STAMPS[freq][0][0],
                           np.exp(np.arange(1.0, 9.0) ** 0.5))
        both = (level, difference(log_transform(level)))
        common = sorted(set(both[0].index) & set(both[1].index))
        for order in (both, both[::-1]):
            trimmed = common_sample(list(order))
            for s, t in zip(order, trimmed):
                at = dict(zip(s.index, s.values))
                assert t.name == s.name and t.frequency is freq
                assert t.index == tuple(common)
                assert t.values.tolist() == [at[p] for p in common]
        late = TimeSeries("M", freq, common[-1], np.ones(3))
        assert common_sample([lag(level, 7), late])[0].values.tolist() == [
            level.values[0]]
        assert common_sample([level, lag(late, 2)]) == []


class TestTransforms:
    def test_log_of_exponentials(self):
        s = make_series([1.0, math.e, math.e**2])
        out = log_transform(s)
        assert np.allclose(out.values, [0.0, 1.0, 2.0], atol=1e-15)
        assert out.name == "LNY"
        assert out.index == s.index

    def test_log_rejects_zero(self):
        s = make_series([1.0, 0.0, 2.0])
        with pytest.raises(NonPositiveValue) as err:
            log_transform(s)
        assert err.value.position == 1

    def test_log_single_value(self):
        # independent high-precision value of ln 25
        out = log_transform(make_series([25.0] * 24))
        assert out.values[0] == pytest.approx(3.2188758248682006, abs=1e-15)

    def test_first_difference(self):
        out = difference(make_series([1.0, 3.0, 6.0, 10.0]))
        assert out.values.tolist() == [2.0, 3.0, 4.0]
        assert out.index == ((2000, 2), (2000, 3), (2000, 4))

    def test_difference_of_constant_is_zero(self):
        out = difference(make_series([5.0] * 6))
        assert np.all(out.values == 0.0)

    def test_second_difference(self):
        out = difference(make_series([1.0, 3.0, 6.0, 10.0]), 2)
        assert out.values.tolist() == [1.0, 1.0]

    def test_difference_too_short(self):
        with pytest.raises(SeriesTooShort):
            difference(make_series([1.0, 2.0]), 2)

    def test_lag_shifts_and_aligns(self):
        out = lag(make_series([1.0, 2.0, 3.0, 4.0]), 1)
        assert out.values.tolist() == [1.0, 2.0, 3.0]
        assert out.index == ((2000, 2), (2000, 3), (2000, 4))

    def test_lag_three(self):
        out = lag(make_series([1.0, 2.0, 3.0, 4.0]), 3)
        assert out.values.tolist() == [1.0]

    def test_lag_too_short(self):
        with pytest.raises(SeriesTooShort):
            lag(make_series([1.0, 2.0]), 2)

    def test_lag_and_difference_commute(self):
        s = make_series([1.0, 3.0, 6.0, 10.0])
        a = lag(difference(s), 1)
        b = difference(lag(s, 1))
        assert a.values.tolist() == b.values.tolist()
        assert a.index == b.index


@given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=40),
       st.integers(1, 2), st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_difference_composes(values, a, b):
    s = make_series(values)
    if len(s) <= a + b:
        return
    combined = difference(s, a + b)
    staged = difference(difference(s, a), b)
    assert np.allclose(combined.values, staged.values, atol=1e-6)


@given(st.lists(st.floats(1e-6, 1e6), min_size=2, max_size=40))
@example([1e6, 999999.9999999999])   # adjacent doubles whose logs tie
@settings(max_examples=60, deadline=None)
def test_log_preserves_ordering(values):
    # log is monotone, but distinct inputs may round to the same output,
    # so the promise is a non-decreasing output in the input's order.
    s = make_series(values)
    out = log_transform(s)
    order_in = np.argsort(s.values, kind="stable")
    assert np.all(np.diff(out.values[order_in]) >= 0)
