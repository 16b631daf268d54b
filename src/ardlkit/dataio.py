"""CSV ingestion, date-indexed series, and the lag/difference/log transforms.

A series is its first period and its values: a period stamp is a
(year, sub) pair, the index is derived from the start and the length, and
all period arithmetic is integer arithmetic on the period ordinal inside
this module, never string comparison. All containers are immutable after
construction and every transform returns a new object.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    MissingValuePolicyViolation,
    NonMonotoneIndex,
    NonPositiveValue,
    ParseError,
    SeriesTooShort,
)

Period = tuple[int, int]


class Frequency(str, Enum):
    MONTHLY = "monthly"
    QUARTERLY = "quarterly"
    ANNUAL = "annual"

    @property
    def periods_per_year(self) -> int:
        return _PERIODS_PER_YEAR[self._value_]


_PERIODS_PER_YEAR = {"monthly": 12, "quarterly": 4, "annual": 1}

_FORMAT_FREQ = {
    "YYYY-MM": Frequency.MONTHLY,
    "YYYY-Qq": Frequency.QUARTERLY,
    "YYYY": Frequency.ANNUAL,
}


def frequency_for_format(date_format: str) -> Frequency:
    """Map a date format string to its implied frequency."""
    try:
        return _FORMAT_FREQ[date_format]
    except KeyError:
        raise ConfigError(
            f"unsupported date format {date_format!r}; "
            f"expected one of {sorted(_FORMAT_FREQ)}"
        ) from None


def parse_period(text: str, date_format: str) -> Period:
    """Parse one date cell into a (year, sub-period) pair.

    Monthly stamps look like ``2000-01``, quarterly like ``2000-Q1``,
    annual like ``2000``. Raises ValueError on malformed input; load_csv
    wraps that into ParseError with row/column coordinates.
    """
    text = text.strip()
    if date_format == "YYYY-MM":
        year_s, _, month_s = text.partition("-")
        year, month = int(year_s), int(month_s)
        if not 1 <= month <= 12:
            raise ValueError(f"month out of range in {text!r}")
        return (year, month)
    if date_format == "YYYY-Qq":
        year_s, _, q_s = text.upper().partition("-Q")
        year, quarter = int(year_s), int(q_s)
        if not 1 <= quarter <= 4:
            raise ValueError(f"quarter out of range in {text!r}")
        return (year, quarter)
    if date_format == "YYYY":
        return (int(text), 1)
    raise ConfigError(f"unsupported date format {date_format!r}")


def format_period(period: Period, frequency: Frequency) -> str:
    """The stamp of a period as a CSV writes it. ``frequency`` is read
    with ``Frequency(frequency)``, so its text names it as well; any
    other value raises ValueError."""
    year, sub = period
    frequency = Frequency(frequency)
    if frequency is Frequency.MONTHLY:
        return f"{year:04d}-{sub:02d}"
    if frequency is Frequency.QUARTERLY:
        return f"{year:04d}-Q{sub}"
    return f"{year:04d}"


def period_ordinal(period: Period, frequency: Frequency) -> int:
    """Integer position of a period on the frequency's calendar line,
    with ``frequency`` read as in ``format_period``."""
    year, sub = period
    return year * Frequency(frequency).periods_per_year + (sub - 1)


def _period(ordinal: int, frequency: Frequency) -> Period:
    """The period at an ordinal: the inverse of period_ordinal."""
    year, sub = divmod(ordinal, frequency.periods_per_year)
    return (year, sub + 1)


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A named vector of real observations on consecutive periods: its
    first period ``start``, a (year, sub) pair of whole numbers with sub in
    1..periods_per_year, and its finite values. ``index`` is derived from
    them, so a series holds no gap and no repeated stamp. ``frequency`` is
    stored as ``Frequency(frequency)``, so "monthly" means
    ``Frequency.MONTHLY``; any other value raises ValueError naming the
    series.
    """

    name: str
    frequency: Frequency
    start: Period
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        try:
            frequency = Frequency(self.frequency)
        except ValueError:
            raise ValueError(
                f"series {self.name!r}: frequency must be one of "
                f"{[f.value for f in Frequency]}, got {self.frequency!r}"
            ) from None
        object.__setattr__(self, "frequency", frequency)
        per_year = frequency.periods_per_year
        try:
            year, sub = map(operator.index, self.start)
            if not 1 <= sub <= per_year:
                raise ValueError
        except (TypeError, ValueError):
            raise ValueError(
                f"series {self.name!r}: start must be a (year, sub) pair of "
                f"whole numbers with sub in 1..{per_year}, got {self.start!r}"
            ) from None
        object.__setattr__(self, "start", (year, sub))
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise ValueError(
                f"series {self.name!r}: non-finite value at position {bad}"
            )

    @property
    def index(self) -> tuple[Period, ...]:
        """The period of every value, from start on."""
        first = period_ordinal(self.start, self.frequency)
        return tuple(_period(o, self.frequency)
                     for o in range(first, first + len(self)))

    def __len__(self) -> int:
        return len(self.values)

    def rename(self, name: str) -> "TimeSeries":
        return TimeSeries(name, self.frequency, self.start, self.values)


@dataclass(frozen=True, eq=False)
class Provenance:
    """Record of where a dataset came from and what ingestion did to it."""

    source_path: str
    rows_read: int
    rows_used: int
    policy: str
    rows_dropped: int = 0
    cells_imputed: int = 0


@dataclass(frozen=True, eq=False)
class Dataset:
    """A collection of series on one calendar, with one dependent."""

    series: dict[str, TimeSeries]
    roles: dict[str, str]
    provenance: Provenance | None = None

    def __post_init__(self):
        if not self.series:
            raise ValueError("dataset must contain at least one series")
        calendars = {(s.frequency, s.start, len(s))
                     for s in self.series.values()}
        if len(calendars) != 1:
            raise ValueError("all member series must share one frequency, "
                             "start and length")
        dependents = [n for n, r in self.roles.items() if r == "dependent"]
        if len(dependents) != 1:
            raise ValueError(
                f"exactly one series must have role 'dependent', "
                f"got {dependents!r}"
            )

    @property
    def index(self) -> tuple[Period, ...]:
        return next(iter(self.series.values())).index

    @property
    def frequency(self) -> Frequency:
        return next(iter(self.series.values())).frequency

    @property
    def n(self) -> int:
        return len(next(iter(self.series.values())))

    @property
    def dependent(self) -> str:
        return next(n for n, r in self.roles.items() if r == "dependent")

    @property
    def regressors(self) -> tuple[str, ...]:
        return tuple(n for n, r in self.roles.items() if r == "regressor")

    def __getitem__(self, name: str) -> TimeSeries:
        return self.series[name]


@dataclass(frozen=True)
class IngestionConfig:
    """How load_csv should read a file.

    missing_policy is one of ``reject`` (default: any hole is an error),
    ``drop_row`` (remove rows with holes, which must leave a contiguous
    index), or ``interpolate`` (linear interpolation over interior holes).
    ``dependent`` defaults to the first value column.
    """

    date_column: str = "date"
    date_format: str = "YYYY-MM"
    value_columns: tuple[str, ...] | None = None
    missing_policy: str = "reject"
    dependent: str | None = None

    def __post_init__(self):
        if self.missing_policy not in ("reject", "drop_row", "interpolate"):
            raise ConfigError(
                f"unknown missing_policy {self.missing_policy!r}"
            )


_MISSING_TOKENS = {"", "na", "nan", "null", "."}


def load_csv(path, cfg: IngestionConfig = IngestionConfig()) -> Dataset:
    """Read a CSV file into an aligned Dataset.

    Parameters
    ----------
    path : str or Path
        CSV file with a header row, one date column and >= 1 numeric
        columns. Decimal point '.', UTF-8.
    cfg : IngestionConfig
        Column selection, date format, and missing-value policy.

    Returns
    -------
    Dataset
        One TimeSeries per value column, common strictly-increasing
        index, provenance record attached.

    Raises
    ------
    FileNotFoundError
        Missing input file.
    ParseError
        Unparseable date cell, or a numeric cell that is not a finite
        number (carries row and column).
    NonMonotoneIndex
        Dates out of order, duplicated, or gapped after policy handling.
    MissingValuePolicyViolation
        A hole exists and the policy cannot resolve it.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    frequency = frequency_for_format(cfg.date_format)

    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(1, cfg.date_column, "empty file") from None
        header = [h.strip() for h in header]
        if cfg.date_column not in header:
            raise ParseError(1, cfg.date_column, "date column not in header")
        value_cols = (list(cfg.value_columns) if cfg.value_columns is not None
                      else [h for h in header if h != cfg.date_column])
        if not value_cols:
            raise ConfigError("no value columns to ingest")
        for col in value_cols:
            if col not in header:
                raise ParseError(1, col, "value column not in header")
        date_pos = header.index(cfg.date_column)
        col_pos = {c: header.index(c) for c in value_cols}

        periods: list[Period] = []
        rows: list[list[float]] = []
        rows_read = 0
        for row_i, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            rows_read += 1
            try:
                periods.append(parse_period(row[date_pos], cfg.date_format))
            except (ValueError, IndexError) as exc:
                raise ParseError(row_i, cfg.date_column, str(exc)) from None
            parsed = []
            for col in value_cols:
                try:
                    cell = row[col_pos[col]].strip()
                except IndexError:
                    cell = ""
                if cell.lower() in _MISSING_TOKENS:
                    parsed.append(math.nan)
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(row_i, col, f"not a number: {cell!r}") \
                        from None
                if not math.isfinite(value):
                    raise ParseError(row_i, col,
                                     f"not a finite number: {cell!r}")
                parsed.append(value)
            rows.append(parsed)

    if not rows:
        raise ParseError(2, cfg.date_column, "no data rows")

    ords = period_ordinal(np.array(periods, dtype=np.int64).T, frequency)
    steps = np.flatnonzero(np.diff(ords) <= 0)
    if steps.size:
        i = int(steps[0]) + 1
        raise NonMonotoneIndex(
            f"date {format_period(periods[i], frequency)} at data row "
            f"{i + 1} does not follow {format_period(periods[i - 1], frequency)}"
        )

    data = np.asarray(rows, dtype=np.float64)
    holes = np.isnan(data)
    dropped = 0
    imputed = 0
    if holes.any():
        if cfg.missing_policy == "reject":
            r, c = np.argwhere(holes)[0]
            raise MissingValuePolicyViolation(
                f"missing value in column {value_cols[c]!r} at "
                f"{format_period(periods[r], frequency)} (policy=reject)"
            )
        if cfg.missing_policy == "drop_row":
            keep = ~holes.any(axis=1)
            dropped = int((~keep).sum())
            data = data[keep]
            ords = ords[keep]
            if len(ords) == 0:
                raise MissingValuePolicyViolation("every row has a hole")
        else:  # interpolate
            pos = np.arange(len(data), dtype=np.float64)
            for c in range(data.shape[1]):
                col_holes = holes[:, c]
                if not col_holes.any():
                    continue
                if col_holes[0] or col_holes[-1]:
                    raise MissingValuePolicyViolation(
                        f"column {value_cols[c]!r} has a leading or trailing "
                        "hole; linear interpolation needs interior holes"
                    )
                good = ~col_holes
                data[col_holes, c] = np.interp(
                    pos[col_holes], pos[good], data[good, c]
                )
                imputed += int(col_holes.sum())

    # a gap in the file, or one left by dropping an interior row, would
    # silently corrupt every lag/difference downstream
    gaps = np.flatnonzero(np.diff(ords) != 1)
    if gaps.size:
        i = int(gaps[0]) + 1
        bad, prev = (format_period(_period(int(o), frequency), frequency)
                     for o in (ords[i], ords[i - 1]))
        raise NonMonotoneIndex(f"index not contiguous at {bad} (after {prev})")

    provenance = Provenance(
        source_path=str(path),
        rows_read=rows_read,
        rows_used=len(ords),
        policy=cfg.missing_policy,
        rows_dropped=dropped,
        cells_imputed=imputed,
    )
    start = _period(int(ords[0]), frequency)
    series = {
        col: TimeSeries(col, frequency, start, data[:, j])
        for j, col in enumerate(value_cols)
    }
    dependent = cfg.dependent if cfg.dependent is not None else value_cols[0]
    if dependent not in series:
        raise ConfigError(f"dependent column {dependent!r} not ingested")
    roles = {n: ("dependent" if n == dependent else "regressor")
             for n in value_cols}
    return Dataset(series=series, roles=roles, provenance=provenance)


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset back to CSV; values round-trip bit-exactly."""
    path = Path(path)
    names = list(ds.series)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", *names])
        for i, period in enumerate(ds.index):
            writer.writerow(
                [format_period(period, ds.frequency)]
                + [repr(float(ds.series[n].values[i])) for n in names]
            )


def log_transform(s: TimeSeries) -> TimeSeries:
    """Natural log of every value; the name gains an ``LN`` prefix.

    Raises NonPositiveValue (with the offending position) if any value
    is <= 0, since such a series cannot enter a log-level model.
    """
    bad = np.flatnonzero(s.values <= 0.0)
    if bad.size:
        pos = int(bad[0])
        raise NonPositiveValue(pos, float(s.values[pos]))
    return TimeSeries(f"LN{s.name}", s.frequency, s.start, np.log(s.values))


def difference(s: TimeSeries, order: int = 1) -> TimeSeries:
    """Apply the difference operator ``order`` times.

    Output length is len(s) - order and the first ``order`` stamps are
    dropped, so the surviving values stay aligned to their dates.
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    if len(s) <= order:
        raise SeriesTooShort(
            f"series {s.name!r} has {len(s)} observations; "
            f"differencing of order {order} needs more"
        )
    name = f"D{s.name}" if order == 1 else f"D{order}{s.name}"
    start = _period(period_ordinal(s.start, s.frequency) + order, s.frequency)
    return TimeSeries(name, s.frequency, start, np.diff(s.values, n=order))


def lag(s: TimeSeries, k: int) -> TimeSeries:
    """Shift a series back by ``k`` periods on the surviving sample.

    The value at stamp t of the output is the input's value at t-k; the
    first ``k`` stamps are dropped.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if len(s) <= k:
        raise SeriesTooShort(
            f"series {s.name!r} has {len(s)} observations; lag {k} needs more"
        )
    start = _period(period_ordinal(s.start, s.frequency) + k, s.frequency)
    return TimeSeries(f"{s.name}(-{k})", s.frequency, start, s.values[:-k])


def common_sample(series: list[TimeSeries]) -> list[TimeSeries]:
    """Each series cut to the periods that every one of them covers (the
    intersection sample); [] when they share no period. The series share
    the first one's frequency."""
    freq = series[0].frequency
    firsts = [period_ordinal(s.start, freq) for s in series]
    lo = max(firsts)
    hi = min(f + len(s) for f, s in zip(firsts, series))
    if hi <= lo:
        return []
    start = _period(lo, freq)
    return [TimeSeries(s.name, freq, start, s.values[lo - f:hi - f])
            for f, s in zip(firsts, series)]
