"""Event-CSV interchange: parsing, validation, and daily count series.

Input format: UTF-8 CSV with header ``bank_id,date,rating``; dates are
``YYYY-MM-DD`` or ``YYYYMMDD``; ratings are the 15 scale labels plus the sentinel ``WR``
which withdraws the bank (coverage closes the day before).  Rows may
appear in any order.  Re-affirmations (consecutive rows repeating a
bank's current state) are collapsed so that "transition" always means a
state change.

A source is read once: a streaming ``csv.reader`` pass interns every
field as an integer code, dates are parsed once per distinct text, and
the span, the checks and the collapse into the panel's arrays are
vectorised.  Each check names the row a row-by-row reader would.

The daily count series are read off the panel's arrays: the rated
banks on each day are a running sum of coverage starts less ends.
"""

from __future__ import annotations

import bisect
import csv
import datetime as dt
from pathlib import Path
from typing import IO, Iterator, Optional, Union

import numpy as np

from .dates import parse_iso_date
from .errors import DataFormatError, SpanError
from .panel import Panel
from .scale import N_STATES, RATING_LABELS, WITHDRAWN_LABEL
from .textio import Target as Source, format_float, text_stream, write_csv

__all__ = [
    "parse_panel",
    "write_panel_csv",
    "daily_counts",
    "transitions_per_bank",
    "write_count_series_csv",
]

HEADER = ("bank_id", "date", "rating")

#: Days in the trailing window of :func:`transitions_per_bank`.
TRAILING_DAYS = 365

#: Label text -> state; ``WR`` gets the code one past the last state.
_LABEL_CODE = {label: state for state, label in enumerate(RATING_LABELS)}
_LABEL_CODE[WITHDRAWN_LABEL] = WITHDRAWN = N_STATES


def _records(stream) -> Iterator[list[str]]:
    """The CSV records of ``stream``, header included.

    A record the csv module rejects, such as one with a field over its
    size limit, raises :class:`DataFormatError` naming its row.
    """
    row = 0
    try:
        for row, record in enumerate(csv.reader(stream), 1):
            yield record
    except csv.Error as exc:
        raise DataFormatError(str(exc), row=row + 1) from None


class _EventColumns:
    """One event CSV as code columns, from a single streaming read.

    Reading stops at the first row without three fields: whichever
    check runs, that row's error wins over every later row's.
    """

    def __init__(self, source: Source):
        banks, dates, labels = {}, {}, {}
        bank_col, date_col, label_col = [], [], []
        self.blanks: list[int] = []  # data rows read before each blank line
        self.bad_width: Optional[tuple[int, int]] = None  # (row, field count)
        with text_stream(source) as stream:
            reader = _records(stream)
            header = next(reader, None)
            self.empty = header is None  # not even a header line
            if header is not None and tuple(h.strip() for h in header) != HEADER:
                raise DataFormatError(
                    f"expected header {','.join(HEADER)!r}, got {','.join(header)!r}", row=1
                )
            for row in reader:
                if len(row) == 3:
                    b, d, lab = row
                    bank_col.append(banks.setdefault(b, len(banks)))
                    date_col.append(dates.setdefault(d, len(dates)))
                    label_col.append(labels.setdefault(lab, len(labels)))
                elif row:
                    self.bad_width = (2 + len(bank_col) + len(self.blanks), len(row))
                    break
                else:
                    self.blanks.append(len(bank_col))

        # Raw bank texts that strip to the same id share the id's code,
        # numbered in order of first appearance.
        ids: dict[str, int] = {}
        canonical = np.array([ids.setdefault(b.strip(), len(ids)) for b in banks], dtype=np.int64)
        self.bank_ids = list(ids)
        self.bank = canonical[np.array(bank_col, dtype=np.int64)]

        ordinals, self.date_errors = [], {}
        for code, text in enumerate(dates):
            try:
                ordinals.append(parse_iso_date(text.strip()).toordinal())
            except ValueError as exc:
                ordinals.append(0)  # ordinals of real dates start at 1
                self.date_errors[code] = str(exc)
        self.date_code = np.array(date_col, dtype=np.int64)
        self.ordinal = np.array(ordinals, dtype=np.int64)[self.date_code]
        self.bad_date = self.ordinal == 0

        self.label_texts = [lab.strip() for lab in labels]
        self.label_code = np.array(label_col, dtype=np.int64)
        states = np.array([_LABEL_CODE.get(t, -1) for t in self.label_texts], dtype=np.int64)
        self.state = states[self.label_code]

    def row(self, i: int) -> int:
        """CSV row number (header = 1) of data record ``i``."""
        return 2 + i + bisect.bisect_right(self.blanks, i)

    def _width_error(self) -> DataFormatError:
        row, width = self.bad_width
        return DataFormatError(f"expected 3 fields, got {width}", row=row)

    def _date_error(self, i: int) -> DataFormatError:
        return DataFormatError(self.date_errors[int(self.date_code[i])], row=self.row(i))

    def span(self) -> tuple[dt.date, dt.date]:
        """Earliest and latest record date; only dates and widths are checked."""
        if self.empty:
            raise DataFormatError("cannot infer a span from an empty file")
        if self.bad_date.any():
            raise self._date_error(int(np.argmax(self.bad_date)))
        if self.bad_width:
            raise self._width_error()
        if not self.ordinal.size:
            raise DataFormatError("cannot infer a span from an empty panel")
        return (
            dt.date.fromordinal(int(self.ordinal.min())),
            dt.date.fromordinal(int(self.ordinal.max())),
        )

    def panel(self, start: dt.date, end: dt.date) -> Panel:
        """Validate every record against ``[start, end]`` and build the panel."""
        # Per row, in row order; within a row: label, date, span.
        bad_label = self.state < 0
        lo, hi = start.toordinal(), end.toordinal()
        outside = ~self.bad_date & ((self.ordinal < lo) | (self.ordinal > hi))
        bad = bad_label | self.bad_date | outside
        if bad.any():
            i = int(np.argmax(bad))
            if bad_label[i]:
                label = self.label_texts[int(self.label_code[i])]
                raise DataFormatError(f"unknown rating label {label!r}", row=self.row(i))
            if self.bad_date[i]:
                raise self._date_error(i)
            day = dt.date.fromordinal(int(self.ordinal[i]))
            raise DataFormatError(f"date {day} outside span [{start}, {end}]", row=self.row(i))
        if self.bad_width:
            raise self._width_error()

        # Group by bank (in id order), then by day, then by row.
        n_banks = len(self.bank_ids)
        ids = sorted(range(n_banks), key=self.bank_ids.__getitem__)  # codes in id order
        rank = np.empty(n_banks, dtype=np.int64)
        rank[ids] = np.arange(n_banks)  # each code's place in that order
        ids = [self.bank_ids[k] for k in ids]  # the ids in order; the codes' ints are freed
        day = self.ordinal - lo
        order = np.lexsort((day, rank[self.bank]))
        bank, day, state = self.bank[order], day[order], self.state[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = bank[1:] != bank[:-1]
        changed = np.ones(order.size, dtype=bool)
        changed[1:] = state[1:] != state[:-1]
        conflict = ~first & changed
        conflict[1:] &= day[1:] == day[:-1]
        withdrawn = state == WITHDRAWN
        wr_before = np.cumsum(withdrawn) - withdrawn  # WR rows strictly before, anywhere
        wr_before -= wr_before[np.flatnonzero(first)][np.cumsum(first) - 1]
        after_wr = wr_before > 0
        orphan_wr = first & withdrawn

        # Per bank, banks in order of first appearance: conflicts, then
        # the first row after a withdrawal or opening with one.
        bad = conflict | after_wr | orphan_wr
        if bad.any():
            k = int(bank[bad].min())
            mine = bank == k
            hits = conflict & mine
            i = int(np.argmax(hits if hits.any() else bad & mine))
            name = self.bank_ids[k]
            row = self.row(int(order[i]))
            if conflict[i]:
                a, b = self.label_code[order[i - 1]], self.label_code[order[i]]
                raise DataFormatError(
                    f"bank {name!r}: conflicting labels {self.label_texts[a]!r} and "
                    f"{self.label_texts[b]!r} on {dt.date.fromordinal(lo + int(day[i]))}",
                    row=row,
                )
            if after_wr[i]:
                raise DataFormatError(f"bank {name!r}: event after withdrawal", row=row)
            raise DataFormatError(f"bank {name!r}: withdrawal without a prior rating", row=row)

        # A valid bank opens with a rating and ends with at most one WR, so
        # dropping rows that repeat the previous row's state collapses both
        # re-affirmations and same-day duplicates.
        keep = ~withdrawn & (first | changed)
        ranked = rank[bank]
        coverage_end = np.full(n_banks, hi - lo, dtype=np.int64)
        coverage_end[ranked[withdrawn]] = day[withdrawn] - 1
        counts = np.bincount(ranked[keep], minlength=n_banks)
        return Panel(
            ids,
            np.concatenate([[0], np.cumsum(counts)]),
            day[keep],
            state[keep],
            coverage_end,
            (start, end),
        )


def parse_panel(source: Source, span: tuple[Optional[dt.date], Optional[dt.date]]) -> Panel:
    """Parse an event CSV into a validated, immutable panel.

    Per bank, rows are date-sorted, same-state repeats are collapsed,
    and a ``WR`` row closes coverage on the previous day.  Hard errors
    (naming the offending row): unknown labels, conflicting labels on
    the same bank-day, events after withdrawal, dates outside the span.
    An empty file is an empty panel, not an error.

    An end of ``span`` given as ``None`` is inferred, in the same single
    read, as the earliest or latest record date; that inference checks
    only dates and field counts, and a file without data rows has no
    span and raises.  A span ending before it starts raises
    :class:`SpanError`; when both ends are given, that is checked before
    the source is read.
    """
    start, end = span
    if start is not None and end is not None and end < start:
        raise SpanError(start, end)
    columns = _EventColumns(source)
    if start is None or end is None:
        lo, hi = columns.span()
        start = lo if start is None else start
        end = hi if end is None else end
        if end < start:
            raise SpanError(start, end)
    return columns.panel(start, end)


def write_panel_csv(panel: Panel, target: Union[str, Path, IO[str]]) -> None:
    """Serialize a panel back to the event-CSV format (round-trip safe)."""
    withdrawn = np.flatnonzero(panel.coverage_end < panel.n_days - 1)
    at = panel.offsets[withdrawn + 1]  # a WR row follows the bank's last event
    bank = np.repeat(np.arange(panel.n_banks), np.diff(panel.offsets))
    bank = np.insert(bank, at, withdrawn).tolist()
    day = np.insert(panel.event_day, at, panel.coverage_end[withdrawn] + 1)
    state = np.insert(panel.event_state, at, WITHDRAWN).tolist()
    dates = (np.datetime64(panel.span[0], "D") + day).astype(str).tolist()
    labels = RATING_LABELS + (WITHDRAWN_LABEL,)
    ids = [panel.bank_ids[k] for k in bank]
    write_csv(target, HEADER, zip(ids, dates, [labels[s] for s in state]))


def _rated_per_day(panel: Panel) -> np.ndarray:
    """Rated banks on each span day: each is rated from its first event through its coverage end."""
    n = panel.n_days
    starts = np.bincount(panel.event_day[panel.offsets[:-1]], minlength=n + 1)
    ends = np.bincount(panel.coverage_end + 1, minlength=n + 1)
    return np.cumsum(starts - ends)[:n]


def daily_counts(panel: Panel) -> tuple[np.ndarray, np.ndarray]:
    """Number of rated banks per day as ``(dates, counts)``, dates in ``datetime64[D]``.

    Days with none are omitted, so an empty panel yields an empty
    series rather than a run of zero rows.
    """
    totals = _rated_per_day(panel)
    rated = np.flatnonzero(totals)
    return np.datetime64(panel.span[0], "D") + rated, totals[rated]


def transitions_per_bank(panel: Panel) -> tuple[np.ndarray, np.ndarray]:
    """Trailing transitions-per-bank ratio for every day of the span as ``(dates, ratios)``.

    For each day ``t``: state changes dated within
    ``[t - TRAILING_DAYS, t]`` (clipped to the span) divided by the mean
    daily rated-bank count over the same days.  Days whose whole window
    has zero rated banks are omitted.
    """
    n = panel.n_days
    daily_total = _rated_per_day(panel).astype(np.float64)
    daily_tr = np.bincount(panel.event_day[panel.transitions()], minlength=n).astype(np.float64)

    cum_tr = np.concatenate([[0.0], np.cumsum(daily_tr)])
    cum_nr = np.concatenate([[0.0], np.cumsum(daily_total)])

    t = np.arange(n)
    lo = np.maximum(t - TRAILING_DAYS, 0)
    mean_banks = (cum_nr[t + 1] - cum_nr[lo]) / (t + 1 - lo)
    rated = np.flatnonzero(mean_banks != 0.0)
    ratio = (cum_tr[rated + 1] - cum_tr[lo[rated]]) / mean_banks[rated]
    return np.datetime64(panel.span[0], "D") + rated, ratio


def write_count_series_csv(
    series: tuple[np.ndarray, np.ndarray], target: Union[str, Path, IO[str]]
) -> None:
    """Write a ``(dates, values)`` series as ``date,value`` rows, formatting one row at a time."""
    days, values = series
    write_csv(target, ["date", "value"], ((str(d), format_float(v)) for d, v in zip(days, values)))
