"""Event-CSV interchange: parsing, validation, and daily count series.

Input format: UTF-8 CSV with header ``bank_id,date,rating``; dates are
``YYYY-MM-DD``; ratings are the 15 scale labels plus the sentinel ``WR``
which withdraws the bank (coverage closes the day before).  Rows may
appear in any order.  Re-affirmations (consecutive rows repeating a
bank's current state) are collapsed so that "transition" always means a
state change.

A source, a path or a text stream, is read once, and its text is
split into records as ``csv.reader`` splits a file opened with
``newline=""``.  A byte scan finds the records' line ends and commas
with numpy in the text's UTF-8 bytes and interns each column's fields
as integer codes.  A text it could misread (one with a quote, a NUL, a
CR not before an LF or a line over the csv module's field size limit)
is read by a ``csv.reader`` loop.  A bank's code is its id's rank in
id order.  The scan numbers every column's fields in byte order, at any
length, by ranking their 8-byte words in turn, each read as one
big-endian number, so it numbers unpadded ids in id order already.  A
date column whose every field reads ``YYYY-MM-DD`` is ranked by its
eight digits instead.  Dates are parsed once per distinct text, a
missing end of the span is taken from those distinct dates, and the
checks, the grouping of the rows by one value sort and the collapse
into the panel's arrays are vectorised.  Each check names the row a
row-by-row reader would.

The daily count series are read off the panel's arrays: the rated
banks on each day are a running sum of coverage starts less ends.
"""

from __future__ import annotations

import bisect
import csv
import datetime as dt
import io
import itertools
import re
from collections import defaultdict
from typing import Optional

import numpy as np

from .dates import parse_iso_date
from .errors import DataFormatError, SpanError
from .panel import Panel
from .scale import N_STATES, RATING_LABELS, WITHDRAWN_LABEL
from .textio import Target, format_float, not_utf8, text_stream, write_csv

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

#: Distinct date texts joined by commas, when every one is ``YYYY-MM-DD``.
_ISO_DATES = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}(?:,[0-9]{4}-[0-9]{2}-[0-9]{2})*")

#: ``_FIRST_BYTES[k]`` keeps the first ``k`` bytes of a little-endian 8-byte word.
_FIRST_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)

#: A ``YYYY-MM-DD`` field's words at its first and third bytes, XORed with
#: ``_ISO``, hold 0-9 in a digit's byte and 0 in a dash's, so adding
#: ``_ISO_ADD`` (6 to a digit, 15 to a dash) leaves every high nibble 0.
_ISO = np.frombuffer(b"0000-00-00-00-00", dtype="<u8")
_ISO_ADD = np.frombuffer(bytes(6 if c == ord("0") else 15 for c in b"0000-00-00-00-00"), dtype="<u8")
_HIGH_NIBBLES = np.uint64(0xF0F0F0F0F0F0F0F0)


def parse_panel(source: Target, span: tuple[Optional[dt.date], Optional[dt.date]]) -> Panel:
    """Parse an event CSV, a path or a text stream, into a validated, immutable panel.

    Per bank, rows are date-sorted, same-state repeats are collapsed,
    and a ``WR`` row closes coverage on the previous day.  An end of
    ``span`` given as ``None`` is the earliest or latest valid record
    date, found in the same single read.  Errors, the first that applies:

    1. the span ends before it starts (:class:`SpanError`; checked before
       the source is read when both ends are given);
    2. per row, in row order: a field that is not UTF-8 text, an unknown
       label, a date that is not ``YYYY-MM-DD``, a date outside the span;
    3. the row that stops the read: one without three fields, or a
       record the csv module rejects, such as one with a field over its
       size limit (a source that is not a text stream stops on row 1);
    4. per bank: conflicting labels on one day, an event after
       withdrawal, a withdrawal without a prior rating;
    5. no row to infer a missing end from.

    Every :class:`DataFormatError` but the last names its row.  With
    both ends given, an empty file is an empty panel.
    """
    start, end = span
    if start is not None and end is not None and end < start:
        raise SpanError(start, end)

    # The byte scan, or the csv module where the scan could misread,
    # interns each column's fields.  The read stops at the first row
    # without three fields or that the csv module rejects: that row's
    # error comes after the earlier rows' checks and wins over every
    # later row's.
    header, columns, blanks, stop = _read(source)
    if header is not None and tuple(h.strip() for h in header) != HEADER:
        raise DataFormatError(f"expected header {','.join(HEADER)!r}, got {','.join(header)!r}", row=1)
    (bank_texts, bank_col), (date_texts, date_code), (label_texts, label_code) = columns

    def row(i) -> int:
        """CSV row number (header = 1) of data record ``i``."""
        return 2 + int(i) + bisect.bisect_right(blanks, i)

    # Each bank's code is its id's rank in id order; raw bank texts
    # that strip to the same id share it.  The byte scan numbers ids in
    # byte order, which is id order: unless an id is padded or the csv
    # module read the text, its codes are the ranks.
    stripped = list(map(str.strip, bank_texts))
    bank_ids = sorted(stripped)
    if bank_ids == bank_texts:  # no id was padded, as texts are distinct
        bank = bank_col
    else:
        bank_ids = list(dict.fromkeys(bank_ids))  # sorted, each id once
        rank = dict(zip(bank_ids, itertools.count()))
        bank = np.fromiter(map(rank.__getitem__, stripped), dtype=np.int64, count=len(stripped))[bank_col]
        del rank
    date_texts = list(map(str.strip, date_texts))
    label_texts = list(map(str.strip, label_texts))
    del columns, bank_texts, bank_col, stripped  # not held through the sort

    # Dates are parsed once per distinct text, all at once when every
    # one is a ``YYYY-MM-DD`` calendar date; 0 marks an invalid one
    # (ordinals of real dates start at 1).
    try:
        if not _ISO_DATES.fullmatch(",".join(date_texts)):
            raise ValueError
        ordinals = list(map(dt.date.toordinal, map(dt.date.fromisoformat, date_texts)))
    except ValueError:
        ordinals = []
        for text in date_texts:
            try:
                ordinals.append(parse_iso_date(text).toordinal())
            except ValueError:
                ordinals.append(0)
    ordinals = np.array(ordinals, dtype=np.int64)

    # A missing end is the earliest or latest valid date.  Without a
    # valid date every row fails below, or there is no row at all.
    valid = ordinals[ordinals > 0]
    if valid.size:
        start = dt.date.fromordinal(int(valid.min())) if start is None else start
        end = dt.date.fromordinal(int(valid.max())) if end is None else end
        if end < start:
            raise SpanError(start, end)
    lo = 0 if start is None else start.toordinal()
    hi = 0 if end is None else end.toordinal()

    # Per row, in row order; within a row: UTF-8 (each distinct text once), label, date, span.
    bad_utf8 = np.zeros(bank.size, dtype=bool)
    for texts, code in ((bank_ids, bank), (date_texts, date_code), (label_texts, label_code)):
        if not_utf8("".join(texts)):
            bad_utf8 |= np.array([not_utf8(t) is not None for t in texts], dtype=bool)[code]
    ordinal = ordinals[date_code]
    bad_date = ordinal == 0
    states = np.array([_LABEL_CODE.get(t, -1) for t in label_texts], dtype=np.int64)
    state = states[label_code]
    bad_label = state < 0
    outside = ~bad_date & ((ordinal < lo) | (ordinal > hi))
    bad = bad_utf8 | bad_label | bad_date | outside
    if bad.any():
        i = int(np.argmax(bad))
        if bad_utf8[i]:
            fields = (bank_ids[bank[i]], date_texts[date_code[i]], label_texts[label_code[i]])
            name, what = next((n, w) for n, w in zip(HEADER, map(not_utf8, fields)) if w)
            raise DataFormatError(f"{name} is not UTF-8 text ({what})", row=row(i))
        if bad_label[i]:
            label = label_texts[label_code[i]]
            raise DataFormatError(f"unknown rating label {label!r}", row=row(i))
        if bad_date[i]:
            try:
                parse_iso_date(date_texts[date_code[i]])
            except ValueError as exc:
                raise DataFormatError(str(exc), row=row(i)) from None
        day = dt.date.fromordinal(int(ordinal[i]))
        raise DataFormatError(f"date {day} outside span [{start}, {end}]", row=row(i))
    if stop:
        raise DataFormatError(stop[1], row=stop[0])
    if start is None or end is None:
        raise DataFormatError(
            f"cannot infer a span from an empty {'file' if header is None else 'panel'}"
        )

    # Group by bank (in id order), then by day, then by row.
    n_banks, n_days = len(bank_ids), hi - lo + 1
    day = ordinal - lo
    order = _row_order(bank * n_days + day, n_banks * n_days)
    bank, day, state = bank[order], day[order], state[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = bank[1:] != bank[:-1]
    changed = np.ones(order.size, dtype=bool)
    changed[1:] = state[1:] != state[:-1]
    conflict = ~first & changed
    conflict[1:] &= day[1:] == day[:-1]
    withdrawn = state == WITHDRAWN
    # A row right after a WR row of its own bank follows a withdrawal;
    # the first such row of a bank is its first row after one.
    after_wr = np.zeros(order.size, dtype=bool)
    after_wr[1:] = withdrawn[:-1] & ~first[1:]
    orphan_wr = first & withdrawn

    # Per bank, banks in order of first appearance: conflicts, then
    # the first row after a withdrawal or opening with one.
    bad = conflict | after_wr | orphan_wr
    if bad.any():
        appear = np.full(n_banks, order.size)
        np.minimum.at(appear, bank, order)  # each bank's first row
        k = int(bank[bad][np.argmin(appear[bank[bad]])])
        mine = bank == k
        hits = conflict & mine
        i = int(np.argmax(hits if hits.any() else bad & mine))
        name = bank_ids[k]
        at = row(order[i])
        if conflict[i]:
            a, b = label_code[order[i - 1]], label_code[order[i]]
            raise DataFormatError(
                f"bank {name!r}: conflicting labels {label_texts[a]!r} and "
                f"{label_texts[b]!r} on {dt.date.fromordinal(lo + int(day[i]))}",
                row=at,
            )
        if after_wr[i]:
            raise DataFormatError(f"bank {name!r}: event after withdrawal", row=at)
        raise DataFormatError(f"bank {name!r}: withdrawal without a prior rating", row=at)

    # A valid bank opens with a rating and ends with at most one WR, so
    # dropping rows that repeat the previous row's state collapses both
    # re-affirmations and same-day duplicates.
    keep = ~withdrawn & (first | changed)
    coverage_end = np.full(n_banks, hi - lo, dtype=np.int64)
    coverage_end[bank[withdrawn]] = day[withdrawn] - 1
    counts = np.bincount(bank[keep], minlength=n_banks)
    return Panel(
        bank_ids,
        np.concatenate([[0], np.cumsum(counts)]),
        day[keep],
        state[keep],
        coverage_end,
        (start, end),
    )


def _row_order(group: np.ndarray, n_groups: int) -> np.ndarray:
    """The rows sorted by ``group`` (each in ``range(n_groups)``), then by row.

    One value sort of the distinct keys ``group * rows + row`` where they all
    fit in int64, else a stable argsort, several times slower.
    """
    rows = group.size
    if n_groups * rows > 2**63:
        return np.argsort(group, kind="stable")
    return np.sort(group * rows + np.arange(rows)) % rows


def _read(source: Target):
    """The records of ``source`` as :func:`_read_records` gives them, by the byte scan where it can."""
    with text_stream(source) as stream:
        text = stream.read()
    if not isinstance(text, str):  # a byte stream, which the csv module rejects on row 1
        return _read_records(io.BytesIO(text))
    data = text.encode("utf-8", "surrogatepass") + bytes(8)  # each field decodes back to its text
    del text  # not held through the scan
    return _scan(data) or _read_records(
        io.StringIO(data[:-8].decode("utf-8", "surrogatepass"), newline="")
    )


def _read_records(lines):
    """A ``csv.reader`` loop over ``lines``: the header, three columns, the blanks and the stop.

    A column is its distinct texts, in any order, and each record's
    index into them; a blank is the records read before a blank
    line; the stop is the ``(row, message)`` of the record that ended the read.
    """
    banks, dates, labels = (defaultdict(itertools.count().__next__) for _ in range(3))
    bank_col, date_col, label_col = [], [], []
    blanks: list[int] = []
    stop: Optional[tuple[int, str]] = None
    header = None
    reader = csv.reader(lines)
    try:
        header = next(reader, None)  # None: not even a header line
        for record in reader:
            if len(record) == 3:
                b, d, lab = record
                bank_col.append(banks[b])
                date_col.append(dates[d])
                label_col.append(labels[lab])
            elif record:
                stop = (2 + len(bank_col) + len(blanks), f"expected 3 fields, got {len(record)}")
                break
            else:
                blanks.append(len(bank_col))
    except csv.Error as exc:  # the header is row 1
        stop = (1 if header is None else 2 + len(bank_col) + len(blanks), str(exc))
    columns = zip((banks, dates, labels), (bank_col, date_col, label_col))
    return header, [(list(texts), np.array(col, dtype=np.int64)) for texts, col in columns], blanks, stop


def _scan(data: bytes):
    """:func:`_read_records` of the text whose UTF-8 bytes, then 8 zeros, are ``data``.

    ``None`` where the csv module might read the text otherwise: with a
    quote, a NUL, a CR not before an LF or a line over its field size limit.
    """
    size, buf = len(data) - 8, np.frombuffer(data, dtype=np.uint8)
    if b'"' in data or data.find(b"\0", 0, size) >= 0 or (buf[np.flatnonzero(buf == 13) + 1] != 10).any():
        return None
    # Commas and line ends (each LF, and the end of a last line without one), in order.
    sep = np.flatnonzero((buf == 44) | (buf == 10)).astype(np.int32 if size < 2**31 else np.int64)
    if size and buf[size - 1] != 10:
        sep = np.append(sep, np.array(size, dtype=sep.dtype))
    nl = np.flatnonzero(buf[sep] != 44)  # each line's end in ``sep``
    crlf = buf[sep[nl] - 1] == 13  # an empty first line reads a zero of the padding
    length = np.diff(sep[nl], prepend=-1) - 1 - crlf  # bytes before the LF or CRLF
    if length.max(initial=0) > csv.field_size_limit():
        return None
    fields = np.where(length > 0, np.diff(nl, prepend=-1), 0)  # commas + 1
    header = None
    if nl.size:  # an empty first line has no fields
        header = buf[: length[0]].tobytes().decode("utf-8", "surrogatepass").split(",")[: fields[0]]
    fields = fields[1:]
    odd = np.flatnonzero((fields != 0) & (fields != 3))
    stop = (int(odd[0]) + 2, f"expected 3 fields, got {fields[odd[0]]}") if odd.size else None
    blank = fields[: odd[0] if odd.size else fields.size] == 0
    blanks = np.cumsum(~blank)[blank].tolist()
    line = 1 + np.flatnonzero(~blank)
    at = nl[line]
    # Each record's previous line end, two commas and line end: its fields lie between.
    edge = [sep[at + k] for k in range(-3, 1)]
    edge[3] -= crlf[line]
    del sep, nl, crlf, length, fields, blank, line, at
    return header, [_intern(buf, edge[i] + 1, edge[i + 1]) for i in range(3)], blanks, stop


def _intern(buf: np.ndarray, s: np.ndarray, e: np.ndarray):
    """The fields ``buf[s:e]`` as ``(texts, codes)``, numbered in byte order.

    A column whose every field reads ``YYYY-MM-DD`` is ranked by the fields' digits.
    Otherwise a field's code after its 8-byte word ``k``, read as a big-endian
    number, is the rank of its pair (code before, rank of word ``k``), so fields
    of any length share a code only if equal (none holds a NUL).
    """
    words = np.ndarray(buf.size - 7, dtype="<u8", buffer=buf, strides=(1,))  # the word at each byte
    n = e - s
    longest = int(n.max(initial=0))
    key = _iso_key(words, s) if (n == 10).all() else None
    if key is not None:
        codes = _rank(key)
    else:
        codes = np.zeros(n.size, dtype=np.int64)
        for k in range(0, longest, 8):
            word = (words[s + np.minimum(n, k)] & _FIRST_BYTES[np.clip(n - k, 0, 8)]).byteswap()
            if longest - k < 8:  # a short last word, such as a label's, spans a small range
                word >>= np.uint64(64 - 8 * (longest - k))
            word = _rank(word)
            codes = _rank(codes * (int(word.max()) + 1) + word) if k else word
    del key
    one = np.empty(codes.max(initial=-1) + 1, dtype=np.int64)
    one[codes] = np.arange(n.size)  # a field with each code
    # The distinct fields, each with the byte after it made an LF, decoded at once:
    # their places are a running sum of steps, 1 but from one field to the next.
    s, e = s[one], e[one]
    step = e - s + 1
    end = np.cumsum(step)
    at = np.ones(end[-1] if end.size else 0, dtype=s.dtype)
    at[end - step] = s - np.append(0, e[:-1])
    chunk = buf[np.cumsum(at, out=at)]
    chunk[end - 1] = 10
    return chunk.tobytes().decode("utf-8", "surrogatepass").split("\n")[:-1], codes


def _rank(key: np.ndarray) -> np.ndarray:
    """Each key's rank among the distinct keys: by one table of the keys' range
    where it is shorter than the keys, else by a sort."""
    lo, hi = (int(key.min()), int(key.max())) if key.size else (0, -1)
    if hi - lo < key.size:
        seen = np.zeros(hi - lo + 1, dtype=bool)
        seen[key - lo] = True
        return (np.cumsum(seen) - 1)[key - lo]
    return np.unique(key, return_inverse=True)[1]


def _iso_key(words: np.ndarray, s: np.ndarray) -> Optional[np.ndarray]:
    """``(year * 13 + month) * 32 + day`` of each field at ``s``, or ``None``
    unless every one reads ``YYYY-MM-DD`` with a month to 12 and a day to 31."""
    u = np.uint64
    head, tail = words[s] ^ _ISO[0], words[s + 2] ^ _ISO[1]
    if ((head | head + _ISO_ADD[0] | tail | tail + _ISO_ADD[1]) & _HIGH_NIBBLES).any():
        return None
    # Each byte now holds its digit.  The eight digits, a byte each (the year's
    # and the month's from the head, the day's from the tail's last two bytes),
    # then every pair as one number, 16 bits apart: century, year, month, day.
    d = head & u(0xFFFFFFFF) | head >> u(8) & u(0xFFFF << 32) | tail & u(0xFFFF << 48)
    d = (d * u(10) + (d >> u(8))) & u(0x00FF00FF00FF00FF)
    month, day = d >> u(32) & u(0xFF), d >> u(48)
    if (month > 12).any() or (day > 31).any():
        return None
    return (((d & u(0xFF)) * u(100) + (d >> u(16) & u(0xFF))) * u(13) + month) * u(32) + day


def write_panel_csv(panel: Panel, target: Target) -> None:
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


def write_count_series_csv(series: tuple[np.ndarray, np.ndarray], target: Target) -> None:
    """Write a ``(dates, values)`` series as ``date,value`` rows, formatting one row at a time."""
    days, values = series
    write_csv(target, ["date", "value"], ((str(d), format_float(v)) for d, v in zip(days, values)))
