"""Domain model: the pooled cross-bank rating panel, stored as arrays.

A panel is exactly its span, its sorted bank ids and four read-only
arrays in compressed-sparse-row form: bank ``k`` owns events
``offsets[k]:offsets[k+1]`` of ``event_day`` (day offset from the span
start) and ``event_state``, and is rated from its first event through
day ``coverage_end[k]``.  Within a bank, event days strictly increase
and consecutive states differ.  A bank's rating on day ``t`` is the
state of its most recent event on or before ``t``; outside its coverage
it is unrated.  Every query is a pass over these arrays; nothing
derived from them is cached.  :meth:`Panel.states_at_many` is the one
cross-section query: it takes the cross-sections of many days in one
pass.  Both rolling series, the tests and the moments, walk the month
grid of :meth:`Panel.month_passes` and take each pass's cross-sections
with :meth:`Panel.cross_sections`.
"""

from __future__ import annotations

import datetime as dt

import numpy as np

from .dates import month_starts
from .errors import SpanError

__all__ = ["Panel"]

#: Month starts per pass of a rolling series (ten years).  A pass holds
#: running counts (1.8 kB a month) and cross-sections (up to two bytes a
#: bank a month), so a long series' memory stays bounded: on a
#: 2,500-bank, 24-year panel one pass for all 288 windows raised the
#: peak resident memory by 1.5 MB, passes of 120 windows by 0.5 MB.
MONTHS_PER_PASS = 120


def _frozen(values, dtype) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    a.flags.writeable = False
    return a


class Panel:
    """Immutable rating panel over a global span.

    The span ``[start, end]`` is inclusive on both ends.  The arrays
    must already be valid and ``bank_ids`` sorted: :func:`parse_panel`
    validates outside data, :func:`simulate` builds valid panels, and
    only the span is checked here.
    """

    def __init__(self, bank_ids, offsets, event_day, event_state, coverage_end, span):
        start, end = span
        if end < start:
            raise SpanError(start, end)
        self.span: tuple[dt.date, dt.date] = (start, end)
        self.bank_ids: tuple[str, ...] = tuple(bank_ids)
        self.offsets = _frozen(offsets, np.int64)
        self.event_day = _frozen(event_day, np.int32)
        self.event_state = _frozen(event_state, np.int16)
        self.coverage_end = _frozen(coverage_end, np.int32)

    # -- basic queries ------------------------------------------------

    @property
    def n_banks(self) -> int:
        return len(self.bank_ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Panel):
            return NotImplemented
        return (
            self.span == other.span
            and self.bank_ids == other.bank_ids
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in ("offsets", "event_day", "event_state", "coverage_end")
            )
        )

    @property
    def n_days(self) -> int:
        """Number of calendar days in the span, inclusive."""
        return (self.span[1] - self.span[0]).days + 1

    def day_offset(self, t: dt.date) -> int:
        """Day index of ``t`` within the span; raises if outside."""
        off = (t - self.span[0]).days
        if not 0 <= off < self.n_days:
            raise ValueError(f"date {t} outside span [{self.span[0]}, {self.span[1]}]")
        return off

    def window_days(self, t0: dt.date, tf: dt.date) -> tuple[int, int]:
        """The day offsets of a window's ends; raises unless ``t0 < tf`` inside the span."""
        a, b = self.day_offset(t0), self.day_offset(tf)
        if b <= a:
            raise ValueError(f"invalid window: start {t0} not before end {tf}")
        return a, b

    # -- passes over the arrays ---------------------------------------

    def transitions(self) -> np.ndarray:
        """Event indices of every state change: each bank's non-first events.

        State change ``i`` goes from ``event_state[i - 1]`` to
        ``event_state[i]`` on day ``event_day[i]``.
        """
        later = np.ones(len(self.event_day), dtype=bool)
        later[self.offsets[:-1]] = False  # a bank's first event changes nothing
        return np.flatnonzero(later)

    def segment_ends(self) -> np.ndarray:
        """Exclusive end day of the constant-state segment each event opens.

        The bank holds ``event_state[i]`` on every day ``d`` with
        ``event_day[i] <= d < segment_ends()[i]``.  A bank's last segment
        ends one day past its coverage end.
        """
        seg_end = np.empty_like(self.event_day)
        seg_end[:-1] = self.event_day[1:]
        seg_end[self.offsets[1:] - 1] = self.coverage_end + 1
        return seg_end

    def month_passes(self, look_ahead: int = 0):
        """The span's month starts as ``(dates, day offsets)``, :data:`MONTHS_PER_PASS` a pass
        plus the next ``look_ahead``, so each window that many months long ends in its pass."""
        starts = month_starts(*self.span)
        for lo in range(0, len(starts) - look_ahead, MONTHS_PER_PASS):
            dates = starts[lo : lo + MONTHS_PER_PASS + look_ahead]
            yield dates, [self.day_offset(t) for t in dates]

    def cross_sections(self, *day_lists) -> tuple[np.ndarray, list[list[int]]]:
        """A :meth:`states_at_many` block of every list's days, and each list's rows in it."""
        days = np.unique(np.concatenate([np.asarray(d, dtype=np.int64) for d in day_lists]))
        return self.states_at_many(days), [np.searchsorted(days, d).tolist() for d in day_lists]

    def states_at_many(self, days) -> np.ndarray:
        """Cross-sections on many days, as an int8 block of shape (len(days), n_banks).

        Row ``r`` holds every bank's state on day offset ``days[r]``
        (days from the span start, strictly ascending, else ValueError),
        -1 where the bank is unrated.  Days outside the span give all -1.

        One sweep over the events builds every row: each event adds its
        change of state (from -1 for a bank's first event) at the first
        requested day on or after it, each bank adds its return to -1 at
        the first requested day after its coverage end, and a running
        sum down the rows completes the block.
        """
        days = np.asarray(days, dtype=np.int64)
        if np.any(days[1:] <= days[:-1]):
            raise ValueError("days must be strictly ascending")
        n_banks = self.n_banks
        # One spare row takes the changes after the last requested day.
        delta = np.zeros((len(days) + 1, n_banks), dtype=np.int8)
        delta[0] = -1
        first, last = self.offsets[:-1], self.offsets[1:] - 1
        step = np.diff(self.event_state, prepend=self.event_state[:1])
        step[first] = self.event_state[first] + 1
        bank = np.repeat(np.arange(n_banks), np.diff(self.offsets))
        cell = np.searchsorted(days, self.event_day) * n_banks + bank
        np.add.at(delta.reshape(-1), cell, step.astype(np.int8))
        lapse = np.searchsorted(days, self.coverage_end, side="right")
        delta[lapse, np.arange(n_banks)] -= (self.event_state[last] + 1).astype(np.int8)
        # Every partial sum is a state or -1, so int8 holds it exactly.
        np.cumsum(delta, axis=0, out=delta)
        return delta[:-1]
