"""Domain model: the pooled cross-bank rating panel, stored as arrays.

A panel is exactly its span, its sorted bank ids and four read-only
arrays in compressed-sparse-row form: bank ``k`` owns events
``offsets[k]:offsets[k+1]`` of ``event_day`` (day offset from the span
start) and ``event_state``, and is rated from its first event through
day ``coverage_end[k]``.  Within a bank, event days strictly increase
and consecutive states differ.  A bank's rating on day ``t`` is the
state of its most recent event on or before ``t``; outside its coverage
it is unrated.  Every query is a pass over these arrays; nothing
derived from them is cached.  :meth:`Panel.pair_counts` is the one
cross-section query the analyses make: it takes day pairs and returns
their state-pair count tables, from one :meth:`Panel.states_at_many`
sweep.  Both rolling series, the tests and the moments, walk the month
grid of :meth:`Panel.month_passes`, and cohort matrices and moments are
reductions of those tables.
"""

from __future__ import annotations

import datetime as dt

import numpy as np

from .errors import SpanError
from .scale import N_STATES

__all__ = ["Panel"]

#: Month starts per pass of a rolling series (ten years).  A pass holds
#: running counts and pair tables (about 2 kB a month each) and cross-sections
#: (up to two bytes a bank a month), so a long series' memory stays bounded: on a
#: 2,500-bank, 24-year panel one pass for all 288 windows raised the
#: peak resident memory by 1.5 MB, passes of 120 windows by 0.5 MB.
MONTHS_PER_PASS = 120


def _frozen(values, dtype) -> np.ndarray:
    a = np.asarray(values, dtype=dtype)
    a.flags.writeable = False
    return a


class Panel:
    """Immutable rating panel over a global span.

    The span ``[start, end]`` is inclusive on both ends.  The arrays
    must already be valid and ``bank_ids`` sorted: :func:`parse_panel`
    validates outside data, :func:`simulate` builds valid panels, and
    only the span is checked here.  The panel takes its arrays over: an
    array that already has the stored dtype is kept, not copied, and
    made read-only, so the caller must not write to it afterwards.
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
        """The span's month starts as ``(datetime64[D] dates, int64 day offsets)``,
        :data:`MONTHS_PER_PASS` a pass plus the next ``look_ahead``, so each window
        that many months long ends in its pass."""
        start, end = (np.datetime64(t, "D") for t in self.span)
        first = start.astype("datetime64[M]")
        starts = np.arange(first + int(first < start), end.astype("datetime64[M]") + 1)
        starts = starts.astype("datetime64[D]")
        days = (starts - start).astype(np.int64)
        for lo in range(0, len(starts) - look_ahead, MONTHS_PER_PASS):
            hi = lo + MONTHS_PER_PASS + look_ahead
            yield starts[lo:hi], days[lo:hi]

    def pair_counts(self, first_days, second_days) -> np.ndarray:
        """State-pair counts of day pairs, shape (pairs, 16, 16).

        ``[w, i + 1, j + 1]`` counts the banks in state ``i`` on day offset
        ``first_days[w]`` and in state ``j`` on ``second_days[w]``, index 0
        being unrated.  Days may repeat, come in any order and fall outside
        the span, where every bank is unrated.
        """
        first, second = (np.asarray(d, dtype=np.int64) for d in (first_days, second_days))
        days, rows = np.unique(np.concatenate([first, second]), return_inverse=True)
        block = self.states_at_many(days)
        levels = N_STATES + 1
        counts = np.empty((len(first), levels, levels), dtype=np.int64)
        for w, (i, j) in enumerate(rows.reshape(2, len(first)).T.tolist()):
            pair = levels * block[i].astype(np.int16) + block[j] + (levels + 1)  # int8 would wrap
            counts[w] = np.bincount(pair, minlength=levels * levels).reshape(levels, levels)
        return counts

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
