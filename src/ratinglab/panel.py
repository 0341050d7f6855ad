"""Domain model: the pooled cross-bank rating panel, stored as arrays.

A panel is exactly its span, its sorted bank ids and four read-only
arrays in compressed-sparse-row form: bank ``k`` owns events
``offsets[k]:offsets[k+1]`` of ``event_day`` (day offset from the span
start) and ``event_state``, and is rated from its first event through
day ``coverage_end[k]``.  Within a bank, event days strictly increase
and consecutive states differ.  A bank's rating on day ``t`` is the
state of its most recent event on or before ``t``; outside its coverage
it is unrated.  Every query is a pass over these arrays; nothing
derived from them is cached.
"""

from __future__ import annotations

import datetime as dt

import numpy as np

from .errors import SpanError
from .scale import N_STATES

__all__ = ["Panel"]


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

    def __len__(self) -> int:
        return self.n_banks

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

    def states_at(self, t: dt.date) -> np.ndarray:
        """Cross-section of states on day ``t``; -1 where a bank is unrated.

        Dates outside the span are legal here and yield an all-unrated
        cross-section (needed when an increment endpoint precedes the
        span).
        """
        out = np.full(self.n_banks, -1, dtype=np.int64)
        off = (t - self.span[0]).days
        if not 0 <= off < self.n_days:
            return out
        # A bank's event days rise, so its events up to ``off`` are a prefix.
        seen = np.add.reduceat(self.event_day <= off, self.offsets[:-1], dtype=np.int64)
        valid = (seen > 0) & (off <= self.coverage_end)
        out[valid] = self.event_state[self.offsets[:-1][valid] + seen[valid] - 1]
        return out

    def daily_state_counts(self) -> np.ndarray:
        """Array of shape (n_days, 15): banks per state per span day."""
        delta = np.zeros((self.n_days + 1, N_STATES), dtype=np.int64)
        np.add.at(delta, (self.event_day, self.event_state), 1)
        np.add.at(delta, (np.minimum(self.segment_ends(), self.n_days), self.event_state), -1)
        return np.cumsum(delta[:-1], axis=0)
