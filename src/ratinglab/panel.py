"""Domain model: the pooled cross-bank panel and per-bank history views.

A panel is stored only as arrays in compressed-sparse-row form: banks
sorted by id, bank ``k`` owning events ``offsets[k]:offsets[k+1]`` of
``event_day`` (day offset from the span start) and ``event_state``, and
rated from its first event through day ``coverage_end[k]``.  A bank's
rating on day ``t`` is the state of its most recent event on or before
``t``; outside its coverage it is unrated.  :class:`RatingHistory`
objects are views built on request, and an input to ``Panel``.
"""

from __future__ import annotations

import bisect
import datetime as dt
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .errors import SpanError
from .scale import N_STATES

__all__ = ["RatingEvent", "RatingHistory", "Increment", "Panel"]


@dataclass(frozen=True)
class RatingEvent:
    """A dated rating assignment (state change or initial rating)."""

    date: dt.date
    state: int

    def __post_init__(self):
        if not 0 <= self.state < N_STATES:
            raise ValueError(f"state {self.state} outside 0..{N_STATES - 1}")


@dataclass(frozen=True)
class Increment:
    """Signed rating change of one bank over a trailing period of ``tau`` days."""

    bank_id: str
    t: dt.date
    tau: int
    value: int


@dataclass(frozen=True)
class RatingHistory:
    """Date-ascending rating events of one bank plus its coverage end.

    Invariants enforced here: events strictly increasing in date,
    consecutive events change the state (re-affirmations are collapsed
    at ingestion), and coverage runs from the first event date through
    ``coverage_end`` inclusive.
    """

    bank_id: str
    events: tuple[RatingEvent, ...]
    coverage_end: dt.date

    def __post_init__(self):
        if not self.events:
            raise ValueError(f"bank {self.bank_id!r}: history has no events")
        for a, b in zip(self.events, self.events[1:]):
            if b.date <= a.date:
                raise ValueError(
                    f"bank {self.bank_id!r}: event dates not strictly increasing"
                )
            if b.state == a.state:
                raise ValueError(
                    f"bank {self.bank_id!r}: consecutive events repeat state {a.state}"
                )
        if self.coverage_end < self.events[-1].date:
            raise ValueError(
                f"bank {self.bank_id!r}: coverage ends before its last event"
            )

    @property
    def coverage(self) -> tuple[dt.date, dt.date]:
        """[first rated day, last rated day]."""
        return (self.events[0].date, self.coverage_end)

    @cached_property
    def _event_dates(self) -> list[dt.date]:
        return [e.date for e in self.events]

    def rating_at(self, t: dt.date) -> Optional[int]:
        """State on day ``t``, or ``None`` if the bank is unrated then.

        Step-function evaluation: the state of the most recent event on
        or before ``t``.  Absence (before the first event, or after
        withdrawal) is a value, not an error.
        """
        if t < self.events[0].date or t > self.coverage_end:
            return None
        idx = bisect.bisect_right(self._event_dates, t) - 1
        return self.events[idx].state

    def increment(self, t: dt.date, tau: int = 365) -> Optional[Increment]:
        """Rating change over ``[t - tau, t]``: ``R(t) - R(t - tau)``.

        Positive values are upgrades, negative downgrades.  ``None`` if
        either endpoint is unrated.
        """
        if tau < 1:
            raise ValueError(f"tau must be >= 1 day, got {tau}")
        now = self.rating_at(t)
        then = self.rating_at(t - dt.timedelta(days=tau))
        if now is None or then is None:
            return None
        return Increment(bank_id=self.bank_id, t=t, tau=tau, value=now - then)

    def transition_count(self) -> int:
        """Number of state changes (every event after the first)."""
        return len(self.events) - 1


def _frozen(values, dtype) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    a.flags.writeable = False
    return a


class Panel:
    """Immutable collection of rating histories over a global span.

    The span ``[start, end]`` is inclusive on both ends.  Arrays derived
    from the stored ones for the window statistics are built lazily and
    cached; the panel must not be mutated after construction.
    """

    def __init__(self, histories: Iterable[RatingHistory], span: tuple[dt.date, dt.date]):
        """Pack histories (in any order) into the panel's arrays."""
        start, end = span
        if end < start:
            raise SpanError(start, end)
        hist = sorted(histories, key=lambda h: h.bank_id)
        seen = set()
        for h in hist:
            if h.bank_id in seen:
                raise ValueError(f"duplicate bank_id {h.bank_id!r}")
            seen.add(h.bank_id)
            lo, hi = h.coverage
            if lo < start or hi > end:
                raise ValueError(
                    f"bank {h.bank_id!r}: coverage [{lo}, {hi}] outside span [{start}, {end}]"
                )
        events = [e for h in hist for e in h.events]
        self._store(
            [h.bank_id for h in hist],
            np.cumsum([0] + [len(h.events) for h in hist]),
            [(e.date - start).days for e in events],
            [e.state for e in events],
            [(h.coverage_end - start).days for h in hist],
            (start, end),
        )

    @classmethod
    def _from_arrays(cls, bank_ids, offsets, event_day, event_state, coverage_end, span):
        """Panel over already-validated CSR arrays; ``bank_ids`` must be sorted."""
        panel = cls.__new__(cls)
        panel._store(bank_ids, offsets, event_day, event_state, coverage_end, span)
        return panel

    def _store(self, bank_ids, offsets, event_day, event_state, coverage_end, span):
        self.span: tuple[dt.date, dt.date] = tuple(span)
        self.bank_ids: tuple[str, ...] = tuple(bank_ids)
        self.offsets = _frozen(offsets, np.int64)
        self.event_day = _frozen(event_day, np.int32)
        self.event_state = _frozen(event_state, np.int16)
        self.coverage_end = _frozen(coverage_end, np.int32)

    # -- basic queries ------------------------------------------------

    @property
    def n_banks(self) -> int:
        return len(self.bank_ids)

    def _history(self, k: int) -> RatingHistory:
        a, b = self.offsets[k], self.offsets[k + 1]
        start = self.span[0]
        events = tuple(
            RatingEvent(date=start + dt.timedelta(days=d), state=s)
            for d, s in zip(self.event_day[a:b].tolist(), self.event_state[a:b].tolist())
        )
        end = start + dt.timedelta(days=int(self.coverage_end[k]))
        return RatingHistory(bank_id=self.bank_ids[k], events=events, coverage_end=end)

    @cached_property
    def histories(self) -> tuple[RatingHistory, ...]:
        """Every bank's history view, in bank-id order."""
        return tuple(self._history(k) for k in range(self.n_banks))

    def history(self, bank_id: str) -> RatingHistory:
        k = bisect.bisect_left(self.bank_ids, bank_id)
        if k == self.n_banks or self.bank_ids[k] != bank_id:
            raise KeyError(bank_id)
        return self._history(k)

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

    def total_transitions(self) -> int:
        return len(self.event_day) - self.n_banks

    # -- derived arrays -----------------------------------------------

    @cached_property
    def _transition_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(day-offset, from-state, to-state) per state change, day-sorted."""
        later = np.ones(len(self.event_day), dtype=bool)
        later[self.offsets[:-1]] = False  # a bank's first event changes nothing
        idx = np.flatnonzero(later)
        off = self.event_day[idx]
        order = np.argsort(off, kind="stable")
        return off[order], self.event_state[idx - 1][order], self.event_state[idx][order]

    @cached_property
    def _segment_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Constant-state segments as (state, start-offset, end-offset).

        End offsets are exclusive: the bank holds ``state`` on every day
        ``start <= d < end``.  The last segment of a history ends one day
        past its coverage end.
        """
        seg_end = np.empty_like(self.event_day)
        seg_end[:-1] = self.event_day[1:]
        seg_end[self.offsets[1:] - 1] = self.coverage_end + 1
        return self.event_state, self.event_day, seg_end

    @cached_property
    def _event_keys(self) -> np.ndarray:
        """Per event ``bank * (n_days + 1) + day``: ascending, one key space."""
        stride = np.int64(self.n_days + 1)
        bank_base = np.arange(self.n_banks, dtype=np.int64) * stride
        return np.repeat(bank_base, np.diff(self.offsets)) + self.event_day

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
        query = np.arange(self.n_banks, dtype=np.int64) * np.int64(self.n_days + 1) + off
        # Last event on or before ``off`` in the whole key space; it is the
        # bank's own only if it lies inside the bank's slice.
        pos = np.searchsorted(self._event_keys, query, side="right") - 1
        valid = (pos >= self.offsets[:-1]) & (off <= self.coverage_end)
        out[valid] = self.event_state[pos[valid]]
        return out

    def count_rated(self, t: dt.date) -> int:
        """Number of banks rated on day ``t`` (errors outside the span)."""
        self.day_offset(t)
        return int(np.count_nonzero(self.states_at(t) >= 0))

    @cached_property
    def daily_state_counts(self) -> np.ndarray:
        """Array of shape (n_days, 15): banks per state per span day."""
        states, seg_a, seg_b = self._segment_arrays
        delta = np.zeros((self.n_days + 1, N_STATES), dtype=np.int64)
        np.add.at(delta, (seg_a, states), 1)
        np.add.at(delta, (np.minimum(seg_b, self.n_days), states), -1)
        return np.cumsum(delta[:-1], axis=0)
