"""Transition counts, exposures, generator estimation, and matrix algebra.

The duration (intensity) estimator divides the count of i->j state
changes inside a window by the time the cross-section spent in state i,
in bank-years; the diagonal is fixed by zero row sums.  The matching
probability matrix over the window is the exponential of the estimated
generator scaled by the window length in years.  The cohort estimator
is the model-free alternative built from start/end state pairs.

A window is two day offsets into the panel's span, taken once from its
dates by :meth:`Panel.window_days`; the matrices carry no window of
their own.  Each matrix type and estimator takes a stack of windows,
shape ``(..., 15, 15)`` (``(..., 15)`` for exposure), and works on each
window alone; a single window is the stack with no leading axis.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .dates import DAYS_PER_YEAR
from .panel import Panel
from .scale import N_STATES

__all__ = [
    "CountMatrix",
    "ExposureVector",
    "TransitionMatrix",
    "GeneratorMatrix",
    "count_transitions",
    "exposures",
    "estimate_generator",
    "matrix_exponential",
    "empirical_transition_matrix",
]

ROW_SUM_TOL = 1e-9
ENTRY_TOL = 1e-12
GENERATOR_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class CountMatrix:
    """Off-diagonal state-change counts inside a window (diagonal is zero)."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape[-2:] != (N_STATES, N_STATES):
            raise ValueError(f"counts must be {N_STATES}x{N_STATES}")
        if np.any(c < 0):
            raise ValueError("negative transition count")
        if np.any(np.diagonal(c, axis1=-2, axis2=-1) != 0):
            raise ValueError("count matrix must have a zero diagonal")
        object.__setattr__(self, "counts", c)

    @property
    def total(self) -> np.ndarray:
        """The number of state changes in each window."""
        return self.counts.sum(axis=(-2, -1))


@dataclass(frozen=True)
class ExposureVector:
    """Per-state occupancy inside a window, in bank-years."""

    exposure: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.exposure, dtype=np.float64)
        if e.shape[-1:] != (N_STATES,):
            raise ValueError(f"exposure must have length {N_STATES}")
        if np.any(e < 0):
            raise ValueError("negative exposure")
        object.__setattr__(self, "exposure", e)


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic probability matrix."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.float64)
        if m.shape[-2:] != (N_STATES, N_STATES):
            raise ValueError(f"entries must be {N_STATES}x{N_STATES}")
        if not np.all(np.isfinite(m)):
            raise ValueError("non-finite transition probability")
        if np.any(m < -ENTRY_TOL) or np.any(m > 1.0 + ENTRY_TOL):
            raise ValueError("transition probabilities outside [0, 1]")
        row_err = np.abs(m.sum(axis=-1) - 1.0).max(initial=0.0)
        if row_err > ROW_SUM_TOL:
            raise ValueError(f"row sums deviate from 1 by {row_err:.3e}")
        object.__setattr__(self, "entries", m)


@dataclass(frozen=True)
class GeneratorMatrix:
    """Intensity matrix: nonnegative off-diagonal, zero row sums; per year.

    A row sum may deviate from 0 by 1e-12 times the row's largest
    entry magnitude, or by 1e-12 when that is at most 1.
    """

    entries: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.entries, dtype=np.float64)
        if q.shape[-2:] != (N_STATES, N_STATES):
            raise ValueError(f"entries must be {N_STATES}x{N_STATES}")
        if not np.all(np.isfinite(q)):
            raise ValueError("non-finite generator entry")
        if np.any(q[..., ~np.eye(N_STATES, dtype=bool)] < 0.0):
            raise ValueError("negative off-diagonal rate")
        # Roundoff in a row sum grows with the row's magnitude, here its largest
        # entry, which cannot overflow; an overflowing row sum is inf and fails.
        with np.errstate(over="ignore"):
            row_err = np.abs(q.sum(axis=-1))
        if np.any(row_err > GENERATOR_ROW_SUM_TOL * np.maximum(np.abs(q).max(axis=-1), 1.0)):
            raise ValueError(f"row sums deviate from 0 by {row_err.max():.3e}")
        object.__setattr__(self, "entries", q)


def transitions_through(panel: Panel, days) -> np.ndarray:
    """Running change counts: ``[r, i, j]`` counts i -> j changes dated on or before ``days[r]``.

    ``days`` are ascending day offsets from the span start.  Each state
    change is bucketed once, at the first listed day on or after it, and
    a running sum over the buckets gives every row, so the counts of a
    window ``(a, b]`` are row ``b`` minus row ``a``.
    """
    days = np.asarray(days, dtype=np.int64)
    idx = panel.transitions()
    pair = panel.event_state[idx - 1] * N_STATES + panel.event_state[idx]
    cell = np.searchsorted(days, panel.event_day[idx]) * N_STATES**2 + pair
    hist = np.bincount(cell, minlength=(len(days) + 1) * N_STATES**2)
    # The spare last bucket holds the changes after the last listed day.
    hist = hist.reshape(-1, N_STATES, N_STATES)[:-1]
    return np.cumsum(hist, axis=0, out=hist)


def bank_days_before(panel: Panel, days) -> np.ndarray:
    """Running occupancy: ``[r, s]`` is the bank-days spent in state ``s`` before ``days[r]``.

    ``days`` are ascending day offsets from the span start.  A segment
    held on days ``[u, v)`` adds ``max(0, min(x, v) - u)`` on day ``x``:
    ``x - u`` once ``x`` passes ``u``, less ``x - v`` once it passes
    ``v``.  So each row is ``x`` times a running count of passed
    segment starts less ends, minus a running sum of their days; both
    are exact integers, and no per-day array is built, so a span may
    run for millennia.
    """
    days = np.asarray(days, dtype=np.int64)
    size = (len(days) + 1) * N_STATES
    passed = np.zeros(size, dtype=np.int64)
    day_sum = np.zeros(size, dtype=np.int64)
    for points, sign in ((panel.event_day, 1), (panel.segment_ends(), -1)):
        # Cell (first listed day past the point, state); the spare last row is never read.
        cell = np.searchsorted(days, points, side="right") * N_STATES + panel.event_state
        passed += sign * np.bincount(cell, minlength=size)
        np.add.at(day_sum, cell, sign * points.astype(np.int64))
    passed, day_sum = (np.cumsum(a.reshape(-1, N_STATES)[:-1], axis=0) for a in (passed, day_sum))
    return days[:, None] * passed - day_sum


def count_transitions(panel: Panel, t0: dt.date, tf: dt.date) -> CountMatrix:
    """Count state-change events with date in ``(t0, tf]`` per (from, to) pair.

    A path 5 -> 4 -> 3 inside the window contributes two counts, one per
    recorded state change, never a single 5 -> 3 entry.
    """
    through = transitions_through(panel, panel.window_days(t0, tf))
    return CountMatrix(counts=through[1] - through[0])


def exposures(panel: Panel, t0: dt.date, tf: dt.date) -> ExposureVector:
    """Bank-years spent per state over the window.

    Daily left-endpoint Riemann sum: each day ``t0 <= d < tf`` a bank is
    rated contributes 1/365 of a bank-year to its state on that day.
    """
    before = bank_days_before(panel, panel.window_days(t0, tf))
    return exposure_vector(before[1] - before[0])


def exposure_vector(bank_days: np.ndarray) -> ExposureVector:
    """Exposure from integer bank-days per state, converted to bank-years."""
    return ExposureVector(exposure=bank_days / DAYS_PER_YEAR)


def estimate_generator(counts: CountMatrix, exposure: ExposureVector) -> GeneratorMatrix:
    """Duration estimate of the constant generator over each window.

    Off-diagonal: counts[i, j] / exposure[i]; the diagonal makes each
    row sum to zero.  States with zero exposure get an all-zero row
    (nothing was observed there); counts in such a row are inconsistent
    inputs and raise.
    """
    e = exposure.exposure[..., None]
    c = counts.counts.astype(np.float64)
    inconsistent = (e == 0.0) & (c > 0)
    if np.any(inconsistent):
        bad = int(np.nonzero(inconsistent)[-2][0])
        raise ValueError(f"state {bad}: transitions recorded with zero exposure")
    q = np.divide(c, e, out=np.zeros(np.broadcast_shapes(c.shape, e.shape)), where=e != 0.0)
    diag = np.arange(N_STATES)
    q[..., diag, diag] = -q.sum(axis=-1)
    return GeneratorMatrix(entries=q)


def matrix_exponential(q: GeneratorMatrix, t: float | np.ndarray) -> TransitionMatrix:
    """Transition matrix ``exp(Q t)`` for each window, of ``t`` years each.

    Delegates to scipy's scaling-and-squaring Pade implementation, which
    takes the windows one by one; the result is validated against the
    row-stochastic invariants.  scipy is imported on first use: only
    ``homogeneity`` needs it, and it is most of the package's import time.
    """
    import scipy.linalg

    t = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(t) & (t >= 0)):
        raise ValueError(f"t must be a finite nonnegative duration, got {t}")
    return TransitionMatrix(entries=scipy.linalg.expm(q.entries * t[..., None, None]))


def empirical_transition_matrix(panel: Panel, t0: dt.date, tf: dt.date) -> TransitionMatrix:
    """Cohort estimate over the window: start-state to end-state frequencies.

    Row i holds, among banks in state i on ``t0`` and still rated on
    ``tf``, the fraction ending in each state.  Rows with an empty
    cohort are identity rows, keeping the matrix stochastic.
    """
    start, end = panel.states_at_many(panel.window_days(t0, tf))
    return cohort_matrix(start, end)


def cohort_matrix(start: np.ndarray, end: np.ndarray) -> TransitionMatrix:
    """Cohort matrices from the cross-sections on each window's two ends (-1: unrated).

    ``start`` and ``end`` are ``(..., n_banks)``; the pairs are counted
    one window at a time, which keeps the temporaries to one row's size.
    """
    counts = np.empty(start.shape[:-1] + (N_STATES, N_STATES), dtype=np.int64)
    for w in np.ndindex(start.shape[:-1]):
        both = (start[w] >= 0) & (end[w] >= 0)
        # Widen before scaling: int8 cross-sections would wrap at 14 * 15.
        pair = start[w][both].astype(np.int64) * N_STATES + end[w][both]
        counts[w] = np.bincount(pair, minlength=N_STATES * N_STATES).reshape(N_STATES, N_STATES)
    totals = counts.sum(axis=-1, keepdims=True)
    m = np.broadcast_to(np.eye(N_STATES), counts.shape).copy()
    np.divide(counts, totals, out=m, where=totals > 0)
    return TransitionMatrix(entries=m)
