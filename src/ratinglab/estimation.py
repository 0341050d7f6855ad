"""Transition counts, exposures, generator estimation, and matrix algebra.

The duration (intensity) estimator divides the count of i->j state
changes inside a window by the time the cross-section spent in state i,
in bank-years; the diagonal is fixed by zero row sums.  The matching
probability matrix over the window is the exponential of the estimated
generator scaled by the window length in years.  The cohort estimator
is the model-free alternative built from start/end state pairs.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Optional, Union

import numpy as np
import scipy.linalg

from .dates import DAYS_PER_YEAR
from .panel import Panel
from .scale import N_STATES, RATING_LABELS
from .textio import text_stream

__all__ = [
    "CountMatrix",
    "ExposureVector",
    "TransitionMatrix",
    "GeneratorMatrix",
    "count_transitions",
    "transitions_through",
    "exposures",
    "bank_days_before",
    "exposure_vector",
    "estimate_generator",
    "matrix_exponential",
    "empirical_transition_matrix",
    "write_matrix_csv",
    "read_matrix_csv",
]

ROW_SUM_TOL = 1e-9
ENTRY_TOL = 1e-12
GENERATOR_ROW_SUM_TOL = 1e-12

Window = tuple[dt.date, dt.date]


def _check_window(window: Window) -> Window:
    t0, tf = window
    if tf <= t0:
        raise ValueError(f"invalid window: start {t0} not before end {tf}")
    return window


@dataclass(frozen=True)
class CountMatrix:
    """Off-diagonal state-change counts inside a window (diagonal is zero)."""

    window: Window
    counts: np.ndarray

    def __post_init__(self):
        _check_window(self.window)
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape != (N_STATES, N_STATES):
            raise ValueError(f"counts must be {N_STATES}x{N_STATES}")
        if np.any(c < 0):
            raise ValueError("negative transition count")
        if np.any(np.diagonal(c) != 0):
            raise ValueError("count matrix must have a zero diagonal")
        object.__setattr__(self, "counts", c)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class ExposureVector:
    """Per-state occupancy inside a window, in bank-years."""

    window: Window
    exposure: np.ndarray

    def __post_init__(self):
        _check_window(self.window)
        e = np.asarray(self.exposure, dtype=np.float64)
        if e.shape != (N_STATES,):
            raise ValueError(f"exposure must have length {N_STATES}")
        if np.any(e < 0):
            raise ValueError("negative exposure")
        object.__setattr__(self, "exposure", e)


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic probability matrix, optionally tied to a window."""

    entries: np.ndarray
    window: Optional[Window] = None

    def __post_init__(self):
        if self.window is not None:
            _check_window(self.window)
        m = np.asarray(self.entries, dtype=np.float64)
        if m.shape != (N_STATES, N_STATES):
            raise ValueError(f"entries must be {N_STATES}x{N_STATES}")
        if not np.all(np.isfinite(m)):
            raise ValueError("non-finite transition probability")
        if m.min() < -ENTRY_TOL or m.max() > 1.0 + ENTRY_TOL:
            raise ValueError("transition probabilities outside [0, 1]")
        row_err = np.abs(m.sum(axis=1) - 1.0).max()
        if row_err > ROW_SUM_TOL:
            raise ValueError(f"row sums deviate from 1 by {row_err:.3e}")
        object.__setattr__(self, "entries", m)


@dataclass(frozen=True)
class GeneratorMatrix:
    """Intensity matrix: nonnegative off-diagonal, zero row sums; per year.

    A row sum may deviate from 0 by 1e-12 times the row's absolute sum,
    or by 1e-12 when that sum is at most 1.
    """

    entries: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.entries, dtype=np.float64)
        if q.shape != (N_STATES, N_STATES):
            raise ValueError(f"entries must be {N_STATES}x{N_STATES}")
        if not np.all(np.isfinite(q)):
            raise ValueError("non-finite generator entry")
        off = q[~np.eye(N_STATES, dtype=bool)]
        if off.min() < 0.0:
            raise ValueError("negative off-diagonal rate")
        # Roundoff in a row sum grows with the row's magnitude.
        row_err = np.abs(q.sum(axis=1))
        if np.any(row_err > GENERATOR_ROW_SUM_TOL * np.maximum(np.abs(q).sum(axis=1), 1.0)):
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
    _check_window((t0, tf))
    through = transitions_through(panel, [panel.day_offset(t0), panel.day_offset(tf)])
    return CountMatrix(window=(t0, tf), counts=through[1] - through[0])


def exposures(panel: Panel, t0: dt.date, tf: dt.date) -> ExposureVector:
    """Bank-years spent per state over the window.

    Daily left-endpoint Riemann sum: each day ``t0 <= d < tf`` a bank is
    rated contributes 1/365 of a bank-year to its state on that day.
    """
    _check_window((t0, tf))
    before = bank_days_before(panel, [panel.day_offset(t0), panel.day_offset(tf)])
    return exposure_vector(before[1] - before[0], (t0, tf))


def exposure_vector(bank_days: np.ndarray, window: Window) -> ExposureVector:
    """Exposure from integer bank-days per state, converted to bank-years."""
    return ExposureVector(window=window, exposure=bank_days / DAYS_PER_YEAR)


def estimate_generator(counts: CountMatrix, exposure: ExposureVector) -> GeneratorMatrix:
    """Duration estimate of the constant generator over one window.

    Off-diagonal: counts[i, j] / exposure[i]; the diagonal makes each
    row sum to zero.  States with zero exposure get an all-zero row
    (nothing was observed there); counts in such a row are inconsistent
    inputs and raise.
    """
    e = exposure.exposure
    c = counts.counts.astype(np.float64)
    empty = e == 0.0
    inconsistent = empty & (c.sum(axis=1) > 0)
    if np.any(inconsistent):
        bad = int(np.nonzero(inconsistent)[0][0])
        raise ValueError(f"state {bad}: transitions recorded with zero exposure")
    q = np.zeros((N_STATES, N_STATES), dtype=np.float64)
    occupied = ~empty
    q[occupied] = c[occupied] / e[occupied, None]
    np.fill_diagonal(q, -q.sum(axis=1))
    return GeneratorMatrix(entries=q)


def matrix_exponential(q: GeneratorMatrix, t: float) -> TransitionMatrix:
    """Transition matrix ``exp(Q t)`` for a window of ``t`` years.

    Delegates to scipy's scaling-and-squaring Pade implementation; the
    result is validated against the row-stochastic invariants.
    """
    if not np.isfinite(t) or t < 0:
        raise ValueError(f"t must be a finite nonnegative duration, got {t}")
    m = scipy.linalg.expm(q.entries * float(t))
    return TransitionMatrix(entries=m)


def empirical_transition_matrix(panel: Panel, t0: dt.date, tf: dt.date) -> TransitionMatrix:
    """Cohort estimate over the window: start-state to end-state frequencies.

    Row i holds, among banks in state i on ``t0`` and still rated on
    ``tf``, the fraction ending in each state.  Rows with an empty
    cohort are identity rows, keeping the matrix stochastic.
    """
    _check_window((t0, tf))
    start, end = panel.states_at_many([(t - panel.span[0]).days for t in (t0, tf)])
    return cohort_matrix(start, end, (t0, tf))


def cohort_matrix(start: np.ndarray, end: np.ndarray, window: Window) -> TransitionMatrix:
    """Cohort matrix from the cross-sections on a window's two ends (-1: unrated)."""
    both = (start >= 0) & (end >= 0)
    # Widen before scaling: int8 cross-sections would wrap at 14 * 15.
    pair = start[both].astype(np.int64) * N_STATES + end[both]
    counts = np.bincount(pair, minlength=N_STATES * N_STATES).reshape(N_STATES, N_STATES)
    totals = counts.sum(axis=1)
    m = np.eye(N_STATES, dtype=np.float64)
    occupied = totals > 0
    m[occupied] = counts[occupied] / totals[occupied, None]
    return TransitionMatrix(entries=m, window=window)


def write_matrix_csv(
    matrix: Union[TransitionMatrix, GeneratorMatrix, np.ndarray],
    target: Union[str, Path, IO[str]],
) -> None:
    """Write a 15x15 matrix with label headers at 17 significant digits."""
    m = matrix if isinstance(matrix, np.ndarray) else matrix.entries
    with text_stream(target, "w") as stream:
        writer = csv.writer(stream)
        writer.writerow(["state"] + list(RATING_LABELS))
        for i, row in enumerate(np.asarray(m, dtype=np.float64)):
            writer.writerow([RATING_LABELS[i]] + [format(v, ".17g") for v in row])


def read_matrix_csv(source: Union[str, Path, IO[str]]) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix_csv`."""
    with text_stream(source) as stream:
        reader = csv.reader(stream)
        header = next(reader)
        if header != ["state"] + list(RATING_LABELS):
            raise ValueError("unexpected matrix header")
        rows = []
        for i, row in enumerate(reader):
            if row[0] != RATING_LABELS[i]:
                raise ValueError(f"unexpected row label {row[0]!r}")
            rows.append([float(v) for v in row[1:]])
    m = np.asarray(rows, dtype=np.float64)
    if m.shape != (N_STATES, N_STATES):
        raise ValueError("matrix is not 15x15")
    return m
