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
    "exposures",
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


def count_transitions(panel: Panel, t0: dt.date, tf: dt.date) -> CountMatrix:
    """Count state-change events with date in ``(t0, tf]`` per (from, to) pair.

    A path 5 -> 4 -> 3 inside the window contributes two counts, one per
    recorded state change, never a single 5 -> 3 entry.
    """
    _check_window((t0, tf))
    a = panel.day_offset(t0)
    b = panel.day_offset(tf)
    idx = panel.transitions()
    day = panel.event_day[idx]
    idx = idx[(day > a) & (day <= b)]
    pair = panel.event_state[idx - 1] * N_STATES + panel.event_state[idx]
    counts = np.bincount(pair, minlength=N_STATES * N_STATES).reshape(N_STATES, N_STATES)
    return CountMatrix(window=(t0, tf), counts=counts)


def exposures(panel: Panel, t0: dt.date, tf: dt.date) -> ExposureVector:
    """Bank-years spent per state over the window.

    Daily left-endpoint Riemann sum: each day ``t0 <= d < tf`` a bank is
    rated contributes 1/365 of a bank-year to its state on that day.
    """
    _check_window((t0, tf))
    a = panel.day_offset(t0)
    b = panel.day_offset(tf)
    days = np.minimum(panel.segment_ends(), b) - np.maximum(panel.event_day, a)
    np.clip(days, 0, None, out=days)
    bank_days = np.bincount(panel.event_state, days.astype(np.float64), minlength=N_STATES)
    return ExposureVector(window=(t0, tf), exposure=bank_days / DAYS_PER_YEAR)


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
    return cohort_matrix(panel.states_at(t0), panel.states_at(tf), (t0, tf))


def cohort_matrix(start: np.ndarray, end: np.ndarray, window: Window) -> TransitionMatrix:
    """Cohort matrix from the cross-sections on a window's two ends (-1: unrated)."""
    both = (start >= 0) & (end >= 0)
    pair = start[both] * N_STATES + end[both]
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
