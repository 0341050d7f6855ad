"""Rolling diagnostics for the homogeneity and Markov assumptions.

Two statistics per analysis window:

* ``homogeneity_L`` -- count-weighted mean log ratio between the
  probability matrix implied by the window's constant-generator fit and
  the cohort matrix observed over the same window.  Zero when both
  agree wherever transitions occurred; large magnitudes flag windows
  the constant-rate model cannot explain.
* ``ck_l2`` -- largest singular value of the difference between the
  full-window cohort matrix and the product of its two half-window
  cohort matrices.  A Markov process factorizes over subintervals, so
  persistent excursions from zero flag memory in the process.

A window is two day offsets into the panel's span; its half-window
midpoint and its length in years are taken from them.  A rolling
series takes the change counts, exposures and state-pair tables
(:meth:`Panel.pair_counts`) of its windows a pass of
:meth:`Panel.month_passes` at a time, and each pass's windows go
through the 15x15 algebra as one stack.  Series are written with
:func:`textio.write_csv`.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .dates import DAYS_PER_YEAR
from .estimation import (
    CountMatrix,
    TransitionMatrix,
    bank_days_before,
    cohort_matrix,
    estimate_generator,
    exposure_vector,
    matrix_exponential,
    transitions_through,
)
from .panel import Panel
from .scale import N_STATES
from .textio import Target, format_float, write_csv

__all__ = [
    "TestSeries",
    "homogeneity_statistic",
    "ck_deviation",
    "l2_norm",
    "rolling_series",
    "write_test_series_csv",
]

#: Entries below this are floored before taking logs, keeping the
#: statistic finite in the presence of empty cells.
PROBABILITY_FLOOR = 1e-12

STATISTICS = ("homogeneity_L", "ck_l2")
WINDOW_MONTHS = {"month": 1, "year": 12}


@dataclass(frozen=True)
class TestSeries:
    """Month-anchored sequence of one statistic over rolling windows, one array entry a window."""

    statistic: str
    window_length: str
    window_start: np.ndarray
    window_end: np.ndarray
    values: np.ndarray
    n_transitions: np.ndarray

    def __post_init__(self):
        if self.statistic not in STATISTICS:
            raise ValueError(f"unknown statistic {self.statistic!r}")
        if self.window_length not in WINDOW_MONTHS:
            raise ValueError(f"unknown window length {self.window_length!r}")
        columns = {"window_start": "datetime64[D]", "window_end": "datetime64[D]",
                   "values": np.float64, "n_transitions": np.int64}
        for name, dtype in columns.items():
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if len({getattr(self, name).shape for name in columns}) != 1:
            raise ValueError("series columns differ in shape")
        if np.any(self.window_start[1:] <= self.window_start[:-1]):
            raise ValueError("window starts not strictly increasing")
        if self.statistic == "ck_l2" and np.any(self.values < 0):
            raise ValueError("ck_l2 values must be nonnegative")


def l2_norm(a: np.ndarray) -> np.ndarray:
    """Largest singular value of each real matrix in a stack."""
    m = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return np.linalg.svd(m, compute_uv=False).max(axis=-1, initial=0.0)


def homogeneity_statistic(
    m: TransitionMatrix, m_e: TransitionMatrix, counts: CountMatrix
) -> np.ndarray:
    """Count-weighted mean log ratio between model and cohort matrices, per window.

    Entries of either matrix below :data:`PROBABILITY_FLOOR` are floored
    before the logs, so empty cells contribute a large-but-finite
    penalty instead of a singularity.  The signed value is returned;
    the CSV reporting layer emits the magnitude alongside it.
    """
    n = counts.counts
    total = counts.total
    if np.any(total == 0):
        raise ValueError("homogeneity statistic undefined without transitions")
    p = np.maximum(m.entries, PROBABILITY_FLOOR)
    p_e = np.maximum(m_e.entries, PROBABILITY_FLOOR)
    terms = n * (np.log(p) - np.log(p_e))
    return terms.reshape(terms.shape[:-2] + (N_STATES**2,)).sum(axis=-1) / total


def ck_deviation(panel: Panel, t0: dt.date, tf: dt.date) -> np.float64:
    """Half-window factorization error of the cohort matrices.

    With midpoint ``tm = t0 + (tf - t0) // 2`` days: the largest
    singular value of ``M(t0, tf) - M(t0, tm) @ M(tm, tf)``.
    """
    a, b = panel.window_days(t0, tf)
    if b - a < 2:
        raise ValueError(f"window must span at least 2 days, got {b - a}")
    return _windows(panel, "ck_l2", np.array([a, b]), 1)[2][0]


def rolling_series(panel: Panel, statistic: str, window_length: str = "year") -> TestSeries:
    """One point per month-start whose window fits inside the span.

    Homogeneity points with zero transitions in the window are omitted;
    the Chapman-Kolmogorov deviation is computed for every window.

    Each pass of :meth:`Panel.month_passes` takes running change
    counts and bank-days at its month starts, and the state-pair tables
    of its windows (and of their halves) from one :meth:`Panel.pair_counts`;
    the pass's windows are then one stack.
    """
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    if window_length not in WINDOW_MONTHS:
        raise ValueError(f"unknown window length {window_length!r}")
    months = WINDOW_MONTHS[window_length]
    passes = [_windows(panel, statistic, grid, months) for _, grid in panel.month_passes(months)]
    columns = [np.concatenate(column) for column in zip(*passes)] or [[]] * 4
    return TestSeries(statistic, window_length, *columns)


def _windows(panel: Panel, statistic: str, grid: np.ndarray, lag: int):
    """The windows from day ``grid[k]`` to ``grid[k + lag]``, as one stack.

    Returns the start and end dates, the value and the change count of
    each window the statistic keeps.
    """
    a, b = grid[:-lag], grid[lag:]
    through = transitions_through(panel, grid)
    counts = CountMatrix(counts=through[lag:] - through[:-lag])
    if statistic == "ck_l2":
        mid = (a + b) // 2
        pairs = panel.pair_counts(np.concatenate([a, a, mid]), np.concatenate([b, mid, b]))
        full, first, second = cohort_matrix(pairs.reshape(3, len(a), *pairs.shape[1:])).entries
        del pairs  # free the pass's tables before the algebra
        values = l2_norm(full - first @ second)
    else:
        keep = counts.total > 0
        a, b, counts = a[keep], b[keep], CountMatrix(counts=counts.counts[keep])
        before = bank_days_before(panel, grid)
        exposure = exposure_vector((before[lag:] - before[:-lag])[keep])
        m = matrix_exponential(estimate_generator(counts, exposure), (b - a) / DAYS_PER_YEAR)
        m_e = cohort_matrix(panel.pair_counts(a, b))
        values = homogeneity_statistic(m, m_e, counts)
    origin = np.datetime64(panel.span[0], "D")
    return origin + a, origin + b, values, counts.total


def write_test_series_csv(series: TestSeries, target: Target) -> None:
    """CSV: ``window_start,window_end,statistic,value,abs_value,n_transitions``."""
    header = ["window_start", "window_end", "statistic", "value", "abs_value", "n_transitions"]
    rows = (
        [t0, tf, series.statistic, format_float(value), format_float(abs(value)), n]
        for t0, tf, value, n in zip(
            series.window_start.astype(str), series.window_end.astype(str),
            series.values.tolist(), series.n_transitions.tolist(),
        )
    )
    write_csv(target, header, rows)
