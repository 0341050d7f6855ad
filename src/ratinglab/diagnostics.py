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
series takes the change counts, exposures and cross-sections of its
windows a pass of :meth:`Panel.month_passes` at a time; only the 15x15
algebra is done window by window.  Series are written with
:func:`textio.write_csv`.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Union

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
from .textio import format_float, write_csv

__all__ = [
    "TestPoint",
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
class TestPoint:
    window_start: dt.date
    window_end: dt.date
    value: float
    n_transitions: int


@dataclass(frozen=True)
class TestSeries:
    """Month-anchored sequence of one statistic over rolling windows."""

    statistic: str
    window_length: str
    points: tuple[TestPoint, ...]

    def __post_init__(self):
        if self.statistic not in STATISTICS:
            raise ValueError(f"unknown statistic {self.statistic!r}")
        if self.window_length not in WINDOW_MONTHS:
            raise ValueError(f"unknown window length {self.window_length!r}")
        for a, b in zip(self.points, self.points[1:]):
            if b.window_start <= a.window_start:
                raise ValueError("window starts not strictly increasing")
        if self.statistic == "ck_l2" and any(p.value < 0 for p in self.points):
            raise ValueError("ck_l2 values must be nonnegative")

    @property
    def values(self) -> np.ndarray:
        return np.asarray([p.value for p in self.points], dtype=np.float64)


def l2_norm(a: np.ndarray) -> float:
    """Largest singular value of a real matrix."""
    m = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def homogeneity_statistic(
    m: TransitionMatrix, m_e: TransitionMatrix, counts: CountMatrix
) -> float:
    """Count-weighted mean log ratio between model and cohort matrices.

    Entries of either matrix below :data:`PROBABILITY_FLOOR` are floored
    before the logs, so empty cells contribute a large-but-finite
    penalty instead of a singularity.  The signed value is returned;
    the CSV reporting layer emits the magnitude alongside it.
    """
    n = counts.counts
    total = counts.total
    if total == 0:
        raise ValueError("homogeneity statistic undefined without transitions")
    p = np.maximum(m.entries, PROBABILITY_FLOOR)
    p_e = np.maximum(m_e.entries, PROBABILITY_FLOOR)
    return float((n * (np.log(p) - np.log(p_e))).sum() / total)


def _factorization_error(s0, sm, sf) -> float:
    full = cohort_matrix(s0, sf)
    first = cohort_matrix(s0, sm)
    second = cohort_matrix(sm, sf)
    return l2_norm(full.entries - first.entries @ second.entries)


def ck_deviation(panel: Panel, t0: dt.date, tf: dt.date) -> float:
    """Half-window factorization error of the cohort matrices.

    With midpoint ``tm = t0 + (tf - t0) // 2`` days: the largest
    singular value of ``M(t0, tf) - M(t0, tm) @ M(tm, tf)``.
    """
    a, b = panel.window_days(t0, tf)
    if b - a < 2:
        raise ValueError(f"window must span at least 2 days, got {b - a}")
    return _factorization_error(*panel.states_at_many([a, (a + b) // 2, b]))


def rolling_series(panel: Panel, statistic: str, window_length: str = "year") -> TestSeries:
    """One point per month-start whose window fits inside the span.

    Homogeneity points with zero transitions in the window are omitted;
    the Chapman-Kolmogorov deviation is computed for every window.

    Each pass of :meth:`Panel.month_passes` takes running change
    counts and bank-days at its month starts, and the cross-sections on
    them (and on the half-window midpoints) from one
    :meth:`Panel.cross_sections`.  Only the 15x15 algebra is per window.
    """
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    if window_length not in WINDOW_MONTHS:
        raise ValueError(f"unknown window length {window_length!r}")
    months = WINDOW_MONTHS[window_length]
    points = []
    for starts, grid in panel.month_passes(months):
        points += _series_points(panel, statistic, starts, grid, months)
    return TestSeries(statistic=statistic, window_length=window_length, points=tuple(points))


def _series_points(panel: Panel, statistic: str, starts, grid, months: int) -> list[TestPoint]:
    """The points of the windows from ``starts[k]`` to ``starts[k + months]``, on days ``grid``."""
    through = transitions_through(panel, grid)
    if statistic == "homogeneity_L":
        before = bank_days_before(panel, grid)
        mid_days = []
    else:
        mid_days = [(a + b) // 2 for a, b in zip(grid, grid[months:])]
    states, (at, mid_at) = panel.cross_sections(grid, mid_days)
    points = []
    for k, (t0, tf) in enumerate(zip(starts, starts[months:])):
        counts = CountMatrix(counts=through[k + months] - through[k])
        s0, sf = states[at[k]], states[at[k + months]]
        if statistic == "homogeneity_L":
            if counts.total == 0:
                continue
            exposure = exposure_vector(before[k + months] - before[k])
            years = (grid[k + months] - grid[k]) / DAYS_PER_YEAR
            m = matrix_exponential(estimate_generator(counts, exposure), years)
            value = homogeneity_statistic(m, cohort_matrix(s0, sf), counts)
        else:
            value = _factorization_error(s0, states[mid_at[k]], sf)
        points.append(
            TestPoint(window_start=t0, window_end=tf, value=value, n_transitions=counts.total)
        )
    return points


def write_test_series_csv(series: TestSeries, target: Union[str, Path, IO[str]]) -> None:
    """CSV: ``window_start,window_end,statistic,value,abs_value,n_transitions``."""
    header = ["window_start", "window_end", "statistic", "value", "abs_value", "n_transitions"]
    rows = (
        [p.window_start.isoformat(), p.window_end.isoformat(), series.statistic,
         format_float(p.value), format_float(abs(p.value)), p.n_transitions]
        for p in series.points
    )
    write_csv(target, header, rows)
