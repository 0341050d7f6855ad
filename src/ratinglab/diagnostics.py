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

A rolling series takes the cross-sections, change counts and exposures
of its windows in one pass over the panel per :data:`WINDOWS_PER_PASS`
windows; only the 15x15 algebra is done window by window.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Union

import numpy as np

from .dates import month_starts, years_between
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
from .textio import text_stream

__all__ = [
    "TestPoint",
    "TestSeries",
    "homogeneity_statistic",
    "ck_deviation",
    "l2_norm",
    "rolling_series",
    "write_test_series_csv",
    "PROBABILITY_FLOOR",
]

#: Entries below this are floored before taking logs, keeping the
#: statistic finite in the presence of empty cells.
PROBABILITY_FLOOR = 1e-12

STATISTICS = ("homogeneity_L", "ck_l2")
WINDOW_MONTHS = {"month": 1, "year": 12}

#: Windows per pass over the panel (ten years of month windows).  A pass
#: holds running counts (1.8 kB a window) and cross-sections (up to two
#: bytes a bank a window), so a long series' memory stays bounded: on a
#: 2,500-bank, 24-year panel one pass for all 288 windows raised the
#: peak resident memory by 1.5 MB, passes of 120 windows by 0.5 MB.
WINDOWS_PER_PASS = 120


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


def _factorization_error(s0, sm, sf, t0: dt.date, tm: dt.date, tf: dt.date) -> float:
    full = cohort_matrix(s0, sf, (t0, tf))
    first = cohort_matrix(s0, sm, (t0, tm))
    second = cohort_matrix(sm, sf, (tm, tf))
    return l2_norm(full.entries - first.entries @ second.entries)


def _midpoint(t0: dt.date, tf: dt.date) -> dt.date:
    return t0 + dt.timedelta(days=(tf - t0).days // 2)


def ck_deviation(panel: Panel, t0: dt.date, tf: dt.date) -> float:
    """Half-window factorization error of the cohort matrices.

    With midpoint ``tm = t0 + (tf - t0) // 2`` days: the largest
    singular value of ``M(t0, tf) - M(t0, tm) @ M(tm, tf)``.
    """
    days = (tf - t0).days
    if days < 2:
        raise ValueError(f"window must span at least 2 days, got {days}")
    tm = _midpoint(t0, tf)
    s0, sm, sf = panel.states_at_many([(t - panel.span[0]).days for t in (t0, tm, tf)])
    return _factorization_error(s0, sm, sf, t0, tm, tf)


def rolling_series(panel: Panel, statistic: str, window_length: str = "year") -> TestSeries:
    """One point per month-start whose window fits inside the span.

    Homogeneity points with zero transitions in the window are omitted;
    the Chapman-Kolmogorov deviation is computed for every window.

    Every :data:`WINDOWS_PER_PASS` windows share one pass over the
    panel: running change counts and bank-days at every month start,
    and the cross-sections on every month start (and half-window
    midpoint) from one :meth:`Panel.states_at_many`.  Only the 15x15
    algebra is per window.
    """
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    months = WINDOW_MONTHS[window_length]
    starts = month_starts(*panel.span)
    points = []
    for lo in range(0, len(starts) - months, WINDOWS_PER_PASS):
        grid = starts[lo : lo + WINDOWS_PER_PASS + months]
        points += _series_points(panel, statistic, grid, months)
    return TestSeries(statistic=statistic, window_length=window_length, points=tuple(points))


def _series_points(panel: Panel, statistic: str, starts: list, months: int) -> list[TestPoint]:
    """The points of the windows from ``starts[k]`` to ``starts[k + months]``."""
    windows = list(zip(starts, starts[months:]))
    grid = [panel.day_offset(t) for t in starts]
    through = transitions_through(panel, grid)
    if statistic == "homogeneity_L":
        before = bank_days_before(panel, grid)
        mids = []
    else:
        mids = [_midpoint(t0, tf) for t0, tf in windows]
    mid_days = [panel.day_offset(t) for t in mids]
    # Distinct ascending days give the block without a reordering copy.
    days = np.unique(np.array(grid + mid_days, dtype=np.int64))
    states = panel.states_at_many(days)
    at = np.searchsorted(days, grid).tolist()
    mid_at = np.searchsorted(days, mid_days).tolist()
    points = []
    for k, (t0, tf) in enumerate(windows):
        counts = CountMatrix(window=(t0, tf), counts=through[k + months] - through[k])
        s0, sf = states[at[k]], states[at[k + months]]
        if statistic == "homogeneity_L":
            if counts.total == 0:
                continue
            exposure = exposure_vector(before[k + months] - before[k], (t0, tf))
            m = matrix_exponential(estimate_generator(counts, exposure), years_between(t0, tf))
            value = homogeneity_statistic(m, cohort_matrix(s0, sf, (t0, tf)), counts)
        else:
            value = _factorization_error(s0, states[mid_at[k]], sf, t0, mids[k], tf)
        points.append(
            TestPoint(window_start=t0, window_end=tf, value=value, n_transitions=counts.total)
        )
    return points


def write_test_series_csv(series: TestSeries, target: Union[str, Path, IO[str]]) -> None:
    """CSV: ``window_start,window_end,statistic,value,abs_value,n_transitions``."""
    with text_stream(target, "w") as stream:
        writer = csv.writer(stream)
        writer.writerow(
            ["window_start", "window_end", "statistic", "value", "abs_value", "n_transitions"]
        )
        for p in series.points:
            writer.writerow(
                [
                    p.window_start.isoformat(),
                    p.window_end.isoformat(),
                    series.statistic,
                    format(p.value, ".12g"),
                    format(abs(p.value), ".12g"),
                    p.n_transitions,
                ]
            )
