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
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Optional, Union

import numpy as np

from .dates import add_months, month_starts, years_between
from .estimation import (
    CountMatrix,
    TransitionMatrix,
    cohort_matrix,
    count_transitions,
    empirical_transition_matrix,
    estimate_generator,
    exposures,
    matrix_exponential,
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


def _window_homogeneity(panel: Panel, t0: dt.date, tf: dt.date) -> Optional[tuple[float, int]]:
    counts = count_transitions(panel, t0, tf)
    if counts.total == 0:
        return None
    q = estimate_generator(counts, exposures(panel, t0, tf))
    m = matrix_exponential(q, years_between(t0, tf))
    m_e = empirical_transition_matrix(panel, t0, tf)
    return homogeneity_statistic(m, m_e, counts), counts.total


def ck_deviation(panel: Panel, t0: dt.date, tf: dt.date) -> float:
    """Half-window factorization error of the cohort matrices.

    With midpoint ``tm = t0 + (tf - t0) // 2`` days: the largest
    singular value of ``M(t0, tf) - M(t0, tm) @ M(tm, tf)``.
    """
    days = (tf - t0).days
    if days < 2:
        raise ValueError(f"window must span at least 2 days, got {days}")
    tm = t0 + dt.timedelta(days=days // 2)
    s0, sm, sf = (panel.states_at(t) for t in (t0, tm, tf))
    full = cohort_matrix(s0, sf, (t0, tf))
    first = cohort_matrix(s0, sm, (t0, tm))
    second = cohort_matrix(sm, sf, (tm, tf))
    return l2_norm(full.entries - first.entries @ second.entries)


def rolling_series(panel: Panel, statistic: str, window_length: str = "year") -> TestSeries:
    """One point per month-start whose window fits inside the span.

    Homogeneity points with zero transitions in the window are omitted;
    the Chapman-Kolmogorov deviation is computed for every window.
    """
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    months = WINDOW_MONTHS[window_length]
    start, end = panel.span
    points = []
    for t0 in month_starts(start, end):
        tf = add_months(t0, months)
        if tf > end:
            break
        if statistic == "homogeneity_L":
            result = _window_homogeneity(panel, t0, tf)
            if result is None:
                continue
            value, n_tr = result
        else:
            value = ck_deviation(panel, t0, tf)
            n_tr = count_transitions(panel, t0, tf).total
        points.append(TestPoint(window_start=t0, window_end=tf, value=value, n_transitions=n_tr))
    return TestSeries(statistic=statistic, window_length=window_length, points=tuple(points))


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
