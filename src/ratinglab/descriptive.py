"""Cross-sectional histograms and rolling moment series.

Moments are population-normalized (no sample-bias correction) and the
kurtosis is non-excess, so a Gaussian sample sits at 3.  Skewness and
kurtosis are undefined when the variance is degenerate.

A rolling moment series takes the cross-sections on its sample and
lagged dates in one pass over the panel per :data:`DATES_PER_PASS`
dates.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Optional, Sequence, Union

import numpy as np

from .dates import month_starts
from .panel import Panel
from .scale import N_STATES, RATING_LABELS
from .textio import text_stream

__all__ = [
    "Histogram",
    "MomentSet",
    "MomentPoint",
    "rating_histogram",
    "increment_histogram",
    "moments",
    "moment_series",
    "write_moment_series_csv",
]

#: Variance below this is treated as degenerate: skewness/kurtosis undefined.
DEGENERATE_VARIANCE = 1e-12

INCREMENT_BINS = tuple(range(-(N_STATES - 1), N_STATES))

#: Sample dates per cross-section pass; a pass holds up to two bytes a
#: bank a date, so a long span or a short step is taken in passes.
DATES_PER_PASS = 120


@dataclass(frozen=True)
class Histogram:
    """Counts over an ordered set of bins."""

    bin_labels: tuple
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.bin_labels) != len(self.counts):
            raise ValueError("bin_labels and counts length mismatch")

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class MomentSet:
    """First four population moments of one cross-sectional sample."""

    mean: float
    variance: float
    skewness: Optional[float]
    kurtosis: Optional[float]


@dataclass(frozen=True)
class MomentPoint:
    """One date of the rolling moment series.

    ``ratings`` covers the rating cross-section R(t); ``increments``
    covers the trailing changes T(t, tau) and is ``None`` on days where
    no bank has both endpoints rated.
    """

    date: dt.date
    ratings: Optional[MomentSet]
    increments: Optional[MomentSet]


def rating_histogram(panel: Panel, t: dt.date) -> Histogram:
    """Distribution of states over all banks rated on day ``t``."""
    states = panel.states_at(t)
    counts = np.bincount(states[states >= 0], minlength=N_STATES)
    return Histogram(bin_labels=RATING_LABELS, counts=tuple(int(c) for c in counts))


def increment_histogram(panel: Panel, t: dt.date, tau: int = 365) -> Histogram:
    """Distribution of rating changes over ``[t - tau, t]``.

    Banks lacking a rating at either endpoint are excluded.
    """
    [(now, then)] = _lagged_cross_sections(panel, [t], tau)
    values = _increment_sample(now, then)
    counts = np.bincount(values + (N_STATES - 1), minlength=2 * N_STATES - 1)
    return Histogram(bin_labels=INCREMENT_BINS, counts=tuple(int(c) for c in counts))


def _lagged_cross_sections(
    panel: Panel, dates: Sequence[dt.date], tau: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(R(t), R(t - tau))`` for every date: rows of one :meth:`Panel.states_at_many` block."""
    if tau < 1:
        raise ValueError(f"tau must be >= 1 day, got {tau}")
    start = panel.span[0]
    now = [(t - start).days for t in dates]
    # Raises OverflowError when t - tau falls before the first representable date.
    then = [(t - dt.timedelta(days=tau) - start).days for t in dates]
    # Distinct ascending days give the block without a reordering copy.
    days = np.unique(np.array(now + then, dtype=np.int64))
    block = panel.states_at_many(days)
    return [(block[i], block[j]) for i, j in zip(*np.searchsorted(days, [now, then]).tolist())]


def _increment_sample(now: np.ndarray, then: np.ndarray) -> np.ndarray:
    """``R(t) - R(t - tau)`` of the banks rated on both days."""
    both = (now >= 0) & (then >= 0)
    return now[both] - then[both]


def moments(sample: Sequence[float]) -> MomentSet:
    """Population mean, variance, skewness and (non-excess) kurtosis.

    The powers of the deviations are taken once per distinct value and
    gathered back, so every element gets the same float as an
    element-wise evaluation, and each mean sums the same array.
    """
    raw = np.asarray(sample)
    if raw.size == 0:
        raise ValueError("moments of an empty sample are undefined")
    m1 = float(np.mean(np.asarray(raw, dtype=np.float64)))
    values, index = _distinct(raw)
    c = values.astype(np.float64) - m1
    m2 = float(np.mean((c * c)[index]))
    if m2 < DEGENERATE_VARIANCE:
        return MomentSet(mean=m1, variance=m2, skewness=None, kurtosis=None)
    m3 = float(np.mean((c**3)[index]))
    m4 = float(np.mean((c**4)[index]))
    return MomentSet(
        mean=m1,
        variance=m2,
        skewness=m3 / m2**1.5,
        kurtosis=m4 / m2**2,
    )


def _distinct(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values covering a sample and each element's index into them.

    A signed-integer sample spanning fewer levels than it has elements,
    such as ratings or their increments, indexes the levels from its
    minimum to its maximum without sorting; any other sample is sorted
    by :func:`numpy.unique`.
    """
    if raw.dtype.kind == "i":
        lo, hi = int(raw.min()), int(raw.max())
        if hi - lo < raw.size:
            return np.arange(lo, hi + 1), raw.astype(np.intp) - lo
    return np.unique(raw, return_inverse=True)


def moment_series(
    panel: Panel, tau: int = 365, step: Optional[int] = None
) -> list[MomentPoint]:
    """Rolling moments of the rating and increment cross-sections.

    Sampled on the first day of each month by default, or every ``step``
    days from the span start when ``step`` is given.  The cross-sections
    on every sample date and every lagged date come from one
    :meth:`Panel.states_at_many` per :data:`DATES_PER_PASS` dates.
    """
    start, end = panel.span
    if step is None:
        dates = month_starts(start, end)
    else:
        if step < 1:
            raise ValueError(f"step must be >= 1 day, got {step}")
        dates = [start + dt.timedelta(days=i) for i in range(0, panel.n_days, step)]

    out = []
    for lo in range(0, len(dates), DATES_PER_PASS):
        chunk = dates[lo : lo + DATES_PER_PASS]
        for day, (now, then) in zip(chunk, _lagged_cross_sections(panel, chunk, tau)):
            ratings = now[now >= 0]
            r_moments = moments(ratings) if ratings.size else None
            increments = _increment_sample(now, then)
            t_moments = moments(increments) if increments.size else None
            out.append(MomentPoint(date=day, ratings=r_moments, increments=t_moments))
    return out


def _cells(ms: Optional[MomentSet]) -> list[str]:
    if ms is None:
        return ["", "", "", ""]
    fmt = lambda v: "" if v is None else format(v, ".12g")
    return [format(ms.mean, ".12g"), format(ms.variance, ".12g"), fmt(ms.skewness), fmt(ms.kurtosis)]


def write_moment_series_csv(
    series: Sequence[MomentPoint], target: Union[str, Path, IO[str]]
) -> None:
    """Eight-column moment series; undefined moments are empty cells."""
    with text_stream(target, "w") as stream:
        writer = csv.writer(stream)
        writer.writerow(
            ["date", "mean_R", "var_R", "skew_R", "kurt_R",
             "mean_T", "var_T", "skew_T", "kurt_T"]
        )
        for point in series:
            writer.writerow([point.date.isoformat()] + _cells(point.ratings) + _cells(point.increments))
