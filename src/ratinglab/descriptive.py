"""Moments of rating cross-sections and rolling moment series.

Moments are population-normalized (no sample-bias correction) and the
kurtosis is non-excess, so a Gaussian sample sits at 3.  Skewness and
kurtosis are undefined when the variance is degenerate.

A rolling moment series walks the month grid of :meth:`Panel.month_passes`
and reads each sample's lag as a day offset, so a lag before the span
start, even one before the year 1, is simply unrated.
"""

from __future__ import annotations

import datetime as dt
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .panel import Panel
from .textio import Target, format_float, write_csv

__all__ = [
    "MomentSet",
    "MomentPoint",
    "moments",
    "moment_series",
    "write_moment_series_csv",
]

#: Variance below this is treated as degenerate: skewness/kurtosis undefined.
DEGENERATE_VARIANCE = 1e-12


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


def moment_series(panel: Panel, tau: int = 365) -> list[MomentPoint]:
    """Rolling moments of the rating and increment cross-sections.

    Sampled on the first day of each month; the increments run from
    ``tau`` days (an integer) before each sample date.
    """
    tau = operator.index(tau)  # a float would shift every lag
    if tau < 1:
        raise ValueError(f"tau must be >= 1 day, got {tau}")
    out = []
    for dates, days in panel.month_passes():
        # Every lag before the span start reads as unrated, so -1 stands for them all.
        block, (now_at, then_at) = panel.cross_sections(days, [max(d - tau, -1) for d in days])
        for day, i, j in zip(dates, now_at, then_at):
            now, then = block[i], block[j]
            ratings = now[now >= 0]
            r_moments = moments(ratings) if ratings.size else None
            both = (now >= 0) & (then >= 0)  # increments need both ends rated
            increments = now[both] - then[both]
            t_moments = moments(increments) if increments.size else None
            out.append(MomentPoint(date=day, ratings=r_moments, increments=t_moments))
    return out


def _cells(ms: Optional[MomentSet]) -> list[str]:
    values = (None,) * 4 if ms is None else (ms.mean, ms.variance, ms.skewness, ms.kurtosis)
    return [format_float(v) for v in values]


def write_moment_series_csv(series: Sequence[MomentPoint], target: Target) -> None:
    """Eight-column moment series; undefined moments are empty cells."""
    write_csv(
        target,
        ["date", "mean_R", "var_R", "skew_R", "kurt_R", "mean_T", "var_T", "skew_T", "kurt_T"],
        ([p.date.isoformat()] + _cells(p.ratings) + _cells(p.increments) for p in series),
    )
