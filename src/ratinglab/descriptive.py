"""Moments of rating cross-sections and rolling moment series.

Moments are population-normalized (no sample-bias correction) and the
kurtosis is non-excess, so a Gaussian sample sits at 3.  Skewness and
kurtosis are undefined when the variance is degenerate.

One formula takes every moment from the counts of a sample's distinct
values, for one sample or a stack.  A rolling series takes, on each
month start, a :meth:`Panel.pair_counts` table of (lagged, current) states
and counts ratings and increments as its rated columns and diagonals; a
lag before the span start (even before the year 1) is unrated.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .panel import Panel
from .scale import N_STATES
from .textio import Target, format_float, write_csv

__all__ = [
    "MomentSet",
    "MomentSeries",
    "moments",
    "moment_series",
    "write_moment_series_csv",
]

#: Variance below this is treated as degenerate: skewness/kurtosis undefined.
DEGENERATE_VARIANCE = 1e-12

_LEVELS, _INCREMENTS = np.arange(N_STATES), np.arange(1 - N_STATES, N_STATES)
#: ``[16 (i + 1) + j + 1, k]`` is 1 where ``j - i == _INCREMENTS[k]``: a flat
#: :meth:`Panel.pair_counts` table to increments, its unrated row and column to none.
_PAIR_INCREMENT = np.pad(
    np.add.outer(-_LEVELS, _LEVELS)[..., None] == _INCREMENTS, ((1, 0), (1, 0), (0, 0))
).reshape(-1, _INCREMENTS.size).astype(np.int64)


@dataclass(frozen=True)
class MomentSet:
    """First four population moments of one cross-sectional sample."""

    mean: float
    variance: float
    skewness: Optional[float]
    kurtosis: Optional[float]


@dataclass(frozen=True)
class MomentSeries:
    """Moments on each month start (``date``, ``datetime64[D]``), one array row a month.

    ``ratings`` covers the rating cross-section R(t) and ``increments``
    the trailing changes T(t, tau).  Each is a (months, 4) float64 array
    of mean, variance, skewness and kurtosis, NaN where undefined.
    """

    date: np.ndarray
    ratings: np.ndarray
    increments: np.ndarray


def _moments(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean, variance, skewness and kurtosis, shape (..., 4), of counts (..., L) of ``values``.

    Powers are products (and one square root), which round alike on every
    platform and array length, and sums are exact, so neither the order
    of the values nor a zero count changes a bit.  NaN marks an undefined moment.
    """
    n = counts.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        m1 = _exact_sum(counts * values) / n
        c = values - m1[..., None]
        c2 = c * c
        m2, m3, m4 = (_exact_sum(counts * power) / n for power in (c2, c2 * c, c2 * c2))
        out = np.stack([m1, m2, m3 / (m2 * np.sqrt(m2)), m4 / (m2 * m2)], axis=-1)
    out[m2 < DEGENERATE_VARIANCE, 2:] = np.nan
    return out


def _exact_sum(terms: np.ndarray) -> np.ndarray:
    """Sums over the last axis, each exact and then rounded once (:func:`math.fsum`)."""
    rows = terms.reshape(-1, terms.shape[-1]).tolist()
    return np.array([math.fsum(row) for row in rows]).reshape(terms.shape[:-1])


def moments(sample: Sequence[float]) -> MomentSet:
    """Population mean, variance, skewness and (non-excess) kurtosis of a finite sample."""
    raw = np.asarray(sample)
    if raw.size == 0:
        raise ValueError("moments of an empty sample are undefined")
    if not np.isfinite(raw).all():
        raise ValueError("moments need a sample of finite values")
    m = _moments(*np.unique(raw, return_counts=True))
    return MomentSet(*np.where(np.isnan(m), None, m).tolist())


def moment_series(panel: Panel, tau: int = 365) -> MomentSeries:
    """Rolling moments of the rating and increment cross-sections.

    Sampled on the first day of each month; the increments run from
    ``tau`` days (an integer) before each sample date.
    """
    tau = operator.index(tau)  # a float would shift every lag
    if tau < 1:
        raise ValueError(f"tau must be >= 1 day, got {tau}")
    # Every lag before the span start reads as unrated, so -1 stands for them all;
    # a lag is at most the span's length, since tau may be past the int64 range.
    lag = min(tau, panel.n_days)
    none = np.empty((0, 4))
    dates, ratings, increments = [np.empty(0, "datetime64[D]")], [none], [none]
    for month_dates, days in panel.month_passes():
        pairs = panel.pair_counts(np.maximum(days - lag, -1), days)
        dates.append(month_dates)
        ratings.append(_moments(_LEVELS, pairs[:, :, 1:].sum(axis=1)))
        increments.append(_moments(_INCREMENTS, pairs.reshape(len(pairs), -1) @ _PAIR_INCREMENT))
    return MomentSeries(*map(np.concatenate, (dates, ratings, increments)))


def write_moment_series_csv(series: MomentSeries, target: Target) -> None:
    """Eight-column moment series; undefined moments are empty cells."""
    table = np.hstack([series.ratings, series.increments])
    cells = np.where(np.isnan(table), None, table).tolist()
    write_csv(
        target,
        ["date", "mean_R", "var_R", "skew_R", "kurt_R", "mean_T", "var_T", "skew_T", "kurt_T"],
        ([day] + [format_float(v) for v in row] for day, row in zip(series.date.astype(str), cells)),
    )
