"""Calendar helpers: ISO parsing, month arithmetic, month grids.

All analysis windows are anchored to calendar dates; durations are kept
in whole days and converted to years as ``days / 365``.
"""

from __future__ import annotations

import datetime as dt

#: Days per year used to convert day counts into rate units.
DAYS_PER_YEAR = 365.0


def parse_iso_date(text: str) -> dt.date:
    """Parse a ``YYYY-MM-DD`` string, raising ValueError on anything else."""
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        raise ValueError(f"invalid ISO date {text!r}") from None


def add_months(day: dt.date, months: int) -> dt.date:
    """Shift a first-of-month date by a number of calendar months."""
    if day.day != 1:
        raise ValueError("month arithmetic is only defined for month-start dates")
    k = day.month - 1 + months
    return dt.date(day.year + k // 12, k % 12 + 1, 1)


def month_starts(start: dt.date, end: dt.date) -> list[dt.date]:
    """All first-of-month dates within ``[start, end]``, ascending."""
    first = dt.date(start.year, start.month, 1)
    if first < start:
        first = add_months(first, 1)
    out = []
    cur = first
    while cur <= end:
        out.append(cur)
        cur = add_months(cur, 1)
    return out


def years_between(start: dt.date, end: dt.date) -> float:
    """Window length in 365-day years."""
    return (end - start).days / DAYS_PER_YEAR
