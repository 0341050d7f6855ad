"""Calendar helpers: ISO parsing and month grids.

Analysis windows are anchored to calendar dates and handled as day
offsets into a panel's span; durations are kept in whole days and
converted to years as ``days / DAYS_PER_YEAR``.
"""

from __future__ import annotations

import datetime as dt
import re

__all__ = ["DAYS_PER_YEAR"]

#: Days per year used to convert day counts into rate units.
DAYS_PER_YEAR = 365.0


def parse_iso_date(text: str) -> dt.date:
    """Parse an ISO calendar date, raising ValueError on anything else.

    Only ASCII ``YYYY-MM-DD`` and its basic form ``YYYYMMDD`` are dates,
    on every Python version; :meth:`date.fromisoformat` reads week dates
    such as ``2007-W10-1`` too, and the basic form only from Python 3.11.
    """
    try:
        match = re.fullmatch(r"([0-9]{4})(-?)([0-9]{2})\2([0-9]{2})", text)
        if not match:
            raise ValueError
        return dt.date(int(match[1]), int(match[3]), int(match[4]))
    except ValueError:
        raise ValueError(f"invalid ISO date {text!r}") from None


def month_starts(start: dt.date, end: dt.date) -> list[dt.date]:
    """All first-of-month dates within ``[start, end]``, ascending.

    Months are counted as ``12 * year + month - 1``, so the grid stops
    at the span's last month start, 9999-12-01 at the latest, without
    forming a date past it.
    """
    first = 12 * start.year + start.month - 1 + (start.day > 1)
    last = 12 * end.year + end.month - 1
    return [dt.date(k // 12, k % 12 + 1, 1) for k in range(first, last + 1)]

