"""Calendar helpers: ISO date parsing and the day-count year.

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

    Only ASCII ``YYYY-MM-DD`` is a date, on every Python version; from
    Python 3.11, :meth:`date.fromisoformat` also reads the basic form
    ``20070101`` and week dates such as ``2007-W10-1``.
    """
    try:
        match = re.fullmatch(r"([0-9]{4})-([0-9]{2})-([0-9]{2})", text)
        if not match:
            raise ValueError
        return dt.date(int(match[1]), int(match[2]), int(match[3]))
    except ValueError:
        raise ValueError(f"invalid ISO date {text!r}") from None
