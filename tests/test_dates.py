import datetime as dt

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import numpy as np

from ratinglab.dates import DAYS_PER_YEAR, parse_iso_date
from oracles import _iso_date, add_months, month_starts

from conftest import make_panel


def test_days_per_year_constant():
    assert DAYS_PER_YEAR == 365.0


def test_parse_iso_date():
    assert parse_iso_date("2007-01-01") == dt.date(2007, 1, 1)
    assert parse_iso_date("2016-12-31") == dt.date(2016, 12, 31)


@pytest.mark.parametrize(
    "bad",
    [
        "2007/01/01", "01-01-2007", "2007-13-01", "", "yesterday",
        # basic and week dates, which date.fromisoformat would read, and mixed separators
        "20070101", "2007W011", "2007-W10-1", "2007W01", "2007-0101", "200701-01",
        "\uff12\uff10\uff10\uff17-01-01", "2007-01-01\n", " 2007-01-01",
    ],
)
def test_parse_iso_date_rejects(bad):
    with pytest.raises(ValueError):
        parse_iso_date(bad)


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


@given(st.text(alphabet="0123456789-W ", max_size=11) | st.dates().map(
    lambda d: d.isoformat() if d.day % 2 else f"{d.year:04d}{d.month:02d}{d.day:02d}"
))
def test_parse_iso_date_matches_oracle(text):
    assert _outcome(parse_iso_date, text) == _outcome(_iso_date, text)


# -- add_months: the oracle test_month_starts_properties probes with --


def test_add_months_basic():
    assert add_months(dt.date(2007, 1, 1), 1) == dt.date(2007, 2, 1)
    assert add_months(dt.date(2007, 11, 1), 3) == dt.date(2008, 2, 1)
    assert add_months(dt.date(2007, 1, 1), -1) == dt.date(2006, 12, 1)
    assert add_months(dt.date(2007, 6, 1), 0) == dt.date(2007, 6, 1)


def test_add_months_rejects_mid_month():
    with pytest.raises(ValueError):
        add_months(dt.date(2007, 1, 15), 1)


@given(
    year=st.integers(1990, 2030),
    month=st.integers(1, 12),
    k=st.integers(-60, 60),
)
def test_add_months_inverts(year, month, k):
    d = dt.date(year, month, 1)
    assert add_months(add_months(d, k), -k) == d


def month_grid(start, end):
    """The month starts of :meth:`Panel.month_passes` over ``[start, end]``, as dates."""
    grid = []
    for dates, days in make_panel((start, end), []).month_passes():
        assert dates.dtype == np.dtype("datetime64[D]") and days.dtype == np.int64
        assert days.tolist() == [(t - start).days for t in dates.tolist()]
        grid += dates.tolist()
    return grid


def test_month_starts_interior():
    got = month_grid(dt.date(2007, 1, 15), dt.date(2007, 4, 10))
    assert got == [dt.date(2007, 2, 1), dt.date(2007, 3, 1), dt.date(2007, 4, 1)]


def test_month_starts_inclusive_endpoints():
    got = month_grid(dt.date(2007, 1, 1), dt.date(2007, 3, 1))
    assert got == [dt.date(2007, 1, 1), dt.date(2007, 2, 1), dt.date(2007, 3, 1)]
    # the first representable day starts the grid
    got = month_grid(dt.date.min, dt.date(1, 3, 1))
    assert got == [dt.date(1, 1, 1), dt.date(1, 2, 1), dt.date(1, 3, 1)]


def test_month_starts_empty():
    assert month_grid(dt.date(2007, 1, 2), dt.date(2007, 1, 31)) == []


def test_month_starts_stop_at_last_representable_month():
    last = dt.date(9999, 12, 1)
    assert month_grid(dt.date(9999, 10, 15), dt.date.max) == [dt.date(9999, 11, 1), last]
    assert month_grid(dt.date(9999, 12, 2), dt.date.max) == []
    assert month_grid(last, last) == [last]


@given(
    start=st.dates(dt.date(2000, 1, 1), dt.date(2015, 1, 1)),
    days=st.integers(0, 1200),
)
@example(start=dt.date.min, days=1200)
def test_month_starts_properties(start, days):
    end = start + dt.timedelta(days=days)
    got = month_grid(start, end)
    assert got == month_starts(start, end)
    assert all(d.day == 1 for d in got)
    assert all(start <= d <= end for d in got)
    assert got == sorted(got)
    # nothing missed: every first-of-month inside the range appears
    probe = dt.date(start.year, start.month, 1)
    while probe <= end:
        if probe >= start:
            assert probe in got
        probe = add_months(probe, 1)
