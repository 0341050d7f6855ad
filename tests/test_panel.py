import datetime as dt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ratinglab as rl
import ratinglab.panel as panel_module
from oracles import month_starts, state_on

from conftest import cross_section, make_panel, series_rows

D = dt.date
SPAN = (D(2006, 1, 1), D(2012, 12, 31))
GOLDEN_PANEL = Path(__file__).parent / "data" / "golden_panel.csv"


def one_bank(events, coverage_end=None):
    return make_panel(SPAN, [("b1", events, coverage_end)])


def rating(panel, t):
    """State of a one-bank panel on day ``t``; None when unrated."""
    s = int(cross_section(panel, t)[0, 0])
    return None if s < 0 else s


def increment(panel, t, tau):
    """``R(t) - R(t - tau)`` of a one-bank panel; None if an end is unrated."""
    now, then = cross_section(panel, t, t - dt.timedelta(days=tau))[:, 0].tolist()
    return None if now < 0 or then < 0 else now - then


def count_rated(panel, t):
    return int(np.count_nonzero(cross_section(panel, t) >= 0))


# -- one bank's rating and increments ---------------------------------


def test_rating_at_constant_history():
    p = one_bank([(D(2007, 1, 1), 14)], coverage_end=D(2010, 1, 1))
    assert rating(p, D(2008, 6, 1)) == 14


def test_rating_at_before_coverage():
    p = one_bank([(D(2007, 1, 1), 14)], coverage_end=D(2010, 1, 1))
    assert rating(p, D(2006, 12, 31)) is None
    assert rating(p, D(2007, 1, 1)) == 14


def test_rating_at_holds_last_value():
    p = one_bank([(D(2007, 1, 1), 5), (D(2007, 6, 1), 3)])
    assert rating(p, D(2007, 3, 15)) == 5
    assert rating(p, D(2007, 6, 1)) == 3
    assert rating(p, D(2012, 12, 31)) == 3


def test_rating_at_after_withdrawal():
    p = one_bank([(D(2007, 1, 1), 5)], coverage_end=D(2007, 12, 31))
    assert rating(p, D(2007, 12, 31)) == 5
    assert rating(p, D(2008, 1, 1)) is None


def test_increment_downgrade_sign():
    p = one_bank([(D(2007, 1, 1), 12), (D(2007, 9, 1), 10)], D(2009, 1, 1))
    assert increment(p, D(2008, 1, 1), tau=365) == -2  # downgrade is negative


def test_increment_no_change():
    p = one_bank([(D(2007, 1, 1), 7)], coverage_end=D(2009, 1, 1))
    assert increment(p, D(2008, 6, 1), tau=365) == 0


def test_increment_left_endpoint_unrated():
    t = D(2008, 1, 1)
    p = one_bank([(t - dt.timedelta(days=100), 7)], coverage_end=D(2009, 1, 1))
    assert increment(p, t, tau=365) is None
    assert increment(p, t, tau=100) == 0


def test_increment_rejects_nonpositive_tau():
    p = one_bank([(D(2007, 1, 1), 7)])
    with pytest.raises(ValueError):
        rl.moment_series(p, tau=0)
    with pytest.raises(ValueError):
        rl.moment_series(p, tau=-5)


def test_increment_default_tau_is_one_year():
    p = one_bank([(D(2007, 1, 1), 3), (D(2007, 8, 1), 6)], D(2010, 1, 1))
    series = rl.moment_series(p)
    mean_by_date = dict(zip(series.date.tolist(), series.increments[:, 0].tolist()))
    assert mean_by_date[D(2008, 2, 1)] == 3.0
    assert increment(p, D(2008, 2, 1), tau=100) == 0


def test_transition_count():
    p = one_bank([(D(2007, 1, 1), 3), (D(2007, 8, 1), 6), (D(2008, 1, 1), 5)])
    assert p.transitions().tolist() == [1, 2]


# random step histories for the property tests
@st.composite
def history_strategy(draw):
    start_off = draw(st.integers(0, 800))
    n_events = draw(st.integers(1, 8))
    offs = [start_off]
    state = draw(st.integers(0, 14))
    states = [state]
    for _ in range(n_events - 1):
        offs.append(offs[-1] + draw(st.integers(1, 200)))
        step = draw(st.integers(1, 14))
        state = (state + step) % 15
        states.append(state)
    tail = draw(st.integers(0, 300))
    events = [(SPAN[0] + dt.timedelta(days=o), s) for o, s in zip(offs, states)]
    cov = events[-1][0] + dt.timedelta(days=tail)
    return events, cov


@given(history_strategy(), st.integers(0, 2700))
def test_rating_at_matches_linear_scan(case, off):
    events, cov = case
    t = SPAN[0] + dt.timedelta(days=off)
    assert rating(one_bank(events, cov), t) == state_on(events, cov, t)


@given(history_strategy(), st.integers(0, 2500), st.integers(1, 400), st.integers(1, 400))
def test_increment_telescopes(case, off, tau1, tau2):
    events, cov = case
    p = one_bank(events, cov)
    t = SPAN[0] + dt.timedelta(days=off)
    whole = increment(p, t, tau1 + tau2)
    right = increment(p, t, tau2)
    left = increment(p, t - dt.timedelta(days=tau2), tau1)
    if whole is not None and right is not None and left is not None:
        assert whole == left + right


# -- Panel ------------------------------------------------------------

T0 = D(2007, 1, 1)
THREE_SPAN = (T0, D(2008, 1, 1))
THREE_BANKS = [
    ("b1", [(T0, 14)], None),
    ("b2", [(T0, 7), (D(2007, 5, 1), 8)], None),
    ("b3", [(T0 + dt.timedelta(days=10), 0)], None),
]


def test_count_rated_empty_panel():
    p = make_panel(THREE_SPAN, [])
    assert count_rated(p, D(2007, 6, 1)) == 0


def test_count_rated_all_rated_from_start():
    p = make_panel(
        THREE_SPAN,
        [("b1", [(T0, 3)], None), ("b2", [(T0, 5)], None), ("b3", [(T0, 9)], None)],
    )
    for off in (0, 100, 365):
        assert count_rated(p, T0 + dt.timedelta(days=off)) == 3


def test_count_rated_staggered_entry():
    p = make_panel(THREE_SPAN, THREE_BANKS)
    assert count_rated(p, T0) == 2
    assert count_rated(p, T0 + dt.timedelta(days=10)) == 3


def test_count_rated_outside_span():
    p = make_panel(THREE_SPAN, THREE_BANKS)
    with pytest.raises(ValueError):
        p.day_offset(D(2006, 12, 31))
    assert count_rated(p, D(2006, 12, 31)) == 0
    assert count_rated(p, D(2008, 1, 2)) == 0


def test_count_rated_monotone_under_adding():
    p = make_panel(THREE_SPAN, THREE_BANKS)
    bigger = make_panel(THREE_SPAN, THREE_BANKS + [("b4", [(T0, 6)], None)])
    for off in (0, 5, 10, 200):
        t = T0 + dt.timedelta(days=off)
        assert count_rated(bigger, t) >= count_rated(p, t)


def test_panel_rejects_duplicate_ids():
    # rows of one bank id pool into one history, so two clashing
    # histories under one id are an error, and agreeing ones merge
    with pytest.raises(rl.DataFormatError, match="conflicting"):
        make_panel(THREE_SPAN, [("b1", [(T0, 3)], None), ("b1", [(T0, 5)], None)])
    p = make_panel(THREE_SPAN, [("b1", [(T0, 3)], None), ("b1", [(T0, 3)], None)])
    assert p.bank_ids == ("b1",)
    assert p.offsets.tolist() == [0, 1]


def test_panel_rejects_coverage_outside_span():
    with pytest.raises(rl.DataFormatError, match="outside span"):
        make_panel(THREE_SPAN, [("b1", [(T0, 3), (D(2008, 6, 1), 4)], None)])
    with pytest.raises(rl.DataFormatError, match="outside span"):
        make_panel((D(2007, 6, 1), D(2009, 6, 1)), [("b1", [(T0, 3)], None)])


def test_panel_rejects_reversed_span():
    with pytest.raises(rl.SpanError):
        rl.Panel([], [0], [], [], [], (D(2008, 1, 1), D(2007, 1, 1)))


def test_panel_takes_its_arrays_over():
    # an array of the stored dtype is kept, not copied, and frozen
    day = np.array([0, 5], dtype=np.int32)
    panel = rl.Panel(["b1"], [0, 2], day, [3, 4], [9], THREE_SPAN)
    assert np.shares_memory(panel.event_day, day)
    assert not day.flags.writeable and not panel.event_day.flags.writeable
    # lists are converted
    assert panel.offsets.dtype == np.int64 and panel.event_state.dtype == np.int16
    assert panel.event_state.tolist() == [3, 4] and panel.coverage_end.tolist() == [9]


def test_panel_lookup_and_sizes():
    p = make_panel(THREE_SPAN, THREE_BANKS)
    assert p.n_banks == 3
    assert p.bank_ids == ("b1", "b2", "b3")
    assert p.event_state[p.offsets[1] + 1] == 8  # b2's second event
    assert p.transitions().size == 1
    assert p.n_days == 366


def test_panel_stores_only_its_arrays():
    # every statistic is a pass over the stored arrays: none leaves a
    # cache behind, and the arrays stay read-only
    panel = rl.parse_panel(GOLDEN_PANEL, (None, None))
    rl.daily_counts(panel)
    rl.transitions_per_bank(panel)
    rl.moment_series(panel)
    for statistic in ("homogeneity_L", "ck_l2"):
        rl.rolling_series(panel, statistic, "month")
    arrays = ("offsets", "event_day", "event_state", "coverage_end")
    assert set(vars(panel)) == {"span", "bank_ids", *arrays}
    for name in arrays:
        assert not getattr(panel, name).flags.writeable


@st.composite
def panel_specs(draw):
    n = draw(st.integers(0, 6))
    specs = []
    for k in range(n):
        events, cov = draw(history_strategy())
        specs.append((f"b{k}", events, min(cov, SPAN[1])))
    return specs


@given(panel_specs(), st.integers(-30, 2800))
def test_states_at_matches_rating_at(specs, off):
    panel = make_panel(SPAN, specs)
    t = SPAN[0] + dt.timedelta(days=off)
    [cross] = cross_section(panel, t)
    assert cross.shape == (len(specs),)
    for k, (_, events, cov) in enumerate(specs):
        want = state_on(events, cov, t)
        if t < panel.span[0] or t > panel.span[1]:
            want = None  # outside the span the cross-section is all unrated
        assert cross[k] == (-1 if want is None else want)


def _edge_days(specs):
    """Day offsets on or next to every event and coverage end."""
    return [
        (d - SPAN[0]).days + e
        for _, events, cov in specs
        for d in [*(d for d, _ in events), cov]
        for e in (-1, 0, 1)
    ]


@given(panel_specs(), st.data())
def test_states_at_many_matches_state_on(specs, data):
    # Days ascend strictly, some before and after the span, many on or
    # next to an event or a coverage end; specs include withdrawn banks
    # and the empty panel.
    day = st.integers(-400, 3000) | st.sampled_from(_edge_days(specs) or [0])
    offs = sorted(data.draw(st.sets(day, max_size=16)))
    panel = make_panel(SPAN, specs)
    block = panel.states_at_many(offs)
    assert block.dtype == np.int8
    assert block.shape == (len(offs), len(specs))
    for r, off in enumerate(offs):
        t = SPAN[0] + dt.timedelta(days=off)
        inside = SPAN[0] <= t <= SPAN[1]
        for k, (_, events, cov) in enumerate(specs):
            want = state_on(events, cov, t) if inside else None
            assert block[r, k] == (-1 if want is None else want)


@pytest.mark.parametrize("days", [[0, 0], [5, 4], [-3, 7, 7, 9], [1, 3, 2]])
def test_states_at_many_rejects_days_not_strictly_ascending(days):
    panel = one_bank([(SPAN[0], 5)])
    with pytest.raises(ValueError):
        panel.states_at_many(days)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("n_points", [3, 250])
def test_buckets_match_searchsorted(n_points, side):
    # A 100-day span with fewer points than days (binary search) and more
    # (the day table); grid days before the span, as moments' lag gives,
    # inside it, repeated, and past its end.
    panel = rl.Panel([], [0], [], [], [], (D(2008, 1, 1), D(2008, 4, 9)))
    points = np.random.default_rng(n_points).integers(0, panel.n_days + 1, n_points)
    points[:2] = 0, panel.n_days
    for days in ([-31, -1, 0, 40, 40, 99, 100, 130], [-1], [150, 160], []):
        days = np.array(days, dtype=np.int64)
        assert panel.buckets(days, points, side).tolist() == np.searchsorted(days, points, side).tolist()


@given(panel_specs(), st.data())
def test_cross_sections_rows_match_each_list(specs, data):
    # Lists of days in any order, repeated within and across the lists,
    # some outside the span: each list's rows from one cross_section call
    # (one states_at_many sweep over its distinct days, as pair_counts
    # takes them) match that day's own cross-section and state_on.
    day = st.integers(-400, 3000) | st.sampled_from(_edge_days(specs) or [0])
    lists = data.draw(st.lists(st.lists(day, max_size=8), min_size=1, max_size=3))
    panel = make_panel(SPAN, specs)
    for days in lists:
        dates = [SPAN[0] + dt.timedelta(days=off) for off in days]
        rows = cross_section(panel, *dates)
        assert rows.shape == (len(days), len(specs))
        for t, row in zip(dates, rows):
            assert np.array_equal(row, cross_section(panel, t)[0])
            inside = SPAN[0] <= t <= SPAN[1]
            for k, (_, events, cov) in enumerate(specs):
                want = state_on(events, cov, t) if inside else None
                assert row[k] == (-1 if want is None else want)


@given(panel_specs(), st.data())
def test_pair_counts_match_brute_force(specs, data):
    # Day pairs repeated and in any order, some before or after the span,
    # where every bank is unrated, many on or next to an event or a
    # coverage end; specs include withdrawn banks and the empty panel.
    day = st.integers(-400, 3000) | st.sampled_from(_edge_days(specs) or [0])
    pairs = data.draw(st.lists(st.tuples(day, day), max_size=8))
    panel = make_panel(SPAN, specs)
    got = panel.pair_counts([i for i, _ in pairs], [j for _, j in pairs])
    assert got.dtype == np.int64 and got.shape == (len(pairs), 16, 16)
    for w, days in enumerate(pairs):
        dates = [SPAN[0] + dt.timedelta(days=off) for off in days]
        from_state_on, from_cross_section = np.zeros((2, 16, 16), dtype=np.int64)
        for _, events, cov in specs:
            i, j = (state_on(events, cov, t) if SPAN[0] <= t <= SPAN[1] else None for t in dates)
            from_state_on[0 if i is None else i + 1, 0 if j is None else j + 1] += 1
        first, second = cross_section(panel, *dates)
        np.add.at(from_cross_section, (first + 1, second + 1), 1)
        assert np.array_equal(got[w], from_state_on)
        assert np.array_equal(got[w], from_cross_section)
    empty = panel.pair_counts([], [])
    assert empty.dtype == np.int64 and empty.shape == (0, 16, 16)


@pytest.mark.parametrize("per_pass", [1, 5, 120])
@pytest.mark.parametrize("look_ahead", [0, 1, 12])
@pytest.mark.parametrize("span", [(D(2006, 1, 1), D(2012, 12, 31)), (D(2006, 1, 2), D(2006, 2, 1)),
                                  (D(2006, 1, 2), D(2006, 1, 31)), (D(9998, 1, 1), D(9999, 12, 31))])
def test_month_passes_cover_the_month_grid(span, look_ahead, per_pass, monkeypatch):
    monkeypatch.setattr(panel_module, "MONTHS_PER_PASS", per_pass)
    panel = make_panel(span, [])
    starts = month_starts(*span)
    passes = list(panel.month_passes(look_ahead))
    # Each pass is a run of month starts whose first len - look_ahead
    # (per_pass, bar the last pass) start windows that end in the pass;
    # every window start is served once, in order.
    window_starts = []
    for dates, days in passes:
        assert dates.dtype == np.dtype("datetime64[D]") and days.dtype == np.int64
        dates = dates.tolist()
        assert days.tolist() == [(t - span[0]).days for t in dates]
        i = starts.index(dates[0])
        assert dates == starts[i : i + len(dates)]
        window_starts += dates[: len(dates) - look_ahead]
    assert all(len(dates) == per_pass + look_ahead for dates, _ in passes[:-1])
    assert window_starts == starts[: max(len(starts) - look_ahead, 0)]


@given(panel_specs())
def test_daily_state_counts_matches_brute_force(specs):
    # daily_counts (which omits days with no rated bank) against the
    # cross-section and direct per-bank evaluation, on a grid of days and
    # on both sides of every entry and withdrawal
    panel = make_panel(SPAN, specs)
    series = dict(series_rows(rl.daily_counts(panel)))
    assert all(v > 0 for v in series.values())
    edges = {d + dt.timedelta(days=e) for _, events, cov in specs for d in (events[0][0], cov)
             for e in (-1, 0, 1)}
    grid = {panel.span[0] + dt.timedelta(days=off) for off in range(0, panel.n_days, 97)}
    for t in sorted(grid | edges):
        if not panel.span[0] <= t <= panel.span[1]:
            continue
        rated = count_rated(panel, t)
        assert rated == sum(state_on(events, cov, t) is not None for _, events, cov in specs)
        assert series.get(t, 0) == rated
