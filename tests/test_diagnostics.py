import datetime as dt
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ratinglab as rl
import ratinglab.diagnostics as diagnostics
from ratinglab.dates import month_starts
from oracles import cohort_matrix, sigma_max, window_counts_exposures

from conftest import make_panel, raw_histories

D = dt.date
SPAN = (D(2007, 1, 1), D(2009, 12, 31))
W = (D(2007, 1, 1), D(2008, 1, 1))


# -- l2_norm ----------------------------------------------------------


def test_l2_norm_zero_matrix():
    assert rl.l2_norm(np.zeros((15, 15))) == 0.0


def test_l2_norm_diagonal():
    d = np.zeros((15, 15))
    d[0, 0], d[1, 1] = 3.0, -2.0
    assert rl.l2_norm(d) == pytest.approx(3.0, abs=1e-12)


def test_l2_norm_matches_eigenvalue_oracle():
    rng = np.random.Generator(np.random.PCG64(42))
    for _ in range(50):
        a = rng.uniform(-2, 2, size=(5, 5))
        assert rl.l2_norm(a) == pytest.approx(sigma_max(a), abs=1e-10)


def test_l2_norm_axioms():
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(25):
        a = rng.uniform(-1, 1, size=(6, 6))
        b = rng.uniform(-1, 1, size=(6, 6))
        c = float(rng.uniform(-4, 4))
        assert rl.l2_norm(c * a) == pytest.approx(abs(c) * rl.l2_norm(a), abs=1e-10)
        assert rl.l2_norm(a + b) <= rl.l2_norm(a) + rl.l2_norm(b) + 1e-10


def test_l2_norm_rejects_non_finite():
    a = np.zeros((3, 3))
    a[1, 1] = np.nan
    with pytest.raises(ValueError):
        rl.l2_norm(a)


# -- homogeneity_statistic --------------------------------------------


def stochastic(rows):
    """15x15 identity with selected rows replaced by {col: prob} dicts."""
    m = np.eye(15)
    for i, row in rows.items():
        m[i] = 0.0
        for j, p in row.items():
            m[i, j] = p
    return m


def test_homogeneity_zero_when_counted_entries_agree():
    counts = np.zeros((15, 15), dtype=np.int64)
    counts[2, 3] = 5
    counts[2, 4] = 2
    m = stochastic({2: {3: 0.2, 4: 0.1, 2: 0.7}, 5: {5: 1.0}})
    # disagreement is confined to rows/cells with zero counts
    m_e = stochastic({2: {3: 0.2, 4: 0.1, 0: 0.7}, 5: {6: 1.0}})
    value = rl.homogeneity_statistic(
        rl.TransitionMatrix(entries=m),
        rl.TransitionMatrix(entries=m_e),
        rl.CountMatrix(window=W, counts=counts),
    )
    assert value == 0.0


def test_homogeneity_single_transition_unit_value():
    counts = np.zeros((15, 15), dtype=np.int64)
    counts[5, 4] = 1
    p = 0.3
    m_e = stochastic({5: {4: p, 5: 1 - p}})
    m = stochastic({5: {4: p * math.e, 5: 1 - p * math.e}})
    value = rl.homogeneity_statistic(
        rl.TransitionMatrix(entries=m),
        rl.TransitionMatrix(entries=m_e),
        rl.CountMatrix(window=W, counts=counts),
    )
    assert value == pytest.approx(1.0, rel=1e-12)


def test_homogeneity_count_weighted_average():
    counts = np.zeros((15, 15), dtype=np.int64)
    counts[5, 4] = 3
    counts[8, 9] = 1
    m_e = stochastic({5: {4: 0.2, 5: 0.8}, 8: {9: 0.4, 8: 0.6}})
    m = stochastic({5: {4: 0.2 * math.e, 5: 1 - 0.2 * math.e}, 8: {9: 0.1, 8: 0.9}})
    value = rl.homogeneity_statistic(
        rl.TransitionMatrix(entries=m),
        rl.TransitionMatrix(entries=m_e),
        rl.CountMatrix(window=W, counts=counts),
    )
    want = (3 * 1.0 + 1 * math.log(0.1 / 0.4)) / 4
    assert value == pytest.approx(want, rel=1e-12)


def test_homogeneity_requires_transitions():
    counts = rl.CountMatrix(window=W, counts=np.zeros((15, 15), dtype=np.int64))
    eye = rl.TransitionMatrix(entries=np.eye(15))
    with pytest.raises(ValueError):
        rl.homogeneity_statistic(eye, eye, counts)


def test_homogeneity_floors_empty_cells():
    # a counted move the cohort matrix never saw: finite flooring penalty
    counts = np.zeros((15, 15), dtype=np.int64)
    counts[3, 2] = 2
    m = stochastic({3: {2: 0.1, 3: 0.9}})
    m_e = stochastic({3: {3: 1.0}})
    value = rl.homogeneity_statistic(
        rl.TransitionMatrix(entries=m),
        rl.TransitionMatrix(entries=m_e),
        rl.CountMatrix(window=W, counts=counts),
    )
    assert math.isfinite(value)
    assert value == pytest.approx(math.log(0.1) - math.log(1e-12), rel=1e-12)


# -- ck_deviation -----------------------------------------------------


def test_ck_static_panel_exact_zero():
    p = make_panel(
        SPAN,
        [("b1", [(SPAN[0], 4)], None), ("b2", [(SPAN[0], 11)], None)],
    )
    assert rl.ck_deviation(p, D(2007, 2, 1), D(2008, 2, 1)) == 0.0


def test_ck_first_half_only_exact_zero():
    # all movement in the first half: second-half factor is the identity
    p = make_panel(
        SPAN,
        [
            ("b1", [(SPAN[0], 5), (D(2007, 5, 1), 4)], None),
            ("b2", [(SPAN[0], 9), (D(2007, 4, 1), 8)], None),
            ("b3", [(SPAN[0], 3)], None),
        ],
    )
    assert rl.ck_deviation(p, D(2007, 2, 1), D(2008, 2, 1)) == 0.0


def test_ck_matches_brute_force_oracle():
    # two banks meet in state 7 at the midpoint but end differently:
    # the product matrix mixes their fates and cannot reproduce the
    # full-window cohort rows
    t0, tf = D(2007, 2, 1), D(2008, 2, 1)
    tm = t0 + dt.timedelta(days=(tf - t0).days // 2)
    p = make_panel(
        SPAN,
        [
            ("b1", [(SPAN[0], 5), (D(2007, 4, 1), 7)], None),
            ("b2", [(SPAN[0], 8), (D(2007, 5, 1), 7), (D(2007, 10, 1), 9)], None),
            ("b3", [(SPAN[0], 2)], None),
        ],
    )
    hist = raw_histories(p)
    full = np.asarray(cohort_matrix(hist, t0, tf))
    first = np.asarray(cohort_matrix(hist, t0, tm))
    second = np.asarray(cohort_matrix(hist, tm, tf))
    want = sigma_max(full - first @ second)
    assert want > 0.1
    assert rl.ck_deviation(p, t0, tf) == pytest.approx(want, abs=1e-12)


def test_ck_odd_window_midpoint_floors():
    # 365-day window: the midpoint is t0 + 182, not t0 + 183.  A state
    # change exactly on day t0 + 183 flips the deviation from zero to
    # positive if the midpoint were rounded up instead.
    t0, tf = D(2007, 2, 1), D(2008, 2, 1)
    p = make_panel(
        SPAN,
        [
            ("b1", [(SPAN[0], 5), (D(2007, 4, 1), 7)], None),
            (
                "b2",
                [(SPAN[0], 8), (t0 + dt.timedelta(days=183), 7), (D(2007, 10, 1), 9)],
                None,
            ),
        ],
    )
    assert rl.ck_deviation(p, t0, tf) == 0.0
    hist = raw_histories(p)
    ceil_tm = t0 + dt.timedelta(days=183)
    full = np.asarray(cohort_matrix(hist, t0, tf))
    first = np.asarray(cohort_matrix(hist, t0, ceil_tm))
    second = np.asarray(cohort_matrix(hist, ceil_tm, tf))
    assert sigma_max(full - first @ second) > 0.1  # ruling out the ceil midpoint


def test_ck_rejects_short_window():
    p = make_panel(SPAN, [("b1", [(SPAN[0], 5)], None)])
    with pytest.raises(ValueError):
        rl.ck_deviation(p, D(2007, 2, 1), D(2007, 2, 2))


def test_ck_nonnegative_on_simulated_panel(homogeneous_panel):
    panel, _ = homogeneous_panel
    series = rl.rolling_series(panel, "ck_l2", "year")
    assert np.all(series.values >= 0.0)


# -- rolling_series ---------------------------------------------------


def test_rolling_yearly_point_budget():
    span = (D(2007, 1, 1), D(2012, 12, 31))
    p = make_panel(span, [("b1", [(span[0], 5)], None)])
    series = rl.rolling_series(p, "ck_l2", "year")
    assert len(series.points) <= 61
    assert len(series.points) == 60
    assert all(v == 0.0 for v in series.values)
    first = series.points[0]
    assert first.window_start == D(2007, 1, 1)
    assert first.window_end == D(2008, 1, 1)
    assert series.points[-1].window_start == D(2011, 12, 1)


def test_rolling_monthly_point_budget():
    span = (D(2007, 1, 1), D(2008, 1, 1))
    p = make_panel(span, [("b1", [(span[0], 5)], None)])
    series = rl.rolling_series(p, "ck_l2", "month")
    assert len(series.points) == 12
    assert series.points[0].window_end == D(2007, 2, 1)


def test_rolling_homogeneity_omits_quiet_windows():
    span = (D(2007, 1, 1), D(2009, 1, 1))
    p = make_panel(
        span,
        [
            ("b1", [(span[0], 5), (D(2007, 6, 15), 4)], None),
            ("b2", [(span[0], 9)], None),
        ],
    )
    series = rl.rolling_series(p, "homogeneity_L", "year")
    starts = [pt.window_start for pt in series.points]
    assert starts == [D(2007, m, 1) for m in range(1, 7)]
    assert all(pt.n_transitions == 1 for pt in series.points)
    # ck keeps every window
    ck = rl.rolling_series(p, "ck_l2", "year")
    assert len(ck.points) == 13


def test_rolling_series_dates_strictly_increase(homogeneous_panel):
    panel, _ = homogeneous_panel
    for stat in ("homogeneity_L", "ck_l2"):
        series = rl.rolling_series(panel, stat, "month")
        starts = [pt.window_start for pt in series.points]
        assert starts == sorted(starts)
        assert len(set(starts)) == len(starts)


def test_rolling_magnitudes_sane(homogeneous_panel):
    # orphan flooring makes thin-cohort values noisy but bounded
    panel, _ = homogeneous_panel
    series = rl.rolling_series(panel, "homogeneity_L", "year")
    assert np.median(np.abs(series.values)) < 3.0
    ck = rl.rolling_series(panel, "ck_l2", "year")
    assert float(ck.values.max()) < 1.0


@st.composite
def mid_month_panels(draw):
    """Up to five banks, some withdrawn, over a span of 20 days to 3 years
    that starts mid-month; many events and coverage ends fall on or next
    to a month start."""
    start = D(2007, draw(st.integers(1, 12)), draw(st.integers(2, 28)))
    n_days = draw(st.integers(20, 3 * 365))
    day = lambda off: start + dt.timedelta(days=off)
    edges = [
        (t - start).days + e
        for t in month_starts(start, day(n_days))
        for e in (-1, 0)
        if (t - start).days + e >= 0
    ]
    offset = st.integers(0, n_days) | st.sampled_from(edges or [0])
    specs = []
    for k in range(draw(st.integers(0, 5))):
        offs = sorted(draw(st.sets(offset, min_size=1, max_size=8)))
        states = [draw(st.integers(0, 14))]
        for _ in offs[1:]:
            states.append((states[-1] + draw(st.integers(1, 14))) % 15)
        cov = draw(st.none() | offset.filter(lambda o: o >= offs[-1]))
        events = [(day(o), s) for o, s in zip(offs, states)]
        specs.append((f"b{k}", events, None if cov is None else day(cov)))
    return make_panel((start, day(n_days)), specs)


@given(mid_month_panels(), st.sampled_from(["month", "year"]), st.sampled_from([1, 3, 600]))
def test_rolling_series_windows_match_oracles(panel, window, per_pass):
    # Record what every window hands to the per-window algebra, taking
    # the windows in passes of 1, 3 or all.
    fit, cohort = diagnostics.estimate_generator, diagnostics.cohort_matrix
    fits, cohorts = {}, []

    def spy_fit(counts, exposure):
        fits[counts.window] = (counts.counts, exposure.exposure)
        return fit(counts, exposure)

    def spy_cohort(start, end, w):
        cohorts.append(cohort(start, end, w))
        return cohorts[-1]

    with mock.patch.multiple(
        diagnostics,
        estimate_generator=spy_fit,
        cohort_matrix=spy_cohort,
        WINDOWS_PER_PASS=per_pass,
    ):
        homogeneity = rl.rolling_series(panel, "homogeneity_L", window)
        ck = rl.rolling_series(panel, "ck_l2", window)

    hist = raw_histories(panel)
    starts = month_starts(*panel.span)
    windows = list(zip(starts, starts[diagnostics.WINDOW_MONTHS[window] :]))
    assert [(p.window_start, p.window_end) for p in ck.points] == windows
    for (t0, tf), point in zip(windows, ck.points):
        counts, exposure = window_counts_exposures(hist, t0, tf)
        assert point.n_transitions == counts.sum()
        if counts.sum():
            got_counts, got_exposure = fits.pop((t0, tf))
            assert np.array_equal(got_counts, counts)
            assert np.array_equal(got_exposure, exposure)
    assert not fits  # windows without transitions are not fitted
    assert len(cohorts) == len(homogeneity.points) + 3 * len(ck.points)
    for m in cohorts:
        assert np.array_equal(m.entries, cohort_matrix(hist, *m.window))


def test_rolling_rejects_unknown_names():
    p = make_panel(SPAN, [("b1", [(SPAN[0], 5)], None)])
    with pytest.raises(ValueError):
        rl.rolling_series(p, "nonsense", "year")
    with pytest.raises(KeyError):
        rl.rolling_series(p, "ck_l2", "fortnight")


# -- TestSeries validation and CSV -------------------------------------


def test_series_validation():
    pt = rl.TestPoint(D(2007, 1, 1), D(2008, 1, 1), 0.5, 3)
    pt2 = rl.TestPoint(D(2007, 2, 1), D(2008, 2, 1), -0.5, 1)
    rl.TestSeries("homogeneity_L", "year", (pt, pt2))
    with pytest.raises(ValueError):
        rl.TestSeries("bogus", "year", (pt,))
    with pytest.raises(ValueError):
        rl.TestSeries("homogeneity_L", "decade", (pt,))
    with pytest.raises(ValueError):  # out of order
        rl.TestSeries("homogeneity_L", "year", (pt2, pt))
    with pytest.raises(ValueError):  # negative ck value
        rl.TestSeries("ck_l2", "year", (pt2,))


def test_series_csv_format():
    pts = (
        rl.TestPoint(D(2007, 1, 1), D(2008, 1, 1), -0.25, 4),
        rl.TestPoint(D(2007, 2, 1), D(2008, 2, 1), 0.125, 2),
    )
    series = rl.TestSeries("homogeneity_L", "year", pts)
    buf = io.StringIO()
    rl.write_test_series_csv(series, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "window_start,window_end,statistic,value,abs_value,n_transitions"
    assert lines[1] == "2007-01-01,2008-01-01,homogeneity_L,-0.25,0.25,4"
    assert lines[2] == "2007-02-01,2008-02-01,homogeneity_L,0.125,0.125,2"
