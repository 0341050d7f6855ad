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
import ratinglab.panel as panel_module
from ratinglab.dates import month_starts
from oracles import cohort_matrix, sigma_max, window_counts_exposures

from conftest import make_panel, mid_month_panels, raw_histories

D = dt.date
SPAN = (D(2007, 1, 1), D(2009, 12, 31))


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


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_l2_norm_stack_equals_slices():
    rng = np.random.Generator(np.random.PCG64(11))
    stack = rng.uniform(-2, 2, size=(2, 4, 15, 15))
    got = rl.l2_norm(stack)
    assert got.shape == (2, 4)
    for w in np.ndindex(2, 4):
        assert same_bits(got[w], rl.l2_norm(stack[w]))
    assert rl.l2_norm(np.zeros((0, 15, 15))).shape == (0,)
    assert rl.l2_norm(np.zeros((0, 0))) == 0.0
    bad = np.zeros((3, 15, 15))
    bad[1, 4, 4] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        rl.l2_norm(bad)


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
        rl.CountMatrix(counts=counts),
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
        rl.CountMatrix(counts=counts),
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
        rl.CountMatrix(counts=counts),
    )
    want = (3 * 1.0 + 1 * math.log(0.1 / 0.4)) / 4
    assert value == pytest.approx(want, rel=1e-12)


def test_homogeneity_requires_transitions():
    counts = rl.CountMatrix(counts=np.zeros((15, 15), dtype=np.int64))
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
        rl.CountMatrix(counts=counts),
    )
    assert math.isfinite(value)
    assert value == pytest.approx(math.log(0.1) - math.log(1e-12), rel=1e-12)


def random_homogeneity_inputs(rng, windows):
    counts = rng.integers(0, 4, size=(windows, 15, 15)) * (rng.random((windows, 15, 15)) < 0.3)
    counts[:, np.arange(15), np.arange(15)] = 0
    counts[:, 0, 1] += 1  # every window has a transition
    m, m_e = (rng.dirichlet(np.full(15, 0.3), size=(windows, 15)) for _ in range(2))
    return rl.TransitionMatrix(m), rl.TransitionMatrix(m_e), rl.CountMatrix(counts)


def test_homogeneity_stack_equals_slices():
    m, m_e, counts = random_homogeneity_inputs(np.random.Generator(np.random.PCG64(5)), 6)
    got = rl.homogeneity_statistic(m, m_e, counts)
    assert got.shape == (6,)
    for w in range(6):
        one = rl.homogeneity_statistic(
            rl.TransitionMatrix(m.entries[w]), rl.TransitionMatrix(m_e.entries[w]),
            rl.CountMatrix(counts.counts[w]),
        )
        assert float.hex(float(got[w])) == float.hex(float(one))
    empty = rl.TransitionMatrix(np.zeros((0, 15, 15)))
    no_counts = rl.CountMatrix(np.zeros((0, 15, 15)))
    assert rl.homogeneity_statistic(empty, empty, no_counts).shape == (0,)


def test_homogeneity_rejects_a_stack_with_one_quiet_window():
    m, m_e, counts = random_homogeneity_inputs(np.random.Generator(np.random.PCG64(6)), 4)
    quiet = counts.counts.copy()
    quiet[2] = 0
    with pytest.raises(ValueError, match="undefined without transitions"):
        rl.homogeneity_statistic(m, m_e, rl.CountMatrix(quiet))


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
    assert len(series.values) <= 61
    assert len(series.values) == 60
    assert np.all(series.values == 0.0)
    assert series.window_start[0] == np.datetime64("2007-01-01")
    assert series.window_end[0] == np.datetime64("2008-01-01")
    assert series.window_start[-1] == np.datetime64("2011-12-01")


def test_rolling_monthly_point_budget():
    span = (D(2007, 1, 1), D(2008, 1, 1))
    p = make_panel(span, [("b1", [(span[0], 5)], None)])
    series = rl.rolling_series(p, "ck_l2", "month")
    assert len(series.values) == 12
    assert series.window_end[0] == np.datetime64("2007-02-01")


def test_rolling_series_holds_one_array_entry_per_window():
    span = (D(2007, 1, 1), D(2008, 1, 1))
    p = make_panel(span, [("b1", [(span[0], 5), (D(2007, 3, 10), 4)], None)])
    columns = ("window_start", "window_end", "values", "n_transitions")
    series = rl.rolling_series(p, "ck_l2", "month")
    dtypes = [getattr(series, name).dtype for name in columns]
    assert dtypes == [np.dtype("datetime64[D]")] * 2 + [np.dtype(np.float64), np.dtype(np.int64)]
    assert series.n_transitions.tolist() == [0, 0, 1] + [0] * 9
    # a span shorter than one window has no windows
    p = make_panel((span[0], D(2007, 1, 31)), [("b1", [(span[0], 5)], None)])
    short = rl.rolling_series(p, "homogeneity_L", "month")
    assert [getattr(short, name).shape for name in columns] == [(0,)] * 4
    assert [getattr(short, name).dtype for name in columns] == dtypes


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
    assert series.window_start.tolist() == [D(2007, m, 1) for m in range(1, 7)]
    assert np.all(series.n_transitions == 1)
    # ck keeps every window
    ck = rl.rolling_series(p, "ck_l2", "year")
    assert len(ck.values) == 13


def test_rolling_series_dates_strictly_increase(homogeneous_panel):
    panel, _ = homogeneous_panel
    for stat in ("homogeneity_L", "ck_l2"):
        series = rl.rolling_series(panel, stat, "month")
        starts = series.window_start.tolist()
        assert starts == sorted(starts)
        assert len(set(starts)) == len(starts)


def test_rolling_magnitudes_sane(homogeneous_panel):
    # orphan flooring makes thin-cohort values noisy but bounded
    panel, _ = homogeneous_panel
    series = rl.rolling_series(panel, "homogeneity_L", "year")
    assert np.median(np.abs(series.values)) < 3.0
    ck = rl.rolling_series(panel, "ck_l2", "year")
    assert float(ck.values.max()) < 1.0


@given(mid_month_panels(), st.sampled_from(["month", "year"]), st.sampled_from([1, 3, 600]))
def test_rolling_series_windows_match_oracles(panel, window, per_pass):
    # Record the stacks each pass hands to the window algebra, in call
    # order, taking the windows in passes of 1, 3 or all; then split each
    # stack into its windows and check every one against the oracles.
    fit, cohort = diagnostics.estimate_generator, diagnostics.cohort_matrix
    fits, cohorts = [], []

    def spy_fit(counts, exposure):
        fits.append((counts.counts, exposure.exposure))
        return fit(counts, exposure)

    def spy_cohort(start, end):
        m = cohort(start, end)
        cohorts.append(m.entries)
        return m

    with mock.patch.multiple(
        diagnostics, estimate_generator=spy_fit, cohort_matrix=spy_cohort
    ), mock.patch.object(panel_module, "MONTHS_PER_PASS", per_pass):
        homogeneity = rl.rolling_series(panel, "homogeneity_L", window)
        ck = rl.rolling_series(panel, "ck_l2", window)

    hist = raw_histories(panel)
    starts = month_starts(*panel.span)
    windows = list(zip(starts, starts[diagnostics.WINDOW_MONTHS[window] :]))
    passes = [windows[i : i + per_pass] for i in range(0, len(windows), per_pass)]
    assert list(zip(ck.window_start.tolist(), ck.window_end.tolist())) == windows
    oracle = {w: window_counts_exposures(hist, *w) for w in windows}
    assert ck.n_transitions.tolist() == [np.sum(oracle[w][0]) for w in windows]
    # windows without transitions are not fitted
    fitted = [[w for w in p if np.sum(oracle[w][0])] for p in passes]
    got = list(zip(homogeneity.window_start.tolist(), homogeneity.window_end.tolist()))
    assert got == [w for p in fitted for w in p]
    # one stacked fit a pass
    assert [len(counts) for counts, _ in fits] == [len(p) for p in fitted]
    for (counts, exposure), p in zip(fits, fitted):
        for got_counts, got_exposure, w in zip(counts, exposure, p):
            assert np.array_equal(got_counts, oracle[w][0])
            assert np.array_equal(got_exposure, oracle[w][1])
    # homogeneity takes one cohort stack a pass; ck three, the full windows
    # and their two halves, split at the floor midpoint
    cohort_windows = list(fitted)
    for p in passes:
        mids = [t0 + dt.timedelta(days=(tf - t0).days // 2) for t0, tf in p]
        cohort_windows += [p, [(t0, tm) for (t0, _), tm in zip(p, mids)],
                           [(tm, tf) for (_, tf), tm in zip(p, mids)]]
    assert [len(stack) for stack in cohorts] == [len(ws) for ws in cohort_windows]
    for stack, ws in zip(cohorts, cohort_windows):
        for m, (t0, tf) in zip(stack, ws):
            assert np.array_equal(m, cohort_matrix(hist, t0, tf))


def test_rolling_rejects_unknown_names():
    p = make_panel(SPAN, [("b1", [(SPAN[0], 5)], None)])
    with pytest.raises(ValueError, match="unknown statistic 'nonsense'"):
        rl.rolling_series(p, "nonsense", "year")
    with pytest.raises(ValueError, match="unknown window length 'fortnight'"):
        rl.rolling_series(p, "ck_l2", "fortnight")


# -- TestSeries validation and CSV -------------------------------------

STARTS = np.array(["2007-01-01", "2007-02-01"], dtype="datetime64[D]")
ENDS = np.array(["2008-01-01", "2008-02-01"], dtype="datetime64[D]")


def test_series_validation():
    values, n = np.array([0.5, -0.5]), np.array([3, 1])
    rl.TestSeries("homogeneity_L", "year", STARTS, ENDS, values, n)
    with pytest.raises(ValueError, match="unknown statistic"):
        rl.TestSeries("bogus", "year", STARTS, ENDS, values, n)
    with pytest.raises(ValueError, match="unknown window length"):
        rl.TestSeries("homogeneity_L", "decade", STARTS, ENDS, values, n)
    with pytest.raises(ValueError, match="not strictly increasing"):
        rl.TestSeries("homogeneity_L", "year", STARTS[::-1], ENDS[::-1], values[::-1], n[::-1])
    with pytest.raises(ValueError, match="nonnegative"):
        rl.TestSeries("ck_l2", "year", STARTS[1:], ENDS[1:], values[1:], n[1:])
    with pytest.raises(ValueError, match="differ in shape"):
        rl.TestSeries("homogeneity_L", "year", STARTS, ENDS, values[:1], n)
    # dates may be given as datetime.date, and no windows is a valid series
    dated = rl.TestSeries("ck_l2", "month", [D(2007, 1, 1)], [D(2007, 2, 1)], [0.0], [0])
    assert dated.window_start.dtype == np.dtype("datetime64[D]")
    assert len(rl.TestSeries("ck_l2", "month", [], [], [], []).values) == 0


def test_series_csv_format():
    series = rl.TestSeries(
        "homogeneity_L", "year", STARTS, ENDS, np.array([-0.25, 0.125]), np.array([4, 2])
    )
    buf = io.StringIO()
    rl.write_test_series_csv(series, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "window_start,window_end,statistic,value,abs_value,n_transitions"
    assert lines[1] == "2007-01-01,2008-01-01,homogeneity_L,-0.25,0.25,4"
    assert lines[2] == "2007-02-01,2008-02-01,homogeneity_L,0.125,0.125,2"
