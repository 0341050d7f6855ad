import datetime as dt
import io
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ratinglab as rl
import ratinglab.panel as panel_module
from oracles import month_starts, state_on, two_pass_moments

from conftest import cross_section, make_panel, mid_month_panels, raw_histories

D = dt.date


def flat_panel(states, span=(D(2007, 1, 1), D(2009, 1, 1))):
    specs = [(f"b{k}", [(span[0], s)], None) for k, s in enumerate(states)]
    return make_panel(span, specs)


def rating_counts(panel, t):
    """Rated banks per state on day ``t``."""
    [states] = cross_section(panel, t)
    return np.bincount(states[states >= 0], minlength=15).tolist()


def increments_on(panel, t, tau):
    """The increment row (mean, variance, skewness, kurtosis) of the monthly series on ``t``."""
    series = rl.moment_series(panel, tau=tau)
    [row] = series.increments[series.date == np.datetime64(t)]
    return row


# -- cross-sections and increments -------------------------------------


def test_rating_histogram_point_mass():
    p = flat_panel([7, 7, 7])
    counts = rating_counts(p, D(2007, 6, 1))
    assert counts[7] == sum(counts) == 3


def test_rating_histogram_empty_panel():
    p = make_panel((D(2007, 1, 1), D(2008, 1, 1)), [])
    assert rating_counts(p, D(2007, 6, 1)) == [0] * 15


def test_rating_histogram_hand_tally():
    p = flat_panel([0, 3, 3, 14, 7])
    expected = [0] * 15
    expected[0] = 1
    expected[3] = 2
    expected[14] = 1
    expected[7] = 1
    assert rating_counts(p, D(2007, 2, 1)) == expected


def test_rating_histogram_total_equals_count_rated():
    span = (D(2007, 1, 1), D(2008, 1, 1))
    specs = [
        ("b1", [(span[0], 4)], D(2007, 3, 1)),
        ("b2", [(D(2007, 6, 1), 9)], span[1]),
    ]
    p = make_panel(span, specs)
    for off in (0, 90, 200):
        t = span[0] + dt.timedelta(days=off)
        rated = sum(state_on(events, cov, t) is not None for _, events, cov in specs)
        assert sum(rating_counts(p, t)) == rated


def test_increment_histogram_static_panel():
    p = flat_panel([2, 9, 13])
    mean, variance, skewness, _ = increments_on(p, D(2008, 6, 1), tau=365)
    assert (mean, variance) == (0.0, 0.0) and math.isnan(skewness)


def test_increment_histogram_downgrade():
    span = (D(2007, 1, 1), D(2009, 1, 1))
    p = make_panel(
        span, [("b1", [(span[0], 9), (D(2007, 10, 1), 7)], None)]
    )
    assert increments_on(p, D(2008, 1, 1), tau=365)[:2].tolist() == [-2.0, 0.0]


def test_increment_histogram_excludes_entrants():
    span = (D(2007, 1, 1), D(2009, 1, 1))
    p = make_panel(
        span,
        [
            ("b1", [(span[0], 9)], None),
            ("b2", [(D(2008, 3, 1), 4)], None),  # no rating one year back
        ],
    )
    t = D(2008, 6, 1)
    # b2 counted with an unrated start would add an increment of 4 - (-1)
    assert increments_on(p, t, tau=365)[:2].tolist() == [0.0, 0.0]
    assert sum(rating_counts(p, t)) == 2


def test_increment_histogram_rejects_bad_tau():
    p = flat_panel([3])
    with pytest.raises(ValueError):
        rl.moment_series(p, tau=0)
    for tau in (365.0, 365.5, 0.5):  # a lag is a whole number of days, never floored
        with pytest.raises(TypeError):
            rl.moment_series(p, tau=tau)


# -- moments ----------------------------------------------------------


def test_moments_degenerate():
    ms = rl.moments([5, 5, 5])
    assert ms.mean == 5.0
    assert ms.variance == 0.0
    assert ms.skewness is None and ms.kurtosis is None


def test_moments_two_point():
    ms = rl.moments([0, 1])
    assert ms.mean == pytest.approx(0.5)
    assert ms.variance == pytest.approx(0.25)
    assert ms.skewness == pytest.approx(0.0)
    assert ms.kurtosis == pytest.approx(1.0)


def test_moments_empty_rejected():
    with pytest.raises(ValueError):
        rl.moments([])


def test_moments_gaussian_kurtosis():
    rng = np.random.Generator(np.random.PCG64(101))
    sample = rng.standard_normal(200_000)
    ms = rl.moments(sample)
    assert ms.kurtosis == pytest.approx(3.0, abs=0.05)
    assert ms.skewness == pytest.approx(0.0, abs=0.05)


@given(
    st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=40
    )
)
@example([0.0, -0.0])
@example([-0.0, 0.0, -0.0, 2.5, -2.5])
def test_moments_match_two_pass_oracle(sample):
    ms = rl.moments(sample)
    mean, var, skew, kurt = two_pass_moments(sample)
    assert ms.mean == pytest.approx(mean, rel=1e-10, abs=1e-10)
    assert ms.variance == pytest.approx(var, rel=1e-10, abs=1e-10)
    if skew is None:
        assert ms.skewness is None and ms.kurtosis is None
    else:
        assert ms.skewness == pytest.approx(skew, rel=1e-9, abs=1e-9)
        assert ms.kurtosis == pytest.approx(kurt, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize(
    "sample", [[math.nan], [1.0, math.inf], [-math.inf, 2.0], np.array([3.0, np.nan])]
)
def test_moments_reject_non_finite(sample):
    with pytest.raises(ValueError, match="finite"):
        rl.moments(sample)


@given(
    st.one_of(
        st.lists(st.integers(-14, 14), min_size=1, max_size=400),
        # int8 samples with more elements than levels, as cross-sections are
        st.lists(st.integers(-100, 60), min_size=170, max_size=400).map(
            lambda v: np.array(v, dtype=np.int8)
        ),
    )
)
@example([7])
@example([3, 3, 3, 3])
@example([0, 1])
def test_moments_of_integers_match_exact_fractions(sample):
    # the mean is correctly rounded; the rest carry only the rounding of
    # the deviations' products and of the divisions, never of the sums
    xs = [int(x) for x in sample]
    n = len(xs)
    mean = Fraction(sum(xs), n)
    m2, m3, m4 = (sum((x - mean) ** k for x in xs) / n for k in (2, 3, 4))
    ms = rl.moments(sample)
    assert ms.mean == float(mean)
    assert ms.variance == pytest.approx(float(m2), rel=1e-14, abs=0)
    if m2 == 0:
        assert ms.skewness is None and ms.kurtosis is None
    else:
        assert ms.skewness == pytest.approx(float(m3) / float(m2) ** 1.5, rel=1e-12, abs=1e-12)
        assert ms.kurtosis == pytest.approx(float(m4 / m2**2), rel=1e-13)


@given(
    st.lists(st.floats(min_value=-20, max_value=20, allow_nan=False), min_size=2, max_size=30),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
)
def test_moments_affine_shift(sample, c):
    base = rl.moments(sample)
    shifted = rl.moments([x + c for x in sample])
    assert shifted.mean == pytest.approx(base.mean + c, rel=1e-9, abs=1e-7)
    assert shifted.variance == pytest.approx(base.variance, rel=1e-9, abs=1e-7)
    if base.skewness is not None and shifted.skewness is not None:
        assert shifted.skewness == pytest.approx(base.skewness, rel=1e-6, abs=1e-6)
        assert shifted.kurtosis == pytest.approx(base.kurtosis, rel=1e-6, abs=1e-6)


# -- moment_series ----------------------------------------------------


def test_moment_series_static_panel():
    span = (D(2007, 1, 1), D(2009, 1, 1))
    p = flat_panel([2, 5, 11], span)
    series = rl.moment_series(p, tau=365)
    assert series.date.dtype == np.dtype("datetime64[D]")
    assert series.ratings.shape == series.increments.shape == (len(series.date), 4)
    assert series.date.tolist() == month_starts(*span)
    assert series.ratings[:, 0] == pytest.approx(6.0)
    rated = ~np.isnan(series.increments[:, 0])
    assert (series.increments[rated, 0] == 0.0).all()
    assert (series.increments[rated, 1] == 0.0).all()
    # increments only exist once t - tau is inside coverage
    assert np.isnan(series.increments[0]).all()
    assert rated[-1]


def test_moment_series_synchronized_downgrade():
    span = (D(2007, 1, 1), D(2009, 1, 1))
    drop = D(2007, 10, 1)
    p = make_panel(
        span,
        [
            ("b1", [(span[0], 9), (drop, 8)], None),
            ("b2", [(span[0], 5), (drop, 4)], None),
        ],
    )
    mean, variance, _, _ = increments_on(p, D(2008, 3, 1), tau=365)
    assert mean == pytest.approx(-1.0)
    assert variance == 0.0


def test_moment_series_matches_naive_recomputation(homogeneous_panel):
    panel, _ = homogeneous_panel
    series = rl.moment_series(panel, tau=365)
    assert series.date.tolist() == month_starts(*panel.span)
    histories = raw_histories(panel)
    rows = list(zip(series.date.tolist(), series.ratings, series.increments))
    for t, ratings, increments in rows[::7]:
        then = t - dt.timedelta(days=365)
        states, incs = [], []
        for events, cov in histories:
            now, before = state_on(events, cov, t), state_on(events, cov, then)
            if now is not None:
                states.append(now)
                if before is not None:
                    incs.append(now - before)
        want_r = rl.moments(states)
        assert ratings[0] == pytest.approx(want_r.mean, rel=1e-12)
        assert ratings[1] == pytest.approx(want_r.variance, rel=1e-12)
        if not incs:
            assert np.isnan(increments).all()
        else:
            want_t = rl.moments(incs)
            assert increments[0] == pytest.approx(want_t.mean, rel=1e-12)
            assert increments[3] == pytest.approx(want_t.kurtosis, rel=1e-9)


def _row_bits(row):
    """A series row by ``float.hex`` (which tells -0.0 from 0.0), None for NaN."""
    return [None if math.isnan(v) else float.hex(v) for v in row.tolist()]


def _moment_bits(sample):
    """:func:`moments` of a sample like :func:`_row_bits`; four None for an empty one."""
    if sample.size == 0:
        return [None] * 4
    ms = rl.moments(sample)
    values = (ms.mean, ms.variance, ms.skewness, ms.kurtosis)
    return [None if v is None else float.hex(v) for v in values]


def assert_rows_are_month_moments(panel, tau):
    """Each series row has the bits of :func:`moments` of that month's sample."""
    series = rl.moment_series(panel, tau=tau)
    assert series.date.tolist() == month_starts(*panel.span)
    for t, ratings, increments in zip(series.date.tolist(), series.ratings, series.increments):
        now, then = cross_section(panel, t, t - dt.timedelta(days=tau))
        both = (now >= 0) & (then >= 0)
        assert _row_bits(ratings) == _moment_bits(now[now >= 0])
        assert _row_bits(increments) == _moment_bits((now - then)[both])


@given(mid_month_panels(), st.integers(1, 800), st.sampled_from([1, 3, 10**9]))
@example(flat_panel([3, 7], (D(2007, 1, 2), D(2007, 2, 1))), 30, 1)
@example(flat_panel([3, 7], (D(2007, 1, 2), D(2007, 2, 1))), 31, 1)
def test_moment_series_rows_are_moments_of_each_month(panel, tau, per_pass):
    # lags of up to 800 days reach before the span start, where every bank is
    # unrated; in the examples the span's only month start is its last day, so
    # a 30-day lag reads its first day and a 31-day lag the day before it
    with mock.patch.object(panel_module, "MONTHS_PER_PASS", per_pass):
        assert_rows_are_month_moments(panel, tau)


def test_moment_series_holds_one_pass_block_at_a_time():
    # 20,000 static banks over 30 years: the pair tables of a pass of 120
    # months come from a block of about 5 MB.  The series' peak is one
    # pass's, not two.
    scenario = rl.scenario_from_mapping({
        "kind": "homogeneous", "n_banks": "20000", "start": "1990-01-01", "end": "2020-01-01",
        "seed": "1", "rate_scale": "0",
    })
    panel = rl.simulate(scenario)
    assert panel_module.MONTHS_PER_PASS == 120
    rl.moment_series(flat_panel([3, 7]))  # first-call allocations (imports) happen here
    tracemalloc.start()
    try:
        pass_peaks = []
        for _, days in panel.month_passes():
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            built = panel.pair_counts(np.maximum(days - 365, -1), days)
            pass_peaks.append(tracemalloc.get_traced_memory()[1] - before)
            del built
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        rl.moment_series(panel, tau=365)
        series_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(pass_peaks) == 4  # 361 month starts
    assert series_peak < 1.25 * max(pass_peaks)


def test_moment_series_memory_grows_only_with_its_output():
    # Over 400 years of the 60-bank golden panel against 100, the peak may
    # grow by the longer series itself and its month grid, 16 bytes a
    # month, but not by a per-month record of counts.
    golden = Path(__file__).parent / "data" / "golden_panel.csv"
    rl.moment_series(rl.parse_panel(golden, (None, None)))  # first-call allocations
    peaks, sizes = [], []
    for years in (100, 400):
        panel = rl.parse_panel(golden, (D(2006, 1, 1), D(2005 + years, 12, 31)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            series = rl.moment_series(panel)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        sizes.append(series.date.nbytes + series.ratings.nbytes + series.increments.nbytes)
    assert len(series.date) == 4800
    assert peaks[1] - peaks[0] < 3 * (sizes[1] - sizes[0])


@pytest.mark.parametrize("tau", [30, 365])
def test_golden_panel_rows_are_moments_of_each_month(tau):
    # 60 banks: samples over many levels, not only the few of a generated panel
    golden = Path(__file__).parent / "data" / "golden_panel.csv"
    assert_rows_are_month_moments(rl.parse_panel(golden, (None, None)), tau)


# -- CSV --------------------------------------------------------------


@given(mid_month_panels(), st.integers(1, 800), st.sampled_from([1, 3, 600]))
def test_moment_series_passes_match_one_pass(panel, tau, per_pass):
    # lags of up to 800 days reach before the span start, where every bank is unrated
    with mock.patch.object(panel_module, "MONTHS_PER_PASS", 10**9):
        whole = rl.moment_series(panel, tau=tau)
    with mock.patch.object(panel_module, "MONTHS_PER_PASS", per_pass):
        part = rl.moment_series(panel, tau=tau)
    for name in ("date", "ratings", "increments"):
        a, b = getattr(part, name), getattr(whole, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_moment_series_csv_cells():
    span = (D(2007, 1, 1), D(2007, 3, 1))
    p = flat_panel([4, 4], span)  # degenerate: skew/kurt undefined
    series = rl.moment_series(p, tau=30)
    buf = io.StringIO()
    rl.write_moment_series_csv(series, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "date,mean_R,var_R,skew_R,kurt_R,mean_T,var_T,skew_T,kurt_T"
    first = lines[1].split(",")
    assert first[0] == "2007-01-01"
    assert first[1] == "4" and first[2] == "0"
    assert first[3] == "" and first[4] == ""  # degenerate moments stay empty
    assert first[5] == ""  # no increment sample a month before coverage
    # a date with a defined increment sample fills the T block
    last = lines[-1].split(",")
    assert last[5] == "0" and last[6] == "0"


def test_moment_series_csv_round_numbers():
    span = (D(2007, 1, 1), D(2007, 2, 1))
    p = flat_panel([0, 1], span)
    buf = io.StringIO()
    rl.write_moment_series_csv(rl.moment_series(p, tau=10), buf)
    row = buf.getvalue().splitlines()[1].split(",")
    assert row[1:5] == ["0.5", "0.25", "0", "1"]
