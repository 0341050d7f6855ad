import datetime as dt
import io
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ratinglab as rl
from ratinglab.dates import month_starts
from oracles import elementwise_moments, state_on, two_pass_moments

from conftest import make_panel, raw_histories

D = dt.date


def flat_panel(states, span=(D(2007, 1, 1), D(2009, 1, 1))):
    specs = [(f"b{k}", [(span[0], s)], None) for k, s in enumerate(states)]
    return make_panel(span, specs)


# -- histograms -------------------------------------------------------


def test_rating_histogram_point_mass():
    p = flat_panel([7, 7, 7])
    h = rl.rating_histogram(p, D(2007, 6, 1))
    assert h.counts[7] == 3
    assert sum(h.counts) == h.total == 3
    assert h.bin_labels == rl.RATING_LABELS


def test_rating_histogram_empty_panel():
    p = make_panel((D(2007, 1, 1), D(2008, 1, 1)), [])
    h = rl.rating_histogram(p, D(2007, 6, 1))
    assert all(c == 0 for c in h.counts)
    assert h.total == 0


def test_rating_histogram_hand_tally():
    p = flat_panel([0, 3, 3, 14, 7])
    h = rl.rating_histogram(p, D(2007, 2, 1))
    expected = [0] * 15
    expected[0] = 1
    expected[3] = 2
    expected[14] = 1
    expected[7] = 1
    assert list(h.counts) == expected


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
        assert rl.rating_histogram(p, t).total == rated


def test_increment_histogram_static_panel():
    p = flat_panel([2, 9, 13])
    h = rl.increment_histogram(p, D(2008, 6, 1), tau=365)
    assert h.bin_labels == tuple(range(-14, 15))
    assert h.counts[h.bin_labels.index(0)] == 3
    assert h.total == 3


def test_increment_histogram_downgrade():
    span = (D(2007, 1, 1), D(2009, 1, 1))
    p = make_panel(
        span, [("b1", [(span[0], 9), (D(2007, 10, 1), 7)], None)]
    )
    h = rl.increment_histogram(p, D(2008, 1, 1), tau=365)
    assert h.counts[h.bin_labels.index(-2)] == 1
    assert h.total == 1


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
    h = rl.increment_histogram(p, t, tau=365)
    assert h.total == 1
    assert rl.rating_histogram(p, t).total == 2


def test_increment_histogram_rejects_bad_tau():
    p = flat_panel([3])
    with pytest.raises(ValueError):
        rl.increment_histogram(p, D(2007, 6, 1), tau=0)


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


def _bits(v):
    return None if v is None else float.hex(v)  # float.hex tells -0.0 from 0.0


@given(
    st.one_of(
        st.lists(st.integers(-14, 14), min_size=1, max_size=400),
        # int8 samples with more elements than levels, as cross-sections are
        st.lists(st.integers(-100, 60), min_size=170, max_size=400).map(
            lambda v: np.array(v, dtype=np.int8)
        ),
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=200),
        st.builds(lambda v, n: [v] * n, st.floats(-1e3, 1e3), st.integers(1, 50)),
    )
)
@example([7])
@example([0.0, -0.0])
@example([-0.0])
@example([-0.0, 0.0, -0.0, 2.5, -2.5])
@example([3, 3, 3, 3])
def test_moments_bit_identical_to_elementwise_formula(sample):
    ms = rl.moments(sample)
    got = (ms.mean, ms.variance, ms.skewness, ms.kurtosis)
    assert [_bits(v) for v in got] == [_bits(v) for v in elementwise_moments(sample)]


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
    assert [pt.date for pt in series] == month_starts(*span)
    for pt in series:
        assert pt.ratings.mean == pytest.approx(6.0)
        if pt.increments is not None:
            assert pt.increments.mean == 0.0
            assert pt.increments.variance == 0.0
    # increments only exist once t - tau is inside coverage
    assert series[0].increments is None
    assert series[-1].increments is not None


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
    series = {pt.date: pt for pt in rl.moment_series(p, tau=365)}
    pt = series[D(2008, 3, 1)]
    assert pt.increments.mean == pytest.approx(-1.0)
    assert pt.increments.variance == 0.0


def test_moment_series_matches_naive_recomputation(homogeneous_panel):
    panel, _ = homogeneous_panel
    series = rl.moment_series(panel, tau=365)
    assert [pt.date for pt in series] == month_starts(*panel.span)
    histories = raw_histories(panel)
    for pt in series[::7]:
        then = pt.date - dt.timedelta(days=365)
        states, incs = [], []
        for events, cov in histories:
            now, before = state_on(events, cov, pt.date), state_on(events, cov, then)
            if now is not None:
                states.append(now)
                if before is not None:
                    incs.append(now - before)
        want_r = rl.moments(states)
        assert pt.ratings.mean == pytest.approx(want_r.mean, rel=1e-12)
        assert pt.ratings.variance == pytest.approx(want_r.variance, rel=1e-12)
        if not incs:
            assert pt.increments is None
        else:
            want_t = rl.moments(incs)
            assert pt.increments.mean == pytest.approx(want_t.mean, rel=1e-12)
            assert pt.increments.kurtosis == pytest.approx(want_t.kurtosis, rel=1e-9)


def test_moment_series_step_grid():
    span = (D(2007, 1, 1), D(2007, 2, 1))
    p = flat_panel([3], span)
    series = rl.moment_series(p, tau=10, step=7)
    assert [pt.date for pt in series] == [
        span[0] + dt.timedelta(days=i) for i in range(0, 32, 7)
    ]
    with pytest.raises(ValueError):
        rl.moment_series(p, tau=10, step=0)


def test_histogram_length_mismatch_rejected():
    with pytest.raises(ValueError):
        rl.Histogram(bin_labels=("a", "b"), counts=(1,))


# -- CSV --------------------------------------------------------------


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
