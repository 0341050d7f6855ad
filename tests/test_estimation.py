import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratinglab as rl
import ratinglab.estimation as estimation
from oracles import cohort_matrix, taylor_expm, window_counts_exposures

from conftest import make_panel, raw_histories

D = dt.date
SPAN = (D(2007, 1, 1), D(2009, 12, 31))


def static_panel(states, span=SPAN):
    return make_panel(span, [(f"b{k}", [(span[0], s)], None) for k, s in enumerate(states)])


# -- count_transitions ------------------------------------------------


def test_counts_static_panel():
    p = static_panel([3, 8, 12])
    cm = rl.count_transitions(p, D(2007, 2, 1), D(2008, 2, 1))
    assert cm.total == 0
    assert np.all(cm.counts == 0)


def test_counts_single_downgrade():
    p = make_panel(SPAN, [("b1", [(SPAN[0], 14), (D(2007, 6, 1), 13)], None)])
    cm = rl.count_transitions(p, D(2007, 2, 1), D(2008, 2, 1))
    assert cm.counts[14, 13] == 1
    assert cm.total == 1


def test_counts_multi_jump_path():
    p = make_panel(
        SPAN,
        [("b1", [(SPAN[0], 5), (D(2007, 4, 1), 4), (D(2007, 8, 1), 3)], None)],
    )
    cm = rl.count_transitions(p, D(2007, 2, 1), D(2008, 2, 1))
    assert cm.counts[5, 4] == 1
    assert cm.counts[4, 3] == 1
    assert cm.counts[5, 3] == 0  # two recorded changes, not one combined jump
    assert cm.total == 2


def test_counts_window_is_half_open():
    change = D(2007, 6, 1)
    p = make_panel(SPAN, [("b1", [(SPAN[0], 5), (change, 6)], None)])
    # change on the window start is excluded, on the window end included
    assert rl.count_transitions(p, change, D(2008, 1, 1)).total == 0
    assert rl.count_transitions(p, D(2007, 1, 15), change).total == 1


def test_counts_rejects_bad_window():
    p = static_panel([3])
    with pytest.raises(ValueError):
        rl.count_transitions(p, D(2008, 1, 1), D(2008, 1, 1))
    with pytest.raises(ValueError):
        rl.count_transitions(p, D(2008, 1, 1), D(2007, 1, 1))


@pytest.mark.parametrize(
    "entry", [rl.count_transitions, rl.exposures, rl.empirical_transition_matrix, rl.ck_deviation]
)
@pytest.mark.parametrize(
    "t0, tf",
    [
        (D(2009, 1, 1), D(2010, 1, 1)),  # ends after the span
        (D(2006, 12, 31), D(2007, 6, 1)),  # starts before it
        (D(2010, 1, 1), D(2011, 1, 1)),  # wholly past it
    ],
    ids=["ends_after", "starts_before", "wholly_after"],
)
def test_single_window_entry_points_reject_windows_outside_the_span(entry, t0, tf):
    p = make_panel(SPAN, [("b1", [(SPAN[0], 5), (D(2008, 6, 1), 4)], None)])
    with pytest.raises(ValueError, match="outside span"):
        entry(p, t0, tf)


def test_count_matrix_validation():
    bad = np.zeros((15, 15), dtype=np.int64)
    bad[3, 3] = 1
    with pytest.raises(ValueError):
        rl.CountMatrix(counts=bad)
    with pytest.raises(ValueError):
        rl.CountMatrix(counts=np.zeros((14, 15)))


# -- exposures --------------------------------------------------------


def test_exposure_single_bank_year():
    p = static_panel([7])
    ev = rl.exposures(p, D(2007, 2, 1), D(2008, 2, 1))
    assert ev.exposure[7] == pytest.approx(1.0)
    assert ev.exposure.sum() == pytest.approx(1.0)


def test_exposure_split_window():
    t0 = D(2007, 2, 1)
    mid = t0 + dt.timedelta(days=182)
    p = make_panel(SPAN, [("b1", [(SPAN[0], 7), (mid, 6)], None)])
    ev = rl.exposures(p, t0, t0 + dt.timedelta(days=365))
    assert ev.exposure[7] == pytest.approx(182 / 365)
    assert ev.exposure[6] == pytest.approx(183 / 365)


def test_exposure_empty_panel():
    p = make_panel(SPAN, [])
    ev = rl.exposures(p, D(2007, 2, 1), D(2008, 2, 1))
    assert np.all(ev.exposure == 0.0)


def test_exposure_clips_to_coverage():
    # bank rated for only 73 days inside the window
    entry = D(2007, 3, 1)
    p = make_panel(
        SPAN, [("b1", [(entry, 4)], entry + dt.timedelta(days=72))]
    )
    ev = rl.exposures(p, D(2007, 2, 1), D(2008, 2, 1))
    assert ev.exposure[4] == pytest.approx(73 / 365)


def test_exposure_left_endpoint_convention():
    # a one-day window exposes the state held on its first day only
    p = make_panel(SPAN, [("b1", [(SPAN[0], 9)], None)])
    ev = rl.exposures(p, D(2007, 5, 1), D(2007, 5, 2))
    assert ev.exposure[9] == pytest.approx(1 / 365)


# -- estimate_generator -----------------------------------------------


def test_estimator_direct_substitution():
    counts = np.zeros((15, 15), dtype=np.int64)
    counts[5, 4] = 1
    expo = np.zeros(15)
    expo[5] = 2.0
    q = rl.estimate_generator(
        rl.CountMatrix(counts), rl.ExposureVector(expo)
    )
    assert q.entries[5, 4] == pytest.approx(0.5)
    assert q.entries[5, 5] == pytest.approx(-0.5)


def test_estimator_zero_counts():
    expo = np.full(15, 3.0)
    q = rl.estimate_generator(
        rl.CountMatrix(np.zeros((15, 15), dtype=np.int64)),
        rl.ExposureVector(expo),
    )
    assert np.all(q.entries == 0.0)


def test_estimator_row_sum_identity():
    counts = np.zeros((15, 15), dtype=np.int64)
    counts[8, 9] = 3
    counts[8, 2] = 1
    expo = np.zeros(15)
    expo[8] = 0.5
    q = rl.estimate_generator(
        rl.CountMatrix(counts), rl.ExposureVector(expo)
    )
    assert q.entries[8, 9] == pytest.approx(6.0)
    assert q.entries[8, 2] == pytest.approx(2.0)
    assert q.entries[8, 8] == pytest.approx(-8.0)
    assert np.allclose(q.entries.sum(axis=1), 0.0)


def test_estimator_zero_exposure_row_is_zero():
    counts = np.zeros((15, 15), dtype=np.int64)
    expo = np.zeros(15)
    expo[0] = 1.0
    q = rl.estimate_generator(
        rl.CountMatrix(counts), rl.ExposureVector(expo)
    )
    assert np.all(q.entries[7] == 0.0)


def test_estimator_inconsistent_inputs():
    counts = np.zeros((15, 15), dtype=np.int64)
    counts[5, 4] = 1
    expo = np.zeros(15)
    with pytest.raises(ValueError, match="zero exposure"):
        rl.estimate_generator(
            rl.CountMatrix(counts), rl.ExposureVector(expo)
        )


def test_estimator_from_panel_hand_case():
    # one bank, one year in state 7 then a change; second bank parked at 3
    t0, tf = D(2007, 2, 1), D(2008, 2, 1)
    p = make_panel(
        SPAN,
        [
            ("b1", [(SPAN[0], 7), (D(2007, 8, 1), 6)], None),
            ("b2", [(SPAN[0], 3)], None),
        ],
    )
    q = rl.estimate_generator(
        rl.count_transitions(p, t0, tf), rl.exposures(p, t0, tf)
    )
    days_in_7 = (D(2007, 8, 1) - t0).days
    assert q.entries[7, 6] == pytest.approx(1.0 / (days_in_7 / 365))
    assert q.entries[3].sum() == pytest.approx(0.0)


# -- matrix_exponential -----------------------------------------------


def zero_generator():
    return rl.GeneratorMatrix(entries=np.zeros((15, 15)))


def embedded_two_state(rate=1.0):
    q = np.zeros((15, 15))
    q[0, 0], q[0, 1] = -rate, rate
    q[1, 0], q[1, 1] = rate, -rate
    return rl.GeneratorMatrix(entries=q)


def test_expm_zero_generator_identity():
    m = rl.matrix_exponential(zero_generator(), 3.7)
    assert np.array_equal(m.entries, np.eye(15))


def test_expm_two_state_closed_form():
    m = rl.matrix_exponential(embedded_two_state(), 1.0)
    stay = 0.5 * (1 + math.exp(-2.0))
    move = 0.5 * (1 - math.exp(-2.0))
    assert m.entries[0, 0] == pytest.approx(stay, abs=1e-10)
    assert m.entries[0, 1] == pytest.approx(move, abs=1e-10)
    assert m.entries[1, 1] == pytest.approx(stay, abs=1e-10)
    # untouched states stay put
    assert m.entries[5, 5] == pytest.approx(1.0, abs=1e-12)


def test_expm_matches_taylor_oracle():
    for seed in range(10):
        q = rl.random_generator(seed, 0.8)
        m = rl.matrix_exponential(q, 1.5)
        oracle = taylor_expm([[v * 1.5 for v in row] for row in q.entries.tolist()])
        assert np.max(np.abs(m.entries - np.asarray(oracle))) < 1e-9


def test_expm_semigroup():
    q = rl.random_generator(3, 0.6)
    for s, t in [(0.3, 0.9), (1.0, 1.0), (0.05, 1.95)]:
        ms = rl.matrix_exponential(q, s).entries
        mt = rl.matrix_exponential(q, t).entries
        mst = rl.matrix_exponential(q, s + t).entries
        assert np.max(np.abs(ms @ mt - mst)) < 1e-8


def test_expm_row_sums():
    for seed, t in [(0, 0.5), (1, 2.0), (2, 10.0)]:
        q = rl.random_generator(seed, 0.5)
        m = rl.matrix_exponential(q, t)
        assert np.max(np.abs(m.entries.sum(axis=1) - 1.0)) < 1e-9


def test_expm_rejects_bad_t():
    with pytest.raises(ValueError):
        rl.matrix_exponential(zero_generator(), -1.0)
    with pytest.raises(ValueError):
        rl.matrix_exponential(zero_generator(), float("nan"))


def test_generator_validation():
    q = np.zeros((15, 15))
    q[2, 3] = -0.1
    q[2, 2] = 0.1
    with pytest.raises(ValueError, match="off-diagonal"):
        rl.GeneratorMatrix(entries=q)
    q2 = np.zeros((15, 15))
    q2[4, 5] = 1.0  # row sum not zero
    with pytest.raises(ValueError, match="row sums"):
        rl.GeneratorMatrix(entries=q2)


def test_generator_row_sum_tolerance_scales_with_rates():
    # row sums of a valid generator at 30000/yr carry ~5e-12 of roundoff
    q = rl.random_generator(7, 30000).entries
    assert np.abs(q.sum(axis=1)).max() > 1e-12
    rl.GeneratorMatrix(entries=q)
    rl.GeneratorMatrix(entries=1e4 * rl.random_generator(3, 1.0).entries)
    bad = q.copy()
    bad[6, 6] -= 1e-3  # a real error, far beyond roundoff
    with pytest.raises(ValueError, match=r"^row sums deviate from 0 by 1\.000e-03$"):
        rl.GeneratorMatrix(entries=bad)
    small = np.zeros((15, 15))
    small[4, 4], small[4, 5] = -0.5, 0.5 + 2e-12  # below magnitude 1 the bound stays 1e-12
    with pytest.raises(ValueError, match=r"^row sums deviate from 0 by 2\.000e-12$"):
        rl.GeneratorMatrix(entries=small)


@pytest.mark.filterwarnings("error")  # numpy's overflow warning would be a stray stderr line
def test_generator_row_sum_overflow_is_rejected():
    # the sum of magnitudes overflows, so a bound scaled by it would be inf
    q = np.zeros((15, 15))
    q[0, :3] = -1.0, 1e308, 1e308
    with pytest.raises(ValueError, match=r"^row sums deviate from 0 by inf$"):
        rl.GeneratorMatrix(entries=q)
    # a valid generator whose magnitudes sum past the float maximum loads
    q = rl.random_generator(1, 1e308).entries
    with np.errstate(over="ignore"):
        assert np.isinf(np.abs(q).sum(axis=1)).any()


def test_transition_matrix_validation():
    m = np.eye(15)
    m[0, 0] = 0.9  # row sum 0.9
    with pytest.raises(ValueError, match="row sums"):
        rl.TransitionMatrix(entries=m)
    m2 = np.eye(15)
    m2[0, 0], m2[0, 1] = 1.5, -0.5
    with pytest.raises(ValueError):
        rl.TransitionMatrix(entries=m2)


# -- empirical_transition_matrix --------------------------------------


def test_cohort_static_identity():
    p = static_panel([1, 6, 13])
    m = rl.empirical_transition_matrix(p, D(2007, 2, 1), D(2008, 2, 1))
    assert np.array_equal(m.entries, np.eye(15))


def test_cohort_half_split():
    p = make_panel(
        SPAN,
        [
            ("b1", [(SPAN[0], 5), (D(2007, 6, 1), 4)], None),
            ("b2", [(SPAN[0], 5)], None),
        ],
    )
    m = rl.empirical_transition_matrix(p, D(2007, 2, 1), D(2008, 2, 1))
    assert m.entries[5, 4] == pytest.approx(0.5)
    assert m.entries[5, 5] == pytest.approx(0.5)
    assert m.entries[9, 9] == 1.0  # empty cohort rows stay identity


def test_cohort_ignores_late_entrants():
    p = make_panel(
        SPAN,
        [
            ("b1", [(SPAN[0], 5)], None),
            ("b2", [(D(2007, 6, 1), 5)], None),  # enters after t0
        ],
    )
    m = rl.empirical_transition_matrix(p, D(2007, 2, 1), D(2008, 2, 1))
    assert m.entries[5, 5] == 1.0
    # cohort size is 1: the late entrant contributed nothing
    cm = cohort_matrix(raw_histories(p), D(2007, 2, 1), D(2008, 2, 1))
    assert np.allclose(m.entries, np.asarray(cm))


def test_cohort_rows_sum_to_one_exactly():
    p = make_panel(
        SPAN,
        [
            ("b1", [(SPAN[0], 5), (D(2007, 6, 1), 4)], None),
            ("b2", [(SPAN[0], 5), (D(2007, 7, 1), 6)], None),
            ("b3", [(SPAN[0], 5)], None),
        ],
    )
    m = rl.empirical_transition_matrix(p, D(2007, 2, 1), D(2008, 2, 1))
    assert np.all(m.entries.sum(axis=1) == 1.0)


def test_cohort_matches_brute_force(homogeneous_panel):
    panel, _ = homogeneous_panel
    t0, tf = D(2008, 1, 1), D(2009, 1, 1)
    m = rl.empirical_transition_matrix(panel, t0, tf)
    oracle = cohort_matrix(raw_histories(panel), t0, tf)
    assert np.max(np.abs(m.entries - np.asarray(oracle))) == 0.0


def test_counts_exposures_match_brute_force(homogeneous_panel):
    panel, _ = homogeneous_panel
    t0, tf = D(2008, 3, 1), D(2008, 9, 1)
    cm = rl.count_transitions(panel, t0, tf)
    ev = rl.exposures(panel, t0, tf)
    counts_o, expo_o = window_counts_exposures(raw_histories(panel), t0, tf)
    assert np.array_equal(cm.counts, np.asarray(counts_o))
    # oracle accumulates 1/365 day by day; allow its summation roundoff
    assert np.allclose(ev.exposure, np.asarray(expo_o), rtol=0, atol=1e-9)


# -- stacks of windows ---------------------------------------------------


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def random_fit_inputs(rng, shape):
    """Counts and exposures with some unoccupied states, whose rows are empty."""
    exposure = rng.uniform(0.1, 3.0, size=shape + (15,)) * (rng.random(shape + (15,)) < 0.8)
    counts = rng.integers(0, 6, size=shape + (15, 15)) * (exposure[..., None] > 0)
    counts[..., np.arange(15), np.arange(15)] = 0
    return rl.CountMatrix(counts), rl.ExposureVector(exposure)


def test_cohort_matrix_stack_equals_slices():
    rng = np.random.Generator(np.random.PCG64(1))
    start = rng.integers(-1, 15, size=(2, 3, 40)).astype(np.int8)
    end = rng.integers(-1, 15, size=(2, 3, 40)).astype(np.int8)
    start[1, 2] = -1  # a window with every cohort empty
    got = estimation.cohort_matrix(start, end).entries
    assert got.shape == (2, 3, 15, 15)
    for w in np.ndindex(2, 3):
        assert same_bits(got[w], estimation.cohort_matrix(start[w], end[w]).entries)
    assert np.array_equal(got[1, 2], np.eye(15))
    empty = np.zeros((0, 40), dtype=np.int8)
    assert estimation.cohort_matrix(empty, empty).entries.shape == (0, 15, 15)


def test_estimate_generator_stack_equals_slices():
    counts, exposure = random_fit_inputs(np.random.Generator(np.random.PCG64(2)), (3, 4))
    got = rl.estimate_generator(counts, exposure).entries
    assert got.shape == (3, 4, 15, 15)
    for w in np.ndindex(3, 4):
        one = rl.estimate_generator(
            rl.CountMatrix(counts.counts[w]), rl.ExposureVector(exposure.exposure[w])
        )
        assert same_bits(got[w], one.entries)
    empty = rl.estimate_generator(
        rl.CountMatrix(np.zeros((0, 15, 15))), rl.ExposureVector(np.zeros((0, 15)))
    )
    assert empty.entries.shape == (0, 15, 15)


def test_estimate_generator_names_the_state_of_an_inconsistent_window():
    counts, exposure = random_fit_inputs(np.random.Generator(np.random.PCG64(3)), (4,))
    c, e = counts.counts.copy(), exposure.exposure.copy()
    e[2, 6] = 0.0
    c[2, 6, 9] = 1
    with pytest.raises(ValueError, match="^state 6: transitions recorded with zero exposure$"):
        rl.estimate_generator(rl.CountMatrix(c), rl.ExposureVector(e))


def test_matrix_exponential_stack_equals_slices():
    counts, exposure = random_fit_inputs(np.random.Generator(np.random.PCG64(4)), (5,))
    q = rl.estimate_generator(counts, exposure)
    t = np.array([0.0, 1 / 12, 1.0, 2.5, 31 / 365])
    got = rl.matrix_exponential(q, t).entries
    for w in range(5):
        one = rl.matrix_exponential(rl.GeneratorMatrix(q.entries[w]), t[w])
        assert same_bits(got[w], one.entries)
    # one duration for every window
    assert same_bits(rl.matrix_exponential(q, 1.0).entries[2], got[2])
    with pytest.raises(ValueError, match="finite nonnegative"):
        rl.matrix_exponential(q, np.array([1.0, 1.0, -1.0, 1.0, 1.0]))
    empty = rl.matrix_exponential(rl.GeneratorMatrix(np.zeros((0, 15, 15))), np.zeros(0))
    assert empty.entries.shape == (0, 15, 15)


def _break_cell(value, index=(3, 4)):
    def breaks(a):
        a[(2,) + index] = value
        return a
    return breaks


def _unbalance(a):
    a[2, 5, 5] -= 1e-3
    return a


COUNTS = np.zeros((4, 15, 15), np.int64)
EYES = np.tile(np.eye(15), (4, 1, 1))
ZEROS = np.zeros((4, 15, 15))


@pytest.mark.parametrize(
    "cls, good, breaks, message",
    [
        (rl.CountMatrix, COUNTS, _break_cell(-1), "^negative transition count$"),
        (rl.CountMatrix, COUNTS, _break_cell(1, (4, 4)), "^count matrix must have a zero diagonal$"),
        (rl.CountMatrix, np.zeros((4, 14, 15), np.int64), None, "^counts must be 15x15$"),
        (rl.ExposureVector, np.ones((4, 15)), _break_cell(-1.0, (3,)), "^negative exposure$"),
        (rl.ExposureVector, np.ones((4, 14)), None, "^exposure must have length 15$"),
        (rl.TransitionMatrix, EYES, _break_cell(np.nan), "^non-finite transition probability$"),
        (rl.TransitionMatrix, EYES, _break_cell(-0.5, (3, 3)),
         r"^transition probabilities outside \[0, 1\]$"),
        (rl.TransitionMatrix, EYES, _break_cell(0.5), "^row sums deviate from 1 by 5.000e-01$"),
        (rl.TransitionMatrix, np.zeros((4, 15, 14)), None, "^entries must be 15x15$"),
        (rl.GeneratorMatrix, ZEROS, _break_cell(np.inf), "^non-finite generator entry$"),
        (rl.GeneratorMatrix, ZEROS, _break_cell(-0.1), "^negative off-diagonal rate$"),
        (rl.GeneratorMatrix, ZEROS, _unbalance, "^row sums deviate from 0 by 1.000e-03$"),
        (rl.GeneratorMatrix, np.zeros((4, 1, 15, 14)), None, "^entries must be 15x15$"),
    ],
)
def test_matrix_types_check_every_window_of_a_stack(cls, good, breaks, message):
    # the stack loads whole, then fails with one window broken
    if breaks is not None:
        cls(good.copy())
        good = breaks(good.copy())
    with pytest.raises(ValueError, match=message):
        cls(good)


def test_matrix_types_take_empty_stacks():
    counts = rl.CountMatrix(np.zeros((0, 15, 15)))
    assert counts.total.shape == (0,)
    assert rl.ExposureVector(np.zeros((0, 15))).exposure.shape == (0, 15)
    assert rl.TransitionMatrix(np.zeros((0, 15, 15))).entries.shape == (0, 15, 15)
    assert rl.GeneratorMatrix(np.zeros((0, 3, 15, 15))).entries.shape == (0, 3, 15, 15)


def test_count_matrix_total_per_window():
    c = np.zeros((3, 15, 15), dtype=np.int64)
    c[0, 1, 2], c[2, 5, 4], c[2, 4, 5] = 2, 1, 3
    assert rl.CountMatrix(c).total.tolist() == [2, 0, 4]
    assert rl.CountMatrix(c[2]).total == 4


# -- estimator consistency on simulated panels -------------------------


def test_estimator_consistency_monotone(consistency_sweep):
    medians, q_norm, _ = consistency_sweep
    assert medians[100] > medians[1000] > medians[10000]
    assert medians[10000] / q_norm < 0.10


def test_estimated_exponential_close_to_cohort(homogeneous_panel):
    # duration and cohort estimates agree on a big homogeneous window;
    # 400 banks split over 15 cohorts is coarse, so the bound is loose
    panel, q = homogeneous_panel
    t0, tf = D(2007, 1, 1), D(2010, 1, 1)
    qhat = rl.estimate_generator(
        rl.count_transitions(panel, t0, tf), rl.exposures(panel, t0, tf)
    )
    years = (tf - t0).days / 365
    m_hat = rl.matrix_exponential(qhat, years)
    m_coh = rl.empirical_transition_matrix(panel, t0, tf)
    assert np.max(np.abs(m_hat.entries - m_coh.entries)) < 0.2
    assert np.mean(np.abs(m_hat.entries - m_coh.entries)) < 0.02
