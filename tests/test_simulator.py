import bisect
import datetime as dt
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratinglab as rl
from ratinglab import DataFormatError, simulator
from oracles import simulate_events, stationary_distribution

from conftest import cross_section, raw_histories

D = dt.date
T0 = D(2007, 1, 1)


def homogeneous(q, n_banks, end, seed, initial=None):
    return rl.Scenario(
        kind="homogeneous",
        generators=((T0, q),),
        n_banks=n_banks,
        span=(T0, end),
        seed=seed,
        initial_distribution=initial if initial is not None else rl.uniform_distribution(),
    )


def zero_q():
    return rl.GeneratorMatrix(entries=np.zeros((15, 15)))


# -- simulate ----------------------------------------------------------


def test_zero_generator_static_panel():
    panel = rl.simulate(homogeneous(zero_q(), 50, D(2009, 1, 1), seed=3))
    assert panel.n_banks == 50
    assert panel.transitions().size == 0
    assert raw_histories(panel) == [([(T0, s)], panel.span[1]) for s in panel.event_state.tolist()]


def test_simulation_deterministic():
    q = rl.random_generator(5, 0.4)
    scen = homogeneous(q, 200, D(2009, 1, 1), seed=11)
    a = rl.simulate(scen)
    b = rl.simulate(scen)
    assert a == b
    buf_a, buf_b = io.StringIO(), io.StringIO()
    rl.write_panel_csv(a, buf_a)
    rl.write_panel_csv(b, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_different_seeds_differ():
    q = rl.random_generator(5, 0.4)
    a = rl.simulate(homogeneous(q, 200, D(2009, 1, 1), seed=11))
    b = rl.simulate(homogeneous(q, 200, D(2009, 1, 1), seed=12))
    assert a != b


def test_bank_ids_stable_width():
    panel = rl.simulate(homogeneous(zero_q(), 12, D(2007, 2, 1), seed=0))
    assert panel.bank_ids[0] == "B0000"
    assert panel.bank_ids[-1] == "B0011"


def test_two_state_frequency_matches_exponential():
    # embedded 2-state chain at rate 1/yr: after one year the cohort
    # frequency must sit within 3 standard errors of the exp(Q) entry
    q = np.zeros((15, 15))
    q[0, 0], q[0, 1] = -1.0, 1.0
    q[1, 0], q[1, 1] = 1.0, -1.0
    gen = rl.GeneratorMatrix(entries=q)
    n = 10_000
    panel = rl.simulate(
        homogeneous(gen, n, D(2008, 1, 1), seed=2024, initial=rl.point_mass_distribution(0))
    )
    states = cross_section(panel, D(2008, 1, 1))[0]
    freq = float((states == 1).sum()) / n
    want = rl.matrix_exponential(gen, 1.0).entries[0, 1]
    se = math.sqrt(want * (1 - want) / n)
    assert abs(freq - want) <= 3 * se
    assert set(np.unique(states)) <= {0, 1}


def test_initial_point_mass_respected():
    panel = rl.simulate(
        homogeneous(zero_q(), 100, D(2007, 6, 1), seed=8, initial=rl.point_mass_distribution(7))
    )
    assert np.all(cross_section(panel, T0)[0] == 7)


def test_initial_uniform_covers_scale():
    panel = rl.simulate(homogeneous(zero_q(), 3000, D(2007, 2, 1), seed=9))
    counts = np.bincount(cross_section(panel, T0)[0], minlength=15)
    assert counts.min() > 100  # 200 expected per state
    assert counts.max() < 320


def test_occupation_converges_to_stationary():
    q = rl.random_generator(21, 2.5)
    pi = stationary_distribution(q.entries)
    tv = {1: [], 2: [], 4: []}
    for seed in range(10):
        panel = rl.simulate(
            homogeneous(q, 2000, D(2012, 1, 1), seed=400 + seed,
                        initial=rl.point_mass_distribution(14))
        )
        for yrs in (1, 2, 4):
            t = T0 + dt.timedelta(days=365 * yrs)
            states = cross_section(panel, t)[0]
            emp = np.bincount(states, minlength=15) / panel.n_banks
            tv[yrs].append(0.5 * float(np.abs(emp - pi).sum()))
    m1, m2, m4 = (float(np.median(tv[y])) for y in (1, 2, 4))
    assert m1 > m2 > m4


def test_high_rate_collisions_stay_valid():
    # 30 jumps/yr forces plenty of same-day re-draws; the panel must
    # still satisfy every history invariant
    q = rl.random_generator(2, 30.0)
    panel = rl.simulate(homogeneous(q, 50, D(2008, 1, 1), seed=1))
    assert panel.transitions().size > 500
    for events, _ in raw_histories(panel):
        assert all(a[0] < b[0] and a[1] != b[1] for a, b in zip(events, events[1:]))


def ks_distance(a, b):
    """Largest gap between the two samples' empirical distribution functions."""
    values = np.union1d(a, b)
    cdf = [np.searchsorted(np.sort(s), values, side="right") / s.size for s in (a, b)]
    return float(np.abs(cdf[0] - cdf[1]).max())


def test_one_redraw_has_the_law_of_redrawing_until_the_day_differs():
    # The whole-day rule by its definition: redraw from the same time
    # until the rounded day differs from the last event day.  About one
    # jump a day, so more than a third of the jumps collide at least once.
    q = rl.random_generator(4, 300.0)
    n_banks, n_days = 1000, 90
    rates = np.maximum(q.entries / 365.0, 0.0)
    np.fill_diagonal(rates, 0.0)
    cum = np.cumsum(rates, axis=1).tolist()
    rng = np.random.default_rng(99)
    counts, gaps, jumps, collided = [], [], 0, 0
    for _ in range(n_banks):
        state, t, days = 7, 0.0, [0]
        while True:
            lam, redraws = cum[state][-1], 0
            while True:
                x = t - math.log(1.0 - rng.random()) / lam
                if x >= n_days or math.floor(x + 0.5) > days[-1]:
                    break
                redraws += 1
            if x >= n_days:
                break
            jumps, collided = jumps + 1, collided + (redraws > 0)
            state, t = bisect.bisect_right(cum[state], rng.random() * lam), x
            days.append(math.floor(x + 0.5))
        counts.append(len(days))
        gaps += np.diff(days).tolist()
    assert collided > jumps / 3

    panel = rl.simulate(
        homogeneous(q, n_banks, T0 + dt.timedelta(days=n_days), seed=5, initial=rl.point_mass_distribution(7))
    )
    sim_counts = np.diff(panel.offsets)
    sim_gaps = np.diff(panel.event_day)[np.diff(np.repeat(np.arange(n_banks), sim_counts)) == 0]
    # Two-sample Kolmogorov-Smirnov bound at about 1e-4 two-sided (conservative for
    # integer values).  A second draw from a whole day past the last event day,
    # not half a day, puts the counts' distance at 3.1 times the bound.
    for literal, simulated in ((np.array(counts), sim_counts), (np.array(gaps), sim_gaps)):
        n, m = literal.size, simulated.size
        assert ks_distance(literal, simulated) < 2.23 * math.sqrt((n + m) / (n * m))


# -- the lockstep loop against the per-bank reference ----------------------


@pytest.mark.parametrize("seed", [0, 1, 2**31, 2**32 - 1, 2**32, 2**64])
def test_streams_match_default_rng(seed):
    # bank indices run up to the largest one SeedSequence word holds;
    # only these three lanes are built
    banks = [0, 1, 2**32 - 1]
    streams = simulator._streams(seed, np.array(banks, dtype=np.uint64))
    lockstep = [simulator._random(streams, slice(None)).tolist() for _ in range(3)]
    rngs = [np.random.default_rng((seed, k)) for k in banks]
    assert lockstep == [[rng.random() for rng in rngs] for _ in range(3)]


def test_log1m_is_math_log():
    # np.log differs from math.log in the last bit on some hosts
    u = np.random.default_rng(0).random(100_000)
    assert simulator._log1m(u).tolist() == [math.log(1.0 - x) for x in u.tolist()]


def reference_events(scenario):
    excitation = scenario.excitation
    return simulate_events(
        [(d.toordinal(), g.entries) for d, g in scenario.generators],
        scenario.span[1].toordinal(),
        scenario.n_banks,
        scenario.seed,
        scenario.initial_distribution,
        gamma=excitation.gamma if excitation is not None else 1.0,
        memory_days=excitation.memory_days if excitation is not None else 0,
    )


def assert_matches_reference(scenario):
    panel = rl.simulate(scenario)
    offsets, days, states = reference_events(scenario)
    assert panel.offsets.tolist() == offsets
    assert panel.event_day.tolist() == days
    assert panel.event_state.tolist() == states


_INITIAL = st.one_of(
    st.just("uniform"),
    st.integers(0, 14).map(lambda s: f"state:{s}"),
    st.lists(st.sampled_from([0, 0, 1, 3]), min_size=15, max_size=15)
    .filter(any)
    .map(lambda w: ",".join(repr(x / sum(w)) for x in w)),
)


@st.composite
def small_scenarios(draw):
    kind = draw(st.sampled_from(simulator.KINDS))
    span_days = draw(st.integers(1 if kind == "regime_switch" else 0, 1500))
    mapping = {
        "kind": kind,
        "n_banks": draw(st.integers(0, 40)),
        "start": T0.isoformat(),
        "end": (T0 + dt.timedelta(days=span_days)).isoformat(),
        "seed": draw(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 3, 10**30])),
        "generator_seed": draw(st.integers(0, 50)),
        "rate_scale": draw(st.one_of(st.sampled_from([0.0, 0.5, 5.0, 40.0]), st.floats(1e-3, 40.0))),
        "initial": draw(_INITIAL),
    }
    if kind == "excited":
        mapping["gamma"] = draw(st.floats(0.1, 50.0))
        mapping["memory_days"] = draw(st.integers(1, 800))
    if kind == "regime_switch":
        # the last possible switch date is the span end itself
        switch = draw(st.integers(1, span_days))
        mapping["switch_date"] = (T0 + dt.timedelta(days=switch)).isoformat()
        mapping["switch_multiplier"] = draw(st.sampled_from([0.0, 0.5, 3.0, 12.0]))
    return rl.scenario_from_mapping({key: str(value) for key, value in mapping.items()})


@settings(max_examples=60)
@given(scenario=small_scenarios())
def test_simulate_matches_per_bank_reference(scenario):
    assert_matches_reference(scenario)


@pytest.mark.parametrize("blocks", [1, 3])
def test_simulate_matches_reference_across_blocks(monkeypatch, blocks):
    # the bytes do not depend on how banks are grouped into blocks
    scenario = rl.scenario_from_mapping({
        "kind": "excited", "n_banks": "23", "start": "2007-01-01", "end": "2010-01-01",
        "seed": "5", "rate_scale": "2", "gamma": "8", "memory_days": "200",
    })
    monkeypatch.setattr(simulator, "BANKS_PER_BLOCK", blocks)
    assert_matches_reference(scenario)


def test_excited_downgrades_cluster():
    scen = rl.scenario_from_mapping(
        {
            "kind": "excited",
            "n_banks": "2000",
            "start": "2007-01-01",
            "end": "2010-01-01",
            "seed": "77",
            "rate_scale": "0.3",
            "gamma": "5",
            "memory_days": "90",
        }
    )
    panel = rl.simulate(scen)
    cond_n = cond_down = all_n = all_down = 0
    for evs, _ in raw_histories(panel):
        for k in range(1, len(evs)):
            is_down = evs[k][1] < evs[k - 1][1]
            all_n += 1
            all_down += is_down
            if k >= 2:
                prev_down = evs[k - 1][1] < evs[k - 2][1]
                gap = (evs[k][0] - evs[k - 1][0]).days
                if prev_down and gap <= 90:
                    cond_n += 1
                    cond_down += is_down
    unconditional = all_down / all_n
    conditional = cond_down / cond_n
    assert cond_n > 100
    assert conditional > unconditional + 0.15


def test_excitation_follows_own_downgrades_only():
    # a bank is excited by its own downgrades alone, so bank 0 draws the
    # same events whether or not 39 other banks share its panel
    def bank_zero(n_banks):
        scen = rl.scenario_from_mapping(
            {
                "kind": "excited",
                "n_banks": str(n_banks),
                "start": "2007-01-01",
                "end": "2012-01-01",
                "seed": "5",
                "rate_scale": "2",
                "gamma": "5",
                "memory_days": "90",
            }
        )
        return raw_histories(rl.simulate(scen))[0]

    alone = bank_zero(1)
    events = alone[0]
    assert any(b[1] < a[1] for a, b in zip(events, events[1:]))  # it was excited
    assert bank_zero(40) == alone


def test_regime_switch_rates_jump():
    # transition volume should roughly triple after the switch
    scen = rl.scenario_from_mapping(
        {
            "kind": "regime_switch",
            "n_banks": "4000",
            "start": "2007-01-01",
            "end": "2011-01-01",
            "seed": "31",
            "rate_scale": "0.25",
        }
    )
    panel = rl.simulate(scen)
    switch = D(2009, 1, 1)
    before = rl.count_transitions(panel, T0, switch).total
    after = rl.count_transitions(panel, switch, D(2011, 1, 1)).total
    assert 2.0 < after / before < 4.5


# -- random_generator ---------------------------------------------------


def test_random_generator_valid_and_deterministic():
    for seed in range(8):
        q = rl.random_generator(seed, 0.7)
        # constructing GeneratorMatrix revalidates the invariants
        rl.GeneratorMatrix(entries=q.entries.copy())
        again = rl.random_generator(seed, 0.7)
        assert np.array_equal(q.entries, again.entries)


def test_random_generator_banded():
    q = rl.random_generator(13, 1.0).entries
    for i in range(15):
        for j in range(15):
            if abs(i - j) > 2 and not np.isclose(q[i, j], 0):
                raise AssertionError(f"rate outside the band at ({i}, {j})")
            if 0 < abs(i - j) <= 1:
                assert q[i, j] > 0


def test_random_generator_exact_scaling():
    a = rl.random_generator(99, 0.5).entries
    b = rl.random_generator(99, 1.0).entries
    assert np.array_equal(2.0 * a, b)


def test_random_generator_seeds_differ():
    a = rl.random_generator(1, 0.5).entries
    b = rl.random_generator(2, 0.5).entries
    assert not np.array_equal(a, b)


# -- scenario validation -------------------------------------------------


def test_scenario_rejects_bad_distribution():
    bad = np.full(15, 1.0 / 15)
    bad[0] += 1e-6
    with pytest.raises(ValueError, match="initial_distribution"):
        homogeneous(zero_q(), 10, D(2008, 1, 1), seed=1, initial=bad)
    with pytest.raises(ValueError):
        rl.point_mass_distribution(15)


def test_scenario_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        homogeneous(zero_q(), 10, D(2008, 1, 1), seed=-1)


def test_scenario_generator_schedule_rules():
    q = zero_q()
    with pytest.raises(ValueError, match="span start"):
        rl.Scenario(
            kind="homogeneous",
            generators=((D(2007, 3, 1), q),),
            n_banks=5,
            span=(T0, D(2008, 1, 1)),
            seed=0,
            initial_distribution=rl.uniform_distribution(),
        )
    with pytest.raises(ValueError, match="regime_switch"):
        rl.Scenario(
            kind="regime_switch",
            generators=((T0, q),),
            n_banks=5,
            span=(T0, D(2008, 1, 1)),
            seed=0,
            initial_distribution=rl.uniform_distribution(),
        )
    with pytest.raises(ValueError, match="exactly one"):
        rl.Scenario(
            kind="homogeneous",
            generators=((T0, q), (D(2007, 6, 1), q)),
            n_banks=5,
            span=(T0, D(2008, 1, 1)),
            seed=0,
            initial_distribution=rl.uniform_distribution(),
        )
    with pytest.raises(ValueError, match="increasing"):
        rl.Scenario(
            kind="regime_switch",
            generators=((T0, q), (T0, q)),
            n_banks=5,
            span=(T0, D(2008, 1, 1)),
            seed=0,
            initial_distribution=rl.uniform_distribution(),
        )


def test_scenario_excitation_pairing():
    exc = rl.Excitation(gamma=5.0, memory_days=90)
    with pytest.raises(ValueError, match="excitation"):
        rl.Scenario(
            kind="homogeneous",
            generators=((T0, zero_q()),),
            n_banks=5,
            span=(T0, D(2008, 1, 1)),
            seed=0,
            initial_distribution=rl.uniform_distribution(),
            excitation=exc,
        )
    with pytest.raises(ValueError, match="excitation"):
        rl.Scenario(
            kind="excited",
            generators=((T0, zero_q()),),
            n_banks=5,
            span=(T0, D(2008, 1, 1)),
            seed=0,
            initial_distribution=rl.uniform_distribution(),
        )


def test_excitation_validation():
    with pytest.raises(ValueError):
        rl.Excitation(gamma=0.0, memory_days=90)
    with pytest.raises(ValueError):
        rl.Excitation(gamma=math.inf, memory_days=90)
    with pytest.raises(ValueError):
        rl.Excitation(gamma=2.0, memory_days=0)
    for too_long in (10**400, math.inf, math.nan):
        with pytest.raises(ValueError, match="memory_days must be at most"):
            rl.Excitation(gamma=2.0, memory_days=too_long)


# -- scenario files ------------------------------------------------------


SCENARIO_TEXT = """\
# five-year switching experiment
kind = regime_switch
n_banks = 250
start = 2007-01-01
end = 2011-01-01
seed = 42
rate_scale = 0.3
switch_multiplier = 3
initial = state:7
"""


def test_load_scenario_file(tmp_path):
    path = tmp_path / "scen.txt"
    path.write_text(SCENARIO_TEXT, encoding="utf-8")
    scen = rl.load_scenario(path)
    assert scen.kind == "regime_switch"
    assert scen.n_banks == 250
    assert scen.span == (D(2007, 1, 1), D(2011, 1, 1))
    assert scen.seed == 42
    # default switch date is mid-span (1461 // 2 days in); rates exactly tripled
    assert scen.generators[1][0] == D(2008, 12, 31)
    assert np.array_equal(scen.generators[1][1].entries, 3.0 * scen.generators[0][1].entries)
    assert scen.initial_distribution[7] == 1.0


def test_scenario_mapping_defaults():
    scen = rl.scenario_from_mapping(
        {
            "kind": "homogeneous",
            "n_banks": "10",
            "start": "2007-01-01",
            "end": "2008-01-01",
            "seed": "5",
            "rate_scale": "0.4",
        }
    )
    assert scen.kind == "homogeneous"
    assert np.allclose(scen.initial_distribution, 1.0 / 15)
    # generator_seed defaults to seed
    want = rl.random_generator(5, 0.4).entries
    assert np.array_equal(scen.generators[0][1].entries, want)


def test_scenario_mapping_zero_rate_scale():
    scen = rl.scenario_from_mapping(
        {
            "kind": "homogeneous",
            "n_banks": "10",
            "start": "2007-01-01",
            "end": "2008-01-01",
            "seed": "5",
            "rate_scale": "0",
        }
    )
    assert np.all(scen.generators[0][1].entries == 0.0)


def test_scenario_mapping_explicit_initial_vector():
    probs = [0.0] * 15
    probs[3] = 0.25
    probs[4] = 0.75
    scen = rl.scenario_from_mapping(
        {
            "kind": "homogeneous",
            "n_banks": "10",
            "start": "2007-01-01",
            "end": "2008-01-01",
            "seed": "5",
            "rate_scale": "0.4",
            "initial": ",".join(str(p) for p in probs),
        }
    )
    assert scen.initial_distribution[3] == 0.25
    assert scen.initial_distribution[4] == 0.75


def test_scenario_mapping_errors():
    base = {
        "kind": "homogeneous",
        "n_banks": "10",
        "start": "2007-01-01",
        "end": "2008-01-01",
        "seed": "5",
        "rate_scale": "0.4",
    }
    with pytest.raises(DataFormatError, match="missing"):
        rl.scenario_from_mapping({k: v for k, v in base.items() if k != "seed"})
    with pytest.raises(DataFormatError, match="unknown"):
        rl.scenario_from_mapping({**base, "bogus_key": "1"})
    with pytest.raises(DataFormatError, match="invalid scenario"):
        rl.scenario_from_mapping({**base, "n_banks": "many"})
    with pytest.raises(DataFormatError, match="invalid scenario"):
        rl.scenario_from_mapping({**base, "initial": "state:40"})


def test_load_scenario_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("kind homogeneous\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="key = value"):
        rl.load_scenario(path)
    path.write_text("kind = homogeneous\nkind = excited\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="duplicate"):
        rl.load_scenario(path)


def test_load_scenario_ignores_comments(tmp_path):
    path = tmp_path / "scen.txt"
    path.write_text(
        "# header comment\nkind = homogeneous  # trailing\nn_banks = 3\n"
        "start = 2007-01-01\nend = 2008-01-01\nseed = 1\nrate_scale = 0\n",
        encoding="utf-8",
    )
    assert rl.load_scenario(path).n_banks == 3
