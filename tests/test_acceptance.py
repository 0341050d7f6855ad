"""Headline acceptance checks, one test per shipping criterion.

Each test measures its quantity, records a PASS/FAIL line for the
terminal summary (see conftest), and then asserts.  Tolerances are the
contractual ones, not loosened; the heavy scenario sizes here were
calibrated once and are deterministic, so reruns reproduce the same
numbers bit for bit.
"""

import datetime as dt
import math
import time

import numpy as np

import ratinglab as rl
from ratinglab.cli import main as cli_main

from oracles import sigma_max, taylor_expm, two_pass_moments

SPAN_4Y = (dt.date(2007, 1, 1), dt.date(2011, 1, 1))


def overlaps(series, day):
    """Per window of ``series``: whether it covers ``day``."""
    day = np.datetime64(day, "D")
    return (series.window_start <= day) & (day <= series.window_end)


def down_biased_generator(r_down, r_up):
    """Banded generator with heavier downgrade than upgrade rates.

    One-notch moves get two thirds of the budget, two-notch moves one
    third, truncated at the scale ends.
    """
    q = np.zeros((15, 15))
    for i in range(15):
        for delta, rate in ((-1, 2 * r_down / 3), (-2, r_down / 3),
                            (1, 2 * r_up / 3), (2, r_up / 3)):
            j = i + delta
            if 0 <= j < 15:
                q[i, j] = rate
    np.fill_diagonal(q, -q.sum(axis=1))
    return rl.GeneratorMatrix(entries=q)


def homogeneous_series(q, n_banks, span, seed, statistic, initial=None):
    scen = rl.Scenario(
        kind="homogeneous",
        generators=((span[0], q),),
        n_banks=n_banks,
        span=span,
        seed=seed,
        initial_distribution=rl.uniform_distribution() if initial is None else initial,
    )
    return rl.rolling_series(rl.simulate(scen), statistic, "year")


# -- 1: matrix exponential algebra --------------------------------------


def test_01_matrix_exponential_algebra(acceptance):
    scales = (0.1, 0.3, 1.0, 3.0)
    horizons = (0.25, 0.5, 1.0, 2.0, 5.0)
    started = time.perf_counter()
    worst_row = 0.0
    lowest_entry = 0.0
    worst_oracle = 0.0
    for k in range(100):
        q = rl.random_generator(1000 + k, scales[k % 4])
        t = horizons[k % 5]
        m = rl.matrix_exponential(q, t).entries
        worst_row = max(worst_row, float(np.abs(m.sum(axis=1) - 1.0).max()))
        lowest_entry = min(lowest_entry, float(m.min()))
        reference = taylor_expm(q.entries * t)
        worst_oracle = max(worst_oracle, float(np.abs(m - reference).max()))
    elapsed = time.perf_counter() - started
    ok = (worst_row <= 1e-9 and lowest_entry >= -1e-12
          and worst_oracle <= 1e-9 and elapsed < 10.0)
    acceptance(1, "matrix exponential algebra",
               ok,
               f"100 generators: row-sum dev {worst_row:.1e}, min entry "
               f"{lowest_entry:.1e}, taylor dev {worst_oracle:.1e}, {elapsed:.1f}s")
    assert ok


# -- 2: symmetric two-state closed form ---------------------------------


def test_02_two_state_closed_form(acceptance):
    q = np.zeros((15, 15))
    q[0, 0] = q[1, 1] = -1.0
    q[0, 1] = q[1, 0] = 1.0
    m = rl.matrix_exponential(rl.GeneratorMatrix(entries=q), 1.0).entries
    stay = 0.5 * (1.0 + math.exp(-2.0))
    move = 0.5 * (1.0 - math.exp(-2.0))
    expected = np.eye(15)
    expected[:2, :2] = [[stay, move], [move, stay]]
    err = float(np.abs(m - expected).max())
    ok = err <= 1e-6
    acceptance(2, "two-state closed form",
               ok, f"diagonal target {stay:.10f}, max dev {err:.2e}")
    assert ok


# -- 3: duration estimator consistency ----------------------------------


def test_03_estimator_consistency(acceptance, consistency_sweep):
    medians, q_norm, elapsed = consistency_sweep
    rel = medians[10000] / q_norm
    ok = rel < 0.10 and elapsed < 120.0
    acceptance(3, "estimator consistency",
               ok,
               f"median rel Frobenius error {rel:.3%} at 10000 banks "
               f"(20 seeds), sweep {elapsed:.0f}s")
    assert ok


# -- 4: homogeneity statistic shrinks on true-null panels ---------------


def test_04_homogeneity_null_shrinks_with_banks(acceptance):
    q = rl.random_generator(77, 0.3)
    span = (dt.date(2007, 1, 1), dt.date(2013, 1, 1))
    medians = {}
    for n_banks in (250, 1000, 4000):
        per_seed = []
        for s in range(20):
            series = homogeneous_series(q, n_banks, span, 20000 + s, "homogeneity_L")
            per_seed.append(float(np.median(np.abs(series.values))))
        medians[n_banks] = float(np.median(per_seed))
    ok = medians[250] > medians[1000] > medians[4000]
    acceptance(4, "homogeneity null shrinks",
               ok,
               "median |L| " + " > ".join(f"{medians[n]:.4f}" for n in (250, 1000, 4000))
               + " over (250, 1000, 4000) banks")
    assert ok


# -- 5: homogeneity statistic peaks at a regime switch ------------------


def test_05_homogeneity_peaks_at_regime_switch(acceptance):
    # All rates triple mid-span.  The panel starts concentrated at the
    # top state so occupancy is still drifting when the switch hits;
    # near the stationary law a proportional switch would leave the
    # mixed-window statistic almost unchanged and the peak would drown
    # in small-sample noise, hence the large panel.
    q_before = rl.random_generator(71, 0.25)
    q_after = rl.GeneratorMatrix(entries=q_before.entries * 3.0)
    switch = dt.date(2009, 1, 1)
    initial = np.full(15, 0.1 / 14.0)
    initial[14] = 0.9
    hits = 0
    ratios = []
    for s in range(20):
        scen = rl.Scenario(
            kind="regime_switch",
            generators=((SPAN_4Y[0], q_before), (switch, q_after)),
            n_banks=150_000,
            span=SPAN_4Y,
            seed=51_000 + s,
            initial_distribution=initial,
        )
        series = rl.rolling_series(rl.simulate(scen), "homogeneity_L", "year")
        values = np.abs(series.values)
        peak = int(np.argmax(values))
        covers = overlaps(series, switch)
        off_switch = values[~covers]
        ratio = float(values[peak] / np.median(off_switch))
        ratios.append(ratio)
        if covers[peak] and ratio >= 3.0:
            hits += 1
    ok = hits >= 18
    acceptance(5, "homogeneity peak at regime switch",
               ok,
               f"peak in switch window with >=3x margin in {hits}/20 seeds "
               f"(worst ratio {min(ratios):.2f})")
    assert ok


# -- 6: semigroup deviation flat on null, elevated under excitation -----


def test_06_ck_flat_null_elevated_excited(acceptance):
    q = down_biased_generator(1.6, 0.8)
    excitation = rl.Excitation(gamma=5.0, memory_days=90)
    hom_means = []
    exc_means = []
    trend_ratios = []
    for s in range(20):
        null_series = homogeneous_series(q, 15_000, SPAN_4Y, 70_000 + s, "ck_l2")
        null_values = null_series.values
        scen = rl.Scenario(
            kind="excited",
            generators=((SPAN_4Y[0], q),),
            n_banks=15_000,
            span=SPAN_4Y,
            seed=70_000 + s,
            initial_distribution=rl.uniform_distribution(),
            excitation=excitation,
        )
        excited = rl.rolling_series(rl.simulate(scen), "ck_l2", "year")
        hom_means.append(float(np.mean(null_values)))
        exc_means.append(float(np.mean(excited.values)))
        half = len(null_values) // 2
        trend_ratios.append(float(np.median(null_values[half:])
                                  / np.median(null_values[:half])))
    lift = float(np.mean(exc_means) / np.mean(hom_means))
    flat = all(0.5 <= r <= 2.0 for r in trend_ratios)
    ok = flat and lift >= 2.0
    acceptance(6, "ck flat on null, elevated under excitation",
               ok,
               f"null half-ratios in [{min(trend_ratios):.2f}, {max(trend_ratios):.2f}], "
               f"excited/null mean lift {lift:.2f}x (20 seeds)")
    assert ok


# -- 7: operator norm against an independent eigenvalue route -----------


def test_07_l2_norm_oracle_and_axioms(acceptance):
    rng = np.random.default_rng(424242)
    worst = 0.0
    worst_scaling = 0.0
    worst_triangle = 0.0
    previous = None
    for _ in range(1000):
        a = rng.normal(scale=rng.uniform(0.2, 3.0), size=(5, 5))
        worst = max(worst, abs(rl.l2_norm(a) - sigma_max(a)))
        alpha = float(rng.uniform(-4.0, 4.0))
        worst_scaling = max(worst_scaling,
                            abs(rl.l2_norm(alpha * a) - abs(alpha) * rl.l2_norm(a)))
        if previous is not None:
            excess = rl.l2_norm(a + previous) - rl.l2_norm(a) - rl.l2_norm(previous)
            worst_triangle = max(worst_triangle, excess)
        previous = a
    ok = worst <= 1e-10 and worst_scaling <= 1e-10 and worst_triangle <= 1e-10
    acceptance(7, "l2 norm oracle and axioms",
               ok,
               f"1000 matrices: oracle dev {worst:.1e}, scaling dev "
               f"{worst_scaling:.1e}, triangle excess {worst_triangle:.1e}")
    assert ok


# -- 8: moments against a plain two-pass route --------------------------


def test_08_moments_oracle_and_gaussian_kurtosis(acceptance):
    rng = np.random.default_rng(777)
    worst = 0.0
    matched = True
    for _ in range(1000):
        n = int(rng.integers(8, 300))
        sample = rng.normal(loc=rng.uniform(-5.0, 5.0),
                            scale=rng.uniform(0.1, 4.0), size=n)
        got = rl.moments(sample)
        want = two_pass_moments(sample)
        for g, w in zip((got.mean, got.variance, got.skewness, got.kurtosis), want):
            worst = max(worst, abs(g - w))
            matched = matched and np.isclose(g, w, rtol=1e-10, atol=1e-12)
    kurtosis = rl.moments(rng.standard_normal(1_000_000)).kurtosis
    gaussian_ok = abs(kurtosis - 3.0) <= 0.1
    ok = matched and gaussian_ok
    acceptance(8, "moments oracle and gaussian kurtosis",
               ok,
               f"1000 samples: max abs dev {worst:.1e}; "
               f"N(0,1) kurtosis {kurtosis:.4f} at 1e6 draws")
    assert ok


# -- 9: the whole pipeline is reproducible byte for byte ----------------

SCENARIO_TEXT = """\
kind = excited
n_banks = 250
start = 2007-01-01
end = 2010-01-01
seed = 99
rate_scale = 0.35
gamma = 4.0
memory_days = 60
"""


def test_09_pipeline_byte_determinism(acceptance, tmp_path):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(SCENARIO_TEXT, encoding="utf-8")

    def run_pipeline(root):
        root.mkdir()
        panel = root / "panel.csv"
        counts_dir = root / "counts"
        counts_dir.mkdir()
        codes = [
            cli_main(["simulate", "--scenario", str(scenario), "--output", str(panel)]),
            cli_main(["counts", "--input", str(panel), "--output", str(counts_dir)]),
            cli_main(["moments", "--input", str(panel), "--output", str(root / "moments.csv")]),
            cli_main(["homogeneity", "--input", str(panel), "--output", str(root / "homogeneity.csv")]),
            cli_main(["ck", "--input", str(panel), "--output", str(root / "ck.csv")]),
        ]
        files = [panel, counts_dir / "daily_counts.csv",
                 counts_dir / "transitions_per_bank.csv",
                 root / "moments.csv", root / "homogeneity.csv", root / "ck.csv"]
        return codes, [f.read_bytes() for f in files]

    codes_a, bytes_a = run_pipeline(tmp_path / "run_a")
    codes_b, bytes_b = run_pipeline(tmp_path / "run_b")
    clean = codes_a == codes_b == [0, 0, 0, 0, 0]
    identical = all(x == y for x, y in zip(bytes_a, bytes_b))
    nonempty = all(len(x) > 0 for x in bytes_a)
    ok = clean and identical and nonempty
    acceptance(9, "pipeline byte determinism",
               ok,
               f"simulate + 4 analyses twice: exit codes {codes_a}, "
               f"{len(bytes_a)} files byte-identical: {identical}")
    assert ok


# -- 10: static panels come out exact -----------------------------------


def test_10_static_panel_exactness(acceptance):
    scen = rl.Scenario(
        kind="homogeneous",
        generators=((dt.date(2007, 1, 1), rl.GeneratorMatrix(entries=np.zeros((15, 15)))),),
        n_banks=40,
        span=(dt.date(2007, 1, 1), dt.date(2009, 1, 1)),
        seed=5,
        initial_distribution=rl.uniform_distribution(),
    )
    panel = rl.simulate(scen)
    t0, tf = panel.span

    homogeneity = rl.rolling_series(panel, "homogeneity_L", "year")
    ck = rl.rolling_series(panel, "ck_l2", "year")
    cohort = rl.empirical_transition_matrix(panel, t0, tf).entries
    qhat = rl.estimate_generator(rl.count_transitions(panel, t0, tf),
                                 rl.exposures(panel, t0, tf)).entries

    no_transition_windows = len(homogeneity.values) == 0
    ck_zero = len(ck.values) > 0 and bool(np.all(ck.values == 0.0))
    identity = np.array_equal(cohort, np.eye(15))
    zero_generator = np.array_equal(qhat, np.zeros((15, 15)))
    ok = no_transition_windows and ck_zero and identity and zero_generator
    acceptance(10, "static panel exactness",
               ok,
               f"homogeneity windows {len(homogeneity.values)}, ck values all 0.0: "
               f"{ck_zero}, cohort identity: {identity}, estimator zero: {zero_generator}")
    assert ok
