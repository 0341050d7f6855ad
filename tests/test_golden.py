"""Every command reproduces committed outputs byte for byte.

``data/golden_panel.csv`` is a fixed 60-bank panel with shuffled rows,
exact duplicates, re-affirmations, ``WR`` withdrawals, padded fields
and blank lines.  The analysis outputs under ``data/golden/`` were
written by the row-by-row reader that preceded the columnar one, so any
change to parsing, collapsing or the statistics shows up here.  Rows
that spelled their date in the ISO basic form (``20070101``), which is
no longer a date, now spell the same day ``YYYY-MM-DD``; the parsed
panels, and so the outputs, did not change.

The ``*_mid_month``, ``*_short_span`` and ``moments_tau30`` files were
written by the code that still built every rolling window from its own
cross-sections, counts and exposures, before a series took them in one
pass.  They pin the edges of the month grid: a span starting mid-month,
a span (``data/golden_short_panel.csv``, the rows of the golden panel
dated 2008-02-10..2009-01-20) shorter than a year window, and a short
increment lag.

The ``simulate_*.csv`` files pin the random streams and the arithmetic
of the draws: a high rate that forces same-day jumps to be drawn again,
a regime switch, excitation that expires, a static panel, and initial
states given as ``state:K`` and as 15 weights with zeros.
``simulate_regime_switch.csv`` and ``simulate_static.csv`` were written
by the simulator that drew each jump by summing its rates step by step,
before the rates were tabulated once per scenario.
``simulate_homogeneous.csv`` and ``simulate_excited.csv`` were
rewritten when a same-day jump came to be drawn once more from half a
day past the last event, instead of again and again from the same time:
15 of their 25 banks and 4 of 30 changed, each of them a bank that
collided.  A change to the sampler that moves the streams on purpose
regenerates these files and says so.
"""

from pathlib import Path

import pytest

from ratinglab.cli import main

DATA = Path(__file__).parent / "data"
PANEL = DATA / "golden_panel.csv"
SHORT_PANEL = DATA / "golden_short_panel.csv"
# Series variants: (panel, extra flags, file-name suffix).
VARIANTS = [
    (PANEL, [], ""),
    (PANEL, ["--from", "2005-11-17"], "_mid_month"),
    (SHORT_PANEL, ["--from", "2008-02-10", "--to", "2009-01-20"], "_short_span"),
]

CASES = [
    (PANEL, ["counts"], "counts", ["daily_counts.csv", "transitions_per_bank.csv"]),
    (PANEL, ["moments"], "moments.csv", ["moments.csv"]),
    (PANEL, ["moments", "--tau", "30"], "moments_tau30.csv", ["moments_tau30.csv"]),
] + [
    (panel, [stat, "--window", window] + flags, name, [name])
    for stat in ("homogeneity", "ck")
    for window in ("month", "year")
    for panel, flags, suffix in VARIANTS
    for name in [f"{stat}_{window}{suffix}.csv"]
]


@pytest.mark.parametrize("panel, argv, output, files", CASES, ids=[c[2] for c in CASES])
def test_cli_output_matches_golden_bytes(tmp_path, panel, argv, output, files):
    out = tmp_path / output
    assert main([argv[0], "--input", str(panel), "--output", str(out)] + argv[1:]) == 0
    for name in files:
        written = out / name if out.is_dir() else out
        assert written.read_bytes() == (DATA / "golden" / name).read_bytes(), name


SCENARIOS = {
    "homogeneous": """\
kind = homogeneous
n_banks = 25
start = 2007-01-01
end = 2008-01-01
seed = 3
rate_scale = 30
""",
    "regime_switch": """\
kind = regime_switch
n_banks = 30
start = 2007-01-01
end = 2010-01-01
seed = 5
rate_scale = 0.8
switch_date = 2008-03-15
switch_multiplier = 4
initial = 0,0,0.1,0.1,0.2,0,0.1,0.1,0,0.1,0.1,0,0.1,0.1,0
""",
    "excited": """\
kind = excited
n_banks = 30
start = 2005-01-01
end = 2011-01-01
seed = 8
rate_scale = 0.6
gamma = 20
memory_days = 400
initial = state:11
""",
    "static": """\
kind = homogeneous
n_banks = 20
start = 2007-01-01
end = 2008-06-30
seed = 2
rate_scale = 0
initial = state:4
""",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_simulate_matches_golden_bytes(tmp_path, name):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(SCENARIOS[name], encoding="utf-8")
    out = tmp_path / "panel.csv"
    assert main(["simulate", "--scenario", str(scenario), "--output", str(out)]) == 0
    assert out.read_bytes() == (DATA / "golden" / f"simulate_{name}.csv").read_bytes()
