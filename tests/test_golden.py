"""Every command reproduces committed outputs byte for byte.

``data/golden_panel.csv`` is a fixed 60-bank panel with shuffled rows,
exact duplicates, re-affirmations, ``WR`` withdrawals, compact ISO
dates, padded fields and blank lines.  The analysis outputs under
``data/golden/`` were written by the row-by-row reader that preceded
the columnar one, so any change to parsing, collapsing or the
statistics shows up here.

The ``simulate_*.csv`` files were written by the simulator that drew
each jump by summing its rates step by step, before the rates were
tabulated once per scenario.  They pin the random streams and the
arithmetic of the draws: a high rate that forces same-day re-draws, a
regime switch, excitation that expires, a static panel, and initial
states given as ``state:K`` and as 15 weights with zeros.  A new
sampler that changes the streams on purpose (ROADMAP item 3,
uniformization) regenerates these files and says so.
"""

from pathlib import Path

import pytest

from ratinglab.cli import main

DATA = Path(__file__).parent / "data"
PANEL = DATA / "golden_panel.csv"

CASES = [
    (["counts"], "counts", ["daily_counts.csv", "transitions_per_bank.csv"]),
    (["moments"], "moments.csv", ["moments.csv"]),
    (["homogeneity", "--window", "month"], "homogeneity_month.csv", ["homogeneity_month.csv"]),
    (["homogeneity", "--window", "year"], "homogeneity_year.csv", ["homogeneity_year.csv"]),
    (["ck", "--window", "month"], "ck_month.csv", ["ck_month.csv"]),
    (["ck", "--window", "year"], "ck_year.csv", ["ck_year.csv"]),
]


@pytest.mark.parametrize("argv, output, files", CASES, ids=[c[1] for c in CASES])
def test_cli_output_matches_golden_bytes(tmp_path, argv, output, files):
    out = tmp_path / output
    assert main([argv[0], "--input", str(PANEL), "--output", str(out)] + argv[1:]) == 0
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
