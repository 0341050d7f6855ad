"""Every analysis command reproduces committed outputs byte for byte.

``data/golden_panel.csv`` is a fixed 60-bank panel with shuffled rows,
exact duplicates, re-affirmations, ``WR`` withdrawals, compact ISO
dates, padded fields and blank lines.  The files under ``data/golden/``
were written by the row-by-row reader that preceded the columnar one,
so any change to parsing, collapsing or the statistics shows up here.
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
