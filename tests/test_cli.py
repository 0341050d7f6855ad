import contextlib
import csv
import datetime as dt
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratinglab as rl
from ratinglab.cli import main

D = dt.date
# child interpreters import this checkout's package
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": str(Path(rl.__file__).parents[1])}

STATIC_SCENARIO = """\
kind = homogeneous
n_banks = 8
start = 2007-01-01
end = 2009-01-01
seed = 4
rate_scale = 0
initial = state:9
"""

ACTIVE_SCENARIO = """\
kind = homogeneous
n_banks = 300
start = 2007-01-01
end = 2010-01-01
seed = 12
rate_scale = 0.4
"""

EXCITED_SCENARIO = """\
kind = excited
n_banks = 300
start = 2007-01-01
end = 2010-01-01
seed = 9
rate_scale = 0.3
gamma = 5
memory_days = 90
"""


def run(*argv):
    return main(list(argv))


def write_panel(tmp_path, name="panel.csv", scenario=ACTIVE_SCENARIO):
    scen_path = tmp_path / "scen.txt"
    scen_path.write_text(scenario, encoding="utf-8")
    out = tmp_path / name
    assert run("simulate", "--scenario", str(scen_path), "--output", str(out)) == 0
    return out


def rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# -- counts ------------------------------------------------------------


def test_counts_writes_two_daily_files(tmp_path):
    panel_csv = write_panel(tmp_path)
    outdir = tmp_path / "out"
    assert run("counts", "--input", str(panel_csv), "--output", str(outdir)) == 0
    daily = rows(outdir / "daily_counts.csv")
    ratio = rows(outdir / "transitions_per_bank.csv")
    assert daily[0] == ["date", "value"]
    assert ratio[0] == ["date", "value"]
    # every bank is rated from the span start: one row per day, all 300
    panel = rl.parse_panel(panel_csv, (D(2007, 1, 1), D(2010, 1, 1)))
    n_days = panel.n_days
    # the CLI infers the span from record dates, which end at the last event
    assert len(daily) - 1 <= n_days
    assert all(r[1] == "300" for r in daily[1:])
    assert len(ratio) == len(daily)


def test_counts_explicit_span(tmp_path):
    panel_csv = write_panel(tmp_path)
    outdir = tmp_path / "out"
    assert (
        run(
            "counts", "--input", str(panel_csv), "--output", str(outdir),
            "--from", "2007-01-01", "--to", "2010-01-01",
        )
        == 0
    )
    daily = rows(outdir / "daily_counts.csv")
    assert len(daily) - 1 == (D(2010, 1, 1) - D(2007, 1, 1)).days + 1


def test_counts_missing_input_names_path(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code = run("counts", "--input", str(missing), "--output", str(tmp_path / "o"))
    assert code == 1
    assert str(missing) in capsys.readouterr().err


def test_counts_empty_panel_header_only(tmp_path):
    src = tmp_path / "empty.csv"
    src.write_text("bank_id,date,rating\n", encoding="utf-8")
    outdir = tmp_path / "out"
    code = run(
        "counts", "--input", str(src), "--output", str(outdir),
        "--from", "2007-01-01", "--to", "2007-03-01",
    )
    assert code == 0
    assert rows(outdir / "daily_counts.csv") == [["date", "value"]]
    assert rows(outdir / "transitions_per_bank.csv") == [["date", "value"]]


def test_counts_empty_panel_without_span_is_data_error(tmp_path, capsys):
    src = tmp_path / "empty.csv"
    src.write_text("bank_id,date,rating\n", encoding="utf-8")
    code = run("counts", "--input", str(src), "--output", str(tmp_path / "o"))
    assert code == 2
    assert "span" in capsys.readouterr().err


def test_malformed_panel_is_data_error_with_row(tmp_path, capsys):
    src = tmp_path / "bad.csv"
    src.write_text(
        "bank_id,date,rating\nb1,2007-01-01,A+\nb1,2007-02-01,Z+\n", encoding="utf-8"
    )
    code = run("counts", "--input", str(src), "--output", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert "row 3" in err and "unknown rating label" in err


# -- moments -----------------------------------------------------------


def test_moments_matches_library_bytes(tmp_path):
    panel_csv = write_panel(tmp_path)
    out = tmp_path / "moments.csv"
    assert (
        run(
            "moments", "--input", str(panel_csv), "--output", str(out),
            "--from", "2007-01-01", "--to", "2010-01-01", "--tau", "365",
        )
        == 0
    )
    panel = rl.parse_panel(panel_csv, (D(2007, 1, 1), D(2010, 1, 1)))
    buf = io.StringIO()
    rl.write_moment_series_csv(rl.moment_series(panel, tau=365), buf)
    assert out.read_bytes() == buf.getvalue().encode("utf-8")


def test_moments_static_panel_zero_mean_t(tmp_path):
    panel_csv = write_panel(tmp_path, scenario=STATIC_SCENARIO)
    out = tmp_path / "moments.csv"
    assert (
        run(
            "moments", "--input", str(panel_csv), "--output", str(out),
            "--from", "2007-01-01", "--to", "2009-01-01",
        )
        == 0
    )
    table = rows(out)
    head = table[0]
    mean_t = head.index("mean_T")
    skew_r = head.index("skew_R")
    for r in table[1:]:
        assert r[mean_t] in ("", "0")  # empty until t - tau is rated
        assert r[skew_r] == ""  # degenerate cross-section: no skewness
    assert any(r[mean_t] == "0" for r in table[1:])
    assert not any("nan" in cell.lower() for r in table[1:] for cell in r)


def test_moments_rejects_bad_tau(tmp_path, capsys):
    panel_csv = write_panel(tmp_path)
    code = run(
        "moments", "--input", str(panel_csv), "--output", str(tmp_path / "m.csv"),
        "--tau", "0",
    )
    assert code == 1
    assert "--tau" in capsys.readouterr().err


def test_moments_lag_before_year_one_is_unrated(tmp_path, capsys):
    # a lag before the span start, even one before the year 1, is unrated
    panel_csv = tmp_path / "panel.csv"
    panel_csv.write_text(
        "bank_id,date,rating\nb1,0001-01-01,B\nb2,0001-01-01,C+\nb1,0001-03-05,B+\n",
        encoding="utf-8",
    )
    out = tmp_path / "m.csv"
    for tau in (1, 365, 10**9, 2**70):
        code = run("moments", "--input", str(panel_csv), "--output", str(out), "--tau", str(tau))
        assert code == 0
        assert capsys.readouterr().err == ""
        head, *body = rows(out)
        assert [r[0] for r in body] == ["0001-01-01", "0001-02-01", "0001-03-01"]
        mean_t = head.index("mean_T")
        for r in body:
            assert r[head.index("mean_R")] != ""
            if D.fromisoformat(r[0]).toordinal() - tau < 1:  # the lag falls before the span
                assert r[mean_t:] == ["", "", "", ""]
            else:
                assert r[mean_t] == "0"


# -- homogeneity / ck ----------------------------------------------------


def test_ck_static_fixture_zero_column(tmp_path):
    panel_csv = write_panel(tmp_path, scenario=STATIC_SCENARIO)
    out = tmp_path / "ck.csv"
    assert (
        run(
            "ck", "--input", str(panel_csv), "--output", str(out),
            "--from", "2007-01-01", "--to", "2009-01-01",
        )
        == 0
    )
    table = rows(out)
    assert table[0] == [
        "window_start", "window_end", "statistic", "value", "abs_value", "n_transitions",
    ]
    assert len(table) == 14  # 13 yearly windows fit a 2-year span
    for r in table[1:]:
        assert r[2] == "ck_l2"
        assert r[3] == "0" and r[4] == "0" and r[5] == "0"


ONE_YEAR_SCENARIO = """\
kind = homogeneous
n_banks = 300
start = 2007-01-01
end = 2008-01-01
seed = 12
rate_scale = 0.4
"""


def test_month_windows_over_one_year(tmp_path):
    panel_csv = write_panel(tmp_path, scenario=ONE_YEAR_SCENARIO)
    out = tmp_path / "ck.csv"
    assert (
        run(
            "ck", "--input", str(panel_csv), "--output", str(out),
            "--from", "2007-01-01", "--to", "2008-01-01", "--window", "month",
        )
        == 0
    )
    assert len(rows(out)) - 1 <= 12


@pytest.mark.parametrize("to", [[], ["--to", "9999-12-31"]], ids=["inferred", "to-9999-12-31"])
@pytest.mark.parametrize(
    "argv",
    [["counts"], ["moments"], ["homogeneity"], ["ck"], ["ck", "--window", "month"]],
    ids=" ".join,
)
def test_span_reaching_year_9999(tmp_path, capsys, argv, to):
    # No month start after 9999-12-01 can be formed: the grid stops
    # there, and a window ending later does not fit.
    panel_csv = tmp_path / "panel.csv"
    panel_csv.write_text(
        "bank_id,date,rating\nb1,9999-10-15,A\nb1,9999-11-20,B\nb2,9999-12-20,C\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert run(argv[0], "--input", str(panel_csv), "--output", str(out), *argv[1:], *to) == 0
    assert capsys.readouterr().err == ""
    if argv[0] == "moments":
        assert [r[0] for r in rows(out)[1:]] == ["9999-11-01", "9999-12-01"]
    elif argv == ["ck", "--window", "month"]:
        assert [r[:2] for r in rows(out)[1:]] == [["9999-11-01", "9999-12-01"]]


def test_non_utf8_input_is_data_error(tmp_path, capsys):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes("bank_id,date,rating\nbanque-\u00e9,2007-01-01,B\n".encode("latin-1"))
    code = run("counts", "--input", str(bad), "--output", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ratinglab: error: input is not UTF-8 text") and err.count("\n") == 1


def test_oversized_field_is_data_error(tmp_path, capsys):
    # the csv module rejects fields over 131,072 characters
    big = tmp_path / "big.csv"
    big.write_text("bank_id,date,rating\nb1,2007-01-01," + "A" * 200_000 + "\n", encoding="utf-8")
    code = run("counts", "--input", str(big), "--output", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ratinglab: error: row 2: field larger than field limit")
    assert err.count("\n") == 1


def test_records_outside_declared_span_are_data_errors(tmp_path, capsys):
    # --from/--to declare the span; clipping is never silent
    panel_csv = write_panel(tmp_path)  # three-year panel
    code = run(
        "ck", "--input", str(panel_csv), "--output", str(tmp_path / "ck.csv"),
        "--from", "2007-01-01", "--to", "2008-01-01",
    )
    assert code == 2
    assert "outside span" in capsys.readouterr().err


def test_homogeneity_cli_matches_library(tmp_path):
    panel_csv = write_panel(tmp_path)
    out = tmp_path / "homog.csv"
    assert (
        run(
            "homogeneity", "--input", str(panel_csv), "--output", str(out),
            "--from", "2007-01-01", "--to", "2010-01-01",
        )
        == 0
    )
    panel = rl.parse_panel(panel_csv, (D(2007, 1, 1), D(2010, 1, 1)))
    buf = io.StringIO()
    rl.write_test_series_csv(rl.rolling_series(panel, "homogeneity_L", "year"), buf)
    assert out.read_bytes() == buf.getvalue().encode("utf-8")


def test_homogeneity_peaks_at_regime_switch(tmp_path):
    # non-proportional switch: the two regimes move mass in different
    # directions, so windows mixing them defy any single generator
    t0, end, switch = D(2007, 1, 1), D(2011, 1, 1), D(2009, 1, 1)
    scen = rl.Scenario(
        kind="regime_switch",
        generators=((t0, rl.random_generator(71, 0.25)), (switch, rl.random_generator(72, 0.25))),
        n_banks=10_000,
        span=(t0, end),
        seed=31,
        initial_distribution=rl.uniform_distribution(),
    )
    panel_csv = tmp_path / "switch.csv"
    rl.write_panel_csv(rl.simulate(scen), panel_csv)
    out = tmp_path / "homog.csv"
    assert (
        run(
            "homogeneity", "--input", str(panel_csv), "--output", str(out),
            "--from", "2007-01-01", "--to", "2011-01-01",
        )
        == 0
    )
    table = rows(out)[1:]
    peak = max(table, key=lambda r: float(r[4]))
    assert dt.date.fromisoformat(peak[0]) <= switch <= dt.date.fromisoformat(peak[1])


# -- simulate ------------------------------------------------------------


def test_simulate_static_one_row_per_bank(tmp_path):
    panel_csv = write_panel(tmp_path, scenario=STATIC_SCENARIO)
    table = rows(panel_csv)
    assert table[0] == ["bank_id", "date", "rating"]
    assert len(table) == 9  # 8 banks, never moving, never withdrawn
    assert all(r[2] == "B-" for r in table[1:])  # state 9
    assert all(r[1] == "2007-01-01" for r in table[1:])


def test_simulate_same_seed_byte_identical(tmp_path):
    a = write_panel(tmp_path, name="a.csv")
    b = write_panel(tmp_path, name="b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_simulate_seed_override_changes_output(tmp_path):
    scen_path = tmp_path / "scen.txt"
    scen_path.write_text(ACTIVE_SCENARIO, encoding="utf-8")
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert run("simulate", "--scenario", str(scen_path), "--output", str(a)) == 0
    assert run("simulate", "--scenario", str(scen_path), "--output", str(b), "--seed", "99") == 0
    assert run("simulate", "--scenario", str(scen_path), "--output", str(c), "--seed", "99") == 0
    assert a.read_bytes() != b.read_bytes()
    assert b.read_bytes() == c.read_bytes()


def test_simulate_negative_seed_usage_error(tmp_path, capsys):
    scen_path = tmp_path / "scen.txt"
    scen_path.write_text(ACTIVE_SCENARIO, encoding="utf-8")
    code = run(
        "simulate", "--scenario", str(scen_path),
        "--output", str(tmp_path / "x.csv"), "--seed", "-3",
    )
    assert code == 1
    assert "--seed" in capsys.readouterr().err


def test_simulate_missing_scenario(tmp_path, capsys):
    code = run(
        "simulate", "--scenario", str(tmp_path / "none.txt"),
        "--output", str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert "none.txt" in capsys.readouterr().err


def test_simulate_bad_scenario_is_data_error(tmp_path, capsys):
    scen_path = tmp_path / "scen.txt"
    scen_path.write_text("kind = homogeneous\n", encoding="utf-8")
    code = run(
        "simulate", "--scenario", str(scen_path), "--output", str(tmp_path / "x.csv")
    )
    assert code == 2
    assert "missing scenario keys" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
@pytest.mark.parametrize(
    "kind, value",
    [
        ("excited", "gamma = inf"),
        ("homogeneous", "rate_scale = inf"),
        ("regime_switch", "switch_multiplier = inf"),
        # NaN weights pass a tolerance test on their sum; 1e308 overflows it
        pytest.param("homogeneous", "initial = " + ",".join(["nan"] * 15), id="initial-nan"),
        pytest.param("homogeneous", "initial = " + ",".join(["1e308"] * 15), id="initial-1e308"),
        # 10**400 days cannot be added to a float clock
        pytest.param("excited", "memory_days = 1" + "0" * 400, id="memory_days-401-digits"),
    ],
)
def test_simulate_non_finite_scenario_value_is_data_error(tmp_path, capsys, kind, value):
    # each value is rejected while the scenario loads, before any drawing
    text = f"kind = {kind}\nn_banks = 3\nstart = 2007-01-01\nend = 2008-01-01\nseed = 1\n"
    if not value.startswith("rate_scale"):
        text += "rate_scale = 5\n"
    scen_path = tmp_path / "scen.txt"
    scen_path.write_text(text + value + "\n", encoding="utf-8")
    out = tmp_path / "x.csv"
    assert run("simulate", "--scenario", str(scen_path), "--output", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("ratinglab: error: invalid scenario: ") and err.count("\n") == 1
    assert "must be" in err and not out.exists()


@pytest.mark.parametrize(
    "kind, value",
    [
        # about 82 jumps a day over a zero-length span; loading still
        # validates the generator
        ("homogeneous", "rate_scale = 30000\nend = 2007-01-01\n"),
        # the switched generator is validated though it never activates
        (
            "regime_switch",
            "rate_scale = 1\nswitch_multiplier = 1e4\nswitch_date = 2008-01-01\nend = 2008-01-01\n",
        ),
    ],
)
def test_simulate_large_rates_pass_generator_validation(tmp_path, capsys, kind, value):
    # row sums of such generators carry more than 1e-12 of roundoff
    text = f"kind = {kind}\nn_banks = 4\nstart = 2007-01-01\nseed = 1\n{value}"
    scen_path = tmp_path / "scen.txt"
    scen_path.write_text(text, encoding="utf-8")
    out = tmp_path / "x.csv"
    assert run("simulate", "--scenario", str(scen_path), "--output", str(out)) == 0
    assert capsys.readouterr().err == ""
    assert len(rows(out)) >= 5


@pytest.mark.parametrize(
    "start, end, rate_scale",
    [
        ("2007-01-01", "2007-01-03", "30000"),
        ("2007-01-01", "2007-01-10", "1e300"),
        # every day collides: 64 re-draws once, then one after each jump
        ("2000-01-01", "2040-01-01", "1e308"),
    ],
    ids=["2007-01-03-30000", "2007-01-10-1e300", "2040-01-01-1e308"],
)
def test_simulate_extreme_rates_finish(tmp_path, start, end, rate_scale):
    # at these rates nearly every jump lands on the bank's last event
    # day; after 64 re-draws in a row the bank draws past that day, as
    # it does after each of its later collisions
    scen_path = tmp_path / "scen.txt"
    scen_path.write_text(
        f"kind = homogeneous\nn_banks = 1\nstart = {start}\n"
        f"end = {end}\nseed = 1\nrate_scale = {rate_scale}\n",
        encoding="utf-8",
    )
    out = tmp_path / "x.csv"
    done = subprocess.run(
        [sys.executable, "-m", "ratinglab", "simulate", "--scenario", str(scen_path),
         "--output", str(out)],
        capture_output=True, text=True, timeout=30, env=SUBPROCESS_ENV,
    )
    assert (done.returncode, done.stderr) == (0, "")
    panel = rl.parse_panel(out, (D.fromisoformat(start), D.fromisoformat(end)))
    assert panel.n_banks == 1 and panel.event_day.size >= 2


@pytest.mark.filterwarnings("error")  # a numpy overflow warning would be a stray stderr line
@pytest.mark.parametrize(
    "kind, value, code",
    [
        ("regime_switch", "rate_scale = 1e300\nswitch_multiplier = 1e300\n", 2),
        ("homogeneous", "rate_scale = 1.7e308\n", 2),
        # finite entries whose sums overflow: a jump every day
        ("excited", "rate_scale = 1e308\ngamma = 1e308\n", 0),
    ],
)
def test_simulate_rates_near_float_max(tmp_path, capsys, kind, value, code):
    text = f"kind = {kind}\nn_banks = 2\nstart = 2007-01-01\nend = 2007-02-01\nseed = 1\n{value}"
    scen_path = tmp_path / "scen.txt"
    scen_path.write_text(text, encoding="utf-8")
    out = tmp_path / "x.csv"
    assert run("simulate", "--scenario", str(scen_path), "--output", str(out)) == code
    err = capsys.readouterr().err
    if code:
        assert err == "ratinglab: error: invalid scenario: non-finite generator entry\n"
    else:
        assert err == "" and len(rows(out)) == 1 + 2 * 32


def test_excited_scenario_feeds_ck_pipeline(tmp_path):
    panel_csv = write_panel(tmp_path, scenario=EXCITED_SCENARIO)
    out = tmp_path / "ck.csv"
    assert (
        run(
            "ck", "--input", str(panel_csv), "--output", str(out),
            "--from", "2007-01-01", "--to", "2010-01-01",
        )
        == 0
    )
    table = rows(out)
    assert len(table) > 20
    assert all(float(r[3]) >= 0.0 for r in table[1:])


# -- exit codes and plumbing ----------------------------------------------


def test_unknown_subcommand_usage_error(capsys):
    assert run("frobnicate") == 1
    assert "error" in capsys.readouterr().err


def test_missing_required_flag_usage_error(tmp_path, capsys):
    assert run("counts", "--input", "x.csv") == 1
    assert "--output" in capsys.readouterr().err


def test_bad_date_flag_usage_error(tmp_path, capsys):
    panel_csv = write_panel(tmp_path)
    code = run(
        "counts", "--input", str(panel_csv), "--output", str(tmp_path / "o"),
        "--from", "01/02/2007",
    )
    assert code == 1
    assert "invalid ISO date" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["2007W011", "2007-W10-1"])
def test_week_date_flag_usage_error(tmp_path, capsys, text):
    # fromisoformat reads week dates; --from takes calendar dates only
    panel_csv = write_panel(tmp_path)
    code = run("counts", "--input", str(panel_csv), "--output", str(tmp_path / "o"), "--from", text)
    assert code == 1
    assert f"invalid ISO date {text!r}" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["2007W011", "2007-W10-1"])
def test_week_date_panel_row_data_error(tmp_path, capsys, text):
    panel_csv = tmp_path / "panel.csv"
    panel_csv.write_text(f"bank_id,date,rating\nb1,{text},B\n", encoding="utf-8")
    assert run("counts", "--input", str(panel_csv), "--output", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == f"ratinglab: error: row 2: invalid ISO date {text!r}\n"


def test_reversed_span_usage_error(tmp_path, capsys):
    panel_csv = write_panel(tmp_path)
    code = run(
        "counts", "--input", str(panel_csv), "--output", str(tmp_path / "o"),
        "--from", "2009-01-01", "--to", "2008-01-01",
    )
    assert code == 1
    assert "before" in capsys.readouterr().err


def test_repeat_runs_byte_identical(tmp_path):
    panel_csv = write_panel(tmp_path)
    out1, out2 = tmp_path / "h1.csv", tmp_path / "h2.csv"
    for out in (out1, out2):
        assert (
            run(
                "homogeneity", "--input", str(panel_csv), "--output", str(out),
                "--from", "2007-01-01", "--to", "2010-01-01", "--window", "month",
            )
            == 0
        )
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_import_leaves_scipy_unloaded():
    # only homogeneity's matrix exponential needs scipy; it loads on first use
    code = "import sys, ratinglab.cli; print('scipy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=SUBPROCESS_ENV,
    )
    assert (done.returncode, done.stdout) == (0, "False\n")


def test_console_entry_point_module():
    # python -m ratinglab routes to the same main
    import ratinglab.__main__ as entry

    assert entry.main is main


# -- fuzzing ---------------------------------------------------------------

_FUZZ_ROWS = st.lists(
    st.tuples(
        st.sampled_from(["b1", "b2", "b3"]),
        st.dates(D(2000, 1, 1), D(2003, 12, 31)),
        st.sampled_from(list(rl.RATING_LABELS) + ["WR"]),
    ).map(lambda r: f"{r[0]},{r[1].isoformat()},{r[2]}"),
    max_size=12,
)
_FUZZ_JUNK = st.sampled_from([
    "b1,20010203,A", "b2,2001-02-30,B", "b1,0000-01-01,C", "b1,,A", ",2001-01-01,A",
    "b1,2001-01-05,Z", "b1,2001-01-05,wr", "b1,2001-01-01", "b1,2001-01-01,A,x",
    '"b\n1",2001-01-01,A', "b1,2001-01-01,\"A", "", "bank_id,date,rating",
])


def _panel_bytes(rows, junk, at):
    lines = ["bank_id,date,rating"] + rows[:at] + junk + rows[at:]
    return ("\n".join(lines) + "\n").encode()


_FUZZ_PANELS = st.one_of(
    st.binary(max_size=60),
    st.builds(_panel_bytes, _FUZZ_ROWS, st.lists(_FUZZ_JUNK, max_size=1), st.integers(0, 12)),
)


# A warning would be a second stderr line; the ini's "error" filter fails
# it.  No filterwarnings mark here: a mark replaces the ini filters, so
# hypothesis's own warning while reporting a failure would abort the session.
@settings(max_examples=60, deadline=dt.timedelta(seconds=20))
@given(data=_FUZZ_PANELS)
def test_fuzz_panel_bytes_exit_cleanly(data):
    # any input ends in exit 0, 1 or 2; an escaping exception fails the test
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "panel.csv"
        src.write_bytes(data)
        for command in ("counts", "moments", "homogeneity", "ck"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run(command, "--input", str(src), "--output", str(Path(tmp) / command))
            assert code in (0, 1, 2)
            if code == 0:
                assert err.getvalue() == ""
            else:
                assert err.getvalue().startswith("ratinglab: error: ")
                assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


_SPAN_STARTS = [D(1, 1, 1), D(2007, 1, 1), D(9995, 1, 1)]
_RATES = (["0", "-0.0", "0.5", "7", "1e308", "1e-320"], ["nan", "inf", "-inf", "1e400", "-1"])


@st.composite
def _scenario_texts(draw):
    """Scenario files built from pools of keys and values: kinds, up to 20
    banks, spans of up to 5 years reaching 0001-01-01 or 9999-12-31,
    extreme rates, huge seeds and memory, malformed values, and missing,
    unknown or duplicate keys.  Each key takes a malformed value now and
    then, so that some scenarios get as far as simulating."""
    start = draw(st.sampled_from(_SPAN_STARTS))
    days = draw(st.sampled_from([0, 1, 2, 31, 366, 5 * 365 + 1]))
    end = start + dt.timedelta(days=min(days, (D(9999, 12, 31) - start).days))
    switch = start + dt.timedelta(days=draw(st.integers(0, (end - start).days)))
    pools = {  # key: (well-formed values, malformed or out-of-range values)
        "kind": (["homogeneous", "regime_switch", "excited"], ["static", ""]),
        "n_banks": (["0", "1", "3", "20"], ["-1", "2.5"]),
        "start": ([start.isoformat()], ["2007-02-30"]),
        "end": ([end.isoformat()], ["0001-01-01", "2007-13-01"]),
        "seed": (["0", "1", str(2**64), str(10**30)], ["-3", "x"]),
        "rate_scale": _RATES,
        "generator_seed": (["0", str(2**64 + 1)], ["-1"]),
        "switch_date": ([switch.isoformat()], ["9999-12-31", "0001-01-01", "soon"]),
        "switch_multiplier": _RATES,
        "gamma": (["0.5", "7", "1e308", "1e-320"], ["0", "-0.0", "nan", "inf", "1e400"]),
        "memory_days": (["1", "90", "9" * 401], ["0", "-5", "1.5"]),
        "initial": (
            ["uniform", "state:0", "state:14", ",".join(["0"] * 14 + ["1"])],
            ["state:15", "state:x", "", "1,0", ",".join(["nan"] * 15), ",".join(["1e308"] * 15)],
        ),
    }
    required = ["kind", "n_banks", "start", "end", "seed", "rate_scale"]
    optional = [key for key in pools if key not in required]
    keys = [key for key in required if draw(st.integers(0, 19)) < 19]  # now and then one is missing
    keys += draw(st.lists(st.sampled_from(optional), max_size=4, unique=True))
    if keys and draw(st.integers(0, 9)) == 9:
        keys.append(draw(st.sampled_from(keys)))  # a duplicate
    lines = []
    for key in keys:
        good, bad = pools[key]
        lines.append(f"{key} = {draw(st.sampled_from(bad if draw(st.integers(0, 7)) == 7 else good))}")
    if draw(st.integers(0, 9)) == 9:
        lines.append("bogus = 1")  # an unknown key
    return "\n".join(draw(st.permutations(lines))) + "\n"


# A warning would be a second stderr line; the ini's "error" filter fails
# it (no mark, as for test_fuzz_panel_bytes_exit_cleanly).
@settings(max_examples=80, deadline=dt.timedelta(seconds=20))
@given(text=_scenario_texts(), seed=st.sampled_from([None, "0", str(2**64), str(2**70 + 5)]))
def test_fuzz_scenario_text_exits_cleanly(text, seed):
    # every scenario file ends in exit 0, 1 or 2 with at most one error line
    with tempfile.TemporaryDirectory() as tmp:
        scen_path = Path(tmp) / "scen.txt"
        scen_path.write_text(text, encoding="utf-8")
        argv = ["simulate", "--scenario", str(scen_path), "--output", str(Path(tmp) / "x.csv")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(*argv, *(["--seed", seed] if seed is not None else []))
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().startswith("ratinglab: error: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


def _shifted(day, days):
    """``day`` moved by ``days``, or None past the calendar's ends."""
    try:
        return day + dt.timedelta(days=days)
    except OverflowError:
        return None


@st.composite
def _flag_runs(draw):
    """A panel of up to 5 banks whose records fall in one year, and
    ``--from``/``--to`` values around those records: absent, their ends,
    a day or a month outside them (so reversed spans come up too),
    malformed, and 0001-01-01 (or 9999-12-31) when the records fall in
    that year."""
    year = draw(st.sampled_from([1, 2007, 9999]))
    records = draw(st.lists(
        st.tuples(
            st.sampled_from([f"b{k}" for k in range(5)]),
            st.dates(D(year, 1, 1), D(year, 12, 31)),
            st.sampled_from(rl.RATING_LABELS),
        ),
        min_size=1, max_size=10, unique_by=lambda r: r[:2],
    ))
    text = "bank_id,date,rating\n" + "".join(f"{b},{d},{lab}\n" for b, d, lab in records)
    first, last = min(r[1] for r in records), max(r[1] for r in records)
    days = [first, last] + [_shifted(first, -k) for k in (1, 31)] + [_shifted(last, k) for k in (1, 31)]
    days += {1: [D(1, 1, 1)], 9999: [D(9999, 12, 31)]}.get(year, [])  # spans stay short
    ends = [None] + [d.isoformat() for d in days if d is not None] + ["2007-02-30", "x", ""]
    return text, draw(st.sampled_from(ends)), draw(st.sampled_from(ends))


@settings(max_examples=80, deadline=dt.timedelta(seconds=20))
@given(
    run_args=_flag_runs(),
    tau=st.sampled_from([None, "0", "-5", "1", "365", str(10**9), str(2**70), "x"]),
    window=st.sampled_from([None, "month", "year", "week"]),
)
def test_fuzz_flag_values_exit_cleanly(run_args, tau, window):
    # every flag value ends in exit 0, 1 or 2 with at most one error line
    text, span_from, span_to = run_args
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "panel.csv"
        src.write_text(text, encoding="utf-8")
        span = [*(["--from", span_from] if span_from is not None else []),
                *(["--to", span_to] if span_to is not None else [])]
        extra = {
            "counts": [],
            "moments": ["--tau", tau] if tau is not None else [],
            "homogeneity": ["--window", window] if window is not None else [],
            "ck": ["--window", window] if window is not None else [],
        }
        for command, flags in extra.items():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run(command, "--input", str(src), "--output", str(Path(tmp) / command),
                           *span, *flags)
            assert code in (0, 1, 2)
            if code == 0:
                assert err.getvalue() == ""
            else:
                assert err.getvalue().startswith("ratinglab: error: ")
                assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
