"""Workload definitions: generated inputs, CLI call sequences and ground truth.

Every input is a pure function of the workload seed.  The program only
ever sees the files written here: scenario files (the seed is passed to
``simulate`` through ``--seed``) or a panel CSV drawn by this module's
own numpy generator.
"""

from __future__ import annotations

import datetime as dt
from pathlib import Path

import numpy as np

RATING_LABELS = (
    "E-", "E", "E+", "D-", "D", "D+", "C-", "C", "C+",
    "B-", "B", "B+", "A-", "A", "A+",
)
WITHDRAWN = "WR"
N_STATES = len(RATING_LABELS)

# The generator matrix stays fixed across workload seeds; only the
# simulator's random streams follow the seed.  This keeps the amount of
# work per seed nearly constant.
GENERATOR_SEED = 7

WORKLOADS = {
    "pipeline_regime": {
        "why": "the north-star pipeline as users run it; simulator and the four re-parses in ingest dominate",
        "scenario": {
            "kind": "regime_switch",
            "n_banks": 10000,
            "start": "2007-01-01",
            "end": "2011-01-01",
            "rate_scale": 0.25,
            "switch_date": "2009-01-01",
            "switch_multiplier": 3,
        },
        "analyses": [
            ["counts"],
            ["moments"],
            ["homogeneity", "--window", "year"],
            ["ck", "--window", "year"],
        ],
    },
    "monthly_excited": {
        "why": "per-window work (states_at, expm, svd, matrix validation) dominates; uses the excitation branch",
        "scenario": {
            "kind": "excited",
            "n_banks": 2500,
            "start": "1990-01-01",
            "end": "2014-01-01",
            "rate_scale": 0.25,
            "gamma": 5,
            "memory_days": 90,
        },
        "analyses": [
            ["homogeneity", "--window", "month"],
            ["ck", "--window", "month"],
            ["moments"],
        ],
    },
    "ingest_messy": {
        "why": "shuffled rows with duplicates, re-affirmations and WR withdrawals; span inference and parsing dominate",
        "messy": {
            "n_banks": 25000,
            "start": "2008-01-01",
            "end": "2010-12-31",
        },
        "analyses": [
            ["counts"],
            ["homogeneity", "--window", "year"],
        ],
    },
}

# The tiny pipeline every fresh interpreter runs when measuring setup_s.
SETUP_SCENARIO = {
    "kind": "regime_switch",
    "n_banks": 40,
    "start": "2007-01-01",
    "end": "2009-01-01",
    "rate_scale": 1.0,
}


def scenario_text(spec: dict) -> str:
    lines = [f"{key} = {value}" for key, value in spec.items()]
    # The scenario's own seed is overridden on the command line.
    lines += ["seed = 0", f"generator_seed = {GENERATOR_SEED}"]
    return "\n".join(lines) + "\n"


def output_name(analysis: list[str]) -> str:
    """Output path, relative to a pipeline directory, of one analysis call."""
    cmd = analysis[0]
    if cmd == "counts":
        return "counts"
    window = analysis[2] if len(analysis) > 2 else "default"
    return f"{cmd}_{window}.csv" if cmd != "moments" else "moments.csv"


def pipeline_calls(spec: dict, workdir: Path, outdir: Path, seed: int) -> list[list[str]]:
    """The CLI argument lists of one pipeline iteration, in order."""
    panel = workdir / "panel.csv"
    calls = []
    if "scenario" in spec:
        panel = outdir / "panel.csv"
        calls.append(["simulate", "--scenario", str(workdir / "scenario.txt"),
                      "--output", str(panel), "--seed", str(seed)])
    for analysis in spec["analyses"]:
        calls.append([analysis[0], "--input", str(panel),
                      "--output", str(outdir / output_name(analysis))] + analysis[1:])
    return calls


# -- the messy panel -------------------------------------------------


def day_ordinal(text: str) -> int:
    return dt.date.fromisoformat(text).toordinal()


def messy_panel(seed: int, n_banks: int, start: str, end: str):
    """Draw a messy but valid panel CSV and the truth it encodes.

    Returns ``(csv_text, truth)``.  Each bank gets an initial rating, a
    Poisson number of state changes, re-affirmation rows repeating the
    state it holds on a random covered day, exact duplicates of some
    event rows and, for some banks, a ``WR`` row after its last row.
    Rows are shuffled.  ``truth`` holds, after collapsing, every bank's
    first rated day, last rated day and state-change days.
    """
    rng = np.random.default_rng(seed)
    d_lo, d_hi = day_ordinal(start), day_ordinal(end)
    n_days = d_hi - d_lo + 1

    # First rated day: a third of the banks start on the span start.
    first = d_lo + rng.integers(0, n_days // 2, n_banks)
    first[rng.random(n_banks) < 1 / 3] = d_lo
    first[0] = d_lo

    # State-change days, distinct per bank and after the first day.
    n_changes = rng.poisson(1.0, n_banks)
    bank = np.repeat(np.arange(n_banks), n_changes)
    lo = first[bank] + 1
    day = lo + (rng.random(bank.size) * (d_hi + 1 - lo)).astype(np.int64)
    keep = day <= d_hi
    bank, day = bank[keep], day[keep]
    order = np.lexsort((day, bank))
    bank, day = bank[order], day[order]
    distinct = np.ones(bank.size, dtype=bool)
    distinct[1:] = (bank[1:] != bank[:-1]) | (day[1:] != day[:-1])
    bank, day = bank[distinct], day[distinct]

    # Event table: the initial rating then the changes, sorted by (bank, day).
    ev_bank = np.concatenate([np.arange(n_banks), bank])
    ev_day = np.concatenate([first, day])
    order = np.lexsort((ev_day, ev_bank))
    ev_bank, ev_day = ev_bank[order], ev_day[order]
    is_first = np.ones(ev_bank.size, dtype=bool)
    is_first[1:] = ev_bank[1:] != ev_bank[:-1]
    ev_state = np.empty(ev_bank.size, dtype=np.int64)
    ev_state[is_first] = rng.integers(0, N_STATES, int(is_first.sum()))
    # Each change moves one or two notches, reflected at the scale's ends.
    steps = rng.choice(np.array([-2, -1, 1, 2]), ev_bank.size)
    for i in np.flatnonzero(~is_first):
        s = ev_state[i - 1] + steps[i]
        if not 0 <= s < N_STATES:
            s = ev_state[i - 1] - steps[i]
        ev_state[i] = s

    # Withdrawals: a WR row strictly after the bank's last event.
    last_event = np.zeros(n_banks, dtype=np.int64)
    np.maximum.at(last_event, ev_bank, ev_day)
    withdraw = (rng.random(n_banks) < 0.2) & (last_event < d_hi)
    withdraw[0] = False
    wr_day = last_event + 1 + (rng.random(n_banks) * (d_hi - last_event)).astype(np.int64)
    wr_bank = np.flatnonzero(withdraw)
    wr_day = wr_day[wr_bank]
    cover_end = np.full(n_banks, d_hi, dtype=np.int64)
    cover_end[wr_bank] = wr_day - 1

    # Re-affirmations on covered days; bank 0 re-affirms on the span end.
    n_re = rng.poisson(0.9, n_banks)
    n_re[0] += 1
    re_bank = np.repeat(np.arange(n_banks), n_re)
    span_len = cover_end[re_bank] - first[re_bank] + 1
    re_day = first[re_bank] + (rng.random(re_bank.size) * span_len).astype(np.int64)
    re_day[np.searchsorted(re_bank, 0, side="right") - 1] = d_hi
    key = ev_bank * (n_days + 2) + (ev_day - d_lo)
    pos = np.searchsorted(key, re_bank * (n_days + 2) + (re_day - d_lo), side="right") - 1
    re_state = ev_state[pos]

    # Exact duplicates of some event rows.
    dup = rng.random(ev_bank.size) < 0.15

    rows_bank = np.concatenate([ev_bank, ev_bank[dup], re_bank, wr_bank])
    rows_day = np.concatenate([ev_day, ev_day[dup], re_day, wr_day])
    rows_label = np.concatenate([ev_state, ev_state[dup], re_state,
                                 np.full(wr_bank.size, N_STATES)])
    perm = rng.permutation(rows_bank.size)
    rows_bank, rows_day, rows_label = rows_bank[perm], rows_day[perm], rows_label[perm]

    labels = RATING_LABELS + (WITHDRAWN,)
    base = np.datetime64(dt.date.fromordinal(d_lo).isoformat(), "D")
    dates = np.datetime_as_string(base + (rows_day - d_lo))
    lines = ["bank_id,date,rating"]
    lines += [f"M{b:06d},{d},{labels[s]}" for b, d, s in
              zip(rows_bank.tolist(), dates.tolist(), rows_label.tolist())]
    text = "\n".join(lines) + "\n"

    changes = ~is_first
    truth = {
        "first": first,
        "cover_end": cover_end,
        "change_day": np.sort(ev_day[changes]),
        "n_events": int(ev_bank.size),
        "n_rows": int(rows_bank.size),
        "span": (int(rows_day.min()), int(rows_day.max())),
    }
    return text, truth
