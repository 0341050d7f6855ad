"""Output checks that hold for any correct program, whatever its random streams.

A *truth* describes a panel after collapsing, in day ordinals:
``first`` and ``cover_end`` per bank, the sorted ``change_day`` of every
state change, and the inferred ``span`` (earliest and latest row date).
From it follow the expected rated-bank counts, window row counts and
per-window transition counts of every analysis CSV.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from pathlib import Path

import numpy as np

from workloads import N_STATES, RATING_LABELS, WITHDRAWN


class CheckError(Exception):
    """An output file does not match what the inputs imply."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _rows(path: Path) -> list[list[str]]:
    _require(path.is_file(), f"{path.name}: missing")
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.reader(f))


def _iso(ordinal: int) -> str:
    return dt.date.fromordinal(ordinal).isoformat()


def _finite(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckError(f"{where}: {text!r} is not a number") from None
    _require(math.isfinite(value), f"{where}: {text!r} is not finite")
    return value


def month_starts(span: tuple[int, int]) -> list[int]:
    """Ordinals of the first-of-month dates within the span."""
    lo, hi = (dt.date.fromordinal(d) for d in span)
    k = lo.year * 12 + lo.month - 1 + (lo.day != 1)
    out = []
    while dt.date(k // 12, k % 12 + 1, 1) <= hi:
        out.append(dt.date(k // 12, k % 12 + 1, 1).toordinal())
        k += 1
    return out


def month_windows(span: tuple[int, int], months: int) -> list[tuple[int, int]]:
    """(t0, tf) ordinals for each month start t0 whose window ends in the span."""
    out = []
    for t0 in month_starts(span):
        d = dt.date.fromordinal(t0)
        k = d.year * 12 + d.month - 1 + months
        tf = dt.date(k // 12, k % 12 + 1, 1).toordinal()
        if tf <= span[1]:
            out.append((t0, tf))
    return out


def daily_rated(truth: dict) -> np.ndarray:
    lo, hi = truth["span"]
    delta = np.zeros(hi - lo + 2, dtype=np.int64)
    np.add.at(delta, truth["first"] - lo, 1)
    np.add.at(delta, truth["cover_end"] - lo + 1, -1)
    return np.cumsum(delta[:-1])


# -- simulate output ---------------------------------------------------


def simulated_truth(panel_csv: Path, n_banks: int, start: int, end: int,
                    band: tuple[float, float]) -> dict:
    """Check a simulated panel CSV and derive its truth.

    Checks the bank count, that every bank's first row is on the
    scenario start, labels, dates inside the scenario span, that rows
    of a bank change state on distinct days, and that the number of
    state changes lies in ``band``, a statistical band around the
    scenario's expected count.
    """
    rows = _rows(panel_csv)
    _require(rows[:1] == [["bank_id", "date", "rating"]], "panel.csv: bad header")
    body = rows[1:]
    _require(all(len(r) == 3 for r in body), "panel.csv: row without 3 fields")
    ids, bank = np.unique([r[0] for r in body], return_inverse=True)
    _require(len(ids) == n_banks, f"panel.csv: {len(ids)} banks, expected {n_banks}")
    code = {label: i for i, label in enumerate(RATING_LABELS)}
    labels = [r[2] for r in body]
    _require(all(label in code for label in labels),
             f"panel.csv: label outside the scale (a {WITHDRAWN} row is not expected)")
    state = np.fromiter((code[label] for label in labels), np.int64, len(labels))
    epoch = dt.date(1970, 1, 1).toordinal()
    day = np.array([r[1] for r in body], dtype="datetime64[D]").astype(np.int64) + epoch
    _require(day.min() == start, f"panel.csv: earliest date {_iso(day.min())}")
    _require(day.max() <= end, f"panel.csv: date {_iso(day.max())} after the span")

    order = np.lexsort((day, bank))
    bank, day, state = bank[order], day[order], state[order]
    new_bank = np.ones(bank.size, dtype=bool)
    new_bank[1:] = bank[1:] != bank[:-1]
    _require(bool(np.all(day[new_bank] == start)), "panel.csv: a bank starts after the span start")
    later = ~new_bank
    _require(bool(np.all(np.diff(day)[later[1:]] > 0)), "panel.csv: two rows of a bank on one day")
    _require(bool(np.all(np.diff(state)[later[1:]] != 0)), "panel.csv: repeated state")
    n_changes = int(later.sum())
    _require(band[0] <= n_changes <= band[1],
             f"panel.csv: {n_changes} transitions outside [{band[0]:.0f}, {band[1]:.0f}]")

    hi = int(day.max())
    return {
        "first": np.full(n_banks, start, dtype=np.int64),
        "cover_end": np.full(n_banks, hi, dtype=np.int64),
        "change_day": np.sort(day[later]),
        "n_events": int(bank.size),
        "n_rows": int(bank.size),
        "span": (start, hi),
    }


def expected_transitions(generators, initial, n_banks: int, start: int, end: int,
                         days_per_year: float = 365.0) -> float:
    """Expected number of jumps of ``n_banks`` chains over ``[start, end]``.

    ``generators`` is the schedule [(activation ordinal, Q per year)].
    Integrates the exit rate against the state distribution day by day.
    """
    import scipy.linalg

    p = np.asarray(initial, dtype=np.float64)
    total = 0.0
    schedule = list(generators) + [(end, None)]
    for (d0, q), (d1, _) in zip(schedule, schedule[1:]):
        q_day = np.asarray(q, dtype=np.float64) / days_per_year
        step = scipy.linalg.expm(q_day)
        exit_rate = -np.diag(q_day)
        half = scipy.linalg.expm(q_day / 2)
        for _ in range(d1 - d0):
            total += float((p @ half) @ exit_rate)
            p = p @ step
    return n_banks * total


# -- analysis outputs ------------------------------------------------


def check_counts(outdir: Path, truth: dict) -> None:
    lo, hi = truth["span"]
    rated = daily_rated(truth)
    rows = _rows(outdir / "daily_counts.csv")
    _require(rows[:1] == [["date", "value"]], "daily_counts.csv: bad header")
    expected = [[_iso(lo + i), str(int(v))] for i, v in enumerate(rated) if v > 0]
    if rows[1:] != expected:
        bad = next((i for i, (a, b) in enumerate(zip(rows[1:], expected)) if a != b),
                   min(len(rows) - 1, len(expected)))
        got = rows[1 + bad] if bad + 1 < len(rows) else None
        want = expected[bad] if bad < len(expected) else None
        raise CheckError(f"daily_counts.csv: row {bad + 2} is {got}, expected {want}")

    # Trailing 365-day transitions per mean rated bank, clipped to the span.
    n = hi - lo + 1
    tr = np.bincount(truth["change_day"] - lo, minlength=n)
    cum_tr = np.concatenate([[0], np.cumsum(tr)])
    cum_nr = np.concatenate([[0], np.cumsum(rated)])
    t = np.arange(n)
    start = np.maximum(t - 365, 0)
    mean_banks = (cum_nr[t + 1] - cum_nr[start]) / (t + 1 - start)
    keep = mean_banks > 0
    want = (cum_tr[t + 1] - cum_tr[start])[keep] / mean_banks[keep]
    rows = _rows(outdir / "transitions_per_bank.csv")
    _require(rows[:1] == [["date", "value"]], "transitions_per_bank.csv: bad header")
    body = rows[1:]
    _require(len(body) == int(keep.sum()),
             f"transitions_per_bank.csv: {len(body)} rows, expected {int(keep.sum())}")
    _require([r[0] for r in body] == [_iso(lo + i) for i in np.flatnonzero(keep)],
             "transitions_per_bank.csv: wrong dates")
    got = np.array([_finite(r[1], "transitions_per_bank.csv") for r in body])
    _require(bool(np.allclose(got, want, rtol=1e-9, atol=0)),
             "transitions_per_bank.csv: values differ from the truth")


def check_moments(path: Path, truth: dict) -> None:
    rows = _rows(path)
    header = ["date", "mean_R", "var_R", "skew_R", "kurt_R",
              "mean_T", "var_T", "skew_T", "kurt_T"]
    _require(rows[:1] == [header], f"{path.name}: bad header")
    months = month_starts(truth["span"])
    _require([r[0] for r in rows[1:]] == [_iso(d) for d in months],
             f"{path.name}: {len(rows) - 1} rows, expected one per month start ({len(months)})")
    for r in rows[1:]:
        _require(len(r) == 9, f"{path.name}: row without 9 fields")
        values = [_finite(c, path.name) if c else None for c in r[1:]]
        mean_r, var_r, mean_t, var_t = values[0], values[1], values[4], values[5]
        _require(mean_r is not None and 0 <= mean_r <= N_STATES - 1,
                 f"{path.name}: mean_R {mean_r} on {r[0]}")
        _require(var_r is not None and var_r >= 0 and (var_t is None or var_t >= 0),
                 f"{path.name}: missing or negative variance on {r[0]}")
        _require(mean_t is None or abs(mean_t) <= N_STATES - 1, f"{path.name}: mean_T {mean_t}")


def check_test_series(path: Path, truth: dict, statistic: str, window: str) -> None:
    rows = _rows(path)
    header = ["window_start", "window_end", "statistic", "value", "abs_value", "n_transitions"]
    _require(rows[:1] == [header], f"{path.name}: bad header")
    change_day = truth["change_day"]
    expected = []
    for t0, tf in month_windows(truth["span"], 12 if window == "year" else 1):
        n_tr = int(np.searchsorted(change_day, tf, "right") - np.searchsorted(change_day, t0, "right"))
        if statistic == "ck_l2" or n_tr > 0:
            expected.append([_iso(t0), _iso(tf), statistic, str(n_tr)])
    got = [[r[0], r[1], r[2], r[5]] for r in rows[1:] if len(r) == 6]
    _require(len(got) == len(rows) - 1, f"{path.name}: row without 6 fields")
    if got != expected:
        bad = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
                   min(len(got), len(expected)))
        raise CheckError(f"{path.name}: {len(got)} windows, expected {len(expected)}; "
                         f"first difference at row {bad + 2}: "
                         f"{got[bad] if bad < len(got) else None} vs "
                         f"{expected[bad] if bad < len(expected) else None} "
                         "(window_start, window_end, statistic, n_transitions)")
    for r in rows[1:]:
        value = _finite(r[3], path.name)
        magnitude = _finite(r[4], path.name)
        _require(math.isclose(magnitude, abs(value), rel_tol=1e-9, abs_tol=1e-300),
                 f"{path.name}: abs_value {r[4]} is not |{r[3]}|")
        _require(statistic != "ck_l2" or value >= 0, f"{path.name}: negative ck_l2 {r[3]}")


def check_analysis(analysis: list[str], out: Path, truth: dict) -> None:
    cmd = analysis[0]
    if cmd == "counts":
        check_counts(out, truth)
    elif cmd == "moments":
        check_moments(out, truth)
    else:
        statistic = "homogeneity_L" if cmd == "homogeneity" else "ck_l2"
        check_test_series(out, truth, statistic, analysis[2])
