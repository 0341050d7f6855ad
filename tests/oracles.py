"""Independent reference implementations used to cross-check results.

Everything here is deliberately naive and self-contained: truncated
series, rotation sweeps, day-by-day loops, plain-Python sums.  None of
it calls into the package beyond receiving plain arrays and event
tuples, so agreement between the two routes is meaningful evidence.
"""

from __future__ import annotations

import bisect
import csv
import datetime as dt
import io
import itertools
import math
import re

import numpy as np

N_STATES = 15
DAYS_PER_YEAR = 365.0


def taylor_expm(a: np.ndarray, terms: int = 50) -> np.ndarray:
    """Matrix exponential by 50-term Taylor summation with scaling.

    The argument is halved until its infinity norm drops below 1/4, the
    series is summed, and the result squared back up.  At that norm the
    term after the 50th is below 1e-80, so truncation is irrelevant.
    """
    a = np.asarray(a, dtype=np.float64)
    norm = float(np.abs(a).sum(axis=1).max())
    k = 0
    while norm > 0.25:
        norm /= 2.0
        k += 1
    b = a / (2.0 ** k)
    n = a.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    for m in range(1, terms + 1):
        term = term @ b / m
        out = out + term
    for _ in range(k):
        out = out @ out
    return out


def jacobi_eigenvalues(sym: np.ndarray, max_sweeps: int = 60) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    b = np.array(sym, dtype=np.float64, copy=True)
    n = b.shape[0]
    scale = max(float(np.abs(b).max()), 1e-300)
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(b[p, q]))
        if off <= 1e-15 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(b[p, q]) <= 1e-18 * scale:
                    continue
                theta = (b[q, q] - b[p, p]) / (2.0 * b[p, q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                b = rot.T @ b @ rot
    return np.sort(np.diag(b))


def sigma_max(a: np.ndarray) -> float:
    """Largest singular value via Jacobi eigenvalues of A^T A."""
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        return 0.0
    eigs = jacobi_eigenvalues(a.T @ a)
    return math.sqrt(max(float(eigs[-1]), 0.0))


def two_pass_moments(sample):
    """Population mean/variance/skewness/kurtosis by plain Python sums."""
    xs = [float(x) for x in sample]
    n = len(xs)
    mean = sum(xs) / n
    m2 = sum((x - mean) ** 2 for x in xs) / n
    if m2 < 1e-12:
        return mean, m2, None, None
    m3 = sum((x - mean) ** 3 for x in xs) / n
    m4 = sum((x - mean) ** 4 for x in xs) / n
    return mean, m2, m3 / m2 ** 1.5, m4 / m2 ** 2


def elementwise_moments(sample):
    """Population moments with every power taken element by element.

    The formula of ``ratinglab.moments`` before it took the powers once
    per distinct value: numpy's ``c * c``, ``c**3`` and ``c**4`` over
    the whole deviation array.  Returns (mean, variance, skewness,
    kurtosis), the last two None for a degenerate variance.
    """
    x = np.asarray(sample, dtype=np.float64)
    m1 = float(np.mean(x))
    c = x - m1
    m2 = float(np.mean(c * c))
    if m2 < 1e-12:
        return m1, m2, None, None
    m3 = float(np.mean(c**3))
    m4 = float(np.mean(c**4))
    return m1, m2, m3 / m2**1.5, m4 / m2**2


def add_months(day: dt.date, months: int) -> dt.date:
    """Shift a first-of-month date by a number of calendar months."""
    if day.day != 1:
        raise ValueError("month arithmetic is only defined for month-start dates")
    k = day.month - 1 + months
    return dt.date(day.year + k // 12, k % 12 + 1, 1)


def state_on(events, coverage_end: dt.date, day: dt.date):
    """Step-function lookup by linear scan; None outside coverage."""
    if day > coverage_end or day < events[0][0]:
        return None
    current = None
    for d, s in events:
        if d <= day:
            current = s
        else:
            break
    return current


def cohort_matrix(histories, t0: dt.date, tf: dt.date) -> np.ndarray:
    """Cohort transition matrix from (events, coverage_end) pairs.

    Rows with no banks present at both dates stay identity.
    """
    counts = np.zeros((N_STATES, N_STATES))
    for events, cov in histories:
        i = state_on(events, cov, t0)
        j = state_on(events, cov, tf)
        if i is None or j is None:
            continue
        counts[i, j] += 1.0
    m = np.eye(N_STATES)
    for i in range(N_STATES):
        total = counts[i].sum()
        if total > 0:
            m[i] = counts[i] / total
    return m


def window_counts_exposures(histories, t0: dt.date, tf: dt.date):
    """Transition counts over (t0, tf] and the daily exposure sum.

    Day-by-day loops; only for small fixtures.  Rated days are counted
    as integers per state and divided by 365 once, so the exposure is
    the exact bank-day count in bank-years.
    """
    counts = np.zeros((N_STATES, N_STATES), dtype=np.int64)
    bank_days = np.zeros(N_STATES, dtype=np.int64)
    one = dt.timedelta(days=1)
    for events, cov in histories:
        for (_, s1), (d2, s2) in zip(events, events[1:]):
            if t0 < d2 <= tf:
                counts[s1, s2] += 1
        day = t0
        while day < tf:
            s = state_on(events, cov, day)
            if s is not None:
                bank_days[s] += 1
            day += one
    return counts, bank_days / DAYS_PER_YEAR


def stationary_distribution(q: np.ndarray, tol: float = 1e-13) -> np.ndarray:
    """Stationary law of a generator by uniformized power iteration."""
    q = np.asarray(q, dtype=np.float64)
    n = q.shape[0]
    lam = max(float(-q.diagonal().min()), 1e-9) * 1.25
    kernel = np.eye(n) + q / lam
    pi = np.full(n, 1.0 / n)
    for _ in range(2_000_000):
        nxt = pi @ kernel
        nxt /= nxt.sum()
        if float(np.abs(nxt - pi).sum()) < tol:
            return nxt
        pi = nxt
    raise RuntimeError("stationary distribution iteration did not converge")


# -- event-CSV reading ---------------------------------------------------
#
# The row-by-row reader the package used before ingestion became
# columnar, kept as the reference for its accepted inputs, its results
# and the exact text and precedence of its errors.

LABELS = (
    "E-", "E", "E+", "D-", "D", "D+", "C-", "C", "C+",
    "B-", "B", "B+", "A-", "A", "A+",
)
WITHDRAWN = "WR"
HEADER = ("bank_id", "date", "rating")


def simulate_events(generators, end, n_banks, seed, initial, gamma=1.0, memory_days=0,
                    collision_limit=64):
    """Per-bank reference simulator: each bank ``k`` runs a plain Python
    loop on its own ``np.random.default_rng((seed, k))`` stream.

    ``generators`` lists (activation day ordinal, 15x15 annual
    generator) pairs, the first activating on the span start; ``end``
    is the span end's ordinal.  With ``memory_days`` set, a bank's
    downward rates are ``gamma`` times larger for that many days after
    each of its downgrades.  A jump landing on the bank's previous
    event day is re-drawn from the same time; after ``collision_limit``
    re-draws in a row the next draw starts from ``min(last day + 1/2,
    segment end)``, and so does the bank's draw after each later
    collision.  Returns (offsets, day offsets, states) lists in
    the panel's compressed-sparse-row layout.
    """
    bounds = [float(day) for day, _ in generators] + [float(end)]
    table = []
    for _, q in generators:
        q = np.asarray(q, dtype=np.float64) / DAYS_PER_YEAR
        calm, excited = [], []
        for i in range(N_STATES):
            rates = [max(float(q[i, j]), 0.0) if j != i else 0.0 for j in range(N_STATES)]
            last = max((j for j in range(N_STATES) if rates[j] > 0.0), default=0)
            calm.append((list(itertools.accumulate(rates)), last))
            downs = [w * gamma if j < i else w for j, w in enumerate(rates)]
            excited.append((list(itertools.accumulate(downs)), last))
        table.append((calm, excited))
    initial_cum = list(itertools.accumulate(float(p) for p in initial))

    offsets, days, states = [0], [], []
    day0 = int(bounds[0])
    for k in range(n_banks):
        rng = np.random.default_rng((seed, k))
        state = bisect.bisect_right(initial_cum, rng.random() * initial_cum[-1])
        days.append(0)
        states.append(state)
        last_day, t = day0, bounds[0]
        excite_until = -math.inf
        collisions, limit = 0, collision_limit
        while t < bounds[-1]:
            regime = bisect.bisect_right(bounds, t) - 1
            excited = t < excite_until
            seg_end = min(bounds[regime + 1], excite_until) if excited else bounds[regime + 1]
            cum, last = table[regime][excited][state]
            lam = cum[-1]
            if lam <= 0.0:
                t, collisions = seg_end, 0
                continue
            if collisions < limit:
                origin = t
            else:
                origin, limit = min(last_day + 0.5, seg_end), 1
            x = origin - math.log(1.0 - rng.random()) / lam
            if x >= seg_end:
                t, collisions = seg_end, 0
                continue
            day = math.floor(x + 0.5)
            if day <= last_day:
                collisions += 1
                continue
            chosen = bisect.bisect_right(cum, rng.random() * lam)
            if chosen == N_STATES:
                chosen = last
            days.append(day - day0)
            states.append(chosen)
            if chosen < state:
                excite_until = x + memory_days
            state, t, last_day, collisions = chosen, x, day, 0
        offsets.append(len(days))
    return offsets, days, states


class OracleFormatError(Exception):
    """Carries the same text as the package's DataFormatError."""

    def __init__(self, message, row=None):
        super().__init__(message if row is None else f"row {row}: {message}")


class OracleSpanError(Exception):
    """A resolved span whose end precedes its start."""

    def __init__(self, start, end):
        super().__init__(f"span end {end} before start {start}")
        self.start, self.end = start, end


def _iso_date(text):
    # ISO calendar dates only, extended or basic, in ASCII digits
    try:
        if not re.fullmatch(r"[0-9]{4}-?[0-9]{2}-?[0-9]{2}", text) or text.count("-") == 1:
            raise ValueError
        digits = text.replace("-", "")
        return dt.date.fromisoformat(f"{digits[:4]}-{digits[4:6]}-{digits[6:]}")
    except ValueError:
        raise ValueError(f"invalid ISO date {text!r}") from None


def _read_records(text, span):
    """Validated (bank_id, date, label, row) per data row, in row order."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        return []
    if tuple(h.strip() for h in header) != HEADER:
        raise OracleFormatError(
            f"expected header {','.join(HEADER)!r}, got {','.join(header)!r}", row=1
        )
    start, end = span
    records = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise OracleFormatError(f"expected 3 fields, got {len(row)}", row=lineno)
        bank_id, date_text, label = (f.strip() for f in row)
        if label not in LABELS and label != WITHDRAWN:
            raise OracleFormatError(f"unknown rating label {label!r}", row=lineno)
        try:
            date = _iso_date(date_text)
        except ValueError as exc:
            raise OracleFormatError(str(exc), row=lineno) from None
        if date < start or date > end:
            raise OracleFormatError(f"date {date} outside span [{start}, {end}]", row=lineno)
        records.append((bank_id, date, label, lineno))
    return records


def parse_events(text, span):
    """[(bank_id, [(date, state), ...], coverage_end)] sorted by bank_id."""
    by_bank = {}
    for rec in _read_records(text, span):
        by_bank.setdefault(rec[0], []).append(rec)
    out = []
    for bank_id, recs in by_bank.items():
        recs.sort(key=lambda r: (r[1], r[3]))
        for a, b in zip(recs, recs[1:]):
            if a[1] == b[1] and a[2] != b[2]:
                raise OracleFormatError(
                    f"bank {bank_id!r}: conflicting labels {a[2]!r} and {b[2]!r} on {a[1]}",
                    row=b[3],
                )
        events = []
        coverage_end = span[1]
        withdrawn = False
        for _, date, label, row in recs:
            if withdrawn:
                raise OracleFormatError(f"bank {bank_id!r}: event after withdrawal", row=row)
            if label == WITHDRAWN:
                if not events:
                    raise OracleFormatError(
                        f"bank {bank_id!r}: withdrawal without a prior rating", row=row
                    )
                coverage_end = date - dt.timedelta(days=1)
                withdrawn = True
                continue
            state = LABELS.index(label)
            if events and events[-1][1] == state:
                continue  # re-affirmation
            if events and events[-1][0] == date:
                continue  # duplicate row
            events.append((date, state))
        if not events:
            raise OracleFormatError(f"bank {bank_id!r}: no rating events")
        out.append((bank_id, events, coverage_end))
    return sorted(out)


def infer_span(text):
    """Earliest and latest record date; checks only widths and dates."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise OracleFormatError("cannot infer a span from an empty file") from None
    if tuple(h.strip() for h in header) != HEADER:
        raise OracleFormatError(
            f"expected header {','.join(HEADER)!r}, got {','.join(header)!r}", row=1
        )
    dates = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise OracleFormatError(f"expected 3 fields, got {len(row)}", row=lineno)
        try:
            dates.append(_iso_date(row[1].strip()))
        except ValueError as exc:
            raise OracleFormatError(str(exc), row=lineno) from None
    if not dates:
        raise OracleFormatError("cannot infer a span from an empty panel")
    return min(dates), max(dates)


def load_events(text, start=None, end=None):
    """Span resolution then parsing, in the order the CLI has always used.

    Missing ends are inferred (that read's errors come first), a
    reversed span raises :class:`OracleSpanError`, then rows are parsed.
    """
    if start is None or end is None:
        lo, hi = infer_span(text)
        start = lo if start is None else start
        end = hi if end is None else end
    if end < start:
        raise OracleSpanError(start, end)
    return parse_events(text, (start, end)), (start, end)
