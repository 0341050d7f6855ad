import datetime as dt
import io
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import ratinglab as rl
from ratinglab.dates import month_starts

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,  # byte-identical reruns matter more than fresh examples
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def make_panel(span, specs):
    """Panel parsed from CSV text written out of plain specs.

    specs: list of (bank_id, [(date, state), ...], coverage_end-or-None);
    a coverage end before the span end becomes a ``WR`` row on the next
    day, and None means rated through the span end.
    """
    rows = ["bank_id,date,rating"]
    for bank_id, events, cov in specs:
        rows += [f"{bank_id},{d.isoformat()},{rl.RATING_LABELS[s]}" for d, s in events]
        if cov is not None and cov < span[1]:
            rows.append(f"{bank_id},{cov + dt.timedelta(days=1)},{rl.WITHDRAWN_LABEL}")
    return rl.parse_panel(io.StringIO("\n".join(rows) + "\n"), span)


def cross_section(panel, *dates):
    """Every bank's state on each date, one row per date (-1: unrated)."""
    days, row = np.unique([(t - panel.span[0]).days for t in dates], return_inverse=True)
    return panel.states_at_many(days)[row]


def series_rows(series):
    """A ``(dates, values)`` count series as ``(date, value)`` pairs of Python objects."""
    days, values = series
    assert days.dtype == np.dtype("datetime64[D]") and days.shape == values.shape
    return list(zip(days.tolist(), values.tolist()))


def raw_histories(panel):
    """Plain (events, coverage_end) pairs per bank, read off the panel's arrays."""
    start = panel.span[0]
    day = lambda offset: start + dt.timedelta(days=int(offset))
    out = []
    for k in range(panel.n_banks):
        a, b = panel.offsets[k], panel.offsets[k + 1]
        events = [(day(d), int(s)) for d, s in zip(panel.event_day[a:b], panel.event_state[a:b])]
        out.append((events, day(panel.coverage_end[k])))
    return out


@st.composite
def mid_month_panels(draw):
    """Up to five banks, some withdrawn, over a span of 20 days to 3 years
    that starts mid-month; many events and coverage ends fall on or next
    to a month start."""
    start = dt.date(2007, draw(st.integers(1, 12)), draw(st.integers(2, 28)))
    n_days = draw(st.integers(20, 3 * 365))
    day = lambda off: start + dt.timedelta(days=off)
    edges = [
        (t - start).days + e
        for t in month_starts(start, day(n_days))
        for e in (-1, 0)
        if (t - start).days + e >= 0
    ]
    offset = st.integers(0, n_days) | st.sampled_from(edges or [0])
    specs = []
    for k in range(draw(st.integers(0, 5))):
        offs = sorted(draw(st.sets(offset, min_size=1, max_size=8)))
        states = [draw(st.integers(0, 14))]
        for _ in offs[1:]:
            states.append((states[-1] + draw(st.integers(1, 14))) % 15)
        cov = draw(st.none() | offset.filter(lambda o: o >= offs[-1]))
        events = [(day(o), s) for o, s in zip(offs, states)]
        specs.append((f"b{k}", events, None if cov is None else day(cov)))
    return make_panel((start, day(n_days)), specs)


@pytest.fixture(scope="session")
def homogeneous_panel():
    """Mid-sized homogeneous panel shared by read-only tests."""
    q = rl.random_generator(7, 0.3)
    scen = rl.Scenario(
        kind="homogeneous",
        generators=((dt.date(2007, 1, 1), q),),
        n_banks=400,
        span=(dt.date(2007, 1, 1), dt.date(2011, 1, 1)),
        seed=42,
        initial_distribution=rl.uniform_distribution(),
    )
    return rl.simulate(scen), q


@pytest.fixture(scope="session")
def consistency_sweep():
    """Median Frobenius errors of the estimated generator vs truth.

    One shared sweep: 20 seeds at each bank count, homogeneous scenario
    with a banded generator at rate 0.3/yr over five years.  Consumed by
    both the estimator property test (monotone decrease) and the
    headline consistency check (relative error at the largest count).
    """
    q = rl.random_generator(1234, 0.3)
    span = (dt.date(2007, 1, 1), dt.date(2012, 1, 1))
    q_norm = float(np.linalg.norm(q.entries))
    medians = {}
    started = time.perf_counter()
    for n_banks in (100, 1000, 10000):
        dists = []
        for seed in range(20):
            scen = rl.Scenario(
                kind="homogeneous",
                generators=((span[0], q),),
                n_banks=n_banks,
                span=span,
                seed=9000 + seed,
                initial_distribution=rl.uniform_distribution(),
            )
            panel = rl.simulate(scen)
            counts = rl.count_transitions(panel, *span)
            expo = rl.exposures(panel, *span)
            qhat = rl.estimate_generator(counts, expo)
            dists.append(float(np.linalg.norm(qhat.entries - q.entries)))
        medians[n_banks] = float(np.median(dists))
    return medians, q_norm, time.perf_counter() - started


# -- acceptance reporting ---------------------------------------------

ACCEPTANCE_RESULTS = []


@pytest.fixture
def acceptance():
    """Record one pass/fail line per criterion for the terminal summary."""

    def record(index, name, passed, detail):
        ACCEPTANCE_RESULTS.append((index, name, bool(passed), detail))

    return record


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for index, name, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {index:2d} {status}  {name}: {detail}")
