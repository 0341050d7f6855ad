import datetime as dt
import gc
import io
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import ratinglab as rl
from ratinglab import DataFormatError

from conftest import cross_section, make_panel, raw_histories, series_rows

D = dt.date
SPAN = (D(2007, 1, 1), D(2010, 12, 31))


def parse(text, span=SPAN):
    return rl.parse_panel(io.StringIO(text), span)


# -- parse_panel ------------------------------------------------------


def test_parse_two_rows_one_transition():
    p = parse("bank_id,date,rating\nb1,2007-01-01,A+\nb1,2008-01-01,A\n")
    assert p.n_banks == 1
    assert raw_histories(p) == [([(D(2007, 1, 1), 14), (D(2008, 1, 1), 13)], SPAN[1])]
    assert p.transitions().size == 1


def test_parse_reaffirmation_collapsed():
    p = parse("bank_id,date,rating\nb1,2007-03-01,B\nb1,2007-03-02,B\n")
    assert p.offsets.tolist() == [0, 1]
    assert p.transitions().size == 0


def test_parse_unknown_label():
    with pytest.raises(DataFormatError, match="unknown rating label"):
        parse("bank_id,date,rating\nb1,2007-03-01,Z+\n")


def test_parse_error_names_row():
    with pytest.raises(DataFormatError, match="row 3"):
        parse("bank_id,date,rating\nb1,2007-03-01,B\nb1,2007-04-01,Z+\n")


def test_parse_conflicting_same_day_labels():
    with pytest.raises(DataFormatError, match="conflicting"):
        parse("bank_id,date,rating\nb1,2007-03-01,B\nb1,2007-03-01,B+\n")


def test_parse_same_day_duplicate_rows_collapse():
    p = parse("bank_id,date,rating\nb1,2007-03-01,B\nb1,2007-03-01,B\n")
    assert p.offsets.tolist() == [0, 1]


def test_parse_withdrawal_closes_coverage():
    p = parse("bank_id,date,rating\nb1,2007-01-01,C\nb1,2007-06-01,WR\n")
    assert raw_histories(p) == [([(D(2007, 1, 1), 7)], D(2007, 5, 31))]
    assert cross_section(p, D(2007, 5, 31), D(2007, 6, 1)).tolist() == [[7], [-1]]


def test_parse_event_after_withdrawal_rejected():
    text = (
        "bank_id,date,rating\n"
        "b1,2007-01-01,C\n"
        "b1,2007-06-01,WR\n"
        "b1,2007-07-01,B\n"
    )
    with pytest.raises(DataFormatError, match="after withdrawal"):
        parse(text)


def test_parse_withdrawal_without_rating_rejected():
    with pytest.raises(DataFormatError, match="without a prior rating"):
        parse("bank_id,date,rating\nb1,2007-06-01,WR\n")


def test_parse_date_outside_span():
    with pytest.raises(DataFormatError, match="outside span"):
        parse("bank_id,date,rating\nb1,2006-01-01,C\n")


def test_parse_bad_header():
    with pytest.raises(DataFormatError, match="header"):
        parse("id,day,grade\nb1,2007-01-01,C\n")


def test_parse_bad_date():
    with pytest.raises(DataFormatError, match="invalid ISO date"):
        parse("bank_id,date,rating\nb1,01/02/2007,C\n")


def test_parse_empty_file_is_empty_panel():
    p = parse("")
    assert p.n_banks == 0
    p2 = parse("bank_id,date,rating\n")
    assert p2.n_banks == 0


def test_parse_skips_blank_lines():
    p = parse("bank_id,date,rating\n\nb1,2007-01-01,C\n\n")
    assert p.n_banks == 1


def test_parse_row_order_irrelevant():
    rows = [
        "b2,2007-01-01,D+",
        "b1,2008-01-01,A",
        "b1,2007-01-01,A+",
        "b2,2007-09-01,D",
    ]
    text_a = "bank_id,date,rating\n" + "\n".join(rows) + "\n"
    text_b = "bank_id,date,rating\n" + "\n".join(reversed(rows)) + "\n"
    assert parse(text_a) == parse(text_b)
    assert series_rows(rl.daily_counts(parse(text_a))) == series_rows(rl.daily_counts(parse(text_b)))


# -- round trip -------------------------------------------------------


@st.composite
def panel_text(draw):
    n = draw(st.integers(1, 5))
    span_days = (SPAN[1] - SPAN[0]).days
    specs = []
    for k in range(n):
        off = draw(st.integers(0, span_days - 30))
        n_ev = draw(st.integers(1, 5))
        offs, states = [off], [draw(st.integers(0, 14))]
        for _ in range(n_ev - 1):
            nxt = offs[-1] + draw(st.integers(1, 90))
            if nxt > span_days:
                break
            offs.append(nxt)
            states.append((states[-1] + draw(st.integers(1, 14))) % 15)
        if draw(st.booleans()):
            cov = min(offs[-1] + draw(st.integers(0, 90)), span_days)
        else:
            cov = span_days
        events = [(SPAN[0] + dt.timedelta(days=o), s) for o, s in zip(offs, states)]
        specs.append((f"b{k}", events, SPAN[0] + dt.timedelta(days=cov)))
    return make_panel(SPAN, specs)


@given(panel_text())
def test_round_trip(panel):
    buf = io.StringIO()
    rl.write_panel_csv(panel, buf)
    again = rl.parse_panel(io.StringIO(buf.getvalue()), SPAN)
    assert again == panel
    # serialize once more: byte-identical
    buf2 = io.StringIO()
    rl.write_panel_csv(again, buf2)
    assert buf2.getvalue() == buf.getvalue()


@given(panel_text())
def test_total_transitions_is_sum_of_state_changes(panel):
    changes = sum(len(events) - 1 for events, _ in raw_histories(panel))
    assert panel.transitions().size == changes
    # no bank changes state on its first day, so (start, end] holds them all
    assert rl.count_transitions(panel, *panel.span).total == changes


def test_round_trip_emits_withdrawal_rows():
    text = "bank_id,date,rating\nb1,2007-01-01,C\nb1,2007-06-01,WR\n"
    p = parse(text)
    buf = io.StringIO()
    rl.write_panel_csv(p, buf)
    assert "b1,2007-06-01,WR" in buf.getvalue()


# -- daily_counts -----------------------------------------------------


def test_daily_counts_constant_bank():
    span = (D(2007, 1, 1), D(2007, 1, 10))
    p = make_panel(span, [("b1", [(span[0], 5)], None)])
    series = series_rows(rl.daily_counts(p))
    assert len(series) == 10
    assert all(v == 1 for _, v in series)
    assert series[0][0] == span[0] and series[-1][0] == span[1]


def test_daily_counts_withdrawal_decrements():
    span = (D(2007, 1, 1), D(2007, 1, 10))
    p = make_panel(
        span,
        [
            ("b1", [(span[0], 5)], None),
            ("b2", [(span[0], 8)], D(2007, 1, 4)),
        ],
    )
    series = dict(series_rows(rl.daily_counts(p)))
    assert series[D(2007, 1, 4)] == 2
    assert series[D(2007, 1, 5)] == 1


def test_daily_counts_omits_unrated_days():
    span = (D(2007, 1, 1), D(2007, 3, 1))
    p = make_panel(span, [("b1", [(D(2007, 2, 1), 5)], None)])
    series = series_rows(rl.daily_counts(p))
    assert series[0][0] == D(2007, 2, 1)
    assert series_rows(rl.daily_counts(make_panel(span, []))) == []


def test_daily_counts_growth_fixture():
    # panel built to start at 658 rated banks and finish at 924
    span = (D(2007, 1, 1), D(2007, 12, 31))
    rows = ["bank_id,date,rating"]
    for k in range(658):
        rows.append(f"s{k:04d},2007-01-01,C")
    entry_days = (span[1] - span[0]).days
    for k in range(924 - 658):
        off = 1 + (k * entry_days) // (924 - 658)
        day = span[0] + dt.timedelta(days=off)
        rows.append(f"l{k:04d},{day.isoformat()},B")
    p = parse("\n".join(rows) + "\n", span)
    series = series_rows(rl.daily_counts(p))
    assert series[0] == (span[0], 658)
    assert series[-1] == (span[1], 924)
    values = [v for _, v in series]
    assert values == sorted(values)  # entries only, no exits


# -- transitions_per_bank ---------------------------------------------


def test_transitions_per_bank_no_transitions():
    span = (D(2007, 1, 1), D(2007, 2, 1))
    p = make_panel(span, [("b1", [(span[0], 5)], None)])
    series = series_rows(rl.transitions_per_bank(p))
    assert len(series) == 32
    assert all(v == 0.0 for _, v in series)


def test_transitions_per_bank_single():
    # the trailing window [t - 365 days, t] holds the change through
    # its first anniversary and drops it the day after
    span = (D(2007, 1, 1), D(2008, 6, 1))
    p = make_panel(span, [("b1", [(span[0], 5), (D(2007, 2, 1), 6)], None)])
    series = dict(series_rows(rl.transitions_per_bank(p)))
    assert series[D(2007, 2, 5)] == pytest.approx(1.0)
    assert series[D(2007, 1, 20)] == 0.0  # before the change
    assert series[D(2008, 2, 1)] == 1.0  # 365 days on: still in the window
    assert series[D(2008, 2, 2)] == 0.0  # change left the window


def test_transitions_per_bank_ratio():
    span = (D(2007, 1, 1), D(2007, 3, 1))
    p = make_panel(
        span,
        [
            ("b1", [(span[0], 5), (D(2007, 2, 1), 6), (D(2007, 2, 3), 5)], None),
            ("b2", [(span[0], 9), (D(2007, 2, 2), 8)], None),
        ],
    )
    series = dict(series_rows(rl.transitions_per_bank(p)))
    assert series[D(2007, 2, 5)] == pytest.approx(1.5)


def test_transitions_per_bank_omits_unrated_window():
    span = (D(2007, 1, 1), D(2007, 3, 1))
    p = make_panel(span, [("b1", [(D(2007, 2, 1), 5)], None)])
    series = series_rows(rl.transitions_per_bank(p))
    assert series[0][0] == D(2007, 2, 1)


# -- span inference ---------------------------------------------------


def infer_span(source):
    return rl.parse_panel(source, (None, None)).span


def test_infer_span():
    text = (
        "bank_id,date,rating\n"
        "b1,2008-05-01,A\n"
        "b2,2007-03-15,C\n"
        "b1,2009-12-31,B\n"
    )
    assert infer_span(io.StringIO(text)) == (D(2007, 3, 15), D(2009, 12, 31))


def test_infer_span_rejects_empty():
    with pytest.raises(DataFormatError, match="empty file"):
        infer_span(io.StringIO(""))
    with pytest.raises(DataFormatError, match="empty panel"):
        infer_span(io.StringIO("bank_id,date,rating\n"))


# -- count series CSV -------------------------------------------------


def test_write_count_series_csv():
    # dates at both ends of the calendar, and integer counts
    days = np.array(["0001-01-01", "2007-01-02", "9999-12-31"], dtype="datetime64[D]")
    buf = io.StringIO()
    rl.write_count_series_csv((days, np.array([3, 0, 12345678901234])), buf)
    assert buf.getvalue().splitlines() == [
        "date,value",
        "0001-01-01,3",
        "2007-01-02,0",
        "9999-12-31,1.23456789012e+13",
    ]


def test_write_count_series_sig_digits():
    days = np.array(["0001-01-01", "2007-01-02", "9999-12-31"], dtype="datetime64[D]")
    buf = io.StringIO()
    rl.write_count_series_csv((days, np.array([0.125, 1 / 3, 2.0])), buf)
    assert buf.getvalue().splitlines()[1:] == [
        "0001-01-01,0.125",
        "2007-01-02,0.333333333333",
        "9999-12-31,2",
    ]


def test_parse_from_path(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("bank_id,date,rating\nb1,2007-01-01,A+\n", encoding="utf-8")
    p = rl.parse_panel(path, SPAN)
    assert p.n_banks == 1
    assert infer_span(path) == (D(2007, 1, 1), D(2007, 1, 1))


def test_parse_from_byte_stream():
    text = "bank_id,date,rating\nb1,2007-01-01,A+\nb1,2008-01-01,A\n"
    stream = io.BytesIO(text.encode("utf-8"))
    assert rl.parse_panel(stream, SPAN) == parse(text)
    gc.collect()
    assert not stream.closed  # the caller's stream is left open


def test_parse_row_shuffle_property():
    rng = random.Random(5)
    rows = []
    for k in range(6):
        rows.append(f"b{k},2007-0{k + 1}-01,C")
        rows.append(f"b{k},2007-0{k + 2}-15,C+")
    base = parse("bank_id,date,rating\n" + "\n".join(rows) + "\n")
    for _ in range(5):
        rng.shuffle(rows)
        assert parse("bank_id,date,rating\n" + "\n".join(rows) + "\n") == base


# -- differential check against the row-by-row reader ----------------------

DAY0 = D(2008, 1, 1)
GOOD_DATES = [DAY0 + dt.timedelta(days=k) for k in range(0, 42, 3)]
ODD_DATES = (
    "2008-01", "NaT", "0000-01-01", "", "  ", "2008-02-30", "01/02/2008", "2008-1-4",
)
VALID_LABELS = ("B", "B+", "C", "A-", "WR")
ODD_LABELS = ("Z+", "", "wr", "b")
BANKS = ("b1", "b2", "b3")


def date_texts(day):
    """Spellings of one day that ISO parsing accepts."""
    y, w, d = day.isocalendar()
    return st.sampled_from(
        [day.isoformat()] * 3 + [day.strftime("%Y%m%d"), f"{y}-W{w:02d}-{d}", f" {day} "]
    )


def pad(text):
    return st.sampled_from([text, text, f" {text}", f"{text} "])


@st.composite
def valid_panel_rows(draw):
    """Rows of a valid panel plus duplicates, re-affirmations and withdrawals."""
    rows = []
    for bank in draw(st.lists(st.sampled_from(BANKS), min_size=1, max_size=3, unique=True)):
        days = sorted(draw(st.lists(st.sampled_from(GOOD_DATES), min_size=1, max_size=5, unique=True)))
        labels = [draw(st.sampled_from(VALID_LABELS[:-1])) for _ in days]
        rows += list(zip([bank] * len(days), days, labels))
        for day, label in zip(days, labels):
            if draw(st.booleans()):  # exact duplicate or a later re-affirmation
                rows.append((bank, day + dt.timedelta(days=draw(st.sampled_from([0, 1]))), label))
        if draw(st.booleans()):
            wr_day = days[-1] + dt.timedelta(days=draw(st.integers(1, 5)))
            rows.append((bank, wr_day, "WR"))
            if draw(st.integers(0, 4)) == 0:  # a row after the withdrawal
                rows.append((bank, wr_day + dt.timedelta(days=draw(st.integers(0, 2))), "C"))
        spoiler = draw(st.integers(0, 9))
        if spoiler == 0:  # same-day conflict
            rows.append((bank, days[-1], "A-" if labels[-1] != "A-" else "B"))
        elif spoiler == 1:  # withdrawal before the first rating
            rows.append((bank, days[0] - dt.timedelta(days=draw(st.integers(0, 3))), "WR"))
    rows = draw(st.permutations(rows))
    return [
        ",".join([draw(pad(b)), draw(date_texts(d)), draw(pad(lab))]) for b, d, lab in rows
    ]


@st.composite
def messy_rows(draw):
    """Rows mixing bad labels, odd dates, blank lines and wrong field counts."""
    field_row = st.builds(
        lambda b, d, lab: ",".join([b, d, lab]),
        st.sampled_from(BANKS).flatmap(pad),
        st.one_of(st.sampled_from(GOOD_DATES).flatmap(date_texts), st.sampled_from(ODD_DATES)),
        st.sampled_from(VALID_LABELS * 2 + ODD_LABELS).flatmap(pad),
    )
    odd_row = st.sampled_from(["", "", "", "b1,2008-01-01", "b1,2008-01-01,B,x", "b1", '""'])
    return draw(st.lists(st.one_of([field_row] * 8 + [odd_row]), max_size=30))


@st.composite
def event_csv(draw):
    header = draw(st.sampled_from(["bank_id,date,rating"] * 6 + [" bank_id, date ,rating", "bank,date,rating", None]))
    if header is None:
        return ""
    rows = draw(st.one_of(valid_panel_rows(), messy_rows()))
    return "\n".join([header] + rows) + draw(st.sampled_from(["\n", "", "\n\n"]))


span_ends = st.tuples(
    st.sampled_from([None] * 3 + [DAY0 - dt.timedelta(days=5), DAY0, DAY0 + dt.timedelta(days=9)]),
    st.sampled_from([None] * 3 + [D(2008, 3, 1), DAY0 + dt.timedelta(days=20), DAY0 - dt.timedelta(days=3)]),
)


H = "bank_id,date,rating\n"


@pytest.mark.parametrize(
    "text, ends, message",
    [
        # within a row: label, then date, then span
        (H + "b1,NaT,Z+\n", SPAN, "row 2: unknown rating label 'Z+'"),
        (H + "b1,2001-01-01,Z+\n", SPAN, "row 2: unknown rating label 'Z+'"),
        (H + "b1,2008-01,B\n", SPAN, "row 2: invalid ISO date '2008-01'"),
        # rows before banks, banks in order of first appearance
        (H + "b2,2007-01-01,B\nb2,2007-01-01,C\nb1,2007-01-01,Z+\n", SPAN,
         "row 4: unknown rating label 'Z+'"),
        (H + "b2,2007-02-01,WR\nb1,2007-01-01,B\nb1,2007-01-01,C\n", SPAN,
         "row 2: bank 'b2': withdrawal without a prior rating"),
        # within a bank, a conflict wins over an earlier withdrawal error
        (H + "b1,2007-01-01,WR\nb1,2007-03-01,B\nb1,2007-03-01,C\n", SPAN,
         "row 4: bank 'b1': conflicting labels 'B' and 'C' on 2007-03-01"),
        # an inferred span reads dates and widths first, whatever the labels
        (H + "b1,2007-01-01,Z+\nb1,NaT,B\n", (None, None), "row 3: invalid ISO date 'NaT'"),
        (H + "b1,2007-01-01,Z+\n\nb1,2007\n", (None, D(2008, 1, 1)), "row 4: expected 3 fields, got 2"),
    ],
)
def test_error_precedence(text, ends, message):
    with pytest.raises(DataFormatError) as got:
        rl.parse_panel(io.StringIO(text), ends)
    assert str(got.value) == message


@settings(max_examples=400)
@given(event_csv(), span_ends)
def test_parse_panel_matches_row_by_row_oracle(text, ends):
    try:
        events, span = oracles.load_events(text, *ends)
    except oracles.OracleFormatError as exc:
        with pytest.raises(DataFormatError) as got:
            rl.parse_panel(io.StringIO(text), ends)
        assert str(got.value) == str(exc)
        return
    except oracles.OracleSpanError as exc:
        with pytest.raises(rl.SpanError) as got:
            rl.parse_panel(io.StringIO(text), ends)
        assert (got.value.start, got.value.end) == (exc.start, exc.end)
        return
    panel = rl.parse_panel(io.StringIO(text), ends)
    start = span[0]
    assert panel.span == span
    assert panel.bank_ids == tuple(bank for bank, _, _ in events)
    assert panel.offsets.tolist() == np.cumsum([0] + [len(e) for _, e, _ in events]).tolist()
    assert panel.event_day.tolist() == [(d - start).days for _, e, _ in events for d, _ in e]
    assert panel.event_state.tolist() == [s for _, e, _ in events for _, s in e]
    assert panel.coverage_end.tolist() == [(c - start).days for _, _, c in events]


@settings(max_examples=200)
@given(event_csv())
def test_infer_span_matches_row_by_row_oracle(text):
    # A span inferred without error is the panel's span, unless a later
    # check rejects a row; then the oracle rejects the text over that span.
    try:
        want = oracles.infer_span(text)
    except oracles.OracleFormatError as exc:
        with pytest.raises(DataFormatError) as got:
            infer_span(io.StringIO(text))
        assert str(got.value) == str(exc)
        return
    try:
        got = infer_span(io.StringIO(text))
    except DataFormatError as exc:
        with pytest.raises(oracles.OracleFormatError) as oracle_exc:
            oracles.parse_events(text, want)
        assert str(oracle_exc.value) == str(exc)
        return
    assert got == want
