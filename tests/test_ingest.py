import contextlib
import csv
import datetime as dt
import io
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import ratinglab as rl
from ratinglab import DataFormatError, ingest

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


def test_parse_rejects_byte_stream():
    stream = io.BytesIO(b"bank_id,date,rating\nb1,2007-01-01,A+\n")
    with pytest.raises(DataFormatError, match=r"^row 1: .*opened in text mode"):
        rl.parse_panel(stream, SPAN)
    assert not stream.closed  # the caller's stream is left open


@pytest.mark.parametrize(
    "raw",
    [
        b"bank_id,date,rating\nb1,2007-01-01,A\nb1,2007-02-01,B\n",
        b"bank_id,date,rating\r\nb1,2007-01-01,A\r\nb1,2007-02-01,B\r\n",
        b"\xef\xbb\xbfbank_id,date,rating\nb1,2007-01-01,A\nb1,2007-02-01,B\n",
        b"bank_id,date,rating\rb1,2007-01-01,A\rb1,2007-02-01,B",
    ],
    ids=["LF", "CRLF", "BOM", "lone-CR"],
)
def test_text_stream_reads_like_the_same_characters_in_a_file(tmp_path, raw):
    path = tmp_path / "panel.csv"
    path.write_bytes(raw)
    panel = rl.parse_panel(path, SPAN)
    assert panel.event_state.tolist() == [13, 10]
    # the characters a file's reader yields: a leading byte order mark is skipped
    assert rl.parse_panel(io.StringIO(raw.decode("utf-8-sig")), SPAN) == panel


def test_written_panel_is_read_without_the_csv_module(tmp_path, monkeypatch):
    # ids of 6 to 25 bytes, every third bank withdrawn
    day = [SPAN[0] + dt.timedelta(days=d) for d in range(1300)]
    specs = [
        (f"bank {k:0{k % 20 + 1}d}", [(day[40 * k], k % 15), (day[40 * k + 9], (k + 9) % 15)],
         day[40 * k + 20] if k % 3 == 0 else None)
        for k in range(30)
    ]
    panel = make_panel(SPAN, specs)
    path = tmp_path / "panel.csv"
    rl.write_panel_csv(panel, path)
    assert b"WR\r\n" in path.read_bytes()  # CRLF line ends and withdrawals

    def refuse(*args, **kwargs):
        raise AssertionError("the csv module read a panel that write_panel_csv wrote")

    monkeypatch.setattr(ingest.csv, "reader", refuse)
    assert rl.parse_panel(path, panel.span) == panel
    text = path.read_text(encoding="utf-8")
    assert rl.parse_panel(io.StringIO(text), (None, None)).bank_ids == panel.bank_ids


def test_fields_of_any_length_are_ranked_in_byte_order():
    # Ids sharing their last word, their first ("x" * 8 and "x" * 9) or every
    # full word ("x" * 16 and "x" * 17), ids that are a prefix of another,
    # and one not ASCII.
    ids = [
        "a-0001-suffix-id", "b-0001-suffix-id", "!xxxxxxx!", "Bxxxxxxx", "x" * 9, "y" * 9,
        "x" * 8, "x" * 16, "x" * 17, "b\u00e4nk-0000-\u00e9",
    ]
    rows = [(b, f"2007-0{k % 9 + 1}-01", "AB"[k % 2]) for k, b in enumerate(ids)]
    text = H + "".join(f"{b},{d},{lab}\n" for b, d, lab in rows)
    _, columns, _, _ = ingest._scan(text.encode() + bytes(8))
    for (texts, codes), want in zip(columns, zip(*rows)):
        assert [texts[c] for c in codes] == list(want)
        assert texts == sorted(set(want))
    assert parse(text).bank_ids == tuple(sorted(ids))


@pytest.mark.parametrize("reverse", [0, 1])
def test_fields_sharing_a_key_are_told_apart(reverse):
    # Ids that agree in their last 8-byte word, or whose words sum alike
    # ("!xxxxxxx!" and "Bxxxxxxx": 0x21 + 0x21 = 0x42), would share a key
    # under a hash of their words; ranked word by word, each keeps its own
    # row and takes its id-order place whichever of them is read first.
    ids = ["a-0001-suffix-id", "b-0001-suffix-id", "!xxxxxxx!", "Bxxxxxxx", "x" * 9, "y" * 9]
    rows = [(b, D(2007, k + 1, 1)) for k, b in enumerate(ids)]
    p = parse(H + "".join(f"{b},{d},B\n" for b, d in (rows[::-1] if reverse else rows)))
    assert p.bank_ids == tuple(sorted(ids))
    dates = {b: events[0][0] for b, (events, _) in zip(p.bank_ids, raw_histories(p))}
    assert dates == dict(rows)


def test_rank_is_the_unique_inverse_on_both_branches(monkeypatch):
    # A table of the key range where it is shorter than the keys, a sort
    # where it is longer: the dense ranks that np.unique gives.
    rng = np.random.default_rng(5)
    small = np.uint64(2**63) + rng.integers(10, 60, 200).astype(np.uint64)  # as a word's keys
    large = rng.choice(rng.integers(0, 2**62, 50), 200)  # as a pair's
    uniques = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: uniques.append(1) or unique(*a, **k))
    for key, sorts in ((small, False), (large, True)):
        got = ingest._rank(key)
        assert bool(uniques) == sorts
        assert got.tolist() == unique(key, return_inverse=True)[1].tolist()


def test_date_keys_tell_near_iso_spellings_apart():
    # Month 13 or day 32 of one month would share a digit key with month 0 or
    # day 0 of the next; each record still reads its own text.
    dates = ["2008-01-32", "2008-02-00", "2008-13-01", "2009-00-01", "2008-12-31", "2009-01-01", "0000-00-00"]
    text = H + "".join(f"b1,{d},B\n" for d in dates)
    texts, codes = ingest._scan(text.encode() + bytes(8))[1][1]
    assert [texts[c] for c in codes] == dates


def test_parse_memory_is_a_small_multiple_of_the_file(tmp_path):
    # Reading, interning and collapsing a simulated panel of over 20,000
    # rows holds at most ten times the file's bytes at once (the csv.reader
    # loop that the byte scan replaced held six to seven times).
    scenario = rl.scenario_from_mapping({
        "kind": "excited", "n_banks": "3000", "start": "1990-01-01", "end": "2014-01-01",
        "seed": "1", "rate_scale": "0.25", "gamma": "5", "memory_days": "90",
    })
    path = tmp_path / "panel.csv"
    rl.write_panel_csv(rl.simulate(scenario), path)
    assert path.read_bytes().count(b"\n") > 20_000
    rl.parse_panel(path, (None, None))  # first-call allocations (imports) happen here
    tracemalloc.start()
    try:
        rl.parse_panel(path, (None, None))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * path.stat().st_size


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


def test_row_order_sorts_by_group_then_row_on_both_branches(monkeypatch):
    # The value sort of group * rows + row where those keys fit in int64,
    # the stable argsort where n_groups says they might not: the same order.
    group = np.random.default_rng(3).integers(0, 7, 200)
    want = np.argsort(group, kind="stable").tolist()
    argsorts = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: argsorts.append(1) or argsort(*a, **k))
    assert ingest._row_order(group, 7).tolist() == want
    assert not argsorts
    assert ingest._row_order(group, 2**62).tolist() == want
    assert argsorts


def test_shuffled_rows_name_the_row_a_row_by_row_reader_would():
    # b2 conflicts on one day, b1 is withdrawn twice on one day; whichever bank
    # comes first, the error names the row that the oracle names.
    rows = [
        "b1,2007-01-01,B", "b1,2007-03-01,C", "b1,2007-05-01,WR", "b1,2007-05-01,WR",
        "b2,2007-02-01,A", "b2,2007-04-01,B", "b2,2007-04-01,C", "b2,2007-04-01,B",
        "b3,2007-01-01,C", "b3,2007-01-01,C",
    ]
    rng = random.Random(11)
    messages = set()
    for _ in range(40):
        rng.shuffle(rows)
        text = H + "\n".join(rows) + "\n"
        with pytest.raises(oracles.OracleFormatError) as want:
            oracles.load_events(text, *SPAN)
        with pytest.raises(DataFormatError) as got:
            parse(text)
        assert str(got.value) == str(want.value)
        messages.add(str(got.value))
    assert any("'b1'" in m for m in messages) and any("'b2'" in m for m in messages)


# -- differential check against the row-by-row reader ----------------------

DAY0 = D(2008, 1, 1)
GOOD_DATES = [DAY0 + dt.timedelta(days=k) for k in range(0, 42, 3)]
# "\udce9" is byte 0xE9 read with surrogateescape; "\ud800" can only come in a text stream
ODD_DATES = (
    "2008-01", "NaT", "0000-01-01", "", "  ", "2008-02-30", "01/02/2008", "2008-1-4",
    "2008-01-0\udce9",
)
# Ten-byte and near-ISO spellings, each once among plain dates: the byte scan
# keys a column by its digits only when every field reads YYYY-MM-DD.
DATE_SHAPES = (
    " 2008-01-04", "2008-1-04", "2008-02-30", "0000-01-01", "2008-0a-04", "2008-01-0:",
    "2008/01/04", "2008-13-01", "2008-01-32",
)
VALID_LABELS = ("B", "B+", "C", "A-", "WR")
ODD_LABELS = ("Z+", "", "wr", "b", "B\udce9", "\ud800")
# ids of 1 to 8 bytes (two not ASCII) and of 9 to 20 bytes, two sharing
# their first and last 8 bytes
BANKS = (
    "b1", "b2", "b3", "b", "bank-008", "b\u00e4nk", "\u00e9", "issuer-0001-ltd", "issuer-0002-0001-ltd",
    "bank-0009", "bank-0000000-016",
)
ODD_BANKS = ("b\udce9",)


def date_texts(day):
    """Spellings of one day: ``YYYY-MM-DD``, bare or padded, and the ISO
    basic and week forms, which are not dates."""
    y, w, d = day.isocalendar()
    return st.sampled_from(
        [day.isoformat()] * 3 + [day.strftime("%Y%m%d"), f"{y}-W{w:02d}-{d}", f" {day} "]
    )


def pad(text):
    return st.sampled_from([text, text, f" {text}", f"{text} "])


@st.composite
def valid_events(draw):
    """Events of a valid panel plus duplicates, re-affirmations and withdrawals,
    as shuffled ``(bank, day, label)`` rows."""
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
    return draw(st.permutations(rows))


@st.composite
def valid_panel_rows(draw):
    """Rows of a valid panel, each field perhaps padded or spelled otherwise."""
    return [
        ",".join([draw(pad(b)), draw(date_texts(d)), draw(pad(lab))]) for b, d, lab in draw(valid_events())
    ]


@st.composite
def plain_panel_rows(draw):
    """Rows of a valid panel with every field plain, but perhaps one date of another shape."""
    rows = draw(valid_events())
    odd = draw(st.integers(0, 2 * len(rows)))
    return [
        ",".join([b, draw(st.sampled_from(DATE_SHAPES)) if k == odd else d.isoformat(), lab])
        for k, (b, d, lab) in enumerate(rows)
    ]


BIG = "A" * 200_000  # over the csv module's field size limit of 131,072


@st.composite
def messy_rows(draw):
    """Rows mixing bad labels, odd dates, bytes that are not UTF-8, blank lines,
    wrong field counts and over-long fields."""
    field_row = st.builds(
        lambda b, d, lab: ",".join([b, d, lab]),
        st.sampled_from(BANKS * 3 + ODD_BANKS).flatmap(pad),
        st.one_of(st.sampled_from(GOOD_DATES).flatmap(date_texts), st.sampled_from(ODD_DATES)),
        st.sampled_from(VALID_LABELS * 2 + ODD_LABELS).flatmap(pad),
    )
    odd_row = st.sampled_from(
        ["", "", "", "b1,2008-01-01", "b1,2008-01-01,B,x", "b1", '""', f"b1,2008-01-01,{BIG}"]
    )
    return draw(st.lists(st.one_of([field_row] * 8 + [odd_row]), max_size=30))


@st.composite
def event_csv(draw):
    header = draw(st.sampled_from(["bank_id,date,rating"] * 6 + [" bank_id, date ,rating", "bank,date,rating", None]))
    if header is None:
        return ""
    rows = draw(st.one_of(valid_panel_rows(), plain_panel_rows(), messy_rows()))
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))  # CRLF is what write_panel_csv writes
    return end.join([header] + rows) + draw(st.sampled_from([end, "", end + end]))


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
        # an inferred span checks rows in the same order as a given one
        (H + "b1,2007-01-01,Z+\nb1,NaT,B\n", (None, None), "row 2: unknown rating label 'Z+'"),
        (H + "b1,2007-01-01,Z+\n\nb1,2007\n", (None, D(2008, 1, 1)), "row 2: unknown rating label 'Z+'"),
        # the row that stops the read, short or one the csv module rejects,
        # is checked after the rows before it
        (H + "b1,2007-01-01,ZZ\nb1,2007-02-01\n", SPAN, "row 2: unknown rating label 'ZZ'"),
        pytest.param(H + f"b1,2007-01-01,ZZ\nb1,2007-02-01,{BIG}\n", SPAN,
                     "row 2: unknown rating label 'ZZ'", id="over-long-row-3"),
        pytest.param(H + f"b1,2007-01-01,ZZ\nb1,2007-02-01,{BIG}\n", (None, None),
                     "row 2: unknown rating label 'ZZ'", id="over-long-row-3-inferred-span"),
        # UTF-8 first within a row, bank id first among the fields; bytes
        # that are not UTF-8 read as lone surrogates ("\udce9" is 0xE9)
        (H + "b1,2007-01-01,ZZ\nb1,2007-02-0\udce9,B\n", SPAN, "row 2: unknown rating label 'ZZ'"),
        (H + "b1,2007-01-01,B\nb1,2007-02-0\udce9,ZZ\n", SPAN, "row 3: date is not UTF-8 text (byte 0xe9)"),
        (H + "b\udce9,2007-01-01,B\udcff\n", SPAN, "row 2: bank_id is not UTF-8 text (byte 0xe9)"),
        (H + "b1,2007-01-01,\ud800\n", SPAN, "row 2: rating is not UTF-8 text (code point U+D800)"),
        # per bank: the bank seen first, not the first id nor the first bad row's bank
        (H + "b2,2007-01-01,B\na1,2007-01-01,B\na1,2007-01-01,C\nb2,2007-01-01,C\n", SPAN,
         "row 5: bank 'b2': conflicting labels 'B' and 'C' on 2007-01-01"),
    ],
)
def test_error_precedence(text, ends, message):
    with pytest.raises(DataFormatError) as got:
        rl.parse_panel(io.StringIO(text), ends)
    assert str(got.value) == message


@pytest.mark.parametrize(
    "text, row",
    [
        (f"bank_id,date,{BIG}\n", 1),
        (H + f"b1,2007-01-01,{BIG}\n", 2),
        # rows count records, blank lines included
        (H + f"b1,2007-01-01,B\n\n\nb1,2008-01-01,{BIG}\n", 5),
    ],
    ids=["header", "row-2", "after-two-blank-lines"],
)
def test_csv_error_names_its_row(text, row):
    with pytest.raises(DataFormatError, match=f"^row {row}: field larger than field limit"):
        parse(text)


@settings(max_examples=600)
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


@settings(max_examples=450)
@given(event_csv())
def test_byte_scan_reads_what_the_csv_module_reads(text):
    data = text.encode("utf-8", "surrogatepass")
    lines = data.replace(b"\r\n", b"\n").split(b"\n")
    misread = b'"' in data or b"\0" in data or b"\r" in b"".join(lines)
    scanned = ingest._scan(data + bytes(8))
    # the csv module reads a text with a quote, a NUL, a lone CR or an over-long line
    assert (scanned is None) == (misread or max(map(len, lines)) > csv.field_size_limit())
    if scanned is None:
        return
    header, columns, blanks, stop = ingest._read_records(io.StringIO(text, newline=""))
    assert (scanned[0], scanned[2], scanned[3]) == (header, blanks, stop)
    # The two paths may number a column's texts differently: each record
    # reads the same text, and each path lists every distinct text once.
    for (texts, codes), (want_texts, want_codes) in zip(scanned[1], columns):
        assert [texts[c] for c in codes] == [want_texts[c] for c in want_codes]
        assert len(set(texts)) == len(texts) == len(want_texts)
        assert texts == sorted(texts)


@settings(max_examples=300)
@given(event_csv())
def test_infer_span_matches_row_by_row_oracle(text):
    try:
        _, want = oracles.load_events(text)
    except oracles.OracleFormatError as exc:
        with pytest.raises(DataFormatError) as got:
            infer_span(io.StringIO(text))
        assert str(got.value) == str(exc)
        return
    assert infer_span(io.StringIO(text)) == want


def _outcome(text, span):
    try:
        return rl.parse_panel(io.StringIO(text), span)
    except DataFormatError as exc:
        return str(exc)


@settings(max_examples=450)
@given(event_csv())
def test_inferred_span_checks_like_the_given_span(text):
    # Inferring both ends changes no outcome: the same error, or the same
    # panel, as giving the earliest and latest valid date.
    days = []
    with contextlib.suppress(csv.Error):  # a rejected record ends the read
        for row in csv.reader(io.StringIO(text, newline="")):
            if len(row) == 3:
                try:
                    days.append(oracles._iso_date(row[1].strip()))
                except ValueError:
                    pass
    if not days:
        return
    assert _outcome(text, (None, None)) == _outcome(text, (min(days), max(days)))
