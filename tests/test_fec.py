import io
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import weakref
from array import array
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from campaigntrends import (
    DateRange,
    DonationRecord,
    IngestCounters,
    InvalidValueError,
    MetricsAccumulator,
    daily_donation_metrics,
    fec,
    load_committee_map,
    normalize_donor_name,
)
from campaigntrends.cli import main
from campaigntrends.exceptions import CampaignTrendsError
from campaigntrends.fec import _range_bounds, accumulate_fec_file, accumulate_fec_path, parse_fec_file, zip5

D1 = date(2019, 6, 1)
D2 = date(2019, 6, 2)
D3 = date(2019, 6, 3)

TABLE = {"C001": "ALPHA", "C002": "BRAVO"}


def parse_lines(lines, table=TABLE):
    counters = IngestCounters()
    records = list(parse_fec_file(lines, table, counters))
    return records, counters


def text_lines(data):
    """``data`` as text mode reads a file: UTF-8 with replacement, a BOM skipped, universal newlines."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", errors="replace")


def kernel_key(name, zip_):
    """The donor key ``accumulate_fec_file`` interns for one line holding ``name`` and ``zip_``.

    Each field is bytes, or text written as UTF-8 (a lone surrogate as invalid UTF-8).
    """
    name, zip_ = (f.encode("utf-8", "surrogatepass") if isinstance(f, str) else f for f in (name, zip_))
    acc = MetricsAccumulator("ALPHA")
    accumulate_fec_file([b"C001|%b|%b|06012019|10" % (name, zip_)], TABLE, {"ALPHA": acc}, IngestCounters())
    (key,) = acc._donor_ids
    return key


# Text that fits in one field: no field separator or line end.
FIELD_TEXT = st.text().map(lambda text: text.translate(dict.fromkeys(map(ord, "|\r\n"))))


class TestNormalizeDonorName:
    def test_strips_punctuation_and_uppercases(self):
        assert normalize_donor_name("Smith, John Q.") == "SMITH JOHN Q"

    def test_collapses_whitespace(self):
        assert normalize_donor_name("  o'brien,   mary ") == "OBRIEN MARY"

    def test_empty_stays_empty(self):
        assert normalize_donor_name("") == ""


class TestZip5:
    def test_nine_digit_zip_truncates(self):
        assert zip5("229031234") == "22903"

    def test_hyphenated_zip(self):
        assert zip5("22903-1234") == "22903"

    def test_short_zip_becomes_sentinel(self):
        assert zip5("2290") == "00000"
        assert zip5("") == "00000"


class TestFastPaths:
    """The kernel's ASCII name translate and 5-digit zip head against the regex rules."""

    @settings(max_examples=300, deadline=None)
    @given(FIELD_TEXT)
    def test_name_key_matches_normalize_donor_name(self, raw):
        assert kernel_key(raw, "22903") == f"{normalize_donor_name(raw)}|22903".encode()

    @settings(max_examples=300, deadline=None)
    @given(FIELD_TEXT)
    def test_zip_key_matches_zip5(self, raw):
        assert kernel_key("", raw) == f"|{zip5(raw)}".encode()

    @pytest.mark.parametrize("raw", [
        "Smith, John", "SMITH JOHN", "  o'brien,\tmary ", "a\x1cb", "x_y", "José Núñez", "straße",
    ])
    def test_name_key_examples(self, raw):
        assert kernel_key(raw, "22903") == f"{normalize_donor_name(raw)}|22903".encode()

    @pytest.mark.parametrize("raw, expected", [
        ("123", "00000"),
        ("1234", "00000"),
        ("22903-1234", "22903"),
        ("229031234", "22903"),
        ("\uff12\uff12\uff19\uff10\uff13", "\uff12\uff12\uff19\uff10\uff13"),  # full-width digits
        ("2290\u0663-1", "2290\u0663"),  # an Arabic-Indic digit in fifth place
    ])
    def test_zip_key_examples(self, raw, expected):
        assert zip5(raw) == expected
        assert kernel_key("", raw) == f"|{expected}".encode()


class TestParseFecFile:
    def test_well_formed_line(self):
        line = "C001|SMITH, JOHN|229031234|06152019|50"
        records, counters = parse_lines([line])
        assert counters.as_dict() == {
            "lines_total": 1, "parsed": 1, "malformed": 0, "unmapped": 0,
        }
        rec = records[0]
        assert rec.candidate_id == "ALPHA"
        assert rec.donor_name_raw == "SMITH, JOHN"
        assert rec.zip == "229031234"
        assert rec.date == date(2019, 6, 15)
        assert rec.amount_cents == 5000

    def test_short_line_counted_malformed(self):
        records, counters = parse_lines(["C001|SMITH|22903", "C001|SMITH|22903|06152019"])
        assert records == []
        assert counters.malformed == 2

    def test_unmapped_committee_counted(self):
        records, counters = parse_lines(["C999|SMITH, JOHN|22903|06152019|50"])
        assert records == []
        assert counters.unmapped == 1

    def test_bad_date_and_amount_are_malformed(self):
        lines = [
            "C001|A|22903|13452019|50",
            "C001|B|22903|06152019|fifty",
            "C001|C|22903|06152010|50",  # outside the plausible window
            "C001|D|22903|\u0660\u0666\u0661\u0665\u0662\u0660\u0661\u0669|50",  # Arabic-Indic digits
        ]
        records, counters = parse_lines(lines)
        assert records == []
        assert counters.malformed == 4

    def test_never_aborts_mid_file(self):
        lines = [
            "garbage",
            "C001|SMITH, JOHN|22903|06152019|50",
            "C002|DOE, JANE|10001|06162019|75",
        ]
        records, counters = parse_lines(lines)
        assert len(records) == 2
        assert counters.malformed == 1

    def test_negative_amount_preserved_at_parse(self):
        records, _ = parse_lines(["C001|SMITH, JOHN|22903|06152019|-50"])
        assert records[0].amount_cents == -5000

    def test_decimal_dollars(self):
        records, _ = parse_lines(["C001|SMITH, JOHN|22903|06152019|123.45"])
        assert records[0].amount_cents == 12345

    def test_fields_past_the_fifth_are_ignored(self):
        line = "C001|SMITH, JOHN|22903|06152019|50|EXTRA"
        records, counters = parse_lines([line])
        assert counters.parsed == 1
        assert (records[0].donor_name_raw, records[0].zip) == ("SMITH, JOHN", "22903")
        assert (records[0].date, records[0].amount_cents) == (date(2019, 6, 15), 5000)
        kernel_counters = IngestCounters()
        acc = MetricsAccumulator("ALPHA")
        accumulate_fec_file([line.encode()], TABLE, {"ALPHA": acc}, kernel_counters)
        assert kernel_counters == counters
        metrics = acc.finalize(DateRange(date(2019, 6, 15), date(2019, 6, 17)))
        assert list(metrics.donors.values) == [1.0, 0.0, 0.0]
        assert list(metrics.amount.values) == [50.0, 0.0, 0.0]

    @pytest.mark.parametrize("amount", [
        "inf", "-inf", "Infinity", "1e400", "-1e400", "nan", "1000000000.01", "-1000000000.01",
        "1_000", "\u0661\u0665",  # float() reads both: 1000.0 and 15.0
    ])
    def test_non_finite_or_huge_amount_is_malformed(self, amount):
        records, counters = parse_lines([f"C001|SMITH|22903|06152019|{amount}"])
        assert records == []
        assert counters.malformed == 1

    @pytest.mark.parametrize("amount, cents", [("1000000000", 100_000_000_000),
                                               ("-1e9", -100_000_000_000)])
    def test_amount_at_bound_is_parsed(self, amount, cents):
        assert fec.MAX_AMOUNT_DOLLARS == 1e9
        records, counters = parse_lines([f"C001|SMITH|22903|06152019|{amount}"])
        assert counters.parsed == 1
        assert records[0].amount_cents == cents


class TestCommitteeMap:
    def test_round_trip(self):
        table = load_committee_map(io.StringIO("committee_id,candidate_id\nC001,ALPHA\n"))
        assert table == {"C001": "ALPHA"}

    def test_bad_header_rejected(self):
        with pytest.raises(InvalidValueError):
            load_committee_map(io.StringIO("cmte,cand\nC001,ALPHA\n"))

    def test_empty_rejected(self):
        with pytest.raises(InvalidValueError):
            load_committee_map(io.StringIO(""))

    def test_repeated_row_allowed(self):
        table = load_committee_map(io.StringIO("committee_id,candidate_id\nC1,ALPHA\nC2,BRAVO\n C1 ,ALPHA\n"))
        assert table == {"C1": "ALPHA", "C2": "BRAVO"}


def rec(candidate, donor, day, cents, zip_="22903"):
    return DonationRecord(candidate, donor, zip_, day, cents)


FIXTURE = [
    rec("X", "A", D1, 5000),
    rec("X", "A", D2, 2500),
    rec("Y", "B", D1, 10000),
    rec("Y", "A", D2, 1000),
]
FIXTURE_RANGE = DateRange(D1, D3)


class TestDailyDonationMetrics:
    def test_two_candidate_fixture(self):
        mx = daily_donation_metrics(FIXTURE, "X", FIXTURE_RANGE)
        assert list(mx.donors.values) == [1.0, 1.0, 0.0]
        assert list(mx.new_donors.values) == [1.0, 0.0, 0.0]
        assert list(mx.amount.values) == [50.0, 25.0, 0.0]
        assert list(mx.new_donor_amount.values) == [50.0, 0.0, 0.0]

    def test_cross_candidate_donor_is_new_again(self):
        # A already gave to X, but their first gift to Y still counts as new.
        my = daily_donation_metrics(FIXTURE, "Y", FIXTURE_RANGE)
        assert list(my.donors.values) == [1.0, 1.0, 0.0]
        assert list(my.new_donors.values) == [1.0, 1.0, 0.0]
        assert list(my.amount.values) == [100.0, 10.0, 0.0]
        assert list(my.new_donor_amount.values) == [100.0, 10.0, 0.0]

    def test_same_day_double_gift_is_one_donor(self):
        records = [rec("X", "A", D1, 1000), rec("X", "A", D1, 1500)]
        m = daily_donation_metrics(records, "X", FIXTURE_RANGE)
        assert m.donors.values[0] == 1.0
        assert m.amount.values[0] == 25.0

    def test_refund_only_donor_is_excluded(self):
        records = [rec("X", "A", D1, -5000)]
        m = daily_donation_metrics(records, "X", FIXTURE_RANGE)
        assert not m.donors.values.any()
        assert not m.amount.values.any()

    def test_lookback_before_range(self):
        # first gift lands before the window, so nothing inside it is "new"
        records = [
            rec("X", "A", D1 - timedelta(days=30), 1000),
            rec("X", "A", D2, 2000),
        ]
        m = daily_donation_metrics(records, "X", FIXTURE_RANGE)
        assert list(m.donors.values) == [0.0, 1.0, 0.0]
        assert list(m.new_donors.values) == [0.0, 0.0, 0.0]
        assert list(m.new_donor_amount.values) == [0.0, 0.0, 0.0]

    def test_dates_outside_the_parser_window_count_on_their_own_day(self):
        # add() takes any date; the one before 2017 must not wrap onto the range that ends 2022-01-02.
        gifts = {date(2016, 12, 31): ("A", 1234), date(2022, 1, 1): ("B", 5678)}
        records = [rec("X", donor, day, cents) for day, (donor, cents) in gifts.items()]
        for day, (donor, cents) in gifts.items():
            around = DateRange(day - timedelta(days=1), day + timedelta(days=1))
            m = daily_donation_metrics(records, "X", around)
            assert list(m.donors.values) == list(m.new_donors.values) == [0.0, 1.0, 0.0]
            assert list(m.amount.values) == list(m.new_donor_amount.values) == [0.0, cents / 100, 0.0]

    def test_donor_identity_uses_zip5(self):
        records = [
            rec("X", "Smith, John", D1, 1000, zip_="22903-1234"),
            rec("X", "SMITH JOHN", D2, 1000, zip_="229035678"),
        ]
        m = daily_donation_metrics(records, "X", FIXTURE_RANGE)
        assert list(m.new_donors.values) == [1.0, 0.0, 0.0]

    def test_empty_stream_gives_zero_series(self):
        m = daily_donation_metrics([], "X", FIXTURE_RANGE)
        assert not m.donors.values.any()
        assert len(m.donors) == 3

    def test_stream_order_invariance(self):
        base = daily_donation_metrics(FIXTURE, "X", FIXTURE_RANGE)
        shuffled = list(FIXTURE)
        rng = random.Random(9)
        for _ in range(10):
            rng.shuffle(shuffled)
            again = daily_donation_metrics(shuffled, "X", FIXTURE_RANGE)
            for label, series in base.series().items():
                assert np.array_equal(series.values, again.series()[label].values)

    def test_kernel_matches_record_path(self):
        lines = [
            "C001|Smith, John|22903-1234|06012019|50",
            "C001|SMITH JOHN|229035678|06022019|25",
            "C002|Doe, Jane|10001|06012019|100",
            "C001|Doe, Jane|10001|05012019|10",
            "C001|Doe, Jane|10001|06032019|-10",
            "C001|bad line",
            "C009|Nobody|10001|06012019|5",
        ]
        counters = IngestCounters()
        accumulators = {c: MetricsAccumulator(c) for c in ("ALPHA", "BRAVO")}
        accumulate_fec_file(["\n".join(lines).encode()], TABLE, accumulators, counters)
        records, record_counters = parse_lines(lines)
        assert counters == record_counters
        for candidate, acc in accumulators.items():
            kernel = acc.finalize(FIXTURE_RANGE)
            single = daily_donation_metrics(records, candidate, FIXTURE_RANGE)
            for label, series in single.series().items():
                assert np.array_equal(series.values, kernel.series()[label].values)


@st.composite
def record_streams(draw):
    n = draw(st.integers(1, 40))
    records = []
    for _ in range(n):
        donor = draw(st.sampled_from(["A", "B", "C", "D", "E"]))
        day = D1 + timedelta(days=draw(st.integers(-5, 9)))
        cents = draw(st.integers(-2000, 20000))
        records.append(rec("X", donor, day, cents))
    return records


class TestMetricInvariants:
    @settings(max_examples=60, deadline=None)
    @given(records=record_streams())
    def test_daily_bounds_and_cumulative_counts(self, records):
        range_ = DateRange(D1, D1 + timedelta(days=9))
        m = daily_donation_metrics(records, "X", range_)
        assert np.all(m.new_donors.values <= m.donors.values)
        assert np.all(m.new_donor_amount.values <= m.amount.values + 1e-9)
        assert np.all(m.new_donors.values >= 0)
        # total new donors equals distinct keys whose first gift lands in range
        first: dict = {}
        for r in records:
            if r.amount_cents <= 0:
                continue
            key = (normalize_donor_name(r.donor_name_raw), zip5(r.zip))
            if key not in first or r.date < first[key]:
                first[key] = r.date
        expected = sum(1 for day in first.values() if day in range_)
        assert m.new_donors.values.sum() == expected

    @settings(max_examples=30, deadline=None)
    @given(records=record_streams())
    def test_distinct_donor_total_without_lookback(self, records):
        # when every record lands inside the range, total new donors equals
        # the number of distinct donor keys with any positive gift
        range_ = DateRange(D1 - timedelta(days=5), D1 + timedelta(days=9))
        m = daily_donation_metrics(records, "X", range_)
        keys = {
            (normalize_donor_name(r.donor_name_raw), zip5(r.zip))
            for r in records if r.amount_cents > 0
        }
        assert m.new_donors.values.sum() == len(keys)


NAME_SPELLINGS = [
    "Smith, John", "SMITH JOHN", " smith,  john. ", "Doe, Jane", "DOE JANE",
    "José Núñez", "JOSÉ NÚÑEZ", "straße", "STRASSE", "ＳＭＩＴＨ", "",
]
ZIP_SPELLINGS = [
    "22903", "22903-1234", "229035678", " 22903", "123", "1234", "",
    "２２９０３", "٢٢٩٠٣-0001", "10001",
]
LINE_TEXT = st.text(st.characters(blacklist_characters="|\r\n"), max_size=8)


@st.composite
def fec_line_streams(draw):
    """Contribution lines for two mapped committees and one unmapped one."""
    lines = []
    for _ in range(draw(st.integers(0, 30))):
        committee = draw(st.sampled_from(["C001", "C001", "C002", "C009"]))
        name = draw(st.sampled_from(NAME_SPELLINGS) | LINE_TEXT)
        zip_ = draw(st.sampled_from(ZIP_SPELLINGS) | LINE_TEXT)
        day = D1 + timedelta(days=draw(st.integers(-20, 12)))
        cents = draw(st.sampled_from([0, -2500]) | st.integers(1, 50_000))
        lines.append(f"{committee}|{name}|{zip_}|{day:%m%d%Y}|{cents / 100:.2f}")
    return lines


def reference_metrics(records, candidate, range_):
    """The four series by the former dict-of-dicts accumulation."""
    first_seen: dict = {}
    day_totals: dict = {}
    for r in records:
        if r.candidate_id != candidate or r.amount_cents <= 0:
            continue
        key = (normalize_donor_name(r.donor_name_raw), zip5(r.zip))
        if key not in first_seen or r.date < first_seen[key]:
            first_seen[key] = r.date
        by_donor = day_totals.setdefault(r.date, {})
        by_donor[key] = by_donor.get(key, 0) + r.amount_cents
    out = {label: np.zeros(len(range_)) for label in fec.METRIC_LABELS}
    for day, by_donor in day_totals.items():
        if day not in range_:
            continue
        i = (day - range_.start).days
        fresh = [k for k in by_donor if first_seen[k] == day]
        out["donors"][i] = len(by_donor)
        out["new_donors"][i] = len(fresh)
        out["amount"][i] = sum(by_donor.values()) / 100.0
        out["new_donor_amount"][i] = sum(by_donor[k] for k in fresh) / 100.0
    return out, len(first_seen)


CHUNKS = pytest.mark.parametrize(
    "chunk_rows", [1, 3, fec._CHUNK_ROWS], ids=["chunk1", "chunk3", "chunk_default"])


class TestReferenceEquality:
    RANGE = DateRange(D1, D1 + timedelta(days=9))

    def assert_matches(self, acc, records):
        want, distinct = reference_metrics(records, acc.candidate_id, self.RANGE)
        got = acc.finalize(self.RANGE).series()
        for label, values in want.items():
            assert np.array_equal(got[label].values, values), label
        assert len(acc.first_seen) == distinct

    @CHUNKS
    @settings(max_examples=60, deadline=None)
    @given(lines=fec_line_streams())
    def test_kernel_matches_dict_reference(self, chunk_rows, lines):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fec, "_CHUNK_ROWS", chunk_rows)
            data = "\n".join(lines).encode("utf-8", "surrogatepass")
            counters = IngestCounters()
            accumulators = {c: MetricsAccumulator(c) for c in ("ALPHA", "BRAVO")}
            accumulate_fec_file([data], TABLE, accumulators, counters)
            records, record_counters = parse_lines(text_lines(data))
            assert counters == record_counters
            for acc in accumulators.values():
                self.assert_matches(acc, records)

    @CHUNKS
    @settings(max_examples=30, deadline=None)
    @given(lines=fec_line_streams())
    def test_record_path_matches_dict_reference(self, chunk_rows, lines):
        records, _ = parse_lines(lines)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fec, "_CHUNK_ROWS", chunk_rows)
            acc = MetricsAccumulator("ALPHA")
            for r in records:
                acc.add(r)
            self.assert_matches(acc, records)


# Zip spellings whose digits zip5 keeps as they are: full-width and Arabic-Indic.
WIDE_ZIPS = ["\uff12\uff12\uff19\uff10\uff13-\uff11\uff12", "\u0662\u0662\u0669\u0660\u0663", "2290\uff13"]
DONOR_PAIRS = st.tuples(st.sampled_from(NAME_SPELLINGS) | LINE_TEXT,
                        st.sampled_from(ZIP_SPELLINGS + WIDE_ZIPS) | LINE_TEXT)


def donor_identity(name, zip_):
    return normalize_donor_name(name), zip5(zip_)


class TestReduceWork:
    def test_rows_sorted_grow_linearly_with_distinct_pairs(self, monkeypatch):
        # Re-sorting the whole table every _CHUNK_ROWS rows would sort N**2 / _CHUNK_ROWS rows.
        n = 20_000
        monkeypatch.setattr(fec, "_CHUNK_ROWS", 16)
        sorted_rows = []
        reduce = MetricsAccumulator._reduce

        def counting(acc, **folded):  # the table, the buffer and any folded table
            sorted_rows.append(len(acc._pairs) + len(acc._rows) + len(folded.get("pairs", ())))
            reduce(acc, **folded)

        monkeypatch.setattr(MetricsAccumulator, "_reduce", counting)
        acc = MetricsAccumulator("ALPHA")
        for i in range(n):
            acc.add(DonationRecord("ALPHA", f"donor {i}", "22903", D1, 100))
        metrics = acc.finalize(DateRange(D1, D3))
        assert metrics.donors.values.tolist() == [n, 0, 0]
        assert metrics.amount.values.tolist() == [n, 0, 0]
        assert sum(sorted_rows) <= 8 * n

    @staticmethod
    def record_folds(monkeypatch):
        """Each buffered fold's (rows, pairs before, table bytes before, table bytes after).

        Table bytes are 8 per distinct pair plus 16 per donor of the first-gift tables.
        """
        folds = []
        reduce = MetricsAccumulator._reduce

        def recorded(acc, **folded):
            def held():
                return 8 * len(acc._pairs) + 16 * len(acc._first_day)

            rows, pairs, before = len(acc._rows), len(acc._pairs), held()
            reduce(acc, **folded)
            if rows:
                folds.append((rows, pairs, before, held()))

        monkeypatch.setattr(MetricsAccumulator, "_reduce", recorded)
        return folds

    def test_repeat_donor_stream_folds_before_a_full_chunk(self, monkeypatch):
        # 100 donors giving again and again: from _CHUNK_ROWS / 4 rows on, the buffer holds more than
        # two rows per donor new since the last fold, so it folds there and not at _CHUNK_ROWS.
        folds = self.record_folds(monkeypatch)
        early = fec._CHUNK_ROWS >> 2
        records = [rec("ALPHA", f"DONOR {i % 100}", D1 + timedelta(days=i % 3), 100 + i % 7)
                   for i in range(fec._CHUNK_ROWS)]
        acc = MetricsAccumulator("ALPHA")
        for r in records[:early - 1]:
            acc.add(r)
        assert (len(acc._rows), folds) == (early - 1, [])
        for r in records[early - 1:]:
            acc.add(r)
        assert [rows for rows, *_ in folds] == [early] * 4
        assert len(acc._rows) == 0 and len(acc._pairs) == 300
        want, distinct = reference_metrics(records, "ALPHA", FIXTURE_RANGE)
        got = acc.finalize(FIXTURE_RANGE).series()
        for label, values in want.items():
            assert got[label].values.tolist() == values.tolist(), label
        assert len(acc.first_seen) == distinct == 100

    def test_one_time_donor_stream_folds_at_a_full_chunk(self, monkeypatch):
        # Each row a new donor: a fold would add a pair and 16 bytes of first gift per row, more than
        # the row frees, so the buffer fills to _CHUNK_ROWS as it always has.
        folds = self.record_folds(monkeypatch)
        acc = MetricsAccumulator("ALPHA")
        day = D1.toordinal()
        for i in range(fec._CHUNK_ROWS - 1):
            acc._push(b"DONOR %d|22903" % i, day, 100)
        assert (len(acc._rows), folds) == (fec._CHUNK_ROWS - 1, [])
        acc._push(b"DONOR -1|22903", day, 100)
        assert [rows for rows, *_ in folds] == [fec._CHUNK_ROWS]
        assert len(acc._rows) == 0 and len(acc._pairs) == fec._CHUNK_ROWS

    def test_early_folds_grow_the_tables_no_more_than_the_rows_they_free(self, monkeypatch):
        # Spells of new donors between spells of repeat gifts, so some folds meet as many as one
        # new donor per two rows. An early fold turns each 16-byte row into at most one 8-byte
        # pair, and each new donor, at most one per two rows, into 16 bytes of first gift.
        monkeypatch.setattr(fec, "_CHUNK_ROWS", 2048)
        folds = self.record_folds(monkeypatch)
        rng = np.random.default_rng(0)
        acc, one_fold = MetricsAccumulator("ALPHA"), MetricsAccumulator("ALPHA")
        donors, day = 0, D1.toordinal()
        gifts = []
        for spell in range(80):
            for _ in range(int(rng.integers(100, 600) if spell % 2 else rng.integers(20, 300))):
                if spell % 2:  # one of the first 200 donors again
                    donor = int(rng.integers(0, min(donors, 200)))
                else:
                    donor, donors = donors, donors + 1
                gifts.append((b"%d|22903" % donor, day + int(rng.integers(-1, 2)), int(rng.integers(1, 500))))
        for gift in gifts:
            acc._push(*gift)
        early = [(rows, before, after) for rows, pairs, before, after in folds
                 if rows < max(fec._CHUNK_ROWS, pairs >> 2)]
        assert len(early) >= 20
        assert all(after - before <= 16 * rows for rows, before, after in early)
        monkeypatch.setattr(fec, "_CHUNK_ROWS", 1 << 40)  # so the reference folds once, in finalize
        for gift in gifts:
            one_fold._push(*gift)
        range_ = DateRange(D1 - timedelta(days=5), D1 + timedelta(days=5))
        for label, series in one_fold.finalize(range_).series().items():
            assert acc.finalize(range_).series()[label].values.tobytes() == series.values.tobytes(), label

    def test_rows_sorted_grow_linearly_with_frequent_early_folds(self, monkeypatch):
        # Each donor gives four times over three days, so every buffer holds at most one new donor
        # per four rows and may fold early; the pairs / 4 floor still keeps the sorting linear.
        n = 20_000
        monkeypatch.setattr(fec, "_CHUNK_ROWS", 16)
        folds = self.record_folds(monkeypatch)  # with no folded table, each sorts its rows and pairs
        acc = MetricsAccumulator("ALPHA")
        for i in range(n):
            acc.add(DonationRecord("ALPHA", f"donor {i // 4}", "22903", D1 + timedelta(days=i % 3), 100))
        metrics = acc.finalize(DateRange(D1, D3))
        assert metrics.donors.values.tolist() == [n // 4] * 3  # four straight days cover all three
        assert metrics.amount.values.sum() == n
        assert any(rows < fec._CHUNK_ROWS for rows, *_ in folds)
        assert sum(rows + pairs for rows, pairs, *_ in folds) <= 8 * n

    def test_reduce_transient_memory_is_bounded(self):
        # A fold is one in-place sort and a keep-first mask, after the rows' cents are added to the
        # per-day and first-gift totals: its temporaries stay within three words per row folded.
        table_pairs, buffered = 400_000, 100_000
        rng = np.random.default_rng(0)
        i = rng.permutation(table_pairs + buffered)
        packed = (i // 3) << fec._DAY_BITS | (D1.toordinal() + i % 3)  # all distinct
        acc = MetricsAccumulator("ALPHA")
        acc._donor_ids = {b"%d" % donor: donor for donor in range(len(i) // 3 + 1)}
        acc._rows = array("q", packed[:table_pairs].tobytes())
        acc._row_cents = array("q", np.full(table_pairs, 100, np.int64).tobytes())
        acc._reduce()  # the table the buffered rows fold into
        acc._rows = array("q", packed[table_pairs:].tobytes())
        acc._row_cents = array("q", np.full(buffered, 7, np.int64).tobytes())
        # Each donor's first gift is its pair on D1, in the table or among the buffered rows.
        first_cents = 100 * np.sum(i[:table_pairs] % 3 == 0) + 7 * np.sum(i[table_pairs:] % 3 == 0)
        donors = len(acc._donor_ids)
        del i, packed
        tracemalloc.start()
        try:
            acc._reduce()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * (table_pairs + buffered)
        assert len(acc._pairs) == table_pairs + buffered
        assert np.all(np.diff(acc._pairs) > 0)
        metrics = acc.finalize(DateRange(D1, D3))
        assert metrics.donors.values.sum() == table_pairs + buffered
        assert metrics.amount.values.sum() * 100 == 100 * table_pairs + 7 * buffered
        assert metrics.new_donors.values.tolist() == [donors, 0, 0]
        assert metrics.new_donor_amount.values.tolist() == [first_cents / 100, 0, 0]


class TestFinalize:
    def test_intake_after_finalize_raises(self):
        acc = MetricsAccumulator("X")
        acc.add(rec("X", "A", D1, 100))
        acc.finalize(FIXTURE_RANGE)
        no_tables = [np.empty(0, np.int64)] * 4
        for intake in (
            lambda: acc.add(rec("X", "B", D2, 50)),
            lambda: acc.add(rec("Y", "B", D2, 50)),  # a record it would have skipped
            lambda: acc._push(b"B|22903", D2.toordinal(), 50),
            lambda: acc._fold([b"B|22903"], np.array([D2.toordinal()]), *no_tables[1:]),
            lambda: acc._fold([], *no_tables),
        ):
            with pytest.raises(CampaignTrendsError, match="finalized"):
                intake()
        assert acc.finalize(FIXTURE_RANGE).amount.values.tolist() == [1.0, 0.0, 0.0]

    def test_finalize_releases_the_donor_keys_and_repeats(self):
        tracemalloc.start()
        try:
            acc = MetricsAccumulator("X")
            for i in range(5000):
                acc.add(rec("X", f"DONOR {i}", D1 + timedelta(days=i % 4 - 1), 100 + i))
            first_seen = acc.first_seen  # folds the buffered rows, and intake goes on
            acc.add(rec("X", "DONOR 0", D1 - timedelta(days=2), 7))
            keys = sum(map(sys.getsizeof, acc._donor_ids))
            held = tracemalloc.get_traced_memory()[0]
            metrics = acc.finalize(FIXTURE_RANGE)
            released = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert released >= keys
        assert metrics.new_donors.values.tolist() == [1250, 1250, 1250]
        again = acc.finalize(FIXTURE_RANGE)
        for label, series in metrics.series().items():
            assert again.series()[label].values.tobytes() == series.values.tobytes()
        first_seen[0] = (D1 - timedelta(days=2)).toordinal()
        assert acc.first_seen.tolist() == first_seen.tolist() == acc.first_seen.tolist()


class TestDonorKey:
    def test_shared_exactly_when_identity_agrees_on_spellings(self):
        pairs = [(n, z) for n in NAME_SPELLINGS for z in ZIP_SPELLINGS + WIDE_ZIPS]
        keys = [kernel_key(*pair) for pair in pairs]
        identities = [donor_identity(*pair) for pair in pairs]
        assert len(set(keys)) == len(set(identities))
        for key_a, id_a in zip(keys, identities):
            for key_b, id_b in zip(keys, identities):
                assert (key_a == key_b) == (id_a == id_b)

    @settings(max_examples=300, deadline=None)
    @given(a=DONOR_PAIRS, b=DONOR_PAIRS)
    def test_shared_exactly_when_identity_agrees(self, a, b):
        key = kernel_key(*a)
        assert (key == kernel_key(*b)) == (donor_identity(*a) == donor_identity(*b))
        assert b"\n" not in key
        assert tuple(key.decode().split("|")) == donor_identity(*a)


LINE_ENDS = [b"\n", b"\r\n", b"\r"]
INVALID_UTF8 = [b"\xff", b"\xe2\x82", b"\xc3", b"\xed\xa0\x80", b"\x80\x80"]


@st.composite
def fec_byte_files(draw):
    """A contribution file as bytes.

    CRLF, lone CR and LF line ends, maybe a UTF-8 BOM, invalid UTF-8 cut into
    lines (also inside a character), blank lines, maybe one line longer than
    a third of the file, maybe no final newline, and as few as no lines.
    """
    # LINE_TEXT can draw a lone surrogate, which becomes the invalid UTF-8 b"\xed\xa0\x80".
    lines = [line.encode("utf-8", "surrogatepass") for line in draw(fec_line_streams())]
    if draw(st.booleans()):
        name = draw(st.sampled_from(NAME_SPELLINGS)) * 300
        lines.insert(draw(st.integers(0, len(lines))), f"C001|{name}|22903|06052019|10".encode())
    for i, line in enumerate(lines):
        if draw(st.integers(0, 4)) == 0:
            cut = draw(st.integers(0, len(line)))
            lines[i] = line[:cut] + draw(st.sampled_from(INVALID_UTF8)) + line[cut:]
    return draw(joined(lines))


@st.composite
def joined(draw, lines):
    """``lines`` as one file: LF, CRLF and lone CR ends, blank lines, maybe a BOM, maybe no final line end."""
    out = [b"\xef\xbb\xbf"] if draw(st.booleans()) else []
    for line in lines:
        out.append(line + draw(st.sampled_from(LINE_ENDS)))
        if draw(st.integers(0, 5)) == 0:
            out.append(draw(st.sampled_from(LINE_ENDS)))
    data = b"".join(out)
    return data.rstrip(b"\r\n") if draw(st.booleans()) else data


# Whitespace that str.strip() removes: ASCII, the separators \x1c-\x1f, NEL, no-break and ideographic space.
PADDING = ["", " ", "\t", "\x0b", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u3000"]
# Committee C003 maps to a candidate that has no accumulator.
KERNEL_TABLE = {**TABLE, "C003": "CHARLIE"}


@st.composite
def padded(draw, texts):
    return draw(st.sampled_from(PADDING)) + draw(texts) + draw(st.sampled_from(PADDING))


@st.composite
def kernel_lines(draw):
    """One contribution line as bytes, its fields padded, misspelt, short or holding invalid UTF-8."""
    day = D1 + timedelta(days=draw(st.integers(-3, 12)))
    fields = [
        draw(padded(st.sampled_from(["C001", "C002", "C003", "C009", "C\u00d801"]))),
        draw(st.sampled_from(NAME_SPELLINGS) | LINE_TEXT),
        draw(st.sampled_from(ZIP_SPELLINGS + WIDE_ZIPS) | LINE_TEXT),
        draw(padded(st.sampled_from([f"{day:%m%d%Y}", "0601_2019", "06012O19", "\u0660\u06616012019"]))),
        draw(padded(st.sampled_from(["50", "12.34", "-25", "0", "1_000", "\u0661\u0665", "nan", "1e400"])
                    | st.integers(1, 9999).map(str))),
    ]
    if draw(st.integers(0, 3)) == 0:
        fields.append(draw(LINE_TEXT))
    fields = [field.encode("utf-8", "surrogatepass") for field in fields]
    if draw(st.integers(0, 2)) == 0:
        at = draw(st.integers(0, len(fields) - 1))
        cut = draw(st.integers(0, len(fields[at])))
        fields[at] = fields[at][:cut] + draw(st.sampled_from(INVALID_UTF8)) + fields[at][cut:]
    if draw(st.integers(0, 5)) == 0:
        fields = fields[: draw(st.integers(1, 4))]
    return b"|".join(fields)


def kernel_byte_files():
    """A contribution file of ``kernel_lines``."""
    return st.lists(kernel_lines(), max_size=12).flatmap(joined)


class TestByteKernel:
    RANGE = DateRange(D1, D1 + timedelta(days=9))

    @settings(max_examples=150, deadline=None)
    @given(data=kernel_byte_files(), block_bytes=st.integers(1, 8), by_position=st.booleans())
    def test_kernel_matches_str_reference(self, data, block_bytes, by_position):
        # Blocks of a few bytes make lines, CRLF pairs and the BOM straddle reads.
        counters = IngestCounters()
        accumulators = {c: MetricsAccumulator(c) for c in ("ALPHA", "BRAVO")}
        with tempfile.TemporaryFile() as raw, pytest.MonkeyPatch.context() as patch:
            patch.setattr(fec, "_BLOCK_BYTES", block_bytes)
            raw.write(data)
            raw.seek(0)
            blocks = fec._range_blocks(raw, 0, len(data) if by_position else None)
            accumulate_fec_file(blocks, KERNEL_TABLE, accumulators, counters)
        records, want = parse_lines(text_lines(data), KERNEL_TABLE)
        assert counters == want
        for candidate, acc in accumulators.items():
            single = daily_donation_metrics(records, candidate, self.RANGE)
            assert len(acc.first_seen) == reference_metrics(records, candidate, self.RANGE)[1]
            for label, series in single.series().items():
                assert np.array_equal(acc.finalize(self.RANGE).series()[label].values, series.values), label

    @settings(max_examples=300, deadline=None)
    @given(name=st.binary(max_size=12) | LINE_TEXT.map(lambda t: t.encode("utf-8", "surrogatepass")),
           zip_=st.binary(max_size=8) | st.sampled_from(ZIP_SPELLINGS + WIDE_ZIPS).map(str.encode))
    def test_donor_key_is_donor_key_of_the_decoded_fields(self, name, zip_):
        name, zip_ = (field.translate(None, b"|\r\n") for field in (name, zip_))
        text_name, text_zip = (field.decode("utf-8", "replace") for field in (name, zip_))
        assert kernel_key(name, zip_) == f"{normalize_donor_name(text_name)}|{zip5(text_zip)}".encode()

    @pytest.mark.parametrize("data, blocks", [
        (b"", [b""]),
        (b"a\nb", [b"a\n", b"b"]),
        (b"ab\ncd\nef\n", [b"ab\n", b"cd\n", b"ef\n", b""]),
        (b"a\rb\rc", [b"a\r", b"b\r", b"c"]),  # no newline byte: cut after the last CR
        (b"\xef\xbb\xbfa\nb\n", [b"a\n", b"b\n", b""]),
        (b"a\n\xef\xbb\xbf", [b"a\n", b"\xef\xbb\xbf"]),  # a BOM past byte 0 is text
    ])
    def test_range_blocks_end_after_line_ends(self, monkeypatch, data, blocks):
        monkeypatch.setattr(fec, "_BLOCK_BYTES", 3)
        assert list(fec._range_blocks(io.BytesIO(data), 0, None)) == blocks


def one_pass(path, table=TABLE):
    """The str reference: ``parse_fec_file`` over the file as text mode reads it, each record added."""
    counters = IngestCounters()
    accumulators = {c: MetricsAccumulator(c) for c in ("ALPHA", "BRAVO")}
    with open(path, encoding="utf-8-sig", errors="replace") as handle:
        for record in parse_fec_file(handle, table, counters):
            for acc in accumulators.values():
                acc.add(record)
    return counters, accumulators


def keep_workers(patch, workers):
    """Append each worker (a ``Popen``) that ``accumulate_fec_path`` starts to ``workers``."""
    start = fec._start_worker

    def keep(*args):
        worker, conn = start(*args)
        workers.append(worker)
        return worker, conn

    patch.setattr(fec, "_start_worker", keep)


def all_waited(workers):
    """Every worker has a return code, so none is left running or unreaped."""
    return all(worker.returncode is not None for worker in workers)


def sharded(path, shards, table=TABLE):
    """accumulate_fec_path cutting ``path`` into at most ``shards`` ranges; every worker is waited for."""
    counters = IngestCounters()
    accumulators = {c: MetricsAccumulator(c) for c in ("ALPHA", "BRAVO")}
    workers = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fec, "_usable_cpus", lambda: shards)
        patch.setattr(fec, "_SHARD_MIN_BYTES", 1)
        keep_workers(patch, workers)
        accumulate_fec_path(path, table, accumulators, counters)
    assert all_waited(workers)
    return counters, accumulators


@pytest.fixture
def fixture_table(fixtures_dir):
    """The committee map that maps the fixture FEC file's committees."""
    with open(fixtures_dir / "committee_map.csv", encoding="utf-8") as handle:
        return load_committee_map(handle)


@pytest.fixture
def started(monkeypatch):
    """The workers ``accumulate_fec_path`` starts, in the order it starts them."""
    workers = []
    keep_workers(monkeypatch, workers)
    return workers


def ingest_flags(fixtures_dir, fec_file, out):
    return [
        "--from", "2019-06-01", "--to", "2019-07-20", "--candidates", "ALPHA,BRAVO",
        "--committee-map", str(fixtures_dir / "committee_map.csv"), "--fec-file", str(fec_file),
        "--out", str(out),
    ]


def assert_same_ingest(got, want, range_, *, sums=False):
    """Equal counters, donors and series; with ``sums``, also some parsed lines and nonzero sums."""
    assert got[0] == want[0]
    if sums:
        assert got[0].parsed > 0
        assert all(acc.finalize(range_).amount.values.sum() > 0 for acc in got[1].values())
    for candidate, acc in want[1].items():
        other = got[1][candidate]
        assert len(other.first_seen) == len(acc.first_seen)
        for label, series in acc.finalize(range_).series().items():
            assert other.finalize(range_).series()[label].values.tobytes() == series.values.tobytes()


# Three lines of equal length in each half. The second half holds ONE's first gift (an earlier day
# replaces the first half's), TWO's second gift on the same first day (adds) and TRE's later gift
# (kept out of the first-gift totals).
FIRST_GIFTS_SPLIT = [
    "C001|DONOR ONE|22903|06052019|10.00", "C001|DONOR TWO|22903|06032019|20.00",
    "C001|DONOR TRE|22903|06022019|40.00",
    "C001|DONOR ONE|22903|06012019|15.00", "C001|DONOR TWO|22903|06032019|25.00",
    "C001|DONOR TRE|22903|06042019|30.00",
]
# The candidates of KERNEL_TABLE's committees C001, C002 and C003.
THREE_CANDIDATES = ("ALPHA", "BRAVO", "CHARLIE")


def three_candidate_file(path):
    """300 gifts spread over the three candidates of ``KERNEL_TABLE``, as a file at ``path``."""
    lines = (f"C00{i % 3 + 1}|DONOR {i % 40}|22903|06{i % 9 + 1:02d}2019|{i}\n" for i in range(300))
    path.write_text("".join(lines))
    return path


def track_accumulators(patch):
    """A weak reference to each MetricsAccumulator made from now on, by candidate."""
    alive = {}
    init = MetricsAccumulator.__init__

    def tracked(acc, candidate_id):
        init(acc, candidate_id)
        alive[candidate_id] = weakref.ref(acc)

    patch.setattr(MetricsAccumulator, "__init__", tracked)
    return alive


def one_day_earlier(line):
    """A contribution line dated one day earlier."""
    fields = line.split(b"|")
    day = datetime.strptime(fields[fec._DATE].decode(), "%m%d%Y") - timedelta(days=1)
    fields[fec._DATE] = day.strftime("%m%d%Y").encode()
    return b"|".join(fields)


class TestShardedPath:
    RANGE = DateRange(D1 - timedelta(days=20), D1 + timedelta(days=12))

    # The workers' tables are folded in range order, so from range 1 on a fold meets the first-gift
    # tables of the ranges before it; with one- or three-row chunks a worker's reduces meet its own.
    @settings(max_examples=30, deadline=None)
    @given(data=fec_byte_files(), shards=st.integers(2, 3), chunk_rows=st.sampled_from([1, 3, fec._CHUNK_ROWS]))
    @example(data="C001|Smith\ud800|22903|06012019|10\nC001|Smith|22903|06012019|5\n".encode(
        "utf-8", "surrogatepass"), shards=2, chunk_rows=fec._CHUNK_ROWS)
    @example(data="".join(line + "\n" for line in FIRST_GIFTS_SPLIT).encode(), shards=2, chunk_rows=1)
    @example(data="".join(line + "\n" for line in FIRST_GIFTS_SPLIT).encode(), shards=2, chunk_rows=3)
    def test_matches_one_pass(self, data, shards, chunk_rows):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(fec, "_CHUNK_ROWS", chunk_rows)
            path = Path(tmp) / "fec.txt"
            path.write_bytes(data)
            assert_same_ingest(sharded(path, shards), one_pass(path), self.RANGE)

    def test_fixture_in_three_ranges_matches_one_pass(self, fixtures_dir, fixture_table):
        path = fixtures_dir / "fec_sample.txt"
        with open(path, "rb") as raw:
            assert len(_range_bounds(raw, path.stat().st_size, 3)) == 4
        range_ = DateRange(date(2019, 6, 1), date(2019, 7, 20))
        assert_same_ingest(sharded(path, 3, fixture_table), one_pass(path, fixture_table), range_, sums=True)

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_cut_file_is_parsed_by_its_workers_alone(
        self, fixtures_dir, fixture_table, monkeypatch, started, shards
    ):
        # A cut file starts one worker per range; only a file that is not cut runs the kernel here.
        calls = []
        kernel = fec.accumulate_fec_file
        monkeypatch.setattr(fec, "accumulate_fec_file", lambda *args: calls.append(args) or kernel(*args))
        path = fixtures_dir / "fec_sample.txt"
        got = sharded(path, shards, fixture_table)
        assert (len(calls), len(started)) == ((1, 0) if shards == 1 else (0, shards))
        range_ = DateRange(date(2019, 6, 1), date(2019, 7, 20))
        assert_same_ingest(got, one_pass(path, fixture_table), range_, sums=True)

    def test_each_candidate_first_fold_meets_an_empty_accumulator(self, tmp_path, monkeypatch):
        # This process parses no range of a cut file: it holds one merged candidate and the tables coming in.
        path = three_candidate_file(tmp_path / "fec.txt")
        monkeypatch.setattr(fec, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(fec, "_SHARD_MIN_BYTES", 1)
        met = {}
        fold = MetricsAccumulator._fold

        def checked_fold(acc, *tables):
            held = acc._donor_ids, acc._pairs, acc._rows, acc._row_cents, acc._first_day, acc._day_cents
            met.setdefault(acc.candidate_id, [len(state) for state in held])
            fold(acc, *tables)

        monkeypatch.setattr(MetricsAccumulator, "_fold", checked_fold)
        counters = IngestCounters()
        got = fec.ingest_fec_paths([path], KERNEL_TABLE, THREE_CANDIDATES, self.RANGE, counters)
        assert met == {c: [0] * 6 for c in THREE_CANDIDATES}
        want = IngestCounters()
        with open(path, encoding="utf-8") as handle:
            records = list(parse_fec_file(handle, KERNEL_TABLE, want))
        assert counters == want
        for candidate, metrics in got.items():
            for label, series in daily_donation_metrics(records, candidate, self.RANGE).series().items():
                assert metrics.series()[label].values.tobytes() == series.values.tobytes()

    @CHUNKS
    def test_first_gifts_split_across_two_ranges_match_one_pass(self, tmp_path, monkeypatch, chunk_rows):
        # Range 1 is the second half of FIRST_GIFTS_SPLIT. Its worker's tables are folded onto those
        # that range 0's worker sent, so the merge rules decide the first gifts.
        monkeypatch.setattr(fec, "_CHUNK_ROWS", chunk_rows)
        path = tmp_path / "fec.txt"
        path.write_text("".join(line + "\n" for line in FIRST_GIFTS_SPLIT))
        size = path.stat().st_size
        with open(path, "rb") as raw:
            assert _range_bounds(raw, size, 2) == [0, size // 2, size]  # three lines of equal length each
        range_ = DateRange(D1, D1 + timedelta(days=4))
        got = sharded(path, 2)
        assert_same_ingest(got, one_pass(path), range_)
        series = {label: s.values.tolist() for label, s in got[1]["ALPHA"].finalize(range_).series().items()}
        assert series == {
            "donors": [1.0, 1.0, 1.0, 1.0, 1.0],
            "new_donors": [1.0, 1.0, 1.0, 0.0, 0.0],
            "amount": [15.0, 40.0, 45.0, 30.0, 10.0],
            "new_donor_amount": [15.0, 40.0, 45.0, 0.0, 0.0],
        }

    def test_each_candidate_is_finalized_and_freed_before_the_next_fold(self, tmp_path, monkeypatch, started):
        # In the last file's fold a candidate is finalized and its accumulator dropped before any
        # worker's tables of the next candidate are folded, so one merged candidate is held at a time.
        path = three_candidate_file(tmp_path / "fec.txt")
        monkeypatch.setattr(fec, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(fec, "_SHARD_MIN_BYTES", 1)
        alive = track_accumulators(monkeypatch)
        folds, finalized = [], []
        fold, finalize = MetricsAccumulator._fold, MetricsAccumulator.finalize

        def checked_fold(acc, *tables):
            earlier = list(THREE_CANDIDATES[:THREE_CANDIDATES.index(acc.candidate_id)])
            assert finalized == earlier
            assert [alive[c]() for c in earlier] == [None] * len(earlier)
            folds.append(acc.candidate_id)
            fold(acc, *tables)

        def recorded_finalize(acc, range_):
            finalized.append(acc.candidate_id)
            return finalize(acc, range_)

        monkeypatch.setattr(MetricsAccumulator, "_fold", checked_fold)
        monkeypatch.setattr(MetricsAccumulator, "finalize", recorded_finalize)
        counters = IngestCounters()
        got = fec.ingest_fec_paths([path], KERNEL_TABLE, THREE_CANDIDATES, self.RANGE, counters)
        assert len(started) == 3 and all_waited(started)
        assert folds == [c for c in THREE_CANDIDATES for _ in started]
        assert finalized == list(got) == list(THREE_CANDIDATES)
        assert [alive[c]() for c in THREE_CANDIDATES] == [None] * 3
        want = IngestCounters()
        with open(path, encoding="utf-8") as handle:
            records = list(parse_fec_file(handle, KERNEL_TABLE, want))
        assert counters == want
        for candidate, metrics in got.items():
            for label, series in daily_donation_metrics(records, candidate, self.RANGE).series().items():
                assert metrics.series()[label].values.tobytes() == series.values.tobytes()

    def test_worker_drops_each_candidate_once_sent(self, tmp_path, monkeypatch):
        path = three_candidate_file(tmp_path / "fec.txt")
        alive = track_accumulators(monkeypatch)
        sent = []
        reduce = MetricsAccumulator._reduce

        def checked_reduce(acc, **folded):  # each candidate's last fold, just before it is sent
            earlier = THREE_CANDIDATES[:THREE_CANDIDATES.index(acc.candidate_id)]
            assert [alive[c]() for c in earlier] == [None] * len(earlier)
            sent.append(acc.candidate_id)
            reduce(acc, **folded)

        monkeypatch.setattr(MetricsAccumulator, "_reduce", checked_reduce)
        conn, child_conn = multiprocessing.Pipe()
        conn.send((KERNEL_TABLE, THREE_CANDIDATES))
        fec._parse_range(child_conn, os.open(path, os.O_RDONLY), 0, path.stat().st_size)  # closes both
        assert sent == list(THREE_CANDIDATES)
        monkeypatch.setattr(MetricsAccumulator, "_reduce", reduce)
        counters = IngestCounters()
        got = {c: MetricsAccumulator(c) for c in THREE_CANDIDATES}
        with conn:
            fec._fold_workers([(None, conn)], got, counters, None)
        want = IngestCounters(), {c: MetricsAccumulator(c) for c in THREE_CANDIDATES}
        accumulate_fec_file([path.read_bytes()], KERNEL_TABLE, want[1], want[0])
        assert_same_ingest((counters, got), want, self.RANGE, sums=True)

    def test_two_files_ingest_as_their_concatenation(self, fixtures_dir, tmp_path, monkeypatch, started):
        # The second file is the fixture one day earlier, so its donors' first gifts replace those of
        # the first file, and its fold is the one that finalizes. Each file is cut in two ranges.
        first = fixtures_dir / "fec_sample.txt"
        second = tmp_path / "earlier.txt"
        second.write_bytes(b"".join(map(one_day_earlier, first.read_bytes().splitlines(keepends=True))))
        both = tmp_path / "both.txt"
        both.write_bytes(first.read_bytes() + second.read_bytes())
        monkeypatch.setattr(fec, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(fec, "_SHARD_MIN_BYTES", 1024)
        two_files = [*ingest_flags(fixtures_dir, first, tmp_path / "two"), "--fec-file", str(second)]
        assert main(["ingest", *two_files]) == 0
        assert len(started) == 4
        assert main(["ingest", *ingest_flags(fixtures_dir, both, tmp_path / "one")]) == 0
        assert len(started) == 6 and all_waited(started)
        for name in ("store.json", "ingest_summary.json"):
            assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()
        assert json.loads((tmp_path / "one" / "ingest_summary.json").read_bytes())["parsed"] > 0

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_read_as_one_stream(self, fixtures_dir, tmp_path, fixture_table):
        path = fixtures_dir / "fec_sample.txt"
        fifo = tmp_path / "fec.pipe"
        os.mkfifo(fifo)  # a pipe's size reads 0 and it cannot seek, so it is never cut
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
        writer.start()
        got = sharded(fifo, 2, fixture_table)
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert_same_ingest(
            got, one_pass(path, fixture_table), DateRange(date(2019, 6, 1), date(2019, 7, 20)), sums=True)

    @pytest.mark.parametrize("data, shards, bounds", [
        (b"a\nb\nc\nd\n", 2, [0, 4, 8]),
        (b"a\nb\nc\nd\n", 4, [0, 2, 4, 6, 8]),
        (b"aaaaaaaaa\nb\nc\n", 3, [0, 10, 14]),  # a line longer than a range
        (b"abc\r\ndef", 2, [0, 5, 8]),  # a cut never splits CRLF; no final newline
        (b"a\n", 3, [0, 2]),  # fewer lines than ranges
        (b"abcdef", 2, [0, 6]),
        (b"", 2, [0, 0]),
    ])
    def test_range_bounds_cut_after_newlines(self, tmp_path, data, shards, bounds):
        path = tmp_path / "fec.txt"
        path.write_bytes(data)
        with open(path, "rb") as raw:
            assert _range_bounds(raw, len(data), shards) == bounds

    @pytest.mark.parametrize("change", ["replaced", "unlinked"])
    def test_file_changed_after_the_cut_is_read_as_cut(
        self, fixtures_dir, tmp_path, monkeypatch, capsys, started, change
    ):
        # Every range is read through the descriptor that was cut, never by the file's name.
        path = tmp_path / "fec.txt"
        path.write_bytes((fixtures_dir / "fec_sample.txt").read_bytes())
        assert main(["ingest", *ingest_flags(fixtures_dir, path, tmp_path / "want")]) == 0
        monkeypatch.setattr(fec, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(fec, "_SHARD_MIN_BYTES", 1024)
        cut = fec._range_bounds

        def cut_then_change(raw, size, shards):
            bounds = cut(raw, size, shards)
            if change == "replaced":
                replacement = tmp_path / "new.txt"
                replacement.write_bytes(b"C00000101|ROE RICHARD|22903|06012019|50\n" * 2000)
                os.replace(replacement, path)
            else:
                os.unlink(path)
            return bounds

        monkeypatch.setattr(fec, "_range_bounds", cut_then_change)
        capsys.readouterr()
        assert main(["ingest", *ingest_flags(fixtures_dir, path, tmp_path / "got")]) == 0
        assert capsys.readouterr().err == ""
        assert len(started) == 2
        for name in ("store.json", "ingest_summary.json"):
            assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()
        assert all_waited(started)

    def test_dev_stdin_redirected_from_a_file_is_cut_and_read_whole(self, fixtures_dir, tmp_path):
        # A worker's stdin is /dev/null; it reads the file stdin names through the descriptor it inherits.
        path = fixtures_dir / "fec_sample.txt"
        code = (
            "import sys\n"
            "from campaigntrends import cli, fec\n"
            "fec._usable_cpus = lambda: 2\n"
            "fec._SHARD_MIN_BYTES = 1024\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        with open(path, "rb") as stdin:
            result = subprocess.run(
                [sys.executable, "-c", code, "ingest", *ingest_flags(fixtures_dir, "/dev/stdin", tmp_path / "piped")],
                stdin=stdin, capture_output=True, text=True, timeout=120,
            )
        assert main(["ingest", *ingest_flags(fixtures_dir, path, tmp_path / "direct")]) == 0
        assert (result.returncode, result.stderr) == (0, "")
        for name in ("store.json", "ingest_summary.json"):
            assert (tmp_path / "piped" / name).read_bytes() == (tmp_path / "direct" / name).read_bytes()

    def test_error_in_this_process_stops_the_workers(self, fixtures_dir, tmp_path, monkeypatch, capsys, started):
        monkeypatch.setattr(fec, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(fec, "_SHARD_MIN_BYTES", 1024)

        def fail(*args):
            raise OSError("error before the first fold")

        monkeypatch.setattr(fec, "_fold_workers", fail)  # fails at once, while every worker still parses
        code = main(["ingest", *ingest_flags(fixtures_dir, fixtures_dir / "fec_sample.txt", tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == "error: error before the first fold\n"
        assert all_waited(started)
        # stopped, not left to parse their ranges to the end
        assert [worker.returncode for worker in started] == [-signal.SIGTERM] * 3

    def test_worker_that_dies_without_a_result_is_an_error(self):
        # With its task sent but unread, the worker's exit resets the socket (ConnectionResetError) instead
        # of closing it (EOFError); both are the same error here.
        for task in (None, (TABLE, ("ALPHA",))):
            conn, child_conn = multiprocessing.Pipe()
            with child_conn:
                worker = subprocess.Popen(
                    [sys.executable, "-c", "import os, time; time.sleep(0.2); os._exit(3)"],
                    pass_fds=(child_conn.fileno(),),
                )
            with conn:
                if task:
                    conn.send(task)
                with pytest.raises(CampaignTrendsError, match="exit code 3"):
                    fec._fold_workers(
                        [(worker, conn)], {"ALPHA": MetricsAccumulator("ALPHA")}, IngestCounters(), None)
            assert worker.returncode == 3

    def test_worker_error_reaches_the_ingest_process(self, tmp_path):
        # A worker sends back the error of a range it cannot read, here a directory's descriptor.
        conn, child_conn = multiprocessing.Pipe()
        conn.send((TABLE, ("ALPHA",)))
        directory = os.open(tmp_path, os.O_RDONLY)
        try:
            fec._parse_range(child_conn, directory, 0, 10)
        finally:
            os.close(directory)
        with conn, pytest.raises(IsADirectoryError):
            fec._fold_workers([(None, conn)], {"ALPHA": MetricsAccumulator("ALPHA")}, IngestCounters(), None)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("deleted", [False, True])
    def test_open_descriptor_path_matches_one_pass(
        self, fixtures_dir, tmp_path, started, fixture_table, deleted
    ):
        # The worker inherits this process's descriptor, so a deleted file with no name left is cut too.
        path = tmp_path / "fec.txt"
        path.write_bytes((fixtures_dir / "fec_sample.txt").read_bytes())
        want = one_pass(path, fixture_table)
        with open(path, "rb") as held:
            if deleted:
                path.unlink()
            got = sharded(f"/proc/self/fd/{held.fileno()}", 2, fixture_table)
        assert len(started) == 2
        assert_same_ingest(got, want, DateRange(date(2019, 6, 1), date(2019, 7, 20)), sums=True)
        assert all_waited(started)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_leading_bom_is_skipped(self, tmp_path, shards):
        path = tmp_path / "fec.txt"
        path.write_bytes(b"\xef\xbb\xbfC001|DOE JANE|22903|06012019|100\nC001|ROE RICHARD|22903|06012019|50\n")
        counters, accumulators = sharded(path, shards)
        assert counters == IngestCounters(parsed=2)
        assert counters.lines_total == 2
        assert accumulators["ALPHA"].finalize(DateRange(D1, D3)).amount.values.tolist() == [150.0, 0.0, 0.0]

    def test_unguarded_script_and_script_from_stdin_ingest_as_the_plain_run(self, fixtures_dir, tmp_path):
        # A worker imports campaigntrends alone, never the caller's __main__, which it could not
        # re-run when it is <stdin> and would run again when it has no entry-point guard.
        fec_file = fixtures_dir / "fec_sample.txt"
        assert main(["ingest", *ingest_flags(fixtures_dir, fec_file, tmp_path / "plain")]) == 0

        def script(out, guard):
            flags = ingest_flags(fixtures_dir, fec_file, tmp_path / out)
            return (
                "import sys\n"
                f"sys.path.insert(0, {str(Path(fec.__file__).parents[1])!r})\n"
                "from campaigntrends import cli, fec\n"
                "fec._usable_cpus = lambda: 2\n"
                "fec._SHARD_MIN_BYTES = 1024\n"
                "start = fec._start_worker\n"
                "fec._start_worker = lambda *args: print('started a worker', file=sys.stderr) or start(*args)\n"
                "def run():\n"
                f"    code = cli.main(['ingest', *{flags!r}])\n"
                "    assert 'multiprocessing.resource_tracker' not in sys.modules  # nor started its process\n"
                "    sys.exit(code)\n"
            ) + ('if __name__ == "__main__":\n    run()\n' if guard else "run()\n")

        unguarded = tmp_path / "unguarded.py"
        unguarded.write_text(script("unguarded", guard=False))
        # Without PYTHONPATH a worker finds campaigntrends only through the sys.path it is handed.
        common = dict(env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
                      capture_output=True, text=True, timeout=120)
        runs = {
            "unguarded": subprocess.run([sys.executable, unguarded], **common),
            "stdin": subprocess.run([sys.executable, "-"], input=script("stdin", guard=True), **common),
        }
        for out, result in runs.items():
            assert (result.returncode, result.stderr) == (0, "started a worker\n" * 2)
            for name in ("store.json", "ingest_summary.json"):
                assert (tmp_path / out / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
