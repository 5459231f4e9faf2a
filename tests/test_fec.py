import io
import random
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
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
    parse_fec_file,
)
from campaigntrends.fec import _name_key, _zip_key, accumulate_fec_file, zip5

D1 = date(2019, 6, 1)
D2 = date(2019, 6, 2)
D3 = date(2019, 6, 3)

TABLE = {"C001": "ALPHA", "C002": "BRAVO"}


def parse_lines(lines, table=TABLE):
    counters = IngestCounters()
    records = list(parse_fec_file(lines, table, counters))
    return records, counters


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
    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_name_key_matches_normalize_donor_name(self, raw):
        assert _name_key(raw) == normalize_donor_name(raw).encode()

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_zip_key_matches_zip5(self, raw):
        assert _zip_key(raw) == zip5(raw)

    @pytest.mark.parametrize("raw", [
        "Smith, John", "SMITH JOHN", "  o'brien,\tmary ", "a\x1cb", "x_y", "José Núñez", "straße",
    ])
    def test_name_key_examples(self, raw):
        assert _name_key(raw) == normalize_donor_name(raw).encode()

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
        assert _zip_key(raw) == expected


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
        ]
        records, counters = parse_lines(lines)
        assert records == []
        assert counters.malformed == 3

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
        accumulate_fec_file([line], TABLE, {"ALPHA": acc}, kernel_counters)
        assert kernel_counters == counters
        metrics = acc.finalize(DateRange(date(2019, 6, 15), date(2019, 6, 17)))
        assert list(metrics.donors.values) == [1.0, 0.0, 0.0]
        assert list(metrics.amount.values) == [50.0, 0.0, 0.0]

    @pytest.mark.parametrize("amount", [
        "inf", "-inf", "Infinity", "1e400", "-1e400", "nan", "1000000000.01", "-1000000000.01",
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
        accumulate_fec_file(lines, TABLE, accumulators, counters)
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
            counters = IngestCounters()
            accumulators = {c: MetricsAccumulator(c) for c in ("ALPHA", "BRAVO")}
            accumulate_fec_file(lines, TABLE, accumulators, counters)
            records, record_counters = parse_lines(lines)
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
