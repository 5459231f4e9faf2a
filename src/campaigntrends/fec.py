"""FEC individual-contribution ingestion and daily donation metrics.

Contribution files hold one itemized donation per line, in one layout:
``committee|name|zip|MMDDYYYY|dollars``. A line with fewer than five fields
is malformed, and fields past the fifth are ignored; a real FEC bulk file
maps onto the layout with ``cut -d'|' -f1,8,11,14,15``. Parsing is
streaming and never aborts mid-file: lines that cannot be parsed, or whose
committee has no candidate mapping, are counted and skipped. Amounts are
dollars; a non-finite amount, or one beyond ``MAX_AMOUNT_DOLLARS`` either
way, makes its line malformed. Donor identity is the normalized name plus
the first five zip digits (``normalize_donor_name`` and ``zip5``), and a
donor counts as "new" to a candidate on the day of their first-ever
positive donation to that candidate, no matter how often they have given
to anyone else.

Per candidate and day the module produces four series: distinct donors,
first-time donors, total dollars, and dollars from first-time donors.
``accumulate_fec_file`` is the ingest kernel: it interns donors to ints as
lines stream and keeps per-candidate (donor, day) cent sums in NumPy
arrays, so ingest memory grows with the distinct (donor, day) pairs, not
with the number of lines. The committee_id,candidate_id map that assigns
committees to candidates is a CSV read through ``store.read_csv_table``.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from datetime import date
from typing import IO, Iterable, Iterator, Mapping

import numpy as np

from .exceptions import InvalidValueError
from .store import read_csv_table
from .timeseries import DateRange, TimeSeries

__all__ = [
    "DailyDonationMetrics",
    "DonationRecord",
    "IngestCounters",
    "MAX_AMOUNT_DOLLARS",
    "MetricsAccumulator",
    "accumulate_fec_file",
    "daily_donation_metrics",
    "load_committee_map",
    "normalize_donor_name",
    "parse_fec_file",
]

# The four donation metrics, in output order; each names a DailyDonationMetrics field.
METRIC_LABELS = ("donors", "new_donors", "amount", "new_donor_amount")

_NON_ALNUM = re.compile(r"[^0-9A-Z\s]", re.UNICODE)
_WS = re.compile(r"\s+")
_DIGITS = re.compile(r"\d")
_MISSING_ZIP = "00000"
# normalize_donor_name on ASCII text as one bytes.translate: delete what
# its regex deletes, upper-case, and turn every str.isspace() character
# (\x1c-\x1f too, which bytes.split() would keep) into a space.
_ASCII_DELETE = bytes(c for c in range(128) if not (chr(c).isalnum() or chr(c).isspace()))
_ASCII_TABLE = bytes(
    ord(" ") if chr(c).isspace() else ord(chr(c).upper()) for c in range(128)
) + bytes(range(128, 256))

# Records dated outside this window are treated as malformed input.
_PLAUSIBLE_MIN = date(2017, 1, 1)
_PLAUSIBLE_MAX = date(2021, 12, 31)

# Amounts beyond this many dollars either way are malformed. A line then
# holds at most 1e11 cents, so the int64 cent sums cannot wrap short of
# about 9e7 maximal gifts from one donor on one day.
MAX_AMOUNT_DOLLARS = 1e9

# Rows an accumulator buffers before folding them into its pair sums.
_CHUNK_ROWS = 1 << 16
# A (donor id, day) pair packs into one int64: donor << _DAY_BITS | ordinal.
_DAY_BITS = 22  # date.max.toordinal() < 2**22
_DAY_MASK = (1 << _DAY_BITS) - 1
# Distinct raw date and amount texts cached per file, each.
_PARSE_CACHE_MAX = 1 << 16
_UNSEEN = object()

# The line layout: field positions of committee|name|zip|MMDDYYYY|dollars.
_COMMITTEE, _NAME, _ZIP, _DATE, _AMOUNT = range(5)
_FIELDS = 5


@dataclass(frozen=True)
class DonationRecord:
    """One itemized contribution, committee already mapped to a candidate."""

    candidate_id: str
    donor_name_raw: str
    zip: str
    date: date
    amount_cents: int


@dataclass
class IngestCounters:
    """Line accounting for one parse pass."""

    lines_total: int = 0
    parsed: int = 0
    malformed: int = 0
    unmapped: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "lines_total": self.lines_total,
            "parsed": self.parsed,
            "malformed": self.malformed,
            "unmapped": self.unmapped,
        }


def normalize_donor_name(raw: str) -> str:
    """Canonical donor name: uppercase, alphanumerics and spaces only, collapsed."""
    cleaned = _NON_ALNUM.sub("", raw.upper())
    return _WS.sub(" ", cleaned).strip()


def zip5(raw: str) -> str:
    """First five digits of a zip string, or the 00000 sentinel when absent."""
    digits = "".join(_DIGITS.findall(raw))
    if len(digits) < 5:
        return _MISSING_ZIP
    return digits[:5]


def _name_key(raw: str) -> bytes:
    """UTF-8 bytes of ``normalize_donor_name(raw)``; ASCII text skips the regex."""
    if raw.isascii():
        return b" ".join(raw.encode().translate(_ASCII_TABLE, _ASCII_DELETE).split())
    return normalize_donor_name(raw).encode()


def _zip_key(raw: str) -> str:
    """``zip5(raw)``; text that starts with five ASCII digits skips the regex."""
    head = raw[:5]
    if len(head) == 5 and head.isascii() and head.isdigit():
        return head
    return zip5(raw)


def _parse_day(text: str) -> int | None:
    """Ordinal of an MMDDYYYY date inside the plausible window, else None."""
    text = text.strip()
    if len(text) != 8 or not text.isdigit():
        return None
    try:
        when = date(int(text[4:8]), int(text[0:2]), int(text[2:4]))
    except ValueError:
        return None
    return when.toordinal() if _PLAUSIBLE_MIN <= when <= _PLAUSIBLE_MAX else None


def _parse_amount_cents(text: str) -> int | None:
    text = text.strip()
    if not text:
        return None
    try:
        dollars = float(text)
    except ValueError:
        return None
    if not abs(dollars) <= MAX_AMOUNT_DOLLARS:  # also rejects nan
        return None
    return round(dollars * 100)


def _valid_lines(
    lines: Iterable[str] | IO[str],
    committee_map: Mapping[str, str],
    counters: IngestCounters,
) -> Iterator[tuple[str, list[str], int, int]]:
    """Yield (candidate, fields, day ordinal, cents) for each parsed line.

    The one home of the line rules, checked in this order: fewer than five
    fields is malformed; then an unparseable date or amount, or a date
    outside the plausible window, is malformed; then a committee missing
    from ``committee_map`` is unmapped. Every non-empty line is tallied in
    ``counters``.
    """
    days: dict[str, int | None] = {}
    amounts: dict[str, int | None] = {}
    for line in lines:
        line = line.rstrip("\r\n")
        if not line:
            continue
        counters.lines_total += 1
        fields = line.split("|")
        if len(fields) < _FIELDS:
            counters.malformed += 1
            continue
        text = fields[_DATE]
        day = days.get(text, _UNSEEN)
        if day is _UNSEEN:
            day = _parse_day(text)
            if len(days) < _PARSE_CACHE_MAX:
                days[text] = day
        text = fields[_AMOUNT]
        cents = amounts.get(text, _UNSEEN)
        if cents is _UNSEEN:
            cents = _parse_amount_cents(text)
            if len(amounts) < _PARSE_CACHE_MAX:
                amounts[text] = cents
        if day is None or cents is None:
            counters.malformed += 1
            continue
        candidate = committee_map.get(fields[_COMMITTEE].strip())
        if candidate is None:
            counters.unmapped += 1
            continue
        counters.parsed += 1
        yield candidate, fields, day, cents


def parse_fec_file(
    lines: Iterable[str] | IO[str],
    committee_map: Mapping[str, str],
    counters: IngestCounters | None = None,
) -> Iterator[DonationRecord]:
    """Stream DonationRecords out of a contribution file.

    Malformed lines (too few fields, unparseable or out-of-bound date or
    amount) and lines whose committee is not in ``committee_map`` are
    skipped and tallied in ``counters``.
    """
    if counters is None:
        counters = IngestCounters()
    for candidate, fields, day, cents in _valid_lines(lines, committee_map, counters):
        yield DonationRecord(
            candidate_id=candidate,
            donor_name_raw=fields[_NAME],
            zip=fields[_ZIP].strip(),
            date=date.fromordinal(day),
            amount_cents=cents,
        )


def load_committee_map(stream: Iterable[str] | IO[str]) -> dict[str, str]:
    """Read a committee_id,candidate_id CSV into a lookup table."""
    table: dict[str, str] = {}
    for lineno, row in read_csv_table(stream, "committee map", ("committee_id", "candidate_id")):
        if len(row) < 2:
            raise InvalidValueError(f"line {lineno}: committee map row has no candidate: {row!r}")
        table[row[0].strip()] = row[1].strip()
    return table


@dataclass(frozen=True)
class DailyDonationMetrics:
    """The four daily donation series for one candidate on one grid."""

    candidate_id: str
    donors: TimeSeries
    new_donors: TimeSeries
    amount: TimeSeries
    new_donor_amount: TimeSeries

    def series(self) -> dict[str, TimeSeries]:
        """The four series by metric name, in METRIC_LABELS order."""
        return {label: getattr(self, label) for label in METRIC_LABELS}


class MetricsAccumulator:
    """Columnar, order-independent accumulation of one candidate's donations.

    Refunds and zero amounts are dropped on entry. Each donor key is interned
    to an int as it arrives, and (donor, day, cents) rows are buffered in
    chunks of ``_CHUNK_ROWS``. A full chunk is folded into the sorted distinct
    (donor, day) cent sums, so memory holds one row per distinct pair plus
    one chunk. Gifts dated before any analysis window still decide who is a
    first-time donor inside it.
    """

    def __init__(self, candidate_id: str) -> None:
        self.candidate_id = candidate_id
        self._donor_ids: dict[tuple[bytes, str], int] = {}
        self._rows = array("q")  # pending packed (donor, day) pairs
        self._row_cents = array("q")
        self._pairs = np.empty(0, np.int64)  # sorted distinct packed pairs
        self._pair_cents = np.empty(0, np.int64)

    def add(self, record: DonationRecord) -> None:
        if record.candidate_id != self.candidate_id or record.amount_cents <= 0:
            return
        key = (_name_key(record.donor_name_raw), _zip_key(record.zip))
        self._push(key, record.date.toordinal(), record.amount_cents)

    def _push(self, key: tuple[bytes, str], day: int, cents: int) -> None:
        ids = self._donor_ids
        self._rows.append(ids.setdefault(key, len(ids)) << _DAY_BITS | day)
        self._row_cents.append(cents)
        if len(self._rows) >= _CHUNK_ROWS:
            self._reduce()

    def _reduce(self) -> None:
        """Fold the buffered rows into the distinct (donor, day) cent sums."""
        if not self._rows:
            return
        pairs = np.concatenate([self._pairs, np.frombuffer(self._rows, np.int64)])
        cents = np.concatenate([self._pair_cents, np.frombuffer(self._row_cents, np.int64)])
        self._rows, self._row_cents = array("q"), array("q")
        self._pairs, inverse = np.unique(pairs, return_inverse=True)
        self._pair_cents = np.zeros(len(self._pairs), np.int64)
        np.add.at(self._pair_cents, inverse, cents)

    @property
    def first_seen(self) -> np.ndarray:
        """Ordinal day of each donor's first positive gift, indexed by donor id."""
        self._reduce()
        first = np.full(len(self._donor_ids), date.max.toordinal(), np.int64)
        np.minimum.at(first, self._pairs >> _DAY_BITS, self._pairs & _DAY_MASK)
        return first

    def finalize(self, range_: DateRange) -> DailyDonationMetrics:
        """Collapse the accumulated state into the four daily series."""
        first = self.first_seen  # folds the pending rows into self._pairs
        n = len(range_)
        day = self._pairs & _DAY_MASK
        offset = day - range_.start.toordinal()
        inside = (offset >= 0) & (offset < n)
        fresh = inside & (day == first[self._pairs >> _DAY_BITS])

        def dollars(mask: np.ndarray) -> np.ndarray:
            cents = np.zeros(n, np.int64)
            np.add.at(cents, offset[mask], self._pair_cents[mask])
            return cents / 100.0

        def mk(label: str, values: np.ndarray) -> TimeSeries:
            return TimeSeries(range_.start, values, label=label, candidate=self.candidate_id)

        return DailyDonationMetrics(
            candidate_id=self.candidate_id,
            donors=mk("donors", np.bincount(offset[inside], minlength=n).astype(float)),
            new_donors=mk("new_donors", np.bincount(offset[fresh], minlength=n).astype(float)),
            amount=mk("amount", dollars(inside)),
            new_donor_amount=mk("new_donor_amount", dollars(fresh)),
        )


def accumulate_fec_file(
    lines: Iterable[str] | IO[str],
    committee_map: Mapping[str, str],
    accumulators: Mapping[str, MetricsAccumulator],
    counters: IngestCounters,
) -> None:
    """Stream a contribution file into per-candidate accumulators.

    The ingest kernel: lines are validated and counted exactly as
    ``parse_fec_file`` does, but no record objects are built. Parsed lines
    of candidates without an accumulator are counted and dropped.
    """
    for candidate, fields, day, cents in _valid_lines(lines, committee_map, counters):
        acc = accumulators.get(candidate)
        if acc is not None and cents > 0:
            acc._push((_name_key(fields[_NAME]), _zip_key(fields[_ZIP])), day, cents)


def daily_donation_metrics(
    records: Iterable[DonationRecord], candidate_id: str, range_: DateRange
) -> DailyDonationMetrics:
    """Compute the four daily series for one candidate over a date range.

    Records may arrive in any order and may cover dates outside the range;
    earlier donations still decide who counts as a first-time donor inside
    it. Days without positive donations hold zeros. An empty stream yields
    all-zero series.
    """
    acc = MetricsAccumulator(candidate_id)
    for record in records:
        acc.add(record)
    return acc.finalize(range_)
