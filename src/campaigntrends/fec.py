"""FEC individual-contribution ingestion and daily donation metrics.

Bulk contribution files are delimiter-separated text with one itemized
donation per line. Parsing is streaming and never aborts mid-file: lines
that cannot be parsed, or whose committee has no candidate mapping, are
counted and skipped. Donor identity is the normalized name plus the first
five zip digits, and a donor counts as "new" to a candidate on the day of
their first-ever positive donation to that candidate, no matter how often
they have given to anyone else.

Per candidate and day the module produces four series: distinct donors,
first-time donors, total dollars, and dollars from first-time donors.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from datetime import date
from typing import IO, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .exceptions import InvalidValueError
from .timeseries import DateRange, TimeSeries

__all__ = [
    "ColumnMap",
    "DailyDonationMetrics",
    "DonationRecord",
    "DonorKey",
    "FEC_BULK_COLUMNS",
    "IngestCounters",
    "MetricsAccumulator",
    "daily_donation_metrics",
    "load_committee_map",
    "normalize_donor_name",
    "parse_fec_file",
]

METRIC_LABELS = ("donors", "new_donors", "amount", "new_donor_amount")

_NON_ALNUM = re.compile(r"[^0-9A-Z\s]", re.UNICODE)
_WS = re.compile(r"\s+")
_DIGITS = re.compile(r"\d")
_MISSING_ZIP = "00000"

# Records dated outside this window are treated as malformed input.
_PLAUSIBLE_MIN = date(2017, 1, 1)
_PLAUSIBLE_MAX = date(2021, 12, 31)


@dataclass(frozen=True)
class ColumnMap:
    """Layout of a delimiter-separated contribution file.

    Positions are 0-based. Amounts are dollars (decimals allowed) and dates
    MMDDYYYY; records dated outside 2017-01-01..2021-12-31 are treated as
    malformed.
    """

    delimiter: str = "|"
    committee: int = 0
    name: int = 1
    zip: int = 2
    date: int = 3
    amount: int = 4


# Real FEC bulk layout (itemized individual contributions).
FEC_BULK_COLUMNS = ColumnMap(committee=0, name=7, zip=10, date=13, amount=14)


class DonorKey(NamedTuple):
    """Identity used to tell donors apart: normalized name + 5-digit zip."""

    name_norm: str
    zip5: str


@dataclass(frozen=True)
class DonationRecord:
    """One itemized contribution, committee already mapped to a candidate."""

    candidate_id: str
    donor_name_raw: str
    zip: str
    date: date
    amount_cents: int

    @property
    def donor_key(self) -> DonorKey:
        return DonorKey(normalize_donor_name(self.donor_name_raw), zip5(self.zip))


@dataclass
class IngestCounters:
    """Line accounting for one parse pass; mergeable across file shards."""

    lines_total: int = 0
    parsed: int = 0
    malformed: int = 0
    unmapped: int = 0

    def merge(self, other: "IngestCounters") -> "IngestCounters":
        return IngestCounters(
            lines_total=self.lines_total + other.lines_total,
            parsed=self.parsed + other.parsed,
            malformed=self.malformed + other.malformed,
            unmapped=self.unmapped + other.unmapped,
        )

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


def _parse_mmddyyyy(text: str) -> date | None:
    if len(text) != 8 or not text.isdigit():
        return None
    try:
        return date(int(text[4:8]), int(text[0:2]), int(text[2:4]))
    except ValueError:
        return None


def _parse_amount_cents(text: str) -> int | None:
    text = text.strip()
    if not text:
        return None
    try:
        return round(float(text) * 100)
    except ValueError:
        return None


def parse_fec_file(
    lines: Iterable[str] | IO[str],
    committee_map: Mapping[str, str],
    column_map: ColumnMap = ColumnMap(),
    counters: IngestCounters | None = None,
) -> Iterator[DonationRecord]:
    """Stream DonationRecords out of a bulk contribution file.

    Malformed lines (wrong field count, unparseable date or amount, date
    outside the plausible window) and lines whose committee is not in
    ``committee_map`` are skipped and tallied in ``counters``.
    """
    if counters is None:
        counters = IngestCounters()
    needed = max(
        column_map.committee, column_map.name, column_map.zip,
        column_map.date, column_map.amount,
    )
    for line in lines:
        line = line.rstrip("\r\n")
        if not line:
            continue
        counters.lines_total += 1
        fields = line.split(column_map.delimiter)
        if len(fields) <= needed:
            counters.malformed += 1
            continue
        committee = fields[column_map.committee].strip()
        candidate = committee_map.get(committee)
        when = _parse_mmddyyyy(fields[column_map.date].strip())
        cents = _parse_amount_cents(fields[column_map.amount])
        if when is None or cents is None or not (_PLAUSIBLE_MIN <= when <= _PLAUSIBLE_MAX):
            counters.malformed += 1
            continue
        if candidate is None:
            counters.unmapped += 1
            continue
        counters.parsed += 1
        yield DonationRecord(
            candidate_id=candidate,
            donor_name_raw=fields[column_map.name],
            zip=fields[column_map.zip].strip(),
            date=when,
            amount_cents=cents,
        )


def load_committee_map(stream: Iterable[str] | IO[str]) -> dict[str, str]:
    """Read a committee_id,candidate_id CSV into a lookup table."""
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise InvalidValueError("committee map is empty") from None
    if [h.strip().lower() for h in header] != ["committee_id", "candidate_id"]:
        raise InvalidValueError(
            "committee map must have header 'committee_id,candidate_id', "
            f"got {','.join(header)!r}"
        )
    table: dict[str, str] = {}
    for row in reader:
        if not row or not any(cell.strip() for cell in row):
            continue
        if len(row) < 2:
            raise InvalidValueError(f"committee map row has no candidate: {row!r}")
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
        return {
            "donors": self.donors,
            "new_donors": self.new_donors,
            "amount": self.amount,
            "new_donor_amount": self.new_donor_amount,
        }


@dataclass
class MetricsAccumulator:
    """Order-independent, mergeable accumulation of one candidate's donations.

    Refunds and zero amounts are dropped on entry. State is two maps: each
    donor key's earliest donation date (over all records seen, including
    dates before any analysis window) and per-day per-donor cent totals.
    Merging accumulators from stream shards gives the same result as one
    pass over the concatenated stream.
    """

    candidate_id: str
    first_seen: dict[DonorKey, date] = field(default_factory=dict)
    day_totals: dict[date, dict[DonorKey, int]] = field(default_factory=dict)

    def add(self, record: DonationRecord) -> None:
        if record.candidate_id != self.candidate_id or record.amount_cents <= 0:
            return
        key = record.donor_key
        prior = self.first_seen.get(key)
        if prior is None or record.date < prior:
            self.first_seen[key] = record.date
        by_donor = self.day_totals.setdefault(record.date, {})
        by_donor[key] = by_donor.get(key, 0) + record.amount_cents

    def merge(self, other: "MetricsAccumulator") -> "MetricsAccumulator":
        if other.candidate_id != self.candidate_id:
            raise InvalidValueError(
                f"cannot merge accumulators for {self.candidate_id!r} and "
                f"{other.candidate_id!r}"
            )
        merged = MetricsAccumulator(self.candidate_id)
        merged.first_seen = dict(self.first_seen)
        for key, day in other.first_seen.items():
            prior = merged.first_seen.get(key)
            if prior is None or day < prior:
                merged.first_seen[key] = day
        merged.day_totals = {d: dict(v) for d, v in self.day_totals.items()}
        for day, by_donor in other.day_totals.items():
            target = merged.day_totals.setdefault(day, {})
            for key, cents in by_donor.items():
                target[key] = target.get(key, 0) + cents
        return merged

    def finalize(self, range_: DateRange) -> DailyDonationMetrics:
        """Collapse the accumulated state into the four daily series."""
        n = len(range_)
        donors = np.zeros(n)
        new_donors = np.zeros(n)
        amount = np.zeros(n)
        new_amount = np.zeros(n)
        for day, by_donor in self.day_totals.items():
            if day not in range_:
                continue
            i = (day - range_.start).days
            donors[i] = len(by_donor)
            amount[i] = sum(by_donor.values()) / 100.0
            fresh = [k for k in by_donor if self.first_seen[k] == day]
            new_donors[i] = len(fresh)
            new_amount[i] = sum(by_donor[k] for k in fresh) / 100.0

        def mk(label: str, values: np.ndarray) -> TimeSeries:
            return TimeSeries(range_.start, values, label=label, candidate=self.candidate_id)

        return DailyDonationMetrics(
            candidate_id=self.candidate_id,
            donors=mk("donors", donors),
            new_donors=mk("new_donors", new_donors),
            amount=mk("amount", amount),
            new_donor_amount=mk("new_donor_amount", new_amount),
        )


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
