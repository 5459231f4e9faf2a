"""FEC individual-contribution ingestion and daily donation metrics.

Contribution files hold one itemized donation per line, in one layout:
``committee|name|zip|MMDDYYYY|dollars``. A line with fewer than five fields
is malformed, and fields past the fifth are ignored; a real FEC bulk file
maps onto the layout with ``cut -d'|' -f1,8,11,14,15``. Parsing is
streaming and never aborts mid-file: lines that cannot be parsed, or whose
committee has no candidate mapping, are counted and skipped. Amounts are
dollars and dates MMDDYYYY, both written in ASCII; a date or amount in other
scripts' digits or holding ``_``, a non-finite amount, or one beyond
``MAX_AMOUNT_DOLLARS`` either way makes its line malformed. Donor identity
is the normalized name plus the first five zip digits, held as one UTF-8
key per donor, ``normalize_donor_name(name) + "|" + zip5(zip)``; a name
holds only ``[0-9A-Z ]`` and a zip only digits, so the key is unambiguous
and holds no newline byte. A donor counts as "new" to a candidate on the
day of their first-ever positive donation to that candidate, no matter how
often they have given to anyone else.

Per candidate and day the module produces four series: distinct donors,
first-time donors, total dollars, and dollars from first-time donors.
``accumulate_fec_file`` is the ingest kernel. It parses raw bytes, in
blocks of whole lines, and decodes a field only when that field's bytes
are new to the file (committee, date and amount) or are not plain ASCII
(donor name and zip). Decoding one field gives the text that decoding its
line gives, because ``|``, CR and LF are ASCII, so the kernel counts and
sums exactly what ``parse_fec_file`` yields from the file read as UTF-8
with replacement. Each positive gift enters its candidate's
``MetricsAccumulator`` through ``_push``, which buffers at most
``max(_CHUNK_ROWS, pairs / 4)`` rows before folding them into NumPy tables
per candidate: the distinct (donor, day) pairs, each donor's first gift
day and its cents that day, and each day's cents. A buffer of at least
``max(_CHUNK_ROWS / 4, pairs / 4)`` rows folds early once it holds at least
twice as many rows as donors new since the last fold; such a fold cannot
grow the tables by more than the buffer it frees, 16 bytes per row. So
ingest memory and sorting work grow with the distinct (donor, day) pairs
and donors, not with the number of lines. A fold adds the rows' cents to
the totals, then sorts the pairs so far and the rows in place and keeps
one of each run of equal pairs; its temporaries stay within three 8-byte
words per row folded.
``accumulate_fec_path`` runs that kernel over a file in parallel: it cuts
the file into byte ranges that end just after a newline byte, at most one
per usable CPU and each at least ``_SHARD_MIN_BYTES`` long, starts one
worker process per range, and folds their counters and then their tables
into its own accumulators, one candidate at a time; it parses no range of
a cut file itself.
``ingest_fec_paths`` is the ingest job from the files to the series: in
the last file's fold it finalizes each candidate as soon as that
candidate's tables are folded and drops its accumulator before the next
candidate's tables arrive. One reader, ``_range_blocks``,
cuts every range into blocks of whole lines and skips a UTF-8 BOM at the
start of the file. The series do not depend on line order, so the result
equals one pass over the file. A file under two ranges' worth of bytes, a
pipe, a process allowed one CPU, or a platform without ``os.pread`` is not
cut: it is one range 0, parsed by the ingest process itself. Each worker
is a new interpreter, started by ``subprocess``, that inherits the
descriptor this process opened and reads its range by position, so every
range comes from the file that was cut. A worker imports
``campaigntrends`` and never the caller's ``__main__``, so a script that
ingests needs no entry-point guard and may be read from stdin. A worker
holds the tables of its own range and drops each candidate's once it has
sent them. While the last file's tables are folded, the ingest process
holds one candidate's merged tables plus the tables coming in, and no
range's own state. The committee_id,candidate_id map that assigns
committees to candidates is a CSV read through ``store.read_csv_table``.
"""

from __future__ import annotations

import os
import re
import sys
from array import array
from codecs import BOM_UTF8
from dataclasses import asdict, dataclass
from datetime import date
from typing import IO, BinaryIO, Callable, Iterable, Iterator, Mapping, NoReturn, Sequence

import numpy as np

from .exceptions import CampaignTrendsError, InvalidValueError
from .store import METRIC_LABELS, parse_ascii_number, read_csv_table
from .timeseries import DateRange, TimeSeries

__all__ = [
    "DailyDonationMetrics",
    "DonationRecord",
    "IngestCounters",
    "MAX_AMOUNT_DOLLARS",
    "MetricsAccumulator",
    "accumulate_fec_file",
    "accumulate_fec_path",
    "daily_donation_metrics",
    "ingest_fec_paths",
    "load_committee_map",
    "normalize_donor_name",
    "parse_fec_file",
]

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
# about 9e7 maximal gifts on one day.
MAX_AMOUNT_DOLLARS = 1e9

# Rows an accumulator buffers before folding them into its tables. From a
# quarter of this on, a buffer of at least two rows per donor new since the
# last fold folds early: its fold adds at most one 8-byte pair per 16-byte
# row and 16 bytes of first-gift tables per new donor, so it cannot grow
# the accumulator.
_CHUNK_ROWS = 1 << 16
# Rows a fold adds to the cent totals at a time, so that step's temporaries
# stay a few 128 KiB arrays however many rows are folded. Arrays of rows
# instead raised the ingest process's peak RSS.
_CENTS_ROWS = 1 << 14
# A (donor id, day) pair packs into one int64: donor << _DAY_BITS | ordinal.
_DAY_BITS = 22  # date.max.toordinal() < 2**22
_DAY_MASK = (1 << _DAY_BITS) - 1
_NO_DAY = 1 << _DAY_BITS  # the first-gift day of a donor without one, after every day
# Distinct raw committee, date and amount texts the kernel caches per file, each.
_PARSE_CACHE_MAX = 1 << 16
_UNSEEN = object()
_UNMAPPED = object()  # a committee missing from the committee map

# A file is cut into at most one byte range per usable CPU, each at least
# this long; a file under two ranges' worth is parsed in one process. Each
# range pays one worker's start, about 0.2 s, in which one process parses
# about 4 MiB of lines (about 18 MiB/s on a 2-core x86_64 host). The workers
# start side by side, so a 2-range cut still pays at about 8 MiB per range,
# and smaller ranges gain nothing.
_SHARD_MIN_BYTES = 8 << 20
# A range is read in blocks of this many bytes, each parsed up to its last
# newline. Larger blocks hold more line objects alive at once and raised the
# ingest process's peak RSS without parsing faster.
_BLOCK_BYTES = 1 << 14

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
    """Line accounting for one parse pass.

    Every non-empty line is exactly one of parsed, malformed or unmapped,
    so ``lines_total`` is their sum.
    """

    parsed: int = 0
    malformed: int = 0
    unmapped: int = 0

    @property
    def lines_total(self) -> int:
        return self.parsed + self.malformed + self.unmapped

    def as_dict(self) -> dict[str, int]:
        return {"lines_total": self.lines_total, **asdict(self)}


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


def _parse_day(text: str) -> int | None:
    """Ordinal of an MMDDYYYY date inside the plausible window, else None."""
    text = text.strip()
    if len(text) != 8 or not (text.isascii() and text.isdigit()):
        return None
    try:
        when = date(int(text[4:8]), int(text[0:2]), int(text[2:4]))
    except ValueError:
        return None
    return when.toordinal() if _PLAUSIBLE_MIN <= when <= _PLAUSIBLE_MAX else None


def _parse_amount_cents(text: str) -> int | None:
    """Cents of a dollar amount that ``parse_ascii_number`` reads, else None."""
    try:
        dollars = parse_ascii_number(text)
    except ValueError:
        return None
    if not abs(dollars) <= MAX_AMOUNT_DOLLARS:  # also rejects nan
        return None
    return round(dollars * 100)


def parse_fec_file(
    lines: Iterable[str] | IO[str],
    committee_map: Mapping[str, str],
    counters: IngestCounters | None = None,
) -> Iterator[DonationRecord]:
    """Stream DonationRecords out of a contribution file.

    The line rules on text, checked in this order: fewer than five fields
    is malformed; then an unparseable date or amount, or a date outside the
    plausible window, is malformed; then a committee missing from
    ``committee_map`` is unmapped. Such lines are skipped, and every
    non-empty line is tallied in ``counters`` under one of the three.
    ``accumulate_fec_file`` applies the same rules, in the same order, to
    raw bytes.
    """
    if counters is None:
        counters = IngestCounters()
    for line in lines:
        line = line.rstrip("\r\n")
        if not line:
            continue
        fields = line.split("|")
        if len(fields) < _FIELDS:
            counters.malformed += 1
            continue
        day = _parse_day(fields[_DATE])
        cents = _parse_amount_cents(fields[_AMOUNT])
        if day is None or cents is None:
            counters.malformed += 1
            continue
        candidate = committee_map.get(fields[_COMMITTEE].strip())
        if candidate is None:
            counters.unmapped += 1
            continue
        counters.parsed += 1
        yield DonationRecord(
            candidate_id=candidate,
            donor_name_raw=fields[_NAME],
            zip=fields[_ZIP].strip(),
            date=date.fromordinal(day),
            amount_cents=cents,
        )


def load_committee_map(stream: Iterable[str] | IO[str]) -> dict[str, str]:
    """Read a committee_id,candidate_id CSV into a lookup table.

    A committee may be listed again for the same candidate; one listed for
    a second candidate raises InvalidValueError naming both and the line.
    """
    table: dict[str, str] = {}
    for lineno, row in read_csv_table(stream, "committee map", ("committee_id", "candidate_id")):
        committee, candidate = (cell.strip() for cell in row)
        if table.setdefault(committee, candidate) != candidate:
            raise InvalidValueError(
                f"line {lineno}: committee {committee!r} maps to {candidate!r}, "
                f"but an earlier line maps it to {table[committee]!r}"
            )
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
        """The four series by metric name, in METRIC_LABELS order; each label names a field."""
        return {label: getattr(self, label) for label in METRIC_LABELS}


def _intake_ended(*_args: object) -> NoReturn:
    raise CampaignTrendsError("a finalized MetricsAccumulator takes no more gifts")


class _FinalizedKeys:
    """What ``finalize`` keeps of the donor-key table: the count. Taking a key raises."""

    __slots__ = ("count",)
    setdefault = staticmethod(_intake_ended)

    def __init__(self, count: int) -> None:
        self.count = count

    def __len__(self) -> int:
        return self.count


class MetricsAccumulator:
    """Columnar, order-independent accumulation of one candidate's donations.

    Every positive gift enters through ``_push``, which interns the donor
    key (``normalize_donor_name`` and ``zip5`` joined by ``|``, in UTF-8)
    to an int and buffers a (donor, day, cents) row; ``add`` and
    ``accumulate_fec_file`` drop refunds and zero amounts before it. Once
    ``max(_CHUNK_ROWS, pairs // 4)`` rows are buffered, ``_reduce`` folds
    them into three tables, and earlier, from ``max(_CHUNK_ROWS // 4,
    pairs // 4)`` rows on, once the rows are at least twice the donors
    interned since the last fold (the donors the first-gift tables do not
    hold yet):

    - the sorted distinct packed (donor, day) pairs, one int64 each, which
      count the donors of each day;
    - per donor id, the day of its first gift and the cents given that day
      (an earlier day replaces both, the same day adds its cents), which
      give the first-time donors and their dollars;
    - per day from the earliest gift to the latest, the cents of all gifts.

    So memory holds 8 bytes per distinct pair, 16 per donor and 8 per day,
    plus at most the buffered rows, and each buffered row pays for at most
    five pairs sorted. An early fold cannot grow the first two tables by
    more than the 16 bytes per row it frees: each row becomes at most one
    pair, and each new donor, at most one per two rows, 16 bytes of first
    gift. A one-time donor's rows never fold early. A fold adds the rows'
    cents into the totals, ``_CENTS_ROWS`` rows at a time, then sorts the
    pairs and the rows in place as one array and keeps the first of each
    run of equal pairs; its temporaries stay within three 8-byte words per
    row folded. Gifts dated before any analysis window still decide who is
    a first-time donor inside it.

    ``finalize`` ends intake: it drops the donor-key table, keeping its
    count, before its own fold, and from then on ``add``, ``_push`` and
    ``_fold`` raise ``CampaignTrendsError``. The tables stay, so a repeated
    ``finalize`` and ``first_seen`` give the same results.
    """

    def __init__(self, candidate_id: str) -> None:
        self.candidate_id = candidate_id
        self._donor_ids: dict[bytes, int] = {}
        self._rows = array("q")  # pending packed (donor, day) pairs
        self._row_cents = array("q")
        self._pairs = np.empty(0, np.int64)  # sorted distinct packed pairs
        self._first_day = np.empty(0, np.int64)  # by donor id
        self._first_cents = np.empty(0, np.int64)
        self._day_start = 0  # ordinal of _day_cents[0], the earliest gift's day
        self._day_cents = np.empty(0, np.int64)

    def add(self, record: DonationRecord) -> None:
        if isinstance(self._donor_ids, _FinalizedKeys):
            _intake_ended()
        if record.candidate_id == self.candidate_id and record.amount_cents > 0:
            key = normalize_donor_name(record.donor_name_raw) + "|" + zip5(record.zip)
            self._push(key.encode(), record.date.toordinal(), record.amount_cents)

    def _push(self, key: bytes, day: int, cents: int) -> None:
        """The one entry: buffer a positive gift as a row under the donor's key."""
        ids = self._donor_ids
        rows = self._rows
        rows.append(ids.setdefault(key, len(ids)) << _DAY_BITS | day)
        self._row_cents.append(cents)
        n = len(rows)
        # At the ceiling, max(_CHUNK_ROWS, pairs / 4) rows, or early from max(_CHUNK_ROWS / 4,
        # pairs / 4) rows on, once the donors interned since the last fold (those without a
        # first-gift entry yet) are at most half the rows.
        if n >= _CHUNK_ROWS >> 2 and n >= len(self._pairs) >> 2 and (
            n >= _CHUNK_ROWS or n >= 2 * (len(ids) - len(self._first_day))
        ):
            self._reduce()

    def _reduce(self, *, pairs: np.ndarray | None = None) -> None:
        """Fold the buffered rows, and the packed pairs ``pairs`` if given, into the tables."""
        if pairs is None:
            pairs = np.empty(0, np.int64)
        rows = np.frombuffer(self._rows, np.int64)
        if not len(rows) and not len(pairs):
            return
        cents = np.frombuffer(self._row_cents, np.int64)
        for at in range(0, len(rows), _CENTS_ROWS):
            self._add_cents(rows[at:at + _CENTS_ROWS], cents[at:at + _CENTS_ROWS])
        del cents
        folded = np.concatenate([self._pairs, rows, pairs])
        # The copy now holds the old table and the rows, so both are freed before the sort.
        del rows
        self._pairs = np.empty(0, np.int64)
        self._rows, self._row_cents = array("q"), array("q")
        folded.sort()
        keep = np.empty(len(folded), bool)
        keep[:1] = True
        np.not_equal(folded[1:], folded[:-1], out=keep[1:])
        self._pairs = folded[keep]

    def _add_cents(self, rows: np.ndarray, cents: np.ndarray) -> None:
        """Add the cents of the packed ``rows`` to the per-day and first-gift totals."""
        day = rows & _DAY_MASK
        self._cover_days(int(day.min()), int(day.max()))
        day -= self._day_start  # in place, as below: each temporary not made lowered the peak RSS
        np.add.at(self._day_cents, day, cents)
        day += self._day_start
        self._add_first_gifts(rows >> _DAY_BITS, day, cents)

    def _add_first_gifts(self, donor: np.ndarray, day: np.ndarray, cents: np.ndarray) -> None:
        """Merge gifts of ``cents`` on ``day`` by ``donor`` id into the first-gift totals.

        An earlier day than a donor's first replaces it and its cents; the
        same day adds its cents; a later day changes nothing.
        """
        self._grow_donors()
        first = self._first_day
        seen = first[donor]
        self._first_cents[donor[day < seen]] = 0
        np.minimum.at(first, donor, day)
        fresh = day == np.take(first, donor, out=seen)  # the first days after the update
        np.add.at(self._first_cents, donor[fresh], cents[fresh])

    def _cover_days(self, low: int, high: int) -> None:
        """Widen the per-day totals to span the ordinals ``low..high`` too."""
        start, size = self._day_start, len(self._day_cents)
        if size and start <= low and high < start + size:
            return
        new_start = min(low, start) if size else low
        grown = np.zeros(max(high + 1, start + size) - new_start, np.int64)
        grown[start - new_start:start - new_start + size] = self._day_cents
        self._day_start, self._day_cents = new_start, grown

    def _grow_donors(self) -> None:
        """Extend the first-gift tables to every interned donor; a new donor has no gift yet."""
        held, n = len(self._first_day), len(self._donor_ids)
        if held < n:
            day, cents = np.full(n, _NO_DAY, np.int64), np.zeros(n, np.int64)
            day[:held], cents[:held] = self._first_day, self._first_cents
            self._first_day, self._first_cents = day, cents

    def _fold(
        self, keys: list[bytes], pairs: np.ndarray, first_day: np.ndarray, first_cents: np.ndarray,
        day_cents: np.ndarray,
    ) -> None:
        """Add another accumulator's tables, its donor keys in id order."""
        ids = self._donor_ids
        if isinstance(ids, _FinalizedKeys):
            _intake_ended()
        local = np.array([ids.setdefault(key, len(ids)) for key in keys], np.int64)
        self._add_first_gifts(local, first_day, first_cents)
        if len(day_cents):  # they start on the other's earliest gift day, its earliest first gift day
            start = int(first_day.min())
            self._cover_days(start, start + len(day_cents) - 1)
            self._day_cents[start - self._day_start:][:len(day_cents)] += day_cents
        # A packed pair of its donor i plus shift[i] is the same pair under that donor's id here.
        shift = local - np.arange(len(keys))
        shift <<= _DAY_BITS
        # The one new pair-sized array. take reads each index before it writes that slot, and
        # writes out directly in any mode but "raise", which would copy out first.
        folded = pairs >> _DAY_BITS
        np.take(shift, folded, out=folded, mode="clip")
        folded += pairs
        self._reduce(pairs=folded)

    @property
    def first_seen(self) -> np.ndarray:
        """Ordinal day of each donor's first positive gift, indexed by donor id."""
        self._reduce()
        return self._first_day.copy()

    def finalize(self, range_: DateRange) -> DailyDonationMetrics:
        """End intake and collapse the accumulated state into the four daily series.

        The donor keys are dropped before the buffered rows are folded, since
        nothing reads them again; only their count is kept.
        """
        if not isinstance(self._donor_ids, _FinalizedKeys):
            self._donor_ids = _FinalizedKeys(len(self._donor_ids))
            self._reduce()
        n = len(range_)
        start = range_.start.toordinal()

        def bins(days: np.ndarray) -> np.ndarray:
            """Each day's bin, in place: 1..n inside the range, 0 before it and n + 1 after it."""
            days -= start - 1
            return np.clip(days, 0, n + 1, out=days)

        donors = np.bincount(bins(self._pairs & _DAY_MASK), minlength=n + 2)
        first = bins(self._first_day.copy())
        new_donors = np.bincount(first, minlength=n + 2)
        cents = np.zeros((2, n + 2), np.int64)  # of all gifts, of first gifts
        np.add.at(cents[0], bins(np.arange(len(self._day_cents)) + self._day_start), self._day_cents)
        np.add.at(cents[1], first, self._first_cents)

        def mk(label: str, values: np.ndarray) -> TimeSeries:
            return TimeSeries(range_.start, values, label=label, candidate=self.candidate_id)

        return DailyDonationMetrics(
            candidate_id=self.candidate_id,
            donors=mk("donors", donors[1:-1].astype(float)),
            new_donors=mk("new_donors", new_donors[1:-1].astype(float)),
            amount=mk("amount", cents[0, 1:-1] / 100.0),
            new_donor_amount=mk("new_donor_amount", cents[1, 1:-1] / 100.0),
        )


def accumulate_fec_file(
    blocks: Iterable[bytes],
    committee_map: Mapping[str, str],
    accumulators: Mapping[str, MetricsAccumulator],
    counters: IngestCounters,
) -> None:
    """Stream a contribution file, as blocks of whole lines of raw bytes, into accumulators.

    The ingest kernel. Each block is split at newline bytes, a CRLF pair or
    a lone CR counting as one, and lines are validated and counted exactly
    as ``parse_fec_file`` does over the file decoded as UTF-8 with
    replacement. A field is decoded only when its raw bytes are new to the
    file or, for a donor name or zip, when they are not plain ASCII; since
    ``|``, CR and LF are ASCII, decoding one field gives the text that
    decoding its line gives. No record objects are built. Parsed lines of
    candidates without an accumulator are counted and dropped.
    """
    pushes: dict[bytes, object] = {}  # committee -> its accumulator's _push, None or _UNMAPPED
    days: dict[bytes, int | None] = {}
    amounts: dict[bytes, int | None] = {}
    parsed = malformed = unmapped = 0
    for block in blocks:
        if b"\r" in block:  # universal newlines, as text mode reads them
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        for line in block.split(b"\n"):
            fields = line.split(b"|")
            if len(fields) < _FIELDS:
                if line:
                    malformed += 1
                continue
            raw = fields[_DATE]
            day = days.get(raw, _UNSEEN)
            if day is _UNSEEN:
                day = _parse_day(raw.decode("utf-8", "replace"))
                if len(days) < _PARSE_CACHE_MAX:
                    days[raw] = day
            raw = fields[_AMOUNT]
            cents = amounts.get(raw, _UNSEEN)
            if cents is _UNSEEN:
                cents = _parse_amount_cents(raw.decode("utf-8", "replace"))
                if len(amounts) < _PARSE_CACHE_MAX:
                    amounts[raw] = cents
            if day is None or cents is None:
                malformed += 1
                continue
            raw = fields[_COMMITTEE]
            push = pushes.get(raw, _UNSEEN)
            if push is _UNSEEN:
                candidate = committee_map.get(raw.decode("utf-8", "replace").strip())
                if candidate is None:
                    push = _UNMAPPED
                else:
                    acc = accumulators.get(candidate)
                    push = None if acc is None else acc._push
                if len(pushes) < _PARSE_CACHE_MAX:
                    pushes[raw] = push
            if push is _UNMAPPED:
                unmapped += 1
                continue
            parsed += 1
            if push is None or cents <= 0:
                continue
            # The donor key of the decoded fields, as MetricsAccumulator.add makes it; an ASCII
            # name and a zip that starts with five ASCII digits are keyed without decoding.
            name = fields[_NAME]
            if name.isascii():
                name = b" ".join(name.translate(_ASCII_TABLE, _ASCII_DELETE).split())
            else:
                name = normalize_donor_name(name.decode("utf-8", "replace")).encode()
            zip_ = fields[_ZIP]
            head = zip_[:5]
            if len(head) != 5 or not head.isdigit():  # bytes.isdigit is ASCII digits only
                head = zip5(zip_.decode("utf-8", "replace")).encode()
            push(name + b"|" + head, day, cents)
    counters.parsed += parsed
    counters.malformed += malformed
    counters.unmapped += unmapped


def ingest_fec_paths(
    paths: Sequence[str | os.PathLike[str]],
    committee_map: Mapping[str, str],
    candidates: Iterable[str],
    range_: DateRange,
    counters: IngestCounters,
) -> dict[str, DailyDonationMetrics]:
    """The four daily series over ``range_`` of each of ``candidates``, from the files at ``paths``.

    Each file goes through ``accumulate_fec_path`` into one accumulator per
    candidate, and its lines are tallied in ``counters``. In the last
    file's fold each candidate is finalized as soon as its tables are
    folded, and its accumulator is dropped before the next candidate's
    tables arrive, so this process holds at most one candidate's merged
    tables at a time.
    """
    accumulators = {c: MetricsAccumulator(c) for c in candidates}
    metrics: dict[str, DailyDonationMetrics] = {}

    def finish(candidate: str) -> None:
        metrics[candidate] = accumulators.pop(candidate).finalize(range_)

    for i, path in enumerate(paths, 1):
        accumulate_fec_path(path, committee_map, accumulators, counters, finish if i == len(paths) else None)
    for candidate in list(accumulators):  # left only when there is no file
        finish(candidate)
    return metrics


def accumulate_fec_path(
    path: str | os.PathLike[str],
    committee_map: Mapping[str, str],
    accumulators: Mapping[str, MetricsAccumulator],
    counters: IngestCounters,
    folded: Callable[[str], None] | None = None,
) -> None:
    """Parse the contribution file at ``path`` into ``accumulators``, in parallel.

    The file is cut into byte ranges that end just after a newline byte, at
    most one per usable CPU and each at least ``_SHARD_MIN_BYTES`` long.
    One worker process per range, range 0 included, runs
    ``accumulate_fec_file`` over it; this process parses none. Then the
    workers' counters are added to ``counters``, and one candidate at a
    time, in the order of ``accumulators``, every worker's tables for it
    are folded into its accumulator, in range order, and
    ``folded(candidate)`` is called if given; it may drop that accumulator
    from ``accumulators``, freeing its tables before the next candidate's
    are received. Each range is read by ``_range_blocks``, range 0 skipping
    a leading BOM, and a newline byte never falls inside a character or a
    CRLF pair, so the result equals one pass over the file. A file that is
    not cut, such as a small one or a pipe (whose size reads 0), or any
    file where ``os.pread`` is missing, is one range 0 that this process
    reads as one stream by the same reader, and starts no worker.

    Each worker is a new interpreter that inherits the descriptor this
    process opened, under the same number, and reads its range by
    position, so every range is read from the file that was cut, even once
    ``path`` names another file or none. A worker imports
    ``campaigntrends`` and never the caller's ``__main__``, so a script
    needs no entry-point guard. A range that cannot be read raises its
    error here. A worker that ends without a result raises
    ``CampaignTrendsError``. On any error every worker is terminated, and
    every worker is waited for.
    """
    with open(path, "rb", buffering=0) as raw:
        size = os.fstat(raw.fileno()).st_size
        shards = min(_usable_cpus(), size // _SHARD_MIN_BYTES) if hasattr(os, "pread") else 1
        bounds = _range_bounds(raw, size, shards) if shards >= 2 else [0, None]
        workers = []
        finished = False
        try:
            if len(bounds) == 2:  # not cut: this process parses the one range
                accumulate_fec_file(_range_blocks(raw, *bounds), committee_map, accumulators, counters)
            else:
                for start, stop in zip(bounds, bounds[1:]):
                    workers.append(_start_worker(raw.fileno(), start, stop))
                    # sent once the worker is listed, so a failed send still stops and waits for it
                    workers[-1][1].send((dict(committee_map), tuple(accumulators)))
            _fold_workers(workers, accumulators, counters, folded)
            finished = True
        finally:
            for worker, conn in workers:
                if not finished:
                    worker.terminate()
                worker.wait()
                conn.close()


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _range_bounds(raw: BinaryIO, size: int, shards: int) -> list[int]:
    """Offsets 0 < ... < size that cut a file into at most ``shards`` ranges.

    Each inner cut sits just after the first newline byte at or past its
    even share of ``size``; a cut that a long line pushes to the end of the
    file, or onto an earlier cut, is dropped.
    """
    bounds = [0]
    for i in range(1, shards):
        target = i * size // shards
        if target <= bounds[-1]:
            continue
        raw.seek(target - 1)
        cut = target - 1
        while block := raw.read(1 << 16):
            found = block.find(b"\n")
            if found >= 0:
                cut += found + 1
                break
            cut += len(block)
        if cut >= size:
            break
        bounds.append(cut)
    bounds.append(size)
    return bounds


def _range_blocks(raw: BinaryIO, start: int, stop: int | None) -> Iterator[bytes]:
    """Bytes [start, stop) of ``raw`` in blocks of whole lines, for ``accumulate_fec_file``.

    Reads ``_BLOCK_BYTES`` at a time and yields up to just after the last
    newline byte read, or after the last CR when a read holds no newline
    byte, so no line is split across blocks. A CRLF pair split that way
    reads as a line end and an empty line, which is skipped. With ``stop``
    None: the rest of ``raw`` from where it stands, by ``raw.read``, so a
    pipe reads too. Otherwise each read is an ``os.pread`` by position,
    which never moves the file offset that other processes may share. A
    range that starts at byte 0 skips a UTF-8 BOM.
    """
    fd = None if stop is None else raw.fileno()
    at = start
    bom = start == 0
    pending: list[bytes] = []  # read since the last cut; holds no newline byte
    while True:
        if fd is None:
            chunk = raw.read(_BLOCK_BYTES)
        else:
            chunk = os.pread(fd, min(_BLOCK_BYTES, stop - at), at)
            at += len(chunk)
        if not chunk:
            break
        cut = chunk.rfind(b"\n") + 1 or chunk.rfind(b"\r") + 1
        if not cut:
            pending.append(chunk)
            continue
        pending.append(chunk[:cut])
        block = b"".join(pending)
        pending = [chunk[cut:]]
        if bom:
            bom = False
            block = block.removeprefix(BOM_UTF8)
        yield block
    block = b"".join(pending)  # a last line without a line end
    yield block.removeprefix(BOM_UTF8) if bom else block


# A worker's command: this process's sys.path, then ``_parse_range`` on the
# connection, descriptor and byte range that its arguments name.
_WORKER_CODE = (
    "import json, sys; sys.path[:] = json.loads(sys.argv[1]); "
    "from multiprocessing.connection import Connection; from campaigntrends.fec import _parse_range; "
    "_parse_range(Connection(int(sys.argv[2])), *map(int, sys.argv[3:]))"
)


def _start_worker(fd: int, start: int, stop: int):
    """Start a ``_parse_range`` worker on bytes [start, stop) of ``fd``; returns it and its pipe's end."""
    import json  # only a sharded file pays for these imports
    import subprocess
    from multiprocessing.connection import Pipe

    conn, child_conn = Pipe()  # duplex, so the worker reads its task and sends its result on one end
    with child_conn:
        args = [json.dumps(sys.path), child_conn.fileno(), fd, start, stop]
        worker = subprocess.Popen(
            [sys.executable, "-c", _WORKER_CODE, *map(str, args)],
            pass_fds=(fd, child_conn.fileno()),
            stdin=subprocess.DEVNULL,
        )
    return worker, conn


def _parse_range(conn, fd: int, start: int, stop: int) -> None:
    """Worker: parse bytes [start, stop) of the file open on ``fd`` and send the result on ``conn``.

    Every range of a cut file is parsed here, range 0 too, which skips a
    leading BOM because it starts at byte 0. ``conn`` first brings the
    committee map and the candidates. The worker sends its IngestCounters,
    then five messages per candidate: the donor keys as one newline-joined
    blob (in id order), then as raw int64 bytes the sorted packed (donor,
    day) pairs, each donor's first gift day and its cents that day (by id),
    and the cents of each day from the range's earliest gift day, which is
    its earliest first gift day. Each candidate's accumulator is dropped
    once sent, before the next one's fold. When the range cannot be read,
    it sends the error alone.
    """
    with conn:
        committee_map, candidates = conn.recv()
        counters = IngestCounters()
        accumulators = {c: MetricsAccumulator(c) for c in candidates}
        try:
            with open(fd, "rb", buffering=0) as raw:
                accumulate_fec_file(_range_blocks(raw, start, stop), committee_map, accumulators, counters)
        except OSError as exc:
            conn.send(exc)
            return
        conn.send(counters)
        for candidate in candidates:
            acc = accumulators.pop(candidate)  # the one reference, replaced by the next pop
            acc._reduce()
            conn.send_bytes(b"\n".join(acc._donor_ids))
            for table in (acc._pairs, acc._first_day, acc._first_cents, acc._day_cents):
                conn.send_bytes(table)


def _fold_workers(
    workers: list, accumulators: Mapping[str, MetricsAccumulator], counters: IngestCounters,
    folded: Callable[[str], None] | None,
) -> None:
    """Receive the ``_parse_range`` results of ``workers`` and fold them into this process's state.

    Every worker's counters come first. Then, for each candidate in the
    order of ``accumulators``, each worker's five messages for it (the
    keys, then the pairs, first gift days, first gift cents and per-day
    cents that ``MetricsAccumulator._fold`` merges) are folded into its
    accumulator, and ``folded(candidate)`` is called if given.
    """
    try:
        for worker, conn in workers:
            message = conn.recv()
            if isinstance(message, BaseException):
                raise message
            for name, value in asdict(message).items():  # the three counted fields, not lines_total
                setattr(counters, name, getattr(counters, name) + value)
        for candidate in list(accumulators):  # a copy, since ``folded`` may drop candidates
            for worker, conn in workers:
                blob = conn.recv_bytes()
                tables = [np.frombuffer(conn.recv_bytes(), np.int64) for _ in range(4)]
                accumulators[candidate]._fold(blob.split(b"\n") if blob else [], *tables)
                del blob, tables  # freed before the candidate may be finalized
            if folded is not None:
                folded(candidate)
    except (EOFError, ConnectionResetError):  # a reset: it died with its task unread
        raise CampaignTrendsError(
            f"an ingest worker ended with exit code {worker.wait()} before sending its result"
        ) from None


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
