"""Trend analysis on fitted series: shares, changepoints, events, lead/lag.

This is where fits turn into statements about a campaign: which way each
joinpoint bends, when a trend is falling, which external events sit close
to which changepoints, and how the changepoints of two metrics line up in
time against each other. The events CSV (date,label) is read through
``store.read_csv_table``; the event window and the lead/lag gap have no
defaults here, since ``AnalysisConfig`` holds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from enum import Enum
from typing import IO, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .exceptions import GridMismatchError, InvalidValueError
from .store import parse_iso_date, read_csv_table
from .timeseries import DateRange, TimeSeries
from .trendfilter import TrendFit

__all__ = [
    "Changepoint",
    "Direction",
    "EventAlignment",
    "EventMatch",
    "LeadLagReport",
    "MatchedPair",
    "ShareResult",
    "TrendRegions",
    "align_events",
    "classify_changepoints",
    "lead_lag",
    "load_events",
    "normalize_share",
    "trend_regions",
]

class Direction(Enum):
    """Which way the slope moves across a changepoint (UP = steeper after)."""

    UP = "UP"
    DOWN = "DOWN"


@dataclass(frozen=True)
class Changepoint:
    """A knot with its calendar date and the slopes on either side."""

    index: int
    date: date
    slope_before: float
    slope_after: float
    direction: Direction

    @classmethod
    def from_slopes(
        cls, index: int, when: date, slope_before: float, slope_after: float
    ) -> "Changepoint":
        direction = Direction.UP if slope_after > slope_before else Direction.DOWN
        return cls(index, when, slope_before, slope_after, direction)


@dataclass(frozen=True)
class TrendRegions:
    """Falling (negative-slope) and rising date ranges tiling a fit's span."""

    falling: tuple[DateRange, ...]
    rising: tuple[DateRange, ...]


class EventMatch(NamedTuple):
    series: str
    changepoint: Changepoint
    offset_days: int


@dataclass(frozen=True)
class EventAlignment:
    """All changepoints found within the window around one event."""

    event_date: date
    event_label: str
    matches: tuple[EventMatch, ...]


class MatchedPair(NamedTuple):
    a: Changepoint
    b: Changepoint
    offset_days: int


@dataclass(frozen=True)
class LeadLagReport:
    """Greedy nearest-date pairing between two changepoint lists.

    ``offset_days`` is date_b - date_a, so a negative median means the B
    series' changepoints tend to come first.
    """

    pairs: tuple[MatchedPair, ...]
    unmatched_a: tuple[Changepoint, ...]
    unmatched_b: tuple[Changepoint, ...]
    median_offset: float | None


@dataclass(frozen=True)
class ShareResult:
    """Per-candidate daily shares plus the days whose total was zero."""

    shares: dict[str, TimeSeries]
    zero_days: tuple[date, ...]


def normalize_share(series_by_candidate: Mapping[str, TimeSeries]) -> ShareResult:
    """Convert aligned raw series into each candidate's share of the daily total.

    All series must share one grid (same start date and length) and hold
    nonnegative values whose daily total is finite. On days where every
    candidate is zero the shares are all set to 0 and the day is reported in
    ``zero_days``.
    """
    if not series_by_candidate:
        raise InvalidValueError("no series to normalize")
    items = sorted(series_by_candidate.items())
    first = items[0][1]
    for name, ts in items:
        if ts.start_date != first.start_date or len(ts) != len(first):
            raise GridMismatchError(
                f"series for {name!r} spans {ts.start_date}+{len(ts)}d, expected "
                f"{first.start_date}+{len(first)}d"
            )
        if np.any(ts.values < 0):
            raise InvalidValueError(f"negative value in series for {name!r}")
    stacked = np.vstack([ts.values for _, ts in items])
    with np.errstate(over="ignore"):
        totals = stacked.sum(axis=0)
    if not np.isfinite(totals).all():
        day = first.start_date + timedelta(days=int(np.argmin(np.isfinite(totals))))
        raise InvalidValueError(f"the daily total on {day} is too large for a float")
    zero = totals == 0.0
    safe = np.where(zero, 1.0, totals)
    shares = stacked / safe
    shares[:, zero] = 0.0
    out = {
        name: TimeSeries(ts.start_date, shares[i], label=ts.label, candidate=ts.candidate)
        for i, (name, ts) in enumerate(items)
    }
    zero_days = tuple(
        first.start_date + timedelta(days=int(i)) for i in np.flatnonzero(zero)
    )
    return ShareResult(shares=out, zero_days=zero_days)


def classify_changepoints(fit: TrendFit, start_date: date) -> list[Changepoint]:
    """One directed changepoint per knot, slopes read off the adjacent segments."""
    out = []
    for left, right in zip(fit.segments[:-1], fit.segments[1:]):
        when = start_date + timedelta(days=right.start)
        out.append(Changepoint.from_slopes(right.start, when, left.slope, right.slope))
    return out


def trend_regions(fit: TrendFit, start_date: date) -> TrendRegions:
    """Merge consecutive same-sign segments into maximal falling/rising ranges.

    A segment falls when its slope is negative; zero-slope segments count as
    rising so the regions always tile the span. The day a new trend starts
    (the knot itself) belongs to the new region.
    """
    runs: list[tuple[bool, int, int]] = []  # (is_falling, start index, end index)
    for seg in fit.segments:
        falling = seg.slope < 0
        if runs and runs[-1][0] == falling:
            runs[-1] = (falling, runs[-1][1], seg.end)
        else:
            runs.append((falling, seg.start, seg.end))
    falling_ranges = []
    rising_ranges = []
    for i, (is_falling, start, end) in enumerate(runs):
        # the knot day opens the next run, so each run yields to its successor
        hi = runs[i + 1][1] - 1 if i + 1 < len(runs) else end
        rng = DateRange(
            start_date + timedelta(days=start), start_date + timedelta(days=hi)
        )
        (falling_ranges if is_falling else rising_ranges).append(rng)
    return TrendRegions(falling=tuple(falling_ranges), rising=tuple(rising_ranges))


def align_events(
    labeled_changepoints: Iterable[tuple[str, Changepoint]],
    events: Sequence[tuple[date, str]],
    window_days: int,
) -> list[EventAlignment]:
    """For each event, collect changepoints within the window, nearest first.

    ``labeled_changepoints`` pairs each changepoint with the name of the
    series it came from, so alignments across many candidates and metrics
    can be reported together. Matches sort by |offset|, then offset, then
    series label, making the output deterministic.
    """
    if window_days <= 0:
        raise InvalidValueError(f"window_days must be positive, got {window_days}")
    cps = list(labeled_changepoints)
    out = []
    for event_date, label in events:
        matches = []
        for series, cp in cps:
            offset = (cp.date - event_date).days
            if abs(offset) <= window_days:
                matches.append(EventMatch(series, cp, offset))
        matches.sort(key=lambda m: (abs(m.offset_days), m.offset_days, m.series, m.changepoint.index))
        out.append(EventAlignment(event_date, label, tuple(matches)))
    return out


def lead_lag(
    cps_a: Sequence[Changepoint],
    cps_b: Sequence[Changepoint],
    max_gap_days: int,
) -> LeadLagReport:
    """Pair changepoints of two series by greedy closest-date matching.

    Candidate pairs within ``max_gap_days`` are taken globally closest
    first, ties going to the earlier A date (then the earlier B date); each
    changepoint joins at most one pair. Swapping the inputs mirrors the
    report: offsets negate and the unmatched lists trade places.
    """
    if max_gap_days <= 0:
        raise InvalidValueError(f"max_gap_days must be positive, got {max_gap_days}")
    candidates = []
    for i, a in enumerate(cps_a):
        for j, b in enumerate(cps_b):
            offset = (b.date - a.date).days
            if abs(offset) <= max_gap_days:
                candidates.append((abs(offset), a.date, b.date, i, j))
    candidates.sort()
    used_a: set[int] = set()
    used_b: set[int] = set()
    pairs = []
    for _, _, _, i, j in candidates:
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        pairs.append(MatchedPair(cps_a[i], cps_b[j], (cps_b[j].date - cps_a[i].date).days))
    pairs.sort(key=lambda p: (p.a.date, p.b.date))
    unmatched_a = tuple(cp for i, cp in enumerate(cps_a) if i not in used_a)
    unmatched_b = tuple(cp for j, cp in enumerate(cps_b) if j not in used_b)
    offsets = [p.offset_days for p in pairs]
    return LeadLagReport(
        pairs=tuple(pairs),
        unmatched_a=unmatched_a,
        unmatched_b=unmatched_b,
        median_offset=float(np.median(offsets)) if offsets else None,
    )


def load_events(stream: Iterable[str] | IO[str]) -> list[tuple[date, str]]:
    """Read a date,label CSV of external events (YYYY-MM-DD dates).

    Every row holds exactly the two fields (``store.read_csv_table``), so a
    label with a comma in it must be quoted.
    """
    events = []
    for lineno, row in read_csv_table(stream, "events CSV", ("date", "label")):
        try:
            when = parse_iso_date(row[0].strip())
        except ValueError:
            raise InvalidValueError(f"line {lineno}: bad date {row[0]!r}") from None
        events.append((when, row[1].strip()))
    return events
