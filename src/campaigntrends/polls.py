"""Ingestion of pre-aggregated daily national polling averages.

Input is a curated CSV (date,candidate,pct with YYYY-MM-DD dates and pct
written in ASCII), framed by ``store.read_csv_table`` (header, blank rows,
exactly three fields per row, line numbers), so unlike the bulk donation
parser this loader raises on the first bad row instead of skipping. Missing
days are linearly interpolated because an aggregated national average is
expected to be near-daily; a run of more than MAX_POLL_GAP_DAYS consecutive
missing days is treated as broken input.
"""

from __future__ import annotations

from datetime import date
from typing import IO, Iterable, Iterator

import numpy as np

from .exceptions import (
    DuplicateDateError,
    InvalidValueError,
    MissingDayError,
    UnknownCandidateError,
)
from .store import POLL_METRIC, parse_ascii_number, parse_iso_date, read_csv_table
from .timeseries import DateRange, TimeSeries

__all__ = ["MAX_POLL_GAP_DAYS", "load_poll_series"]

MAX_POLL_GAP_DAYS = 7

POLL_HEADER = ("date", "candidate", "pct")


def _parse_rows(stream: Iterable[str] | IO[str]) -> Iterator[tuple[date, str, float]]:
    """Yield (date, candidate, pct) per data row; raise on the first bad row."""
    for lineno, row in read_csv_table(stream, "poll CSV", POLL_HEADER):
        try:
            when = parse_iso_date(row[0].strip())
        except ValueError:
            raise InvalidValueError(f"line {lineno}: bad date {row[0]!r}") from None
        try:
            pct = parse_ascii_number(row[2])
        except ValueError:
            raise InvalidValueError(f"line {lineno}: bad pct {row[2]!r}") from None
        if not 0.0 <= pct <= 100.0:
            raise InvalidValueError(f"line {lineno}: pct {pct} outside [0, 100]")
        candidate = row[1].strip()
        if not candidate:
            raise InvalidValueError(f"line {lineno}: empty candidate")
        yield when, candidate, pct


def load_poll_series(
    stream: Iterable[str] | IO[str], candidate: str, range_: DateRange
) -> TimeSeries:
    """Load one candidate's daily poll average over a range, in percent.

    Observed values are kept exactly; missing days are linearly interpolated
    (flat at the edges). Raises UnknownCandidateError when the candidate has
    no rows at all, and MissingDayError when any run of missing days inside
    the range exceeds MAX_POLL_GAP_DAYS.
    """
    seen_candidate = False
    points: list[tuple[date, float]] = []
    for when, name, pct in _parse_rows(stream):
        if name != candidate:
            continue
        seen_candidate = True
        if when in range_:
            points.append((when, pct))
    if not seen_candidate:
        raise UnknownCandidateError(f"no poll rows for candidate {candidate!r}")
    if not points:
        raise MissingDayError(
            f"candidate {candidate!r} has no poll rows inside "
            f"{range_.start}..{range_.end}"
        )

    grid = np.full(len(range_), np.nan)
    for day, pct in points:
        idx = (day - range_.start).days
        if not np.isnan(grid[idx]):
            raise DuplicateDateError(f"duplicate poll row for {candidate!r} on {day}")
        grid[idx] = pct
    obs_idx = np.flatnonzero(~np.isnan(grid))
    # the longest run of missing days: leading, between observations or trailing
    gap = int(np.diff(obs_idx, prepend=-1, append=len(grid)).max()) - 1
    if gap > MAX_POLL_GAP_DAYS:
        raise MissingDayError(
            f"{gap} consecutive days without a poll observation for "
            f"{candidate!r} (limit {MAX_POLL_GAP_DAYS})"
        )

    values = np.interp(np.arange(len(grid)), obs_idx, grid[obs_idx])
    return TimeSeries(range_.start, values, label=POLL_METRIC, candidate=candidate)

