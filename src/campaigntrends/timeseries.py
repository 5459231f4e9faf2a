"""Daily-grid time series and calendar-range utilities.

Every metric in this package lives on a regular daily grid: one float per
consecutive calendar day, no gaps. Ingestion places raw observations on that
grid (``fec`` fills days without donations with zero, ``polls`` interpolates
between poll rows), after which all downstream code can index by plain day
offsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .exceptions import InvalidValueError, RangeTooNarrowError

__all__ = ["DateRange", "TimeSeries"]


@dataclass(frozen=True, order=True)
class DateRange:
    """An inclusive range of calendar days."""

    start: date
    end: date

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise InvalidValueError(f"range start {self.start} is after end {self.end}")

    def __contains__(self, day: date) -> bool:
        return self.start <= day <= self.end

    def __len__(self) -> int:
        return (self.end - self.start).days + 1


@dataclass(frozen=True)
class TimeSeries:
    """One metric for one candidate on a gap-free daily grid.

    Attributes:
        start_date: Calendar date of ``values[0]``; ``values[i]`` belongs to
            ``start_date + i`` days.
        values: Float array, one entry per consecutive day, all finite,
            length >= 3. The array is made read-only on construction.
        label: Metric name ("poll", "donors", ...).
        candidate: Candidate identifier the metric belongs to.
    """

    start_date: date
    values: np.ndarray
    label: str = ""
    candidate: str = ""

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise InvalidValueError("time series values must be one-dimensional")
        if arr.shape[0] < 3:
            raise RangeTooNarrowError(
                f"a time series needs at least 3 daily values, got {arr.shape[0]}"
            )
        if not np.all(np.isfinite(arr)):
            raise InvalidValueError(f"non-finite value in series {self.label!r}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def date_at(self, index: int) -> date:
        if not 0 <= index < len(self):
            raise IndexError(f"day index {index} outside series of length {len(self)}")
        return self.start_date + timedelta(days=index)

