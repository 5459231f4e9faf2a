"""Exception types shared across the package."""


class CampaignTrendsError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateDateError(CampaignTrendsError):
    """Two observations were supplied for the same calendar date."""


class MissingDayError(CampaignTrendsError):
    """A required day has no observation and may not be filled (a poll gap over the limit)."""


class RangeTooNarrowError(CampaignTrendsError):
    """A date range is empty or produces a series shorter than three days."""


class GridMismatchError(CampaignTrendsError):
    """Series that must share one daily grid have different starts or lengths."""


class InvalidValueError(CampaignTrendsError):
    """A value is outside its documented domain (negative share input, pct bounds, ...)."""


class UnknownCandidateError(CampaignTrendsError):
    """The requested candidate does not appear in the input."""


class InvalidInputError(CampaignTrendsError):
    """Numeric input to the solver is malformed (non-finite, too short, bad lambda)."""
