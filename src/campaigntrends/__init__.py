"""Joinpoint trend analysis for campaign polling and donation time series.

The package fits continuous piecewise-linear trends to daily campaign
metrics via order-1 L1 trend filtering, reads changepoints and falling
regions off the fits, and lines those changepoints up against external
events and against each other across metrics.

Importing the package loads none of its modules. ``_PUBLIC`` names each
public name once, under the module that defines it; ``__all__`` is read off
it, and a module-level ``__getattr__`` (PEP 562) imports a name's module the
first time the name is used. A submodule (``campaigntrends.fec``) resolves
the same way, so a command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC = {
    "analysis": (
        "Changepoint", "Direction", "EventAlignment", "EventMatch", "LeadLagReport",
        "MatchedPair", "ShareResult", "TrendRegions", "align_events", "classify_changepoints",
        "lead_lag", "load_events", "normalize_share", "trend_regions",
    ),
    "config": ("AnalysisConfig",),
    "exceptions": (
        "CampaignTrendsError", "DuplicateDateError", "GridMismatchError", "InvalidInputError",
        "InvalidValueError", "MissingDayError", "RangeTooNarrowError", "UnknownCandidateError",
    ),
    "fec": (
        "DailyDonationMetrics", "DonationRecord", "IngestCounters", "MetricsAccumulator",
        "daily_donation_metrics", "load_committee_map", "normalize_donor_name",
    ),
    "polls": ("load_poll_series",),
    "synth": ("piecewise_linear", "synth_values"),
    "timeseries": ("DateRange", "TimeSeries"),
    "trendfilter": (
        "Segment", "TrendFit", "extract_segments", "fit_with_target_df", "lambda_max",
        "oracle_solve", "second_difference", "solve_tf", "target_df_for_span",
    ),
}
_MODULES = frozenset({*_PUBLIC, "cli", "store"})
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_MODULES})
