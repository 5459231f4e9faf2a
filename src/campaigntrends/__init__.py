"""Joinpoint trend analysis for campaign polling and donation time series.

The package fits continuous piecewise-linear trends to daily campaign
metrics via order-1 L1 trend filtering, reads changepoints and falling
regions off the fits, and lines those changepoints up against external
events and against each other across metrics.
"""

from .analysis import (
    Changepoint,
    Direction,
    EventAlignment,
    EventMatch,
    LeadLagReport,
    MatchedPair,
    ShareResult,
    TrendRegions,
    align_events,
    classify_changepoints,
    lead_lag,
    load_events,
    normalize_share,
    trend_regions,
)
from .config import AnalysisConfig
from .exceptions import (
    CampaignTrendsError,
    DuplicateDateError,
    GridMismatchError,
    InvalidInputError,
    InvalidValueError,
    MissingDayError,
    RangeTooNarrowError,
    UnknownCandidateError,
)
from .fec import (
    DailyDonationMetrics,
    DonationRecord,
    IngestCounters,
    MetricsAccumulator,
    daily_donation_metrics,
    load_committee_map,
    normalize_donor_name,
    parse_fec_file,
)
from .polls import load_poll_series
from .synth import piecewise_linear, synth_values
from .timeseries import DateRange, TimeSeries
from .trendfilter import (
    Segment,
    TrendFit,
    extract_segments,
    fit_with_target_df,
    lambda_max,
    oracle_solve,
    second_difference,
    solve_tf,
    target_df_for_span,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "CampaignTrendsError",
    "Changepoint",
    "DailyDonationMetrics",
    "DateRange",
    "Direction",
    "DonationRecord",
    "DuplicateDateError",
    "EventAlignment",
    "EventMatch",
    "GridMismatchError",
    "IngestCounters",
    "InvalidInputError",
    "InvalidValueError",
    "LeadLagReport",
    "MatchedPair",
    "MetricsAccumulator",
    "MissingDayError",
    "RangeTooNarrowError",
    "Segment",
    "ShareResult",
    "TimeSeries",
    "TrendFit",
    "TrendRegions",
    "UnknownCandidateError",
    "align_events",
    "classify_changepoints",
    "daily_donation_metrics",
    "extract_segments",
    "fit_with_target_df",
    "lambda_max",
    "lead_lag",
    "load_committee_map",
    "load_events",
    "load_poll_series",
    "normalize_donor_name",
    "normalize_share",
    "oracle_solve",
    "piecewise_linear",
    "second_difference",
    "solve_tf",
    "synth_values",
    "target_df_for_span",
    "trend_regions",
]
