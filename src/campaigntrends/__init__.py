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
    EmptyInputError,
    GridMismatchError,
    InvalidInputError,
    InvalidValueError,
    MissingDayError,
    RangeTooNarrowError,
    UnknownCandidateError,
)
from .fec import (
    ColumnMap,
    DailyDonationMetrics,
    DonationRecord,
    DonorKey,
    FEC_BULK_COLUMNS,
    IngestCounters,
    MetricsAccumulator,
    daily_donation_metrics,
    load_committee_map,
    normalize_donor_name,
    parse_fec_file,
)
from .polls import PollPoint, load_poll_series
from .synth import piecewise_linear, synth_values
from .timeseries import DateRange, FillPolicy, TimeSeries, resample_daily, restrict
from .trendfilter import (
    Segment,
    SolverSettings,
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
    "ColumnMap",
    "DailyDonationMetrics",
    "DateRange",
    "Direction",
    "DonationRecord",
    "DonorKey",
    "DuplicateDateError",
    "EmptyInputError",
    "EventAlignment",
    "EventMatch",
    "FEC_BULK_COLUMNS",
    "FillPolicy",
    "GridMismatchError",
    "IngestCounters",
    "InvalidInputError",
    "InvalidValueError",
    "LeadLagReport",
    "MatchedPair",
    "MetricsAccumulator",
    "MissingDayError",
    "PollPoint",
    "RangeTooNarrowError",
    "Segment",
    "ShareResult",
    "SolverSettings",
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
    "resample_daily",
    "restrict",
    "second_difference",
    "solve_tf",
    "synth_values",
    "target_df_for_span",
    "trend_regions",
]
