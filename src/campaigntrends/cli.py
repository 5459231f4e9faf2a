"""Command-line pipeline: ingest donations and polls, fit trends, report.

Subcommands:
    ingest   parse FEC files + poll CSV into a single store.json
    fit      trend-filter every candidate x metric series into fits.json
    report   changepoints, falling regions, event alignment, lead/lag, read
             from fits.json and the events CSV alone (no store.json, no solve)
    synth    emit a seeded synthetic piecewise-linear series as CSV

Exit codes: 0 clean, 1 completed with warnings (malformed input lines,
non-converged fits, unreachable df targets), 2 unusable input.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import date, timedelta
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import fec, polls, store, synth
from .analysis import (
    Changepoint,
    align_events,
    classify_changepoints,
    lead_lag,
    load_events,
    normalize_share,
    trend_regions,
)
from .config import AnalysisConfig, build_config, load_config_file
from .exceptions import CampaignTrendsError
from .timeseries import TimeSeries
from .trendfilter import (
    Segment,
    SolverSettings,
    TrendFit,
    _unconstrained_dual,
    fit_with_target_df,
    solve_tf,  # noqa: F401  kept as cli.solve_tf: perfbench/trace.py wraps that name
    target_df_for_span,
)

EXIT_OK = 0
EXIT_WARNINGS = 1
EXIT_UNUSABLE = 2

POLL_METRIC = "poll"


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            return _cmd_synth(args)
        config = _config_from_args(args)
        if args.command == "ingest":
            return _cmd_ingest(config)
        if args.command == "fit":
            return _cmd_fit(config)
        return _cmd_report(config)
    except CampaignTrendsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNUSABLE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNUSABLE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="campaigntrends",
        description="Joinpoint trend analysis for campaign polling and donation series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, help="flat key = value config file")
        p.add_argument("--from", dest="date_from", help="range start, ISO date")
        p.add_argument("--to", dest="date_to", help="range end, ISO date")
        p.add_argument("--candidates", help="comma-separated candidate ids")
        p.add_argument("--committee-map", type=Path, help="committee_id,candidate_id CSV")
        p.add_argument("--fec-file", action="append", type=Path, default=None,
                       help="bulk contribution file (repeatable)")
        p.add_argument("--poll-csv", type=Path, help="date,candidate,pct CSV")
        p.add_argument("--events-csv", type=Path, help="date,label CSV")
        p.add_argument("--df", type=int, help="absolute df target for every series")
        p.add_argument("--df-per-90", type=float, help="df budget per 90 days (default 12)")
        p.add_argument("--normalize", choices=["raw", "share"],
                       help="fit raw values or daily cross-candidate shares")
        p.add_argument("--window-days", type=int, help="event alignment window")
        p.add_argument("--max-gap-days", type=int, help="lead/lag pairing gap")
        p.add_argument("--out", type=Path, help="output directory")

    for name, help_text in [
        ("ingest", "parse inputs into store.json"),
        ("fit", "fit trends for every candidate and metric"),
        ("report", "emit changepoint/event/lead-lag report"),
    ]:
        p = sub.add_parser(name, help=help_text)
        add_config_flags(p)

    p = sub.add_parser("synth", help="print a synthetic piecewise-linear series as CSV")
    p.add_argument("--n-days", type=int, required=True)
    p.add_argument("--knots", required=True, help="comma-separated interior day indices")
    p.add_argument("--slopes", required=True, help="comma-separated per-segment slopes")
    p.add_argument("--noise-sd", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start-date", default="2019-01-01", help="date of day 0 in the CSV")
    return parser


def _config_from_args(args: argparse.Namespace) -> AnalysisConfig:
    raw: dict[str, str] = {}
    if args.config is not None:
        if not args.config.exists():
            raise CampaignTrendsError(f"config file not found: {args.config}")
        raw.update(load_config_file(args.config))
    overrides = {
        "from": args.date_from,
        "to": args.date_to,
        "candidates": args.candidates,
        "committee_map": str(args.committee_map) if args.committee_map else None,
        "fec_files": ",".join(str(p) for p in args.fec_file) if args.fec_file else None,
        "poll_csv": str(args.poll_csv) if args.poll_csv else None,
        "events_csv": str(args.events_csv) if args.events_csv else None,
        "df": str(args.df) if args.df is not None else None,
        "df_per_90": str(args.df_per_90) if args.df_per_90 is not None else None,
        "normalize": args.normalize,
        "window_days": str(args.window_days) if args.window_days is not None else None,
        "max_gap_days": str(args.max_gap_days) if args.max_gap_days is not None else None,
        "out": str(args.out) if args.out else None,
    }
    raw.update({k: v for k, v in overrides.items() if v is not None})
    return build_config(raw)


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def _cmd_ingest(config: AnalysisConfig) -> int:
    if config.committee_map is None or not config.fec_files:
        raise CampaignTrendsError("ingest needs committee_map and at least one fec_files entry")
    for path in (config.committee_map, *config.fec_files):
        if not path.exists():
            raise CampaignTrendsError(f"input file not found: {path}")
    if config.poll_csv is not None and not config.poll_csv.exists():
        raise CampaignTrendsError(f"input file not found: {config.poll_csv}")

    with open(config.committee_map, encoding="utf-8") as handle:
        committee_map = fec.load_committee_map(handle)

    counters = fec.IngestCounters()
    accumulators = {c: fec.MetricsAccumulator(c) for c in config.candidates}
    for path in config.fec_files:
        with open(path, encoding="utf-8", errors="replace") as handle:
            for record in fec.parse_fec_file(handle, committee_map, counters=counters):
                acc = accumulators.get(record.candidate_id)
                if acc is not None:
                    acc.add(record)

    series: dict[str, dict[str, Any]] = {}
    for candidate in config.candidates:
        metrics = accumulators[candidate].finalize(config.range)
        series[candidate] = {
            label: store.series_to_json(ts) for label, ts in metrics.series().items()
        }
        if config.poll_csv is not None:
            with open(config.poll_csv, encoding="utf-8") as handle:
                poll = polls.load_poll_series(handle, candidate, config.range)
            series[candidate][POLL_METRIC] = store.series_to_json(poll)

    document = {
        "schema_version": store.SCHEMA_VERSION,
        "range": {"from": config.date_from.isoformat(), "to": config.date_to.isoformat()},
        "candidates": sorted(config.candidates),
        "metadata": {
            "donation_fill": "zero on days without positive donations",
            "poll_fill": (
                "linear interpolation between observations, flat at the edges; "
                f"runs above {polls.MAX_POLL_GAP_DAYS} missing days are rejected"
            ),
        },
        "ingest_summary": counters.as_dict(),
        "series": series,
    }
    config.out_dir.mkdir(parents=True, exist_ok=True)
    with open(config.out_dir / "store.json", "w", encoding="utf-8") as handle:
        store.write_store(handle, document)
    with open(config.out_dir / "ingest_summary.json", "w", encoding="utf-8") as handle:
        json.dump(counters.as_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(counters.as_dict(), sort_keys=True))

    warnings = counters.malformed > 0 or counters.parsed == 0
    if counters.parsed == 0:
        print("warning: no donation records parsed", file=sys.stderr)
    elif counters.malformed:
        print(f"warning: {counters.malformed} malformed lines skipped", file=sys.stderr)
    return EXIT_WARNINGS if warnings else EXIT_OK


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _load_series_map(config: AnalysisConfig) -> dict[str, dict[str, TimeSeries]]:
    path = config.out_dir / "store.json"
    if not path.exists():
        raise CampaignTrendsError(f"store not found: {path} (run ingest first)")
    with open(path, encoding="utf-8") as handle:
        document = store.read_store(handle)
    out: dict[str, dict[str, TimeSeries]] = {}
    for candidate, metrics in document["series"].items():
        out[candidate] = {
            metric: store.series_from_json(obj) for metric, obj in metrics.items()
        }
    return out


def _share_normalized(
    series_map: dict[str, dict[str, TimeSeries]]
) -> dict[str, dict[str, TimeSeries]]:
    """Replace each donation metric with its daily cross-candidate share.

    Poll averages are already population shares, so they pass through
    untouched.
    """
    out: dict[str, dict[str, TimeSeries]] = {c: {} for c in series_map}
    metrics = sorted({m for per_candidate in series_map.values() for m in per_candidate})
    for metric in metrics:
        holders = {c: m[metric] for c, m in series_map.items() if metric in m}
        if metric == POLL_METRIC:
            for candidate, ts in holders.items():
                out[candidate][metric] = ts
            continue
        result = normalize_share(holders)
        for candidate, ts in result.shares.items():
            out[candidate][metric] = ts
    return out


def _cmd_fit(config: AnalysisConfig) -> int:
    series_map = _load_series_map(config)
    if config.normalize == "share":
        series_map = _share_normalized(series_map)
    settings = SolverSettings(
        eps_gap=config.eps_gap, max_iter=config.max_iter, tol_knot=config.tol_knot
    )
    records = []
    long_rows = []
    warnings = False
    for candidate in sorted(series_map):
        for metric in sorted(series_map[candidate]):
            ts = series_map[candidate][metric]
            target = config.df if config.df is not None else target_df_for_span(
                len(ts), config.df_per_90
            )
            fit = fit_with_target_df(ts.values, target, settings)
            warnings = warnings or not fit.converged or fit.df_warning
            records.append(_fit_record(candidate, metric, ts, fit, target))
            for i, day in enumerate(ts.dates()):
                long_rows.append(
                    {
                        "date": day.isoformat(),
                        "candidate": candidate,
                        "metric": metric,
                        "observed": repr(float(ts.values[i])),
                        "fitted": repr(float(fit.fitted[i])),
                    }
                )

    document = {
        "schema_version": store.SCHEMA_VERSION,
        "normalize": config.normalize,
        "records": records,
    }
    config.out_dir.mkdir(parents=True, exist_ok=True)
    with open(config.out_dir / "fits.json", "w", encoding="utf-8") as handle:
        store.write_store(handle, document)
    with open(config.out_dir / "fits_long.csv", "w", encoding="utf-8") as handle:
        store.write_fits_long_csv(handle, long_rows)
    print(f"fitted {len(records)} series -> {config.out_dir / 'fits.json'}")
    return EXIT_WARNINGS if warnings else EXIT_OK


def _fit_record(
    candidate: str, metric: str, ts: TimeSeries, fit: TrendFit, target: int
) -> dict[str, Any]:
    return {
        "candidate": candidate,
        "metric": metric,
        "lambda": fit.lam,
        "df": fit.df,
        "target_df": target,
        "duality_gap": fit.duality_gap,
        "converged": fit.converged,
        "df_warning": fit.df_warning,
        "tol_knot": fit.tol_knot,
        "iterations": fit.iterations,
        "start_date": ts.start_date.isoformat(),
        "knots": [ts.date_at(k).isoformat() for k in fit.knots],
        "segments": [
            {
                "start": ts.date_at(seg.start).isoformat(),
                "end": ts.date_at(seg.end).isoformat(),
                "slope": seg.slope,
            }
            for seg in fit.segments
        ],
        "fitted": [float(v) for v in fit.fitted],
        "observed": [float(v) for v in ts.values],
    }


def _fit_from_record(record: dict[str, Any]) -> tuple[date, TrendFit]:
    """Decode a _fit_record record into (start_date, TrendFit), fields as stored.

    The dual is recovered from the residual with one banded solve, which keeps
    fitted = observed - D^T dual. Malformed records raise KeyError, TypeError
    or ValueError.
    """
    start = date.fromisoformat(record["start_date"])

    def day(text: str) -> int:
        return (date.fromisoformat(text) - start).days

    lam = record["lambda"]
    fitted = np.asarray(record["fitted"], dtype=float)
    residual = np.asarray(record["observed"], dtype=float) - fitted
    return start, TrendFit(
        lam=lam,
        fitted=fitted,
        knots=tuple(day(k) for k in record["knots"]),
        segments=tuple(
            Segment(day(seg["start"]), day(seg["end"]), seg["slope"])
            for seg in record["segments"]
        ),
        df=record["df"],
        duality_gap=record["duality_gap"],
        dual=np.clip(_unconstrained_dual(residual), -lam, lam),
        tol_knot=record["tol_knot"],
        converged=record["converged"],
        iterations=record["iterations"],
        df_warning=record["df_warning"],
    )


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _cmd_report(config: AnalysisConfig) -> int:
    fits_path = config.out_dir / "fits.json"
    if not fits_path.exists():
        raise CampaignTrendsError(f"fits not found: {fits_path} (run fit first)")
    with open(fits_path, encoding="utf-8") as handle:
        fits_doc = store.read_store(handle)
    if fits_doc.get("normalize") != config.normalize:
        raise CampaignTrendsError(
            f"fits were produced with normalize={fits_doc.get('normalize')!r}; "
            f"re-run fit or pass --normalize {fits_doc.get('normalize')}"
        )

    try:
        decoded = [
            (record["candidate"], record["metric"], *_fit_from_record(record))
            for record in fits_doc["records"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise CampaignTrendsError(f"malformed fit record in {fits_path}: {exc!r}") from None

    warnings = False
    series_entries = []
    cps_by_series: dict[tuple[str, str], list[Changepoint]] = {}
    for candidate, metric, start_date, fit in decoded:
        warnings = warnings or not fit.converged or fit.df_warning
        cps = classify_changepoints(fit, start_date)
        regions = trend_regions(fit, start_date)
        cps_by_series[(candidate, metric)] = cps
        series_entries.append(
            {
                "candidate": candidate,
                "metric": metric,
                "lambda": fit.lam,
                "df": fit.df,
                "converged": fit.converged,
                "df_warning": fit.df_warning,
                "changepoints": [
                    {
                        "index": cp.index,
                        "date": cp.date.isoformat(),
                        "slope_before": cp.slope_before,
                        "slope_after": cp.slope_after,
                        "direction": cp.direction.value,
                    }
                    for cp in cps
                ],
                "falling_regions": [
                    {"start": r.start.isoformat(), "end": r.end.isoformat()}
                    for r in regions.falling
                ],
                "rising_regions": [
                    {"start": r.start.isoformat(), "end": r.end.isoformat()}
                    for r in regions.rising
                ],
            }
        )

    events = []
    if config.events_csv is not None:
        if not config.events_csv.exists():
            raise CampaignTrendsError(f"input file not found: {config.events_csv}")
        with open(config.events_csv, encoding="utf-8") as handle:
            event_list = load_events(handle)
        labeled = [
            (f"{candidate}/{metric}", cp)
            for (candidate, metric), cps in sorted(cps_by_series.items())
            for cp in cps
        ]
        for alignment in align_events(labeled, event_list, config.window_days):
            events.append(
                {
                    "date": alignment.event_date.isoformat(),
                    "label": alignment.event_label,
                    "matches": [
                        {
                            "series": m.series,
                            "date": m.changepoint.date.isoformat(),
                            "offset_days": m.offset_days,
                            "direction": m.changepoint.direction.value,
                        }
                        for m in alignment.matches
                    ],
                }
            )

    lead_lag_entries = []
    for candidate, metric in sorted(cps_by_series):
        poll_cps = cps_by_series.get((candidate, POLL_METRIC))
        if metric == POLL_METRIC or poll_cps is None:
            continue
        report = lead_lag(poll_cps, cps_by_series[(candidate, metric)], config.max_gap_days)
        lead_lag_entries.append(
            {
                "candidate": candidate,
                "series_a": POLL_METRIC,
                "series_b": metric,
                "pairs": [
                    {
                        "date_a": p.a.date.isoformat(),
                        "date_b": p.b.date.isoformat(),
                        "offset_days": p.offset_days,
                    }
                    for p in report.pairs
                ],
                "unmatched_a": [cp.date.isoformat() for cp in report.unmatched_a],
                "unmatched_b": [cp.date.isoformat() for cp in report.unmatched_b],
                "median_offset": report.median_offset,
            }
        )

    document = {
        "schema_version": store.SCHEMA_VERSION,
        "config": {
            "from": config.date_from.isoformat(),
            "to": config.date_to.isoformat(),
            "normalize": config.normalize,
            "window_days": config.window_days,
            "max_gap_days": config.max_gap_days,
        },
        "series": series_entries,
        "events": events,
        "lead_lag": lead_lag_entries,
    }
    problems = store.validate_report(document)
    if problems:
        raise CampaignTrendsError(f"internal report validation failed: {problems[:3]}")
    config.out_dir.mkdir(parents=True, exist_ok=True)
    with open(config.out_dir / "report.json", "w", encoding="utf-8") as handle:
        store.write_store(handle, document)
    print(f"report -> {config.out_dir / 'report.json'}")
    return EXIT_WARNINGS if warnings else EXIT_OK


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def _cmd_synth(args: argparse.Namespace) -> int:
    try:
        knots = [int(k) for k in args.knots.split(",") if k.strip() != ""]
        slopes = [float(s) for s in args.slopes.split(",") if s.strip() != ""]
        start = date.fromisoformat(args.start_date)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNUSABLE
    values = synth.synth_values(args.n_days, knots, slopes, args.noise_sd, args.seed)
    out = sys.stdout
    out.write("date,day,value\n")
    for i, value in enumerate(values):
        day = start + timedelta(days=i)
        out.write(f"{day.isoformat()},{i},{float(value)!r}\n")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
