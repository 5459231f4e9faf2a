"""Command-line pipeline: ingest donations and polls, fit trends, report.

Subcommands:
    ingest   parse FEC files + poll CSV into a single store.json
    fit      trend-filter every candidate x metric series into fits.json
    report   changepoints, falling regions, event alignment, lead/lag, read
             from fits.json and the events CSV alone (no store.json, no solve)
    synth    emit a seeded synthetic piecewise-linear series as CSV

Stage flags come from ``config.KEYS`` (dest = key), so build_config parses flag
and file values alike; only ``--config`` and ``--fec-file`` are declared here.
fit and report share one check that their upstream file was made for this run.

Exit codes: 0 clean, 1 completed with warnings (malformed input lines,
non-converged fits, unreachable df targets), 2 unusable input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from datetime import date, timedelta
from pathlib import Path
from typing import Any, Iterable, Sequence

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
from .config import KEYS, AnalysisConfig, build_config, load_config_file
from .exceptions import CampaignTrendsError
from .trendfilter import (
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
    except (CampaignTrendsError, OSError) as exc:
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
        for key, (_, _, help_text) in KEYS.items():
            if key == "fec_files":
                # one verbatim path per flag; only the config value is comma-separated
                p.add_argument("--fec-file", action="append", type=Path,
                               help=f"{help_text} (repeatable)")
            else:
                p.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text)

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
    # each config flag's dest is its config key; build_config parses the values
    raw.update({k: v for k, v in vars(args).items() if k in KEYS and v is not None})
    config = build_config(raw)
    if args.fec_file:
        config = dataclasses.replace(config, fec_files=tuple(args.fec_file))
    return config


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

    with open(config.committee_map, encoding="utf-8-sig") as handle:
        committee_map = fec.load_committee_map(handle)

    counters = fec.IngestCounters()
    accumulators = {c: fec.MetricsAccumulator(c) for c in config.candidates}
    for path in config.fec_files:
        with open(path, encoding="utf-8", errors="replace") as handle:
            fec.accumulate_fec_file(handle, committee_map, accumulators, counters)

    poll_lines: list[str] | None = None
    if config.poll_csv is not None:
        with open(config.poll_csv, encoding="utf-8-sig") as handle:
            poll_lines = handle.readlines()

    series: dict[str, dict[str, Any]] = {}
    for candidate in config.candidates:
        metrics = accumulators[candidate].finalize(config.range)
        series[candidate] = {
            label: store.series_to_json(ts) for label, ts in metrics.series().items()
        }
        if poll_lines is not None:
            poll = polls.load_poll_series(poll_lines, candidate, config.range)
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
        store.write_store(handle, counters.as_dict())
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


def _read_upstream(path: Path, stage: str) -> dict[str, Any]:
    """Read the pipeline file at ``path``, which ``stage`` writes."""
    if not path.exists():
        raise CampaignTrendsError(f"{path.stem} not found: {path} (run {stage} first)")
    with open(path, encoding="utf-8") as handle:
        try:
            return store.read_store(handle)
        except ValueError as exc:  # json.JSONDecodeError, UnicodeDecodeError
            raise CampaignTrendsError(f"{path} is not valid JSON: {exc}") from None


def _check_upstream(
    config: AnalysisConfig, name: str, stage: str, spans: set[str], candidates: Iterable[str]
) -> None:
    """Reject an upstream file whose 'from..to' spans or candidates are not this run's."""
    if spans != {f"{config.date_from}..{config.date_to}"}:
        raise CampaignTrendsError(
            f"{name} range is {', '.join(sorted(spans))}; "
            f"re-run {stage} or pass --from and --to to match"
        )
    held = sorted(candidates)
    if held != sorted(config.candidates):
        raise CampaignTrendsError(
            f"{name} candidates are {','.join(held)}; "
            f"re-run {stage} or pass --candidates {','.join(held)}"
        )


def _cmd_fit(config: AnalysisConfig) -> int:
    store_path = config.out_dir / "store.json"
    document = _read_upstream(store_path, "ingest")
    try:
        span = f"{document['range']['from']}..{document['range']['to']}"
        candidates = sorted(document["candidates"])
        series_map = {
            candidate: {metric: store.series_from_json(obj) for metric, obj in metrics.items()}
            for candidate, metrics in document["series"].items()
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise CampaignTrendsError(f"malformed store in {store_path}: {exc!r}") from None
    _check_upstream(config, "store", "ingest", {span}, candidates)
    if config.normalize == "share":
        # each donation metric becomes its daily cross-candidate share;
        # poll averages are already population shares
        metrics = {m for per_candidate in series_map.values() for m in per_candidate}
        for metric in sorted(metrics - {POLL_METRIC}):
            holders = {c: m[metric] for c, m in series_map.items() if metric in m}
            for candidate, ts in normalize_share(holders).shares.items():
                series_map[candidate][metric] = ts
    records = []
    warnings = False
    for candidate in sorted(series_map):
        for metric in sorted(series_map[candidate]):
            ts = series_map[candidate][metric]
            target = config.df if config.df is not None else target_df_for_span(
                len(ts), config.df_per_90
            )
            fit = fit_with_target_df(ts.values, target)
            warnings = warnings or not fit.converged or fit.df_warning
            records.append(store.fit_to_record(candidate, metric, ts, fit, target))

    document = {
        "schema_version": store.SCHEMA_VERSION,
        "normalize": config.normalize,
        "records": records,
    }
    config.out_dir.mkdir(parents=True, exist_ok=True)
    with open(config.out_dir / "fits.json", "w", encoding="utf-8") as handle:
        store.write_store(handle, document)
    with open(config.out_dir / "fits_long.csv", "w", encoding="utf-8") as handle:
        store.write_fits_long_csv(handle, records)
    print(f"fitted {len(records)} series -> {config.out_dir / 'fits.json'}")
    return EXIT_WARNINGS if warnings else EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _cmd_report(config: AnalysisConfig) -> int:
    fits_path = config.out_dir / "fits.json"
    fits_doc = _read_upstream(fits_path, "fit")
    if fits_doc.get("normalize") != config.normalize:
        raise CampaignTrendsError(
            f"fits were produced with normalize={fits_doc.get('normalize')!r}; "
            f"re-run fit or pass --normalize {fits_doc.get('normalize')}"
        )

    try:
        decoded = [
            (record["candidate"], record["metric"], *store.fit_from_record(record))
            for record in fits_doc["records"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise CampaignTrendsError(f"malformed fit record in {fits_path}: {exc!r}") from None
    spans = {f"{start}..{start + timedelta(days=len(fit.fitted) - 1)}" for *_, start, fit in decoded}
    _check_upstream(config, "fits", "fit", spans, {candidate for candidate, *_ in decoded})

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
        with open(config.events_csv, encoding="utf-8-sig") as handle:
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
    if args.n_days - 1 > (date.max - start).days:
        print(f"error: {args.n_days} days from {start} run past {date.max}", file=sys.stderr)
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
