"""Command-line pipeline: ingest donations and polls, fit trends, report.

Subcommands:
    ingest   parse FEC files + poll CSV into a single store.json
    fit      trend-filter every candidate x metric series into fits.json
    report   changepoints, falling regions, event alignment, lead/lag, read
             from fits.json and the events CSV alone (no store.json, no solve)
    synth    emit a seeded synthetic piecewise-linear series as CSV

Stage flags come from ``config.KEYS`` (dest = key), so build_config parses flag
and file values alike; only ``--config`` and ``--fec-file`` are declared here.
Every flag is spelled in full: argparse's prefix matching is off.
One reader takes every user CSV and the config file, and one every upstream
document, with one check that it was made for this run; one writer writes
every document.
ingest reads the committee map and the poll CSV before any FEC line, so a
missing or bad poll CSV exits 2 at once.
Only ingest imports the ingest modules (``fec``, ``polls``) and only synth
imports ``synth``, each inside its command, so fit and report never load them.
The analysis and trendfilter names stay at module level, where
perfbench/trace.py replaces them; fec, polls and store are reached through
their module attributes.

Exit codes: 0 clean, 1 completed with warnings (malformed input lines,
non-converged fits, unreachable df targets), 2 unusable input, whose one
``error: ...`` line only ``main`` prints; it names the file, or for a fit
the ``<candidate>/<metric>`` series, that it is about. fit and report print one
``warning: <candidate>/<metric>: ...`` line per such fit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from datetime import date, timedelta
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from . import store
from .analysis import (
    Changepoint,
    align_events,
    classify_changepoints,
    lead_lag,
    load_events,
    normalize_share,
    trend_regions,
)
from .config import KEYS, AnalysisConfig, build_config, parse_config_lines
from .exceptions import CampaignTrendsError
from .trendfilter import (
    TrendFit,
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
        allow_abbrev=False,
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
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        add_config_flags(p)

    p = sub.add_parser("synth", help="print a synthetic piecewise-linear series as CSV",
                       allow_abbrev=False)
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
        raw.update(parse_config_lines(_input_lines(args.config)))
    # each config flag's dest is its config key; build_config parses the values
    raw.update({k: v for k, v in vars(args).items() if k in KEYS and v is not None})
    config = build_config(raw)
    if args.fec_file:
        config = dataclasses.replace(config, fec_files=tuple(args.fec_file))
    return config


def _input_path(path: Path) -> Path:
    """``path``, or exit 2 when no file is there."""
    if not path.exists():
        raise CampaignTrendsError(f"input file not found: {path}")
    return path


def _input_lines(path: Path) -> list[str]:
    """The lines of a user text file, read as UTF-8 with an optional BOM."""
    with open(_input_path(path), encoding="utf-8-sig") as handle:
        try:
            return handle.readlines()
        except UnicodeDecodeError as exc:
            raise CampaignTrendsError(f"{path} is not valid UTF-8: {exc}") from None


def _write(config: AnalysisConfig, name: str, document: dict[str, Any]) -> Path:
    """Write one pipeline document into the output directory; return its path."""
    config.out_dir.mkdir(parents=True, exist_ok=True)
    path = config.out_dir / name
    with open(path, "w", encoding="utf-8") as handle:
        store.write_store(handle, document)
    return path


def _exit_with_warnings(warnings: list[str | None]) -> int:
    """Print each warning line on stderr; exit 1 when there was one."""
    lines = [line for line in warnings if line is not None]
    for line in lines:
        print(line, file=sys.stderr)
    return EXIT_WARNINGS if lines else EXIT_OK


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def _cmd_ingest(config: AnalysisConfig) -> int:
    from . import fec, polls  # only ingest loads the ingest modules

    if config.committee_map is None or not config.fec_files:
        raise CampaignTrendsError("ingest needs committee_map and at least one fec_files entry")
    committee_map = fec.load_committee_map(_input_lines(config.committee_map))
    series: dict[str, dict[str, Any]] = {candidate: {} for candidate in config.candidates}
    if config.poll_csv is not None:
        poll_lines = _input_lines(config.poll_csv)
        for candidate, metrics in series.items():
            poll = polls.load_poll_series(poll_lines, candidate, config.range)
            metrics[POLL_METRIC] = store.series_to_json(poll)
    # one file under two spellings would be counted twice
    files_seen: set[tuple[int, int]] = set()
    for path in config.fec_files:
        stat = _input_path(path).stat()
        identity = (stat.st_dev, stat.st_ino)
        if identity in files_seen:
            raise CampaignTrendsError(f"fec file {path} listed twice")
        files_seen.add(identity)

    counters = fec.IngestCounters()
    accumulators = {c: fec.MetricsAccumulator(c) for c in config.candidates}
    for path in config.fec_files:
        fec.accumulate_fec_path(path, committee_map, accumulators, counters)
    for candidate, metrics in series.items():
        donations = accumulators[candidate].finalize(config.range).series()
        metrics.update((label, store.series_to_json(ts)) for label, ts in donations.items())

    summary = counters.as_dict()
    _write(config, "store.json", {
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
        "ingest_summary": summary,
        "series": series,
    })
    _write(config, "ingest_summary.json", summary)
    print(json.dumps(summary, sort_keys=True))
    return _exit_with_warnings([
        "warning: no donation records parsed" if counters.parsed == 0
        else f"warning: {counters.malformed} malformed lines skipped" if counters.malformed
        else None
    ])


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _read_upstream(path: Path, stage: str, what: str, decode: Callable[[dict], Any]) -> Any:
    """Read and ``decode`` the pipeline file at ``path``, which ``stage`` writes.

    Every error it raises names ``path``.
    """
    if not path.exists():
        raise CampaignTrendsError(f"{path.stem} not found: {path} (run {stage} first)")
    with open(path, encoding="utf-8") as handle:
        try:
            document = store.read_store(handle)
        except ValueError as exc:  # json.JSONDecodeError, UnicodeDecodeError
            raise CampaignTrendsError(f"{path} is not valid JSON: {exc}") from None
        except CampaignTrendsError as exc:
            raise CampaignTrendsError(f"{path}: {exc}") from None
    try:
        return decode(document)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CampaignTrendsError(f"malformed {what} in {path}: {exc!r}") from None
    except CampaignTrendsError as exc:
        raise CampaignTrendsError(f"{path}: {exc}") from None


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


def _span(start: date, days: int) -> str:
    """The 'from..to' text of ``days`` days from ``start``."""
    return f"{start}..{start + timedelta(days=days - 1)}"


def _fit_warning(candidate: str, metric: str, fit: TrendFit, target: int) -> str | None:
    """The stderr line for a non-converged or ``df_warning`` fit, else None."""
    problems = []
    if not fit.converged:
        problems.append(f"not converged (duality gap {fit.duality_gap:.3g})")
    if fit.df_warning:
        problems.append(f"df target {target} is above every df on the lambda grid; kept df {fit.df}")
    return f"warning: {candidate}/{metric}: {'; '.join(problems)}" if problems else None


def _cmd_fit(config: AnalysisConfig) -> int:
    if config.normalize == "share" and len(config.candidates) < 2:
        raise CampaignTrendsError(
            "normalize = share needs at least two candidates (each day's share of a "
            f"one-candidate total is 1.0); got {','.join(config.candidates)}"
        )
    span, series_map = _read_upstream(
        config.out_dir / "store.json", "ingest", "store", lambda document: (
            f"{document['range']['from']}..{document['range']['to']}",
            {
                candidate: {metric: store.series_from_json(obj) for metric, obj in metrics.items()}
                for candidate, metrics in document["series"].items()
            },
        ),
    )
    # the header's range, and the spans and candidates of the series fit reads, must be this run's
    spans = {_span(ts.start_date, len(ts)) for metrics in series_map.values() for ts in metrics.values()}
    _check_upstream(config, "store", "ingest", {span, *spans}, series_map)
    if config.normalize == "share":
        # each donation metric becomes its daily cross-candidate share;
        # poll averages are already population shares
        metrics = {m for per_candidate in series_map.values() for m in per_candidate}
        for metric in sorted(metrics - {POLL_METRIC}):
            holders = {c: m[metric] for c, m in series_map.items() if metric in m}
            try:
                shares = normalize_share(holders).shares
            except CampaignTrendsError as exc:
                raise CampaignTrendsError(f"{metric}: {exc}") from None
            for candidate, ts in shares.items():
                series_map[candidate][metric] = ts
    records = []
    warnings = []
    for candidate in sorted(series_map):
        for metric in sorted(series_map[candidate]):
            ts = series_map[candidate][metric]
            target = target_df_for_span(len(ts), config.df_per_90)
            try:
                fit = fit_with_target_df(ts.values, target)
            except CampaignTrendsError as exc:
                raise CampaignTrendsError(f"{candidate}/{metric}: {exc}") from None
            warnings.append(_fit_warning(candidate, metric, fit, target))
            records.append(store.fit_to_record(candidate, metric, ts, fit, target))

    path = _write(config, "fits.json", {
        "schema_version": store.SCHEMA_VERSION,
        "normalize": config.normalize,
        "records": records,
    })
    with open(config.out_dir / "fits_long.csv", "w", encoding="utf-8") as handle:
        store.write_fits_long_csv(handle, records)
    print(f"fitted {len(records)} series -> {path}")
    return _exit_with_warnings(warnings)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _cmd_report(config: AnalysisConfig) -> int:
    fits_path = config.out_dir / "fits.json"
    normalize, decoded = _read_upstream(
        fits_path, "fit", "fit record", lambda fits_doc: (
            fits_doc.get("normalize"),
            [
                (record["candidate"], record["metric"], record["target_df"],
                 *store.fit_from_record(record))
                for record in fits_doc["records"]
            ],
        ),
    )
    if normalize != config.normalize:
        raise CampaignTrendsError(
            f"fits were produced with normalize={normalize!r}; "
            f"re-run fit or pass --normalize {normalize}"
        )
    spans = {_span(start, len(fit.fitted)) for *_, start, fit in decoded}
    _check_upstream(config, "fits", "fit", spans, {candidate for candidate, *_ in decoded})

    warnings = []
    series_entries = []
    cps_by_series: dict[tuple[str, str], list[Changepoint]] = {}
    for candidate, metric, target, start_date, fit in decoded:
        if (candidate, metric) in cps_by_series:
            raise CampaignTrendsError(f"{fits_path}: {candidate}/{metric} has more than one record")
        warnings.append(_fit_warning(candidate, metric, fit, target))
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
                **{
                    f"{kind}_regions": [
                        {"start": r.start.isoformat(), "end": r.end.isoformat()} for r in runs
                    ]
                    for kind, runs in (("falling", regions.falling), ("rising", regions.rising))
                },
            }
        )

    events = []
    if config.events_csv is not None:
        event_list = load_events(_input_lines(config.events_csv))
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
    print(f"report -> {_write(config, 'report.json', document)}")
    return _exit_with_warnings(warnings)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def _cmd_synth(args: argparse.Namespace) -> int:
    from . import synth

    try:
        knots = [int(k) for k in args.knots.split(",") if k.strip() != ""]
        slopes = [float(s) for s in args.slopes.split(",") if s.strip() != ""]
        start = store.parse_iso_date(args.start_date)
    except ValueError as exc:
        raise CampaignTrendsError(str(exc)) from None
    if args.n_days - 1 > (date.max - start).days:
        raise CampaignTrendsError(f"{args.n_days} days from {start} run past {date.max}")
    values = synth.synth_values(args.n_days, knots, slopes, args.noise_sd, args.seed)
    out = sys.stdout
    out.write("date,day,value\n")
    for i, value in enumerate(values):
        day = start + timedelta(days=i)
        out.write(f"{day.isoformat()},{i},{float(value)!r}\n")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
