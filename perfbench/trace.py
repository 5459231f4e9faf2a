"""Traced, in-process run of one workload: the per-layer numbers.

Run as a script in a child process:

    python3 perfbench/trace.py --stages ingest,fit,report --config run.conf --out DIR --result R.json

It wraps the public functions each stage calls, at the module attribute
the caller looks up (``cli.fit_with_target_df``, ``cli.solve_tf``,
``fec.parse_fec_file``, ``polls.load_poll_series`` and so on), then drives
the stages through ``campaigntrends.cli.main`` in this process. Each wrapped call records a span (name, start, end, parent);
per-record calls (``MetricsAccumulator.add``, each step of the
``parse_fec_file`` generator, ``store.series_to_json``) only add to a total
time and count. Spans stay in memory and are written out, with the layer
metrics derived from them, when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable

OUTPUT_FILES = ("store.json", "ingest_summary.json", "fits.json", "fits_long.csv", "report.json")


class Tracer:
    """Spans and per-record totals, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent index or None]
        self.child_time: list[float] = []  # per span: time covered by its direct children
        self.stack: list[int] = []
        self.totals: dict[str, list[float]] = {}  # name -> [seconds, calls]

    def _charge_parent(self, seconds: float) -> None:
        if self.stack:
            self.child_time[self.stack[-1]] += seconds

    def _add_total(self, name: str, seconds: float) -> None:
        slot = self.totals.setdefault(name, [0.0, 0])
        slot[0] += seconds
        slot[1] += 1
        self._charge_parent(seconds)

    def span(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None])
            self.child_time.append(0.0)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                end = time.perf_counter()
                self.spans[index][2] = end
                self._charge_parent(end - self.spans[index][1])
            if on_result is not None:
                on_result(args, result, end - self.spans[index][1])
            return result

        return wrapper

    def total(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add_total(name, time.perf_counter() - start)

        return wrapper

    def total_iter(self, name: str, fn: Callable) -> Callable:
        """Time each step of the generator ``fn`` returns."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                start = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    self._add_total(name, time.perf_counter() - start)
                    return
                self._add_total(name, time.perf_counter() - start)
                yield item

        return wrapper

    def span_seconds(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def span_count(self, name: str) -> int:
        return sum(1 for n, *_ in self.spans if n == name)

    def self_seconds(self, name: str) -> float:
        return sum(s[2] - s[1] - self.child_time[i] for i, s in enumerate(self.spans) if s[0] == name)

    def total_seconds(self, name: str) -> float:
        return self.totals.get(name, [0.0, 0])[0]


class Observed:
    """What the wrapped calls returned that the layer metrics need."""

    def __init__(self) -> None:
        self.fit_ms: list[tuple[int, float]] = []  # (n, ms) per fit_with_target_df call
        self.iterations = 0
        self.nonconverged = 0
        self.changepoints = 0
        self.distinct_donors = 0

    def fit(self, args, fit, seconds: float) -> None:
        self.fit_ms.append((len(args[0]), seconds * 1e3))
        self.solve(args, fit, seconds)

    def solve(self, _args, fit, _seconds: float) -> None:
        self.iterations += fit.iterations
        self.nonconverged += not fit.converged

    def cps(self, _args, cps, _seconds: float) -> None:
        self.changepoints += len(cps)

    def finalize(self, args, _metrics, _seconds: float) -> None:
        self.distinct_donors += len(args[0].first_seen)


def install(tracer: Tracer, seen: Observed) -> None:
    """Wrap every traced entry point at the attribute its caller looks up."""
    from campaigntrends import cli, fec, polls, store

    fec.parse_fec_file = tracer.total_iter("fec.parse", fec.parse_fec_file)
    fec.MetricsAccumulator.add = tracer.total("fec.accumulate", fec.MetricsAccumulator.add)
    fec.MetricsAccumulator.finalize = tracer.span(
        "fec.finalize", fec.MetricsAccumulator.finalize, seen.finalize)
    polls.load_poll_series = tracer.span("polls.load", polls.load_poll_series)
    store.write_store = tracer.span("store.write", store.write_store)
    store.write_fits_long_csv = tracer.span("store.write", store.write_fits_long_csv)
    store.series_to_json = tracer.total("store.write", store.series_to_json)
    store.read_store = tracer.span("store.read", store.read_store)
    store.series_from_json = tracer.total("store.read", store.series_from_json)
    cli.fit_with_target_df = tracer.span("trendfilter.fit", cli.fit_with_target_df, seen.fit)
    cli.solve_tf = tracer.span("trendfilter.solve_tf", cli.solve_tf, seen.solve)
    cli.classify_changepoints = tracer.span("analysis.changepoints", cli.classify_changepoints, seen.cps)
    cli.trend_regions = tracer.span("analysis.changepoints", cli.trend_regions)
    cli.load_events = tracer.span("analysis.align_events", cli.load_events)
    cli.align_events = tracer.span("analysis.align_events", cli.align_events)
    cli.lead_lag = tracer.span("analysis.lead_lag", cli.lead_lag)


def layer_metrics(tracer: Tracer, seen: Observed, out_dir: Path | None) -> dict[str, float]:
    t = tracer
    long = [ms for n, ms in seen.fit_ms if n > 150]  # the n = 300 size class
    written = sum((out_dir / f).stat().st_size for f in OUTPUT_FILES
                  if out_dir is not None and (out_dir / f).exists())
    return {
        "cli.ingest.self_s": t.self_seconds("cli.ingest"),
        "cli.fit.self_s": t.self_seconds("cli.fit"),
        "cli.report.self_s": t.self_seconds("cli.report"),
        "fec.parse_s": t.total_seconds("fec.parse"),
        "fec.accumulate_s": t.total_seconds("fec.accumulate"),
        "fec.finalize_s": t.span_seconds("fec.finalize"),
        "fec.distinct_donors": seen.distinct_donors,
        "polls.load_s": t.span_seconds("polls.load"),
        "polls.load_calls": t.span_count("polls.load"),
        "store.write_s": t.span_seconds("store.write") + t.total_seconds("store.write"),
        "store.read_s": t.span_seconds("store.read") + t.total_seconds("store.read"),
        "store.bytes_written": written,
        "trendfilter.fit_s": t.span_seconds("trendfilter.fit"),
        "trendfilter.fit_calls": t.span_count("trendfilter.fit"),
        "trendfilter.fit_p50_ms.n300": statistics.median(long) if long else 0.0,
        "trendfilter.solve_tf_s": t.span_seconds("trendfilter.solve_tf"),
        "trendfilter.solve_tf_calls": t.span_count("trendfilter.solve_tf"),
        "trendfilter.admm_iterations": seen.iterations,
        "trendfilter.nonconverged": seen.nonconverged,
        "analysis.changepoints_s": t.span_seconds("analysis.changepoints"),
        "analysis.align_events_s": t.span_seconds("analysis.align_events"),
        "analysis.lead_lag_s": t.span_seconds("analysis.lead_lag"),
        "analysis.changepoints": seen.changepoints,
    }


def _thread_count() -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stages", required=True, help="comma-separated, starting with ingest")
    parser.add_argument("--config", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    import numpy
    import scipy
    from campaigntrends import cli

    tracer = Tracer()
    seen = Observed()
    stages = [s for s in args.stages.split(",") if s]
    argv = {stage: [stage, "--config", str(args.config), "--out", str(args.out)] for stage in stages}
    # the per-record wrappers sit in ingest: run it once untraced in this
    # process first, to compare the traced run with
    start = time.perf_counter()
    cli.main(argv["ingest"])
    untraced_s = time.perf_counter() - start
    install(tracer, seen)
    exits, printed = {}, {}
    for stage in stages:
        with contextlib.redirect_stdout(io.StringIO()) as buffer:
            exits[stage] = tracer.span(f"cli.{stage}", cli.main)(argv[stage])
        printed[stage] = buffer.getvalue()

    result = {
        "exits": exits,
        "ingest_stdout": printed["ingest"],
        "ingest_overhead_s": tracer.span_seconds("cli.ingest") - untraced_s,
        "metrics": layer_metrics(tracer, seen, args.out),
        "machine": {
            "threads": _thread_count(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS", ""),
        },
        "spans": tracer.spans,
        "totals": tracer.totals,
    }
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
