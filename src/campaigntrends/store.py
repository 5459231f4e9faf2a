"""File formats: the CSV inputs, the ingest store, fit records and the report.

Every file the pipeline reads or writes is framed here. The three CSV
inputs (committee map, poll CSV, events CSV) share one reader,
``read_csv_table``: a fixed header, blank rows skipped, line numbers for the
caller's row checks. Outputs are single self-describing JSON documents with
a schema_version field; daily data reduces to at most a few thousand points
per series, so no database is needed. Each fit is one fits.json record
(``fit_to_record`` / ``fit_from_record``), and ``fits_long.csv`` is the
per-day view of those records (date, candidate, metric, observed, fitted),
ready for any plotting tool.
"""

from __future__ import annotations

import csv
import json
from datetime import date, timedelta
from typing import IO, Any, Iterable, Iterator, Sequence

import numpy as np

from .exceptions import InvalidValueError
from .timeseries import TimeSeries
from .trendfilter import TrendFit, extract_segments

__all__ = [
    "SCHEMA_VERSION",
    "fit_from_record",
    "fit_to_record",
    "read_csv_table",
    "read_store",
    "series_from_json",
    "series_to_json",
    "validate_report",
    "write_fits_long_csv",
    "write_store",
]

SCHEMA_VERSION = 1


def read_csv_table(
    stream: Iterable[str] | IO[str], what: str, header: Sequence[str]
) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, cells) for each non-blank data row of a CSV input.

    The first row must equal ``header`` (cells compared stripped and
    lower-cased); ``what`` names the file in the errors. Rows whose cells
    are all blank are skipped but still counted as lines. Rows are numbered
    by the physical line they start on.
    """
    reader = csv.reader(stream)
    try:
        first = next(reader)
    except StopIteration:
        raise InvalidValueError(f"{what} is empty") from None
    if [h.strip().lower() for h in first] != list(header):
        raise InvalidValueError(
            f"{what} must have header '{','.join(header)}', got {','.join(first)!r}"
        )
    lineno = reader.line_num + 1
    for row in reader:
        if any(cell.strip() for cell in row):
            yield lineno, row
        lineno = reader.line_num + 1


def series_to_json(ts: TimeSeries) -> dict[str, Any]:
    return {
        "start_date": ts.start_date.isoformat(),
        "label": ts.label,
        "candidate": ts.candidate,
        "values": [float(v) for v in ts.values],
    }


def series_from_json(obj: dict[str, Any]) -> TimeSeries:
    return TimeSeries(
        start_date=date.fromisoformat(obj["start_date"]),
        values=obj["values"],
        label=obj["label"],
        candidate=obj["candidate"],
    )


def write_store(handle: IO[str], store: dict[str, Any]) -> None:
    json.dump(store, handle, indent=2, sort_keys=True)
    handle.write("\n")


def read_store(handle: IO[str]) -> dict[str, Any]:
    store = json.load(handle)
    version = store.get("schema_version") if isinstance(store, dict) else None
    if version != SCHEMA_VERSION:
        raise InvalidValueError(
            f"store schema_version {version!r} is not supported (expected {SCHEMA_VERSION})"
        )
    return store


def fit_to_record(
    candidate: str, metric: str, ts: TimeSeries, fit: TrendFit, target: int
) -> dict[str, Any]:
    """One fits.json record: the fit of ``ts`` with dates in place of day indices."""
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


def _typed(value: Any, kinds: tuple[type, ...], what: str) -> Any:
    """``value`` when its type is exactly one of ``kinds`` (so a bool is no int), else TypeError."""
    if type(value) not in kinds:
        raise TypeError(f"fit record {what} is {value!r}, not {' or '.join(k.__name__ for k in kinds)}")
    return value


def fit_from_record(record: dict[str, Any]) -> tuple[date, TrendFit]:
    """Decode a fit_to_record record into (start_date, TrendFit).

    The fit's data are read as stored: lambda, duality_gap, tol_knot and the
    fitted and observed values must be finite JSON numbers, iterations an
    integer, and converged and df_warning booleans; observed and fitted must
    have one length of at least 3. Knots, segments and df are rebuilt from
    the fitted values with the extract_segments call fit made, and a record
    that fit_to_record would not write back from the result (knots or
    segments that are not those of the fitted values, a df that is not their
    integer count) is refused. The dual is recovered from the residual
    r = observed - fitted = D^T dual, a lower-triangular recurrence in the
    dual: a double cumulative sum of r (its first n - 2 entries) inverts it,
    clipped to the box |u| <= lambda. Malformed records raise KeyError,
    TypeError or ValueError.
    """
    start = date.fromisoformat(record["start_date"])
    number = (int, float)
    lam = _typed(record["lambda"], number, "lambda")
    gap = _typed(record["duality_gap"], number, "duality_gap")
    tol_knot = _typed(record["tol_knot"], number, "tol_knot")
    fitted = np.array([_typed(v, number, "fitted value") for v in record["fitted"]], dtype=float)
    observed = np.array([_typed(v, number, "observed value") for v in record["observed"]], dtype=float)
    if not all(np.isfinite(v).all() for v in (np.array([lam, gap, tol_knot], dtype=float), fitted, observed)):
        raise ValueError("fit record holds a non-finite number")
    if observed.shape != fitted.shape or fitted.size < 3:
        raise ValueError(f"fit record has {observed.size} observed and {fitted.size} fitted values")
    knots, segments = extract_segments(fitted, tol_knot)
    fit = TrendFit(
        lam=lam,
        fitted=fitted,
        knots=tuple(knots),
        segments=tuple(segments),
        df=len(knots) + 2,
        duality_gap=gap,
        dual=np.clip(np.cumsum(np.cumsum(observed - fitted))[:-2], -lam, lam),
        tol_knot=tol_knot,
        converged=_typed(record["converged"], (bool,), "converged"),
        iterations=_typed(record["iterations"], (int,), "iterations"),
        df_warning=_typed(record["df_warning"], (bool,), "df_warning"),
    )
    rebuilt = fit_to_record(
        record["candidate"], record["metric"], TimeSeries(start, observed), fit, record["target_df"]
    )
    if json.dumps(rebuilt, sort_keys=True) != json.dumps(record, sort_keys=True):
        raise ValueError("fit record differs from the one its fitted values give (knots, segments or df)")
    return start, fit


def write_fits_long_csv(handle: IO[str], records: list[dict[str, Any]]) -> None:
    """Per-day view of fit records: date, candidate, metric, observed, fitted."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(["date", "candidate", "metric", "observed", "fitted"])
    for record in records:
        start = date.fromisoformat(record["start_date"])
        for i, (observed, fitted) in enumerate(zip(record["observed"], record["fitted"])):
            day = (start + timedelta(days=i)).isoformat()
            writer.writerow([day, record["candidate"], record["metric"], repr(observed), repr(fitted)])


def validate_report(report: dict[str, Any]) -> list[str]:
    """Structural validation of a report document; returns problem strings.

    The shipped JSON Schema (schemas/report.schema.json) is the normative
    description; this helper re-checks the essentials without requiring a
    schema library at run time.
    """
    problems: list[str] = []

    def expect(cond: bool, message: str) -> None:
        if not cond:
            problems.append(message)

    expect(report.get("schema_version") == SCHEMA_VERSION, "bad schema_version")
    expect(isinstance(report.get("series"), list), "series must be a list")
    for i, entry in enumerate(report.get("series", []) or []):
        where = f"series[{i}]"
        expect(isinstance(entry.get("candidate"), str), f"{where}.candidate must be a string")
        expect(isinstance(entry.get("metric"), str), f"{where}.metric must be a string")
        for j, cp in enumerate(entry.get("changepoints", []) or []):
            cp_where = f"{where}.changepoints[{j}]"
            expect(_is_iso_date(cp.get("date")), f"{cp_where}.date must be an ISO date")
            expect(cp.get("direction") in ("UP", "DOWN"), f"{cp_where}.direction must be UP or DOWN")
            for slope_key in ("slope_before", "slope_after"):
                expect(isinstance(cp.get(slope_key), (int, float)), f"{cp_where}.{slope_key} must be a number")
        for j, region in enumerate(entry.get("falling_regions", []) or []):
            r_where = f"{where}.falling_regions[{j}]"
            expect(_is_iso_date(region.get("start")), f"{r_where}.start must be an ISO date")
            expect(_is_iso_date(region.get("end")), f"{r_where}.end must be an ISO date")
    expect(isinstance(report.get("events"), list), "events must be a list")
    for i, event in enumerate(report.get("events", []) or []):
        where = f"events[{i}]"
        expect(_is_iso_date(event.get("date")), f"{where}.date must be an ISO date")
        expect(isinstance(event.get("label"), str), f"{where}.label must be a string")
        expect(isinstance(event.get("matches"), list), f"{where}.matches must be a list")
    expect(isinstance(report.get("lead_lag"), list), "lead_lag must be a list")
    for i, entry in enumerate(report.get("lead_lag", []) or []):
        where = f"lead_lag[{i}]"
        expect(isinstance(entry.get("candidate"), str), f"{where}.candidate must be a string")
        expect(isinstance(entry.get("series_a"), str), f"{where}.series_a must be a string")
        expect(isinstance(entry.get("series_b"), str), f"{where}.series_b must be a string")
        expect(isinstance(entry.get("pairs"), list), f"{where}.pairs must be a list")
        median = entry.get("median_offset")
        expect(
            median is None or isinstance(median, (int, float)),
            f"{where}.median_offset must be a number or null",
        )
    return problems


def _is_iso_date(value: Any) -> bool:
    if not isinstance(value, str):
        return False
    try:
        date.fromisoformat(value)
    except ValueError:
        return False
    return True
