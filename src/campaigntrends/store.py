"""File formats: the CSV inputs, the ingest store, fit records and the report.

Every file the pipeline reads or writes is framed here. The three CSV
inputs (committee map, poll CSV, events CSV) share one reader,
``read_csv_table``: a fixed header, blank rows skipped, exactly one cell per
header field, line numbers for the caller's row checks. Outputs are single
self-describing JSON documents that share one ``SCHEMA_VERSION``; daily
data reduces to at most a few thousand points per series, so no database is
needed.

store.json is ``{"schema_version", "range": {"from", "to"}, "metadata",
"series": {<candidate>: {<metric>: {"values": [...]}}}}``. A series is named
by its two keys alone and holds one value per day of ``range``
(``series_to_json`` / ``series_from_json``). Each candidate holds the four
``METRIC_LABELS``, and ``POLL_METRIC`` too when the run read a poll CSV.
Each fit is one fits.json record (``fit_to_record`` / ``fit_from_record``),
and ``fits_long.csv`` is the per-day view of those records (date,
candidate, metric, observed, fitted), ready for any plotting tool.
"""

from __future__ import annotations

import csv
import functools
import json
from datetime import date, timedelta
from typing import IO, TYPE_CHECKING, Any, Iterable, Iterator, Sequence

import numpy as np

from .exceptions import InvalidValueError
from .timeseries import TimeSeries

if TYPE_CHECKING:
    from .trendfilter import TrendFit

__all__ = [
    "METRIC_LABELS",
    "POLL_METRIC",
    "SCHEMA_VERSION",
    "fit_from_record",
    "fit_to_record",
    "parse_ascii_number",
    "parse_iso_date",
    "read_csv_table",
    "read_store",
    "series_from_json",
    "series_to_json",
    "validate_report",
    "write_fits_long_csv",
    "write_store",
]

SCHEMA_VERSION = 2

# The four donation metrics, in output order, and the poll average's metric.
METRIC_LABELS = ("donors", "new_donors", "amount", "new_donor_amount")
POLL_METRIC = "poll"


def read_csv_table(
    stream: Iterable[str] | IO[str], what: str, header: Sequence[str]
) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, cells) for each non-blank data row of a CSV input.

    The first row must equal ``header`` (cells compared stripped and
    lower-cased); ``what`` names the file in the errors. Rows whose cells
    are all blank are skipped but still counted as lines. Every other row
    must hold exactly one cell per header field, so a comma inside a cell
    must be quoted. Rows are numbered by the physical line they start on.
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
            if len(row) != len(header):
                raise InvalidValueError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
            yield lineno, row
        lineno = reader.line_num + 1


def series_to_json(ts: TimeSeries) -> dict[str, Any]:
    return {"values": [float(v) for v in ts.values]}


def series_from_json(obj: dict[str, Any], start: date, candidate: str, metric: str) -> TimeSeries:
    """The ``candidate``/``metric`` series of a store whose range starts on ``start``."""
    if list(obj) != ["values"]:
        raise InvalidValueError(f"series {candidate}/{metric} holds the keys {sorted(obj)}, not 'values' alone")
    return TimeSeries(start, obj["values"], label=metric, candidate=candidate)


def write_store(handle: IO[str], store: dict[str, Any]) -> None:
    json.dump(store, handle, indent=2, sort_keys=True)
    handle.write("\n")


def read_store(handle: IO[str]) -> dict[str, Any]:
    """Load a JSON object whose ``schema_version`` is the integer ``SCHEMA_VERSION``.

    Anything else raises InvalidValueError: a document that is not an
    object, an object anywhere in it that repeats a key (``json.load``
    alone keeps the last value), or a version that is missing, another
    number, or a JSON ``true`` or ``1.0`` (which Python compares equal to 1).
    """
    store = json.load(handle, object_pairs_hook=_unique_keys)
    version = store.get("schema_version") if isinstance(store, dict) else None
    if type(version) is not int or version != SCHEMA_VERSION:
        raise InvalidValueError(
            f"schema_version {version!r} is not supported (expected {SCHEMA_VERSION})"
        )
    return store


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """The dict of one JSON object's (key, value) pairs; InvalidValueError if a key repeats."""
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise InvalidValueError(f"an object repeats the key {key!r}")
        obj[key] = value
    return obj


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


def fit_from_record(record: dict[str, Any]) -> tuple[str, str, int, date, TrendFit]:
    """Decode a fit_to_record record into (candidate, metric, target_df, start_date, TrendFit).

    The inverse of fit_to_record, with the series given back as its start date.
    Every field is converted to the type fit writes (str, float, float
    arrays, bool, int); the numbers must be finite and lambda not negative,
    and observed and fitted lists of one length of at least 3. The record is
    refused unless fit_to_record of the TrendFit built from them, which
    derives knots, segments and df from the fitted values, writes it back
    exactly, as JSON.
    The dual is recovered from the residual r = observed - fitted = D^T dual,
    a lower-triangular recurrence in the dual: a double cumulative sum of r
    (its first n - 2 entries) inverts it, clipped to the box |u| <= lambda.
    Malformed records raise KeyError, TypeError, ValueError or OverflowError.
    """
    from .trendfilter import TrendFit  # only fit records need it, so an ingest worker never loads it

    candidate, metric, target = str(record["candidate"]), str(record["metric"]), int(record["target_df"])
    start = parse_iso_date(record["start_date"])
    lam, gap, tol_knot = (float(record[key]) for key in ("lambda", "duality_gap", "tol_knot"))
    fitted = np.array(record["fitted"], dtype=float)
    observed = np.array(record["observed"], dtype=float)
    if not all(np.isfinite(v).all() for v in (np.array([lam, gap, tol_knot]), fitted, observed)):
        raise ValueError("fit record holds a non-finite number")
    if lam < 0:
        raise ValueError(f"fit record holds the negative lambda {lam!r}")
    if fitted.ndim != 1 or observed.shape != fitted.shape or fitted.size < 3:
        raise ValueError(f"fit record has {observed.size} observed and {fitted.size} fitted values")
    fit = TrendFit(
        lam=lam,
        fitted=fitted,
        duality_gap=gap,
        dual=np.clip(np.cumsum(np.cumsum(observed - fitted))[:-2], -lam, lam),
        tol_knot=tol_knot,
        converged=bool(record["converged"]),
        iterations=int(record["iterations"]),
        df_warning=bool(record["df_warning"]),
    )
    rebuilt = fit_to_record(candidate, metric, TimeSeries(start, observed), fit, target)
    if json.dumps(rebuilt, sort_keys=True) != json.dumps(record, sort_keys=True):
        raise ValueError("fit record differs from the record its decoded fields give")
    return candidate, metric, target, start, fit


def write_fits_long_csv(handle: IO[str], records: list[dict[str, Any]]) -> None:
    """Per-day view of fit records: date, candidate, metric, observed, fitted."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(["date", "candidate", "metric", "observed", "fitted"])
    for record in records:
        start = parse_iso_date(record["start_date"])
        for i, (observed, fitted) in enumerate(zip(record["observed"], record["fitted"])):
            day = (start + timedelta(days=i)).isoformat()
            writer.writerow([day, record["candidate"], record["metric"], repr(observed), repr(fitted)])


def validate_report(report: dict[str, Any]) -> list[str]:
    """Check a report against the shipped schemas/report.schema.json; returns problem strings.

    Each problem is ``report<path> <message>``, one per error that jsonschema's
    Draft 2020-12 validator finds, formats checked; a missing key's path ends
    in that key. No pipeline stage calls it, so none loads jsonschema, which
    comes with the ``test`` extra.
    """
    problems = []
    for error in _report_validator().iter_errors(report):
        keys = list(error.absolute_path)
        if error.validator == "required":  # jsonschema reports a missing key at its object
            keys += [k for k in error.validator_value if error.message.startswith(f"{k!r} ")]
        path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)
        problems.append(f"report{path} {error.message}")
    return problems


@functools.cache
def _report_validator() -> Any:
    import jsonschema
    from importlib import resources

    path = resources.files(__package__) / "schemas" / "report.schema.json"
    schema = json.loads(path.read_text(encoding="utf-8"))
    return jsonschema.Draft202012Validator(schema, format_checker=jsonschema.FormatChecker())


def parse_iso_date(text: str) -> date:
    """The date of a YYYY-MM-DD text; ValueError for any other text.

    From Python 3.11, ``date.fromisoformat`` alone also reads ``20190601``
    and ``2019-W22-6``.
    """
    try:
        day = date.fromisoformat(text)
        if day.isoformat() == text:
            return day
    except ValueError:
        pass
    raise ValueError(f"bad date {text!r}, expected YYYY-MM-DD")


def parse_ascii_number(text: str) -> float:
    """``float`` of a number written in ASCII without ``_``; ValueError for any other text.

    ``float`` alone also reads other scripts' digits and ``_`` between digits.
    """
    text = text.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number: {text!r}")
    return float(text)
