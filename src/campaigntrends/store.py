"""File formats: the CSV inputs, the ingest store, fit records and the report.

Every file the pipeline reads or writes is framed here. The three CSV
inputs (committee map, poll CSV, events CSV) share one reader,
``read_csv_table``: a fixed header, blank rows skipped, exactly one cell per
header field, line numbers for the caller's row checks. Outputs are single
self-describing JSON documents with a schema_version field; daily data
reduces to at most a few thousand points per series, so no database is
needed. Each fit is one fits.json record
(``fit_to_record`` / ``fit_from_record``), and ``fits_long.csv`` is the
per-day view of those records (date, candidate, metric, observed, fitted),
ready for any plotting tool.
"""

from __future__ import annotations

import csv
import functools
import json
import re
from datetime import date, timedelta
from typing import IO, Any, Iterable, Iterator, Sequence

import numpy as np

from .exceptions import InvalidValueError
from .timeseries import TimeSeries
from .trendfilter import TrendFit

__all__ = [
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

SCHEMA_VERSION = 1


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
    return {
        "start_date": ts.start_date.isoformat(),
        "label": ts.label,
        "candidate": ts.candidate,
        "values": [float(v) for v in ts.values],
    }


def series_from_json(obj: dict[str, Any]) -> TimeSeries:
    return TimeSeries(
        start_date=parse_iso_date(obj["start_date"]),
        values=obj["values"],
        label=obj["label"],
        candidate=obj["candidate"],
    )


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


def fit_from_record(record: dict[str, Any]) -> tuple[date, TrendFit]:
    """Decode a fit_to_record record into (start_date, TrendFit).

    Every field is converted to the type fit writes (str, float, float
    arrays, bool, int); the numbers must be finite, and observed and fitted
    lists of one length of at least 3. The record is refused unless
    fit_to_record of the TrendFit built from them, which derives knots,
    segments and df from the fitted values, writes it back exactly, as JSON.
    The dual is recovered from the residual r = observed - fitted = D^T dual,
    a lower-triangular recurrence in the dual: a double cumulative sum of r
    (its first n - 2 entries) inverts it, clipped to the box |u| <= lambda.
    Malformed records raise KeyError, TypeError, ValueError or OverflowError.
    """
    start = parse_iso_date(record["start_date"])
    lam, gap, tol_knot = (float(record[key]) for key in ("lambda", "duality_gap", "tol_knot"))
    fitted = np.array(record["fitted"], dtype=float)
    observed = np.array(record["observed"], dtype=float)
    if not all(np.isfinite(v).all() for v in (np.array([lam, gap, tol_knot]), fitted, observed)):
        raise ValueError("fit record holds a non-finite number")
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
    candidate, metric, target = str(record["candidate"]), str(record["metric"]), int(record["target_df"])
    rebuilt = fit_to_record(candidate, metric, TimeSeries(start, observed), fit, target)
    if json.dumps(rebuilt, sort_keys=True) != json.dumps(record, sort_keys=True):
        raise ValueError("fit record differs from the record its decoded fields give")
    return start, fit


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

    The schema is read at the first call and applied by a reader of the
    JSON Schema keywords it uses (type, const, enum, required, properties,
    items, $ref into $defs, minimum, pattern, format "date"), so no schema
    library is needed at run time.
    """
    schema = _report_schema()
    return _schema_problems(report, schema, "report", schema)


@functools.cache
def _report_schema() -> dict[str, Any]:
    from importlib import resources  # only report reads the schema

    path = resources.files(__package__) / "schemas" / "report.schema.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _schema_problems(value: Any, schema: dict[str, Any], where: str, root: dict[str, Any]) -> list[str]:
    """Where ``value`` breaks ``schema``, each keyword read as JSON Schema 2020-12 reads it."""
    problems = []
    if "$ref" in schema:
        target = root["$defs"][schema["$ref"].removeprefix("#/$defs/")]
        problems += _schema_problems(value, target, where, root)
    kinds = schema.get("type", [])
    kinds = [kinds] if isinstance(kinds, str) else kinds
    if kinds and not any(_JSON_TYPES[kind](value) for kind in kinds):
        return [*problems, f"{where} must be of type {' or '.join(kinds)}, not {type(value).__name__}"]
    if "const" in schema and not _json_equal(value, schema["const"]):
        problems.append(f"{where} must be {json.dumps(schema['const'])}")
    if "enum" in schema and not any(_json_equal(value, option) for option in schema["enum"]):
        problems.append(f"{where} must be one of {json.dumps(schema['enum'])}")
    if isinstance(value, dict):
        problems += [f"{where}.{key} is missing" for key in schema.get("required", ()) if key not in value]
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                problems += _schema_problems(value[key], sub, f"{where}.{key}", root)
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            problems += _schema_problems(item, schema["items"], f"{where}[{i}]", root)
    if "minimum" in schema and _JSON_TYPES["number"](value) and value < schema["minimum"]:
        problems.append(f"{where} must be at least {schema['minimum']}")
    if isinstance(value, str):
        if "pattern" in schema and not re.search(schema["pattern"], value):
            problems.append(f"{where} must match {schema['pattern']}")
        if schema.get("format") == "date" and not _is_iso_date(value):
            problems.append(f"{where} must be an ISO date (YYYY-MM-DD)")
    return problems


_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: type(v) is int or isinstance(v, float) and v.is_integer(),
}


def _json_equal(a: Any, b: Any) -> bool:
    """Equality of scalar JSON values, the schema's const and enum values: 1 == 1.0, true != 1."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _is_iso_date(value: str) -> bool:
    """A YYYY-MM-DD calendar date, as JSON Schema's "date" format reads it."""
    try:
        return date.fromisoformat(value).isoformat() == value
    except ValueError:
        return False


def parse_iso_date(text: str) -> date:
    """The date of a YYYY-MM-DD text; ValueError for any other text.

    From Python 3.11, ``date.fromisoformat`` alone also reads ``20190601``
    and ``2019-W22-6``.
    """
    if not _is_iso_date(text):
        raise ValueError(f"bad date {text!r}, expected YYYY-MM-DD")
    return date.fromisoformat(text)


def parse_ascii_number(text: str) -> float:
    """``float`` of a number written in ASCII without ``_``; ValueError for any other text.

    ``float`` alone also reads other scripts' digits and ``_`` between digits.
    """
    text = text.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number: {text!r}")
    return float(text)
