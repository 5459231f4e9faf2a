"""Run configuration: a flat key = value file plus command-line overrides.

The config file is one flat table in TOML-like syntax: one ``key = value``
per line, ``#`` comments, strings optionally quoted, dates written
``YYYY-MM-DD`` only (``store.parse_iso_date``, on every Python) and lists
comma-separated. An empty value, bare or quoted, is an error, and so
is anything but a comment after a closing quote. ``parse_config_lines``
parses the lines; the CLI reads them as it reads every user text file
(``cli._input_lines``): UTF-8 with an optional byte-order mark, where a
missing file or one that is not UTF-8 exits 2.

``KEYS`` declares each key once: its ``AnalysisConfig`` field, its parser
and the help of its flag ``--key`` (``_`` written ``-``, spelled in full).
A key given twice in the file is an error. Flags win over file values, and
their values are parsed and checked exactly as file values are. An n-day
series is fit to df ``max(2, round(df_per_90 * n / 90))``, so an absolute
target N on an n-day range is ``df_per_90 = 90 * N / n``.
``AnalysisConfig`` checks the values together, so a range under 3 days (the
shortest series a fit takes) exits 2 before any stage reads an input.

Recognized keys::

    from          = 2019-05-15          # analysis range start (inclusive)
    to            = 2020-02-15          # analysis range end (inclusive)
    candidates    = ALPHA, BRAVO        # candidate ids to analyze
    committee_map = committees.csv      # committee_id,candidate_id table
    fec_files     = a.txt, b.txt        # bulk contribution files
    poll_csv      = polls.csv           # date,candidate,pct
    events_csv    = events.csv          # date,label
    df_per_90     = 12                  # df budget per 90 days (default 12)
    normalize     = raw                 # raw | share
    window_days   = 10                  # event alignment window
    max_gap_days  = 14                  # lead/lag pairing gap
    out           = out                 # output directory
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from datetime import date
from pathlib import Path
from typing import Any, Callable, Iterable

from .exceptions import InvalidValueError, RangeTooNarrowError
from .store import parse_iso_date
from .timeseries import DateRange

__all__ = ["KEYS", "AnalysisConfig", "build_config", "parse_config_lines"]


def _parser(convert: Callable[[str], Any], noun: str) -> Callable[[str], Any]:
    """A value parser that reports what ``convert`` rejects as a bad ``noun``."""
    def parse(value: str) -> Any:
        try:
            return convert(value)
        except ValueError:
            raise ValueError(f"bad {noun} {value!r}") from None
    return parse


def _items(value: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in value.split(",") if item.strip())


# key -> (AnalysisConfig field, value parser, flag help); a key whose field
# has no default is required
KEYS: dict[str, tuple[str, Callable[[str], Any], str]] = {
    "from": ("date_from", _parser(parse_iso_date, "date"), "range start, YYYY-MM-DD"),
    "to": ("date_to", _parser(parse_iso_date, "date"), "range end, YYYY-MM-DD"),
    "candidates": ("candidates", _items, "comma-separated candidate ids"),
    "committee_map": ("committee_map", Path, "committee_id,candidate_id CSV"),
    "fec_files": ("fec_files", lambda v: tuple(map(Path, _items(v))), "bulk contribution file"),
    "poll_csv": ("poll_csv", Path, "date,candidate,pct CSV"),
    "events_csv": ("events_csv", Path, "date,label CSV"),
    "df_per_90": ("df_per_90", _parser(float, "number"), "df budget per 90 days (default 12)"),
    "normalize": ("normalize", str, "fit raw values or daily cross-candidate shares"),
    "window_days": ("window_days", _parser(int, "integer"), "event alignment window"),
    "max_gap_days": ("max_gap_days", _parser(int, "integer"), "lead/lag pairing gap"),
    "out": ("out_dir", Path, "output directory"),
}


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything a pipeline run needs, validated."""

    date_from: date
    date_to: date
    candidates: tuple[str, ...]
    committee_map: Path | None = None
    fec_files: tuple[Path, ...] = ()
    poll_csv: Path | None = None
    events_csv: Path | None = None
    df_per_90: float = 12.0
    normalize: str = "raw"
    window_days: int = 10
    max_gap_days: int = 14
    out_dir: Path = Path("out")

    def __post_init__(self) -> None:
        if self.date_from > self.date_to:
            raise InvalidValueError(
                f"'from' {self.date_from} is after 'to' {self.date_to}"
            )
        if len(self.range) < 3:
            raise RangeTooNarrowError(
                f"range {self.date_from}..{self.date_to} has {len(self.range)} days; "
                "a time series needs at least 3 daily values"
            )
        if not self.candidates:
            raise InvalidValueError("candidate list must not be empty")
        twice = [c for i, c in enumerate(self.candidates) if c in self.candidates[:i]]
        if twice:
            raise InvalidValueError(f"candidate {twice[0]!r} listed twice")
        if not (math.isfinite(self.df_per_90) and self.df_per_90 > 0):
            raise InvalidValueError(f"df_per_90 must be finite and > 0, got {self.df_per_90!r}")
        if self.normalize not in ("raw", "share"):
            raise InvalidValueError(
                f"normalize must be 'raw' or 'share', got {self.normalize!r}"
            )
        if self.window_days <= 0 or self.max_gap_days <= 0:
            raise InvalidValueError("window_days and max_gap_days must be positive")

    @property
    def range(self) -> DateRange:
        return DateRange(self.date_from, self.date_to)


def parse_config_lines(lines: Iterable[str]) -> dict[str, str]:
    """Parse flat key = value lines into a raw string table."""
    table: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise InvalidValueError(f"config line {lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if value[:1] in ("'", '"'):
            quote = value[0]
            closing = value.find(quote, 1)
            if closing < 0:
                raise InvalidValueError(f"config line {lineno}: unterminated string")
            rest = value[closing + 1 :].lstrip()
            if rest and not rest.startswith("#"):
                raise InvalidValueError(f"config line {lineno}: text after closing quote")
            value = value[1:closing]
        else:
            value = value.split("#", 1)[0].strip()
        if key not in KEYS:
            raise InvalidValueError(f"config line {lineno}: unknown key {key!r}")
        if not value:
            raise InvalidValueError(f"config line {lineno}: empty value for {key!r}")
        if key in table:
            raise InvalidValueError(
                f"config line {lineno}: key {key!r} given twice (first on line {first_line[key]})"
            )
        table[key] = value
        first_line[key] = lineno
    return table


def build_config(raw: dict[str, str]) -> AnalysisConfig:
    """Turn a merged raw table (file values + flag overrides) into a config.

    Reports an empty value first, then a missing required key, then a bad value.
    """
    for key, value in raw.items():
        if not value.strip():
            raise InvalidValueError(f"empty value for {key!r}")
    required = {f.name for f in fields(AnalysisConfig) if f.default is MISSING}
    for key, (field, _, _) in KEYS.items():
        if field in required and key not in raw:
            raise InvalidValueError(f"missing required config key {key!r}")
    values: dict[str, Any] = {}
    for key, (field, parse, _) in KEYS.items():
        if key in raw:
            try:
                values[field] = parse(raw[key])
            except ValueError as exc:
                raise InvalidValueError(f"config {key!r}: {exc}") from None
    return AnalysisConfig(**values)
