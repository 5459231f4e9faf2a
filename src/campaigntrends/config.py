"""Run configuration: a flat key = value file plus command-line overrides.

The config file is one flat table in TOML-like syntax: one ``key = value``
per line, ``#`` comments, strings optionally quoted, dates in ISO form and
lists comma-separated. An empty value, bare or quoted, is an error, and so
is anything but a comment after a closing quote. Command-line flags always
win over file values, and their values are parsed as file values are.

Recognized keys::

    from          = 2019-05-15          # analysis range start (inclusive)
    to            = 2020-02-15          # analysis range end (inclusive)
    candidates    = ALPHA, BRAVO        # candidate ids to analyze
    committee_map = committees.csv      # committee_id,candidate_id table
    fec_files     = a.txt, b.txt        # bulk contribution files
    poll_csv      = polls.csv           # date,candidate,pct
    events_csv    = events.csv          # date,label
    df            = 12                  # absolute df target (overrides rate)
    df_per_90     = 12                  # df budget per 90 days (default 12)
    normalize     = raw                 # raw | share
    window_days   = 10                  # event alignment window
    max_gap_days  = 14                  # lead/lag pairing gap
    out           = out                 # output directory
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Any, Iterable

from .exceptions import InvalidValueError
from .timeseries import DateRange

__all__ = ["AnalysisConfig", "build_config", "load_config_file", "parse_config_lines"]

_KNOWN_KEYS = {
    "from", "to", "candidates", "committee_map", "fec_files", "poll_csv",
    "events_csv", "df", "df_per_90", "normalize", "window_days",
    "max_gap_days", "out",
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
    df: int | None = None
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
        if not self.candidates:
            raise InvalidValueError("candidate list must not be empty")
        twice = [c for i, c in enumerate(self.candidates) if c in self.candidates[:i]]
        if twice:
            raise InvalidValueError(f"candidate {twice[0]!r} listed twice")
        if not (math.isfinite(self.df_per_90) and self.df_per_90 > 0):
            raise InvalidValueError(f"df_per_90 must be finite and > 0, got {self.df_per_90!r}")
        if self.df is not None and self.df < 2:
            raise InvalidValueError(f"df override must be >= 2, got {self.df}")
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
        if key not in _KNOWN_KEYS:
            raise InvalidValueError(f"config line {lineno}: unknown key {key!r}")
        if not value:
            raise InvalidValueError(f"config line {lineno}: empty value for {key!r}")
        table[key] = value
    return table


def load_config_file(path: Path) -> dict[str, str]:
    with open(path, encoding="utf-8") as handle:
        return parse_config_lines(handle)


def build_config(raw: dict[str, str]) -> AnalysisConfig:
    """Turn a merged raw table (file values + flag overrides) into a config."""
    for key, value in raw.items():
        if not value.strip():
            raise InvalidValueError(f"empty value for {key!r}")

    def need(key: str) -> str:
        if key not in raw:
            raise InvalidValueError(f"missing required config key {key!r}")
        return raw[key]

    def parse_date(key: str) -> date:
        try:
            return date.fromisoformat(need(key))
        except ValueError:
            raise InvalidValueError(f"config {key!r}: bad date {raw[key]!r}") from None

    def parse_list(value: str) -> tuple[str, ...]:
        return tuple(item.strip() for item in value.split(",") if item.strip())

    def parse_number(key: str, kind: type) -> int | float:
        try:
            return kind(raw[key])
        except ValueError:
            noun = "integer" if kind is int else "number"
            raise InvalidValueError(f"config {key!r}: bad {noun} {raw[key]!r}") from None

    # Only keys given a value are passed; AnalysisConfig holds the defaults.
    optional: dict[str, Any] = {
        key: parse_number(key, kind)
        for key, kind in (
            ("df", int), ("df_per_90", float), ("window_days", int), ("max_gap_days", int)
        )
        if key in raw
    }
    for key in ("committee_map", "poll_csv", "events_csv"):
        if key in raw:
            optional[key] = Path(raw[key])
    if "fec_files" in raw:
        optional["fec_files"] = tuple(Path(p) for p in parse_list(raw["fec_files"]))
    if "normalize" in raw:
        optional["normalize"] = raw["normalize"]
    if "out" in raw:
        optional["out_dir"] = Path(raw["out"])
    return AnalysisConfig(
        date_from=parse_date("from"),
        date_to=parse_date("to"),
        candidates=parse_list(need("candidates")),
        **optional,
    )
