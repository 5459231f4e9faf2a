"""Run configuration: a flat key = value file plus command-line overrides.

The config file is one flat table in TOML-like syntax: one ``key = value``
per line, ``#`` comments, strings optionally quoted, dates in ISO form and
lists comma-separated. Command-line flags always win over file values.

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

from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Iterable

from .exceptions import InvalidValueError
from .timeseries import DateRange

__all__ = ["AnalysisConfig", "build_config", "load_config_file", "parse_config_lines"]

_KNOWN_KEYS = {
    "from", "to", "candidates", "committee_map", "fec_files", "poll_csv",
    "events_csv", "df", "df_per_90", "normalize", "window_days",
    "max_gap_days", "out", "eps_gap", "max_iter", "tol_knot",
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
    eps_gap: float | None = None
    max_iter: int = 50_000
    tol_knot: float | None = None

    def __post_init__(self) -> None:
        if self.date_from > self.date_to:
            raise InvalidValueError(
                f"'from' {self.date_from} is after 'to' {self.date_to}"
            )
        if not self.candidates:
            raise InvalidValueError("candidate list must not be empty")
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


def _strip_quotes(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
        return value[1:-1]
    return value


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
        if value[:1] in "'\"":
            quote = value[0]
            closing = value.find(quote, 1)
            if closing < 0:
                raise InvalidValueError(f"config line {lineno}: unterminated string")
            value = value[1:closing]
        else:
            value = value.split("#", 1)[0].strip()
        if key not in _KNOWN_KEYS:
            raise InvalidValueError(f"config line {lineno}: unknown key {key!r}")
        table[key] = value
    return table


def load_config_file(path: Path) -> dict[str, str]:
    with open(path, encoding="utf-8") as handle:
        return parse_config_lines(handle)


def build_config(raw: dict[str, str]) -> AnalysisConfig:
    """Turn a merged raw table (file values + flag overrides) into a config."""

    def need(key: str) -> str:
        if key not in raw or not raw[key]:
            raise InvalidValueError(f"missing required config key {key!r}")
        return raw[key]

    def parse_date(key: str) -> date:
        try:
            return date.fromisoformat(need(key))
        except ValueError:
            raise InvalidValueError(f"config {key!r}: bad date {raw[key]!r}") from None

    def parse_list(value: str) -> tuple[str, ...]:
        return tuple(item.strip() for item in value.split(",") if item.strip())

    def parse_opt_int(key: str) -> int | None:
        if key not in raw or raw[key] == "":
            return None
        try:
            return int(raw[key])
        except ValueError:
            raise InvalidValueError(f"config {key!r}: bad integer {raw[key]!r}") from None

    def parse_opt_float(key: str) -> float | None:
        if key not in raw or raw[key] == "":
            return None
        try:
            return float(raw[key])
        except ValueError:
            raise InvalidValueError(f"config {key!r}: bad number {raw[key]!r}") from None

    def with_default(value, default):
        return default if value is None else value

    return AnalysisConfig(
        date_from=parse_date("from"),
        date_to=parse_date("to"),
        candidates=parse_list(need("candidates")),
        committee_map=Path(raw["committee_map"]) if raw.get("committee_map") else None,
        fec_files=tuple(Path(p) for p in parse_list(raw.get("fec_files", ""))),
        poll_csv=Path(raw["poll_csv"]) if raw.get("poll_csv") else None,
        events_csv=Path(raw["events_csv"]) if raw.get("events_csv") else None,
        df=parse_opt_int("df"),
        df_per_90=with_default(parse_opt_float("df_per_90"), 12.0),
        normalize=raw.get("normalize", "raw"),
        window_days=with_default(parse_opt_int("window_days"), 10),
        max_gap_days=with_default(parse_opt_int("max_gap_days"), 14),
        out_dir=Path(raw.get("out", "out")),
        eps_gap=parse_opt_float("eps_gap"),
        max_iter=with_default(parse_opt_int("max_iter"), 50_000),
        tol_knot=parse_opt_float("tol_knot"),
    )
