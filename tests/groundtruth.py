"""Seeded 277-day series with planted truth, and one scorer for found knots.

The panel spans the paper's window, 2019-05-15..2020-02-15 (277 days), in
these kinds:

- ``flat-gauss`` / ``flat-poisson``: a line plus N(0, 1) noise, and Poisson
  counts at a linear rate; any knot found on them is false;
- ``k1-gauss`` / ``k1-poisson`` / ``k4-gauss`` / ``k4-poisson``: 1 or 4
  planted trend knots, Gaussian or Poisson;
- ``donation``: Poisson counts with 5 trend knots, a 5-day rising surge up
  to each quarter end and a pulse decaying over 2 or 5 days after each
  event date; a knot found at a surge or pulse is false;
- ``poll``: 4 trend knots, observed every 1-8 days with N(0, 1) noise and
  interpolated by ``load_poll_series`` itself.

Each trend is a zigzag: straight between its knots, turning the other way at
each, with its knots at least 25 days apart and 7 days clear of every
surge and pulse. The same kind and seed give the same bytes.
``coupled_pair`` plants a donation series whose trend knots follow a poll's
by a fixed lag, and ``score`` reads that lag back as the coupling flag.

Run ``PYTHONPATH=src python tests/groundtruth.py [seeds]`` (default 8) to
print each kind's scores for ``fit_with_target_df`` at the span's df target.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Container, NamedTuple, Sequence

import numpy as np

from campaigntrends import DateRange, fit_with_target_df, load_poll_series, target_df_for_span

START = date(2019, 5, 15)
N_DAYS = 277
RANGE = DateRange(START, START + timedelta(days=N_DAYS - 1))

# a found knot within this many days of a planted trend knot is true
KNOT_TOLERANCE = 5
# a found knot within this many days of a surge or pulse span sits at it
SPIKE_MARGIN = 1

QUARTER_ENDS = tuple((d - START).days for d in (date(2019, 6, 30), date(2019, 9, 30), date(2019, 12, 31)))
EVENTS = tuple(
    (d - START).days
    for d in (date(2019, 6, 27), date(2019, 7, 31), date(2019, 9, 12), date(2019, 10, 15),
              date(2019, 11, 20), date(2019, 12, 19), date(2020, 1, 14), date(2020, 2, 7))
)
# inclusive day spans: a surge over the 5 days up to each quarter end, and a
# pulse over the 2 or 5 days after each event, in turn
SURGES = tuple((q - 4, q) for q in QUARTER_ENDS)
PULSES = tuple((e + 1, e + (2, 5)[i % 2]) for i, e in enumerate(EVENTS))
# every day a planted trend knot keeps clear of: each span widened by 7 days
_NEAR_SPIKE = frozenset(d for first, last in SURGES + PULSES for d in range(first - 7, last + 8))

KINDS = ("flat-gauss", "flat-poisson", "k1-gauss", "k1-poisson", "k4-gauss", "k4-poisson",
         "donation", "poll")


@dataclass(frozen=True)
class Planted:
    """One panel series and its truth.

    Attributes:
        kind: One of KINDS.
        values: The daily series, N_DAYS values from START.
        knots: Day indices of the planted trend knots.
        spikes: Inclusive (first, last) day spans of planted surges and pulses.
    """

    kind: str
    values: np.ndarray
    knots: tuple[int, ...]
    spikes: tuple[tuple[int, int], ...] = ()


class Score(NamedTuple):
    """How a set of found knots meets a series' truth.

    ``changepoints`` counts every found knot (all of them false on a flat
    series). Precision is the share of found knots within KNOT_TOLERANCE
    days of a planted knot and not at a spike (1.0 when none are found);
    recall is the share of planted knots with a found knot within
    KNOT_TOLERANCE days (1.0 when none are planted). ``coupled_lag`` is the
    coupling flag: the lag d >= 1 at which every planted knot of the lead
    series has a planted knot of this one d days later, else None.
    """

    changepoints: int
    precision: float
    recall: float
    f1: float
    coupled_lag: int | None


def score(planted: Planted, found: Sequence[int], lead: Planted | None = None) -> Score:
    """Score ``found`` knots against ``planted``, and flag its coupling to ``lead``."""
    found = np.asarray(found, dtype=int)
    knots = np.asarray(planted.knots, dtype=int)
    near = np.abs(found[:, None] - knots[None, :]) <= KNOT_TOLERANCE
    at_spike = np.zeros(found.size, dtype=bool)
    for first, last in planted.spikes:
        at_spike |= (found >= first - SPIKE_MARGIN) & (found <= last + SPIKE_MARGIN)
    precision = float(np.mean(near.any(axis=1) & ~at_spike)) if found.size else 1.0
    recall = float(np.mean(near.any(axis=0))) if knots.size else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    lags = None
    if lead is not None and lead.knots:
        lags = set.intersection(*({k - j for k in planted.knots if k > j} for j in lead.knots))
    return Score(int(found.size), precision, recall, f1, min(lags) if lags else None)


def panel(kind: str, seed: int) -> Planted:
    """The ``kind`` series of ``seed``; see the module docstring."""
    rng = np.random.default_rng([KINDS.index(kind), seed])
    if kind == "donation":
        return _donation(rng, _knots(rng, 5, _NEAR_SPIKE))
    if kind == "poll":
        return _poll(rng, _knots(rng, 4))
    family, noise = kind.split("-")
    knots = _knots(rng, {"flat": 0, "k1": 1, "k4": 4}[family])
    if noise == "gauss":
        trend = _zigzag(rng, knots, 0.0, (4.0, 8.0))
        return Planted(kind, trend + rng.normal(0.0, 1.0, N_DAYS), knots)
    rate = _zigzag(rng, knots, 25.0, (10.0, 18.0))
    return Planted(kind, rng.poisson(rate).astype(float), knots)


def coupled_pair(seed: int, lag: int) -> tuple[Planted, Planted]:
    """A poll series and a donation series whose trend knots follow the poll's by ``lag`` days.

    The donation series has the poll's 4 knots shifted by ``lag`` and one
    knot of its own, with its usual surges and pulses.
    """
    rng = np.random.default_rng([len(KINDS), seed, lag])
    shared = _knots(rng, 4, {d - lag for d in _NEAR_SPIKE}, hi=N_DAYS - 16 - lag)
    moved = tuple(k + lag for k in shared)
    own = _knots(rng, 1, _NEAR_SPIKE | {d + s for d in moved for s in range(-24, 25)})
    return _poll(rng, shared), _donation(rng, tuple(sorted(moved + own)))


def _knots(rng: np.random.Generator, k: int, forbidden: Container[int] = (),
           hi: int = N_DAYS - 16) -> tuple[int, ...]:
    """``k`` sorted knot days in [15, hi], 25 days apart and outside ``forbidden``."""
    allowed = np.array([d for d in range(15, hi + 1) if d not in forbidden])
    while True:
        knots = np.sort(rng.choice(allowed, k, replace=False))
        if k < 2 or np.diff(knots).min() >= 25:
            return tuple(int(d) for d in knots)


def _zigzag(rng: np.random.Generator, knots: Sequence[int], level: float,
            step: tuple[float, float]) -> np.ndarray:
    """A line through ``knots`` that turns the other way at each, moving step[0]..step[1] per piece."""
    bounds = [0, *knots, N_DAYS - 1]
    sign = rng.choice([-1.0, 1.0])
    values = [level - sign * rng.uniform(*step) / 2]
    for _ in bounds[1:]:
        values.append(values[-1] + sign * rng.uniform(*step))
        sign = -sign
    return np.interp(np.arange(N_DAYS), bounds, values)


def _donation(rng: np.random.Generator, knots: tuple[int, ...]) -> Planted:
    rate = _zigzag(rng, knots, 25.0, (8.0, 14.0))
    for first, last in SURGES:  # rises to 3x the rate
        rate[first : last + 1] *= 1.0 + np.linspace(0.4, 2.0, last - first + 1)
    for first, last in PULSES:  # halves each day
        rate[first : last + 1] += 30.0 * 0.5 ** np.arange(last - first + 1)
    return Planted("donation", rng.poisson(rate).astype(float), knots, SURGES + PULSES)


def _poll(rng: np.random.Generator, knots: tuple[int, ...]) -> Planted:
    trend = _zigzag(rng, knots, 25.0, (4.0, 8.0))
    days = [0]
    while days[-1] + 8 < N_DAYS - 1:
        days.append(days[-1] + int(rng.integers(1, 9)))
    days.append(N_DAYS - 1)
    rows = ["date,candidate,pct"] + [
        f"{START + timedelta(days=d)},P,{trend[d] + rng.normal(0.0, 1.0):.2f}" for d in days
    ]
    return Planted("poll", load_poll_series(rows, "P", RANGE).values, knots)


def main(argv: Sequence[str]) -> None:
    seeds = int(argv[0]) if argv else 8
    target = target_df_for_span(N_DAYS)
    print(f"kind          changepoints  precision  recall    f1  (df {target}, {seeds} seeds)")
    for kind in KINDS:
        scores = [score(p, fit_with_target_df(p.values, target).knots)
                  for p in (panel(kind, seed) for seed in range(seeds))]
        counts = [s.changepoints for s in scores]
        precision, recall, f1 = (np.mean([getattr(s, f) for s in scores]) for f in ("precision", "recall", "f1"))
        print(f"{kind:13} {min(counts):6}-{max(counts):<6} {precision:10.2f} {recall:7.2f} {f1:5.2f}")


if __name__ == "__main__":
    main(sys.argv[1:])
