"""Deterministic synthetic piecewise-linear series for benchmarks and tests."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .exceptions import InvalidInputError

__all__ = ["piecewise_linear", "synth_values"]


def piecewise_linear(
    n_days: int, knots: Sequence[int], slopes: Sequence[float]
) -> np.ndarray:
    """Noise-free signal starting at 0.0 with the given bends.

    ``knots`` are strictly increasing interior day indices in (0, n_days - 1)
    and ``slopes`` holds one finite slope per segment, so len(slopes) must be
    len(knots) + 1. A signal that overflows raises InvalidInputError.
    """
    if n_days < 2:
        raise InvalidInputError(f"need at least 2 days, got {n_days}")
    knots = [int(k) for k in knots]
    if sorted(set(knots)) != knots:
        raise InvalidInputError("knots must be strictly increasing and unique")
    if any(not 0 < k < n_days - 1 for k in knots):
        raise InvalidInputError(f"knots must lie strictly inside (0, {n_days - 1})")
    if len(slopes) != len(knots) + 1:
        raise InvalidInputError(
            f"{len(knots)} knots need {len(knots) + 1} slopes, got {len(slopes)}"
        )
    if not np.all(np.isfinite(np.asarray(slopes, dtype=float))):
        raise InvalidInputError(f"slopes must be finite, got {list(slopes)}")
    per_day = np.zeros(n_days - 1)
    bounds = [0, *knots, n_days - 1]
    for seg, slope in enumerate(slopes):
        per_day[bounds[seg] : bounds[seg + 1]] = float(slope)
    with np.errstate(over="ignore"):
        return _finite(np.concatenate([[0.0], np.cumsum(per_day)]))


def synth_values(
    n_days: int,
    knots: Sequence[int],
    slopes: Sequence[float],
    noise_sd: float,
    seed: int,
) -> np.ndarray:
    """Piecewise-linear signal plus Gaussian noise; same seed, same bytes.

    ``noise_sd`` must be finite and nonnegative and ``seed`` nonnegative.
    """
    if not (np.isfinite(noise_sd) and noise_sd >= 0):
        raise InvalidInputError(f"noise_sd must be finite and nonnegative, got {noise_sd}")
    if seed < 0:
        raise InvalidInputError(f"seed must be nonnegative, got {seed}")
    signal = piecewise_linear(n_days, knots, slopes)
    if noise_sd == 0:
        return signal
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        return _finite(signal + rng.normal(0.0, noise_sd, n_days))


def _finite(values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise InvalidInputError("synthetic series overflows: values are not finite")
    return values
