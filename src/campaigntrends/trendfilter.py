"""Order-1 L1 trend filtering: piecewise-linear fits with automatic knots.

The fit solves

    minimize_theta  0.5 * sum_i (y_i - theta_i)^2 + lam * sum_j |(D theta)_j|

where ``D`` is the (n-2) x n second-difference operator with stencil
[1, -2, 1]. Solutions are continuous piecewise-linear; the interior indices
where the second difference of the fit is nonzero are the knots (joinpoints)
of the trend.

The solver works on the dual problem

    minimize_u  0.5 * ||y - D^T u||^2   subject to  |u_j| <= lam,

a box-constrained quadratic with the pentadiagonal Toeplitz Gram matrix
D D^T = toeplitz(6, -4, 1). Primal recovery is theta = y - D^T u and every
returned fit carries the duality-gap certificate

    gap(u) = lam * ||D theta||_1 - u . (D theta)  >= 0,

which vanishes exactly at the optimum. Strategy: closed-form branches for
lam = 0 and lam >= lambda_max, then a primal-dual active-set iteration
(each round one banded solve, exact when it verifies), then an ADMM fallback
with periodic active-set retries until the gap certificate meets tolerance.

Degrees of freedom follow the standard unbiased estimate for order-1 trend
filtering: df = number of knots + 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded, solveh_banded

from .exceptions import InvalidInputError

__all__ = [
    "Segment",
    "SolverSettings",
    "TrendFit",
    "extract_segments",
    "fit_with_target_df",
    "lambda_max",
    "oracle_solve",
    "second_difference",
    "solve_tf",
    "target_df_for_span",
]

# Grid used by fit_with_target_df: 200 geometric points over
# [1e-4 * lambda_max, lambda_max], lambda_max always included.
_GRID_SIZE = 200
_GRID_SPAN = 1e-4

# ---------------------------------------------------------------------------
# Second-difference operator primitives
# ---------------------------------------------------------------------------


def second_difference(x: np.ndarray) -> np.ndarray:
    """Apply D: (D x)_j = x_j - 2 x_{j+1} + x_{j+2}, j = 0..n-3."""
    x = np.asarray(x, dtype=float)
    return x[:-2] - 2.0 * x[1:-1] + x[2:]


def _dt_apply(u: np.ndarray, n: int) -> np.ndarray:
    """Apply D^T to a dual vector of length n - 2."""
    out = np.zeros(n)
    out[:-2] += u
    out[1:-1] -= 2.0 * u
    out[2:] += u
    return out


def _gram_apply(u: np.ndarray) -> np.ndarray:
    """Apply D D^T = toeplitz(6, -4, 1) without forming the matrix."""
    out = 6.0 * u
    out[:-1] += -4.0 * u[1:]
    out[1:] += -4.0 * u[:-1]
    if u.shape[0] > 2:
        out[:-2] += u[2:]
        out[2:] += u[:-2]
    return out


def _gram_banded(m: int) -> np.ndarray:
    """Lower banded storage of D D^T for scipy.linalg.solveh_banded."""
    ab = np.zeros((3, m))
    ab[0, :] = 6.0
    if m > 1:
        ab[1, : m - 1] = -4.0
    if m > 2:
        ab[2, : m - 2] = 1.0
    return ab


def _gram_submatrix_banded(idx: np.ndarray) -> np.ndarray:
    """Banded storage of D D^T restricted to rows/columns ``idx`` (sorted).

    Removing indices never increases the distance between the survivors, so
    the restriction stays pentadiagonal in compacted indexing.
    """
    k = idx.shape[0]
    ab = np.zeros((3, k))
    ab[0, :] = 6.0
    if k > 1:
        step = np.diff(idx)
        sub = ab[1, : k - 1]
        sub[step == 1] = -4.0
        sub[step == 2] = 1.0
    if k > 2:
        ab[2, : k - 2][idx[2:] - idx[:-2] == 2] = 1.0
    return ab


def _fit_penalty_system(n: int, rho: float) -> np.ndarray:
    """Upper banded storage of I + rho * D^T D for cholesky_banded.

    The D^T D bands follow from correlating the [1, -2, 1] stencil with
    itself over the m = n - 2 rows, which handles every boundary (including
    n = 3 and n = 4) without special cases.
    """
    ones = np.ones(n - 2)
    d0 = np.convolve(ones, [1.0, 4.0, 1.0])
    d1 = np.convolve(ones, [-2.0, -2.0])
    d2 = ones
    ab = np.zeros((3, n))
    ab[0, 2:] = rho * d2
    ab[1, 1:] = rho * d1
    ab[2, :] = 1.0 + rho * d0
    return ab


# ---------------------------------------------------------------------------
# Results and settings
# ---------------------------------------------------------------------------


class Segment(NamedTuple):
    """A maximal linear piece of a fit: day indices [start, end] and slope/day."""

    start: int
    end: int
    slope: float


@dataclass(frozen=True)
class SolverSettings:
    """Tolerances for the trend-filter solver.

    ``eps_gap`` and ``tol_knot`` default to None, meaning scale-derived
    values resolved per input series: eps_gap = 1e-8 * 0.5 * ||y||^2 and
    tol_knot = 1e-6 * (max(y) - min(y)). Explicit values must be positive.
    """

    eps_gap: float | None = None
    max_iter: int = 50_000
    tol_knot: float | None = None

    def __post_init__(self) -> None:
        if self.eps_gap is not None and not self.eps_gap > 0:
            raise InvalidInputError("eps_gap must be strictly positive")
        if not self.max_iter > 0:
            raise InvalidInputError("max_iter must be strictly positive")
        if self.tol_knot is not None and not self.tol_knot > 0:
            raise InvalidInputError("tol_knot must be strictly positive")

    def resolve_eps_gap(self, y: np.ndarray) -> float:
        if self.eps_gap is not None:
            return self.eps_gap
        return max(1e-8 * 0.5 * float(y @ y), 1e-15)

    def resolve_tol_knot(self, y: np.ndarray) -> float:
        if self.tol_knot is not None:
            return self.tol_knot
        return max(1e-6 * float(np.ptp(y)), 1e-12)


@dataclass(frozen=True)
class TrendFit:
    """A solved trend-filter fit.

    Attributes:
        lam: Penalty weight the fit was solved at.
        fitted: Piecewise-linear fitted values, same length as the input.
        knots: Sorted interior day indices (1..n-2) where the fit bends.
        segments: Linear pieces partitioning [0, n-1]; neighbours share
            exactly their boundary index.
        df: Effective degrees of freedom, len(knots) + 2.
        duality_gap: Certificate value at the returned solution.
        dual: Dual vector u, |u_j| <= lam, with fitted = y - D^T u.
        tol_knot: Knot threshold used to read bends off the fit.
        converged: False when the iteration cap was hit before the gap
            tolerance; the fit then holds the best certified iterate.
        iterations: Fallback iterations spent (0 for closed-form/active-set
            solves).
        df_warning: Set by fit_with_target_df when the requested df exceeded
            every df achievable on its grid.
    """

    lam: float
    fitted: np.ndarray
    knots: tuple[int, ...]
    segments: tuple[Segment, ...]
    df: int
    duality_gap: float
    dual: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    tol_knot: float = 0.0
    converged: bool = True
    iterations: int = 0
    df_warning: bool = False

    def __post_init__(self) -> None:
        fitted = np.asarray(self.fitted, dtype=float).copy()
        fitted.setflags(write=False)
        object.__setattr__(self, "fitted", fitted)
        dual = np.asarray(
            self.dual if self.dual is not None else np.zeros(len(fitted) - 2), dtype=float
        ).copy()
        dual.setflags(write=False)
        object.__setattr__(self, "dual", dual)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def _validate_series(y: Sequence[float]) -> np.ndarray:
    arr = np.asarray(y, dtype=float)
    if arr.ndim != 1:
        raise InvalidInputError("input series must be one-dimensional")
    if arr.shape[0] < 3:
        raise InvalidInputError(f"need at least 3 points, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("input series contains non-finite values")
    return arr


def lambda_max(y: Sequence[float]) -> float:
    """Smallest penalty at which the fit collapses to the least-squares line.

    Equals ||(D D^T)^{-1} D y||_inf; for every lam at or above it the dual
    optimum is interior and theta is the straight-line regression of y.
    """
    arr = _validate_series(y)
    return float(np.max(np.abs(_unconstrained_dual(arr))))


def _unconstrained_dual(y: np.ndarray) -> np.ndarray:
    m = y.shape[0] - 2
    return solveh_banded(_gram_banded(m), second_difference(y), lower=True)


def extract_segments(
    theta: Sequence[float], tol_knot: float
) -> tuple[list[int], list[Segment]]:
    """Read knots and linear segments off a fitted sequence.

    Knots are interior indices whose centred second difference exceeds
    ``tol_knot`` in magnitude. Segments span between consecutive knots (and
    the series endpoints) with slope (theta_end - theta_start) / (end - start).
    """
    arr = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("fitted sequence contains non-finite values")
    n = arr.shape[0]
    bends = np.flatnonzero(np.abs(second_difference(arr)) > tol_knot) + 1
    knots = [int(k) for k in bends]
    boundaries = [0, *knots, n - 1]
    segments = [
        Segment(a, b, float((arr[b] - arr[a]) / (b - a)))
        for a, b in zip(boundaries[:-1], boundaries[1:])
    ]
    return knots, segments


def target_df_for_span(n_days: int, df_per_90: float = 12.0) -> int:
    """Degrees-of-freedom budget for a span: max(2, round(rate * n / 90)).

    The default rate of 12 per 90 days is the smoothness budget used
    throughout the analysis pipeline.
    """
    if n_days < 3:
        raise InvalidInputError(f"span must be at least 3 days, got {n_days}")
    if not df_per_90 > 0:
        raise InvalidInputError("df_per_90 must be strictly positive")
    return max(2, round(df_per_90 * n_days / 90.0))


def solve_tf(
    y: Sequence[float], lam: float, settings: SolverSettings | None = None
) -> TrendFit:
    """Solve the trend-filter problem at one penalty weight.

    Returns a TrendFit whose duality gap is at or below the resolved
    eps_gap whenever ``converged`` is True. When the iteration cap is hit
    first, the best certified iterate is returned with converged=False.
    """
    arr = _validate_series(y)
    if not (np.isfinite(lam) and lam >= 0):
        raise InvalidInputError(f"lambda must be a finite nonnegative real, got {lam}")
    settings = settings or SolverSettings()
    eps_gap = settings.resolve_eps_gap(arr)
    tol_knot = settings.resolve_tol_knot(arr)
    u, gap, iterations, converged = _solve_dual(arr, float(lam), eps_gap, settings.max_iter)
    return _build_fit(arr, float(lam), u, gap, tol_knot, converged, iterations)


def fit_with_target_df(
    y: Sequence[float],
    target_df: int,
    settings: SolverSettings | None = None,
) -> TrendFit:
    """Pick the penalty on a geometric grid whose fit df lands closest to target.

    Evaluates solve_tf over 200 geometric points spanning
    [1e-4 * lambda_max, lambda_max] (lambda_max included) and returns the
    fit with df closest to ``target_df``, ties broken toward the larger
    (smoother) penalty. When the target exceeds every df seen on the grid
    the closest fit is returned with ``df_warning`` set.
    """
    arr = _validate_series(y)
    if target_df < 2:
        raise InvalidInputError(f"target_df must be at least 2, got {target_df}")
    if arr.shape[0] < target_df + 1:
        raise InvalidInputError(
            f"series of length {arr.shape[0]} cannot support df {target_df}"
        )
    settings = settings or SolverSettings()
    eps_gap = settings.resolve_eps_gap(arr)
    tol_knot = settings.resolve_tol_knot(arr)
    n = arr.shape[0]

    lam_hi = lambda_max(arr)
    if lam_hi == 0.0:
        # Exactly linear (or constant) input: every penalty returns y itself.
        fit = _build_fit(arr, 0.0, np.zeros(n - 2), 0.0, tol_knot, True, 0)
        return _flag_df_warning(fit, target_df, fit.df)

    grid = np.unique(np.concatenate([np.geomspace(_GRID_SPAN * lam_hi, lam_hi, _GRID_SIZE), [lam_hi]]))
    best: tuple[int, float, TrendFit] | None = None
    max_df_seen = 2
    u_warm: np.ndarray | None = None
    for lam in grid[::-1]:
        lam = float(lam)
        u, gap, iterations, converged = _solve_dual(
            arr, lam, eps_gap, settings.max_iter, u_warm=u_warm
        )
        u_warm = u
        fit = _build_fit(arr, lam, u, gap, tol_knot, converged, iterations)
        max_df_seen = max(max_df_seen, fit.df)
        distance = abs(fit.df - target_df)
        # strict improvement keeps the largest lambda among ties
        if best is None or distance < best[0]:
            best = (distance, lam, fit)
    assert best is not None
    return _flag_df_warning(best[2], target_df, max_df_seen)


def _flag_df_warning(fit: TrendFit, target_df: int, max_df_seen: int) -> TrendFit:
    if target_df <= max_df_seen:
        return fit
    return replace(fit, df_warning=True)


def oracle_solve(y: Sequence[float], lam: float, iters: int) -> np.ndarray:
    """Independent verification solve: bounded least squares plus projected gradient.

    The dual box problem min 0.5 ||y - D^T u||^2, |u| <= lam is solved with
    scipy's bounded-variable least squares on a dense D^T, after which the
    projected-gradient iteration

        u <- clip(u - eta * (D D^T u - D y), +-lam),   eta = 1/16

    runs for ``iters`` steps (the Gram operator's spectral norm is below 16,
    and the exact dual optimum is a fixed point of this map). Intended for
    short series; refuses inputs longer than 500 points. Deliberately shares
    no code with the production solver path.
    """
    arr = _validate_series(y)
    if arr.shape[0] > 500:
        raise InvalidInputError("oracle_solve is a verification tool; max length is 500")
    if not (np.isfinite(lam) and lam >= 0):
        raise InvalidInputError(f"lambda must be a finite nonnegative real, got {lam}")
    if lam == 0.0:
        return arr.copy()
    from scipy.optimize import lsq_linear  # only caller; keeps the import off the CLI path

    n = arr.shape[0]
    m = n - 2
    dt = np.zeros((n, m))
    for j in range(m):
        dt[j, j] = 1.0
        dt[j + 1, j] = -2.0
        dt[j + 2, j] = 1.0
    res = lsq_linear(dt, arr, bounds=(-lam, lam), method="bvls", max_iter=max(3 * m, 30))
    u = np.clip(res.x, -lam, lam)
    gram = dt.T @ dt
    dy = dt.T @ arr
    eta = 1.0 / 16.0
    for _ in range(iters):
        u = np.clip(u - eta * (gram @ u - dy), -lam, lam)
    return arr - dt @ u


# ---------------------------------------------------------------------------
# Dual solvers
# ---------------------------------------------------------------------------


def _gap_value(y: np.ndarray, lam: float, u: np.ndarray) -> tuple[np.ndarray, float]:
    """Primal recovery and duality gap for a box-feasible dual vector."""
    theta = y - _dt_apply(u, y.shape[0])
    dtheta = second_difference(theta)
    gap = lam * float(np.sum(np.abs(dtheta))) - float(u @ dtheta)
    return theta, gap


def _solve_dual(
    y: np.ndarray,
    lam: float,
    eps_gap: float,
    max_iter: int,
    u_warm: np.ndarray | None = None,
) -> tuple[np.ndarray, float, int, bool]:
    """Return (u, gap, fallback_iterations, converged) for one penalty."""
    n = y.shape[0]
    m = n - 2
    if lam == 0.0:
        return np.zeros(m), 0.0, 0, True
    u_free = _unconstrained_dual(y)
    if float(np.max(np.abs(u_free))) <= lam:
        _, gap = _gap_value(y, lam, u_free)
        return u_free, max(gap, 0.0), 0, True

    start = np.clip(u_warm if u_warm is not None else u_free, -lam, lam)
    u = _active_set_solve(y, lam, start)
    if u is None and u_warm is not None:
        # a stale warm start can trap the active-set iteration; retry cold
        u = _active_set_solve(y, lam, np.clip(u_free, -lam, lam))
    if u is not None:
        _, gap = _gap_value(y, lam, u)
        if gap <= eps_gap:
            return u, max(gap, 0.0), 0, True

    return _admm_with_retries(y, lam, eps_gap, max_iter, start)


def _active_set_solve(
    y: np.ndarray, lam: float, u0: np.ndarray, max_rounds: int | None = None
) -> np.ndarray | None:
    """Primal-dual active-set iteration on the dual box problem.

    Each round pins the coordinates predicted to sit on a bound, solves the
    free block of the pentadiagonal system exactly, and re-reads the
    multiplier estimate mu = D y - D D^T u (which equals D theta). Stops as
    soon as the KKT conditions verify; returns None on a cycle or when the
    round budget runs out.
    """
    m = u0.shape[0]
    if max_rounds is None:
        max_rounds = 60 + m // 4
    dy = second_difference(y)
    u = np.clip(u0, -lam, lam)
    mu = dy - _gram_apply(u)
    tol = 1e-11 * max(1.0, lam)
    seen: set[bytes] = set()
    for _ in range(max_rounds):
        indicator = u + mu
        upper = indicator > lam
        lower = indicator < -lam
        key = np.packbits(np.concatenate([upper, lower])).tobytes()
        if key in seen:
            return None
        seen.add(key)
        u = np.where(upper, lam, np.where(lower, -lam, 0.0))
        free = np.flatnonzero(~(upper | lower))
        if free.size:
            rhs = dy[free] - _gram_apply(u)[free]
            u[free] = solveh_banded(_gram_submatrix_banded(free), rhs, lower=True)
        mu = dy - _gram_apply(u)
        feasible = not free.size or float(np.max(np.abs(u[free]))) <= lam * (1 + 1e-12)
        if (
            feasible
            and not np.any(mu[upper] < -tol)
            and not np.any(mu[lower] > tol)
        ):
            return np.clip(u, -lam, lam)
    return None


def _admm_with_retries(
    y: np.ndarray,
    lam: float,
    eps_gap: float,
    max_iter: int,
    u0: np.ndarray,
) -> tuple[np.ndarray, float, int, bool]:
    """Fallback: ADMM on the primal with periodic active-set retries.

    Splitting min 0.5||y - theta||^2 + lam ||z||_1 over D theta = z with
    penalty rho = lam; the scaled dual rho * w converges to the dual optimum,
    so each burst ends with an exactness attempt from the current estimate
    and a gap-certificate check. Deterministic for fixed inputs.
    """
    n = y.shape[0]
    rho = lam
    factor = cholesky_banded(_fit_penalty_system(n, rho))
    u = np.clip(u0, -lam, lam)
    w = u / rho
    z = second_difference(y - _dt_apply(u, n))
    iterations = 0
    burst = 50
    best_u = u
    best_gap = math.inf
    while iterations < max_iter:
        for _ in range(min(burst, max_iter - iterations)):
            theta = cho_solve_banded((factor, False), y + rho * _dt_apply(z - w, n))
            v = second_difference(theta) + w
            z = np.sign(v) * np.maximum(np.abs(v) - lam / rho, 0.0)
            w = v - z
            iterations += 1
        u = np.clip(rho * w, -lam, lam)
        exact = _active_set_solve(y, lam, u, max_rounds=40)
        if exact is not None:
            _, gap = _gap_value(y, lam, exact)
            if gap <= eps_gap:
                return exact, max(gap, 0.0), iterations, True
        _, gap = _gap_value(y, lam, u)
        if gap < best_gap:
            best_gap = gap
            best_u = u
        if gap <= eps_gap:
            return u, max(gap, 0.0), iterations, True
        burst = min(burst * 2, 2_000)
    return best_u, max(best_gap, 0.0), iterations, False


def _build_fit(
    y: np.ndarray,
    lam: float,
    u: np.ndarray,
    gap: float,
    tol_knot: float,
    converged: bool,
    iterations: int,
) -> TrendFit:
    theta = y - _dt_apply(u, y.shape[0])
    knots, segments = extract_segments(theta, tol_knot)
    return TrendFit(
        lam=lam,
        fitted=theta,
        knots=tuple(knots),
        segments=tuple(segments),
        df=len(knots) + 2,
        duality_gap=gap,
        dual=u,
        tol_knot=tol_knot,
        converged=converged,
        iterations=iterations,
    )
