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

which vanishes exactly at the optimum. Each series is solved in one
sweep over its penalties, largest first: lam = 0 and lam >= lambda_max are
closed forms; every other penalty is reached by walking the exact,
piecewise-linear dual path down from lambda_max. On a fixed partition of
the dual coordinates (one sign each: +1 upper, -1 lower, 0 free) the dual
is a line in lam, one banded solve (_line); the walk's line is certified
at each penalty by a KKT test, and an active-set loop with a box-feasible
step rule repairs it when the walk missed simultaneous events.
fit_with_target_df reads the df of each point until one hits its target
and builds one TrendFit. The banded solves call LAPACK dpbsv from SciPy's
compiled wrapper module scipy.linalg._flapack, which the path finder finds
and _dpbsv loads on its own at the first solve: importing this module costs
only NumPy, and a fit never runs scipy.linalg's package import.

Degrees of freedom follow the standard unbiased estimate for order-1 trend
filtering: df = number of knots + 2.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .exceptions import InvalidInputError

__all__ = [
    "Segment",
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

# Safety cap on the rounds of one dual solve: a sweep's solves take at most
# a few, one from an arbitrary partition a few hundred.
_MAX_ROUNDS = 50_000

# Cap on the dual path's events between two solved penalties; a walk cut
# short hands its last line to _active_set_solve, which repairs it.
_MAX_PATH_STEPS = 10_000

# D D^T = toeplitz(6, -4, 1): its entry at index distance 0, 1, 2 and >= 3.
_STENCIL = np.array([6.0, -4.0, 1.0, 0.0])

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


def _gram_submatrix_banded(idx: np.ndarray) -> np.ndarray:
    """Banded storage of D D^T restricted to rows/columns ``idx`` (sorted).

    Entry (i, j) of D D^T is the stencil value at index distance |i - j|,
    _STENCIL[min(|i - j|, 3)]. Entries k places apart in ``idx`` are at
    least k apart in the full index, so the restriction stays pentadiagonal
    and its two sub-diagonals are read off the gaps idx[i+1] - idx[i] and
    idx[i+2] - idx[i].
    """
    ab = np.zeros((3, idx.shape[0]), order="F")  # LAPACK's layout: dpbsv takes it without a copy
    ab[0] = _STENCIL[0]
    ab[1, :-1] = _STENCIL[np.minimum(idx[1:] - idx[:-1], 3)]
    ab[2, :-2] = _STENCIL[np.minimum(idx[2:] - idx[:-2], 3)]
    return ab


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


class Segment(NamedTuple):
    """A maximal linear piece of a fit: day indices [start, end] and slope/day."""

    start: int
    end: int
    slope: float


@dataclass(frozen=True)
class TrendFit:
    """A solved trend-filter fit.

    Attributes:
        lam: Penalty weight the fit was solved at.
        fitted: Piecewise-linear fitted values, same length as the input.
        knots: Sorted interior day indices (1..n-2) where the fit bends.
            Derived: read off ``fitted`` by extract_segments(fitted, tol_knot).
        segments: Linear pieces partitioning [0, n-1]; neighbours share
            exactly their boundary index. Derived with ``knots``.
        df: Effective degrees of freedom, len(knots) + 2. Derived.
        duality_gap: Certificate value at the returned solution.
        dual: Dual vector u, |u_j| <= lam, with fitted = y - D^T u.
        tol_knot: Knot threshold used to read bends off the fit,
            1e-6 * (max(y) - min(y)).
        converged: False when the solve hit the 50,000-round cap before
            its KKT conditions verified, or its gap exceeds the tolerance
            1e-8 * 0.5 * ||y||^2; the fit then holds the box-clipped last
            iterate and its gap.
        iterations: Rounds of the solve that certified the fit on the dual
            path's line, where 1 means the walk was exact (0 for the
            closed-form branches lam = 0 and lam >= lambda_max).
        df_warning: Set by fit_with_target_df when the requested df exceeded
            every df achievable on its grid.
    """

    lam: float
    fitted: np.ndarray
    knots: tuple[int, ...] = field(init=False)
    segments: tuple[Segment, ...] = field(init=False)
    df: int = field(init=False)
    duality_gap: float
    dual: np.ndarray = field(repr=False)
    tol_knot: float
    converged: bool
    iterations: int
    df_warning: bool

    def __post_init__(self) -> None:
        fitted = np.asarray(self.fitted, dtype=float).copy()
        fitted.setflags(write=False)
        object.__setattr__(self, "fitted", fitted)
        dual = np.asarray(self.dual, dtype=float).copy()
        dual.setflags(write=False)
        object.__setattr__(self, "dual", dual)
        knots, segments = extract_segments(fitted, self.tol_knot)
        object.__setattr__(self, "knots", tuple(knots))
        object.__setattr__(self, "segments", tuple(segments))
        object.__setattr__(self, "df", len(knots) + 2)


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
    with np.errstate(over="ignore"):
        if not np.isfinite(arr @ arr):
            raise InvalidInputError("input series is too large: its sum of squares overflows")
    return arr


def lambda_max(y: Sequence[float]) -> float:
    """Smallest penalty at which the fit collapses to the least-squares line.

    Equals ||(D D^T)^{-1} D y||_inf; for every lam at or above it the dual
    optimum is interior and theta is the straight-line regression of y.
    """
    arr = _validate_series(y)
    return float(np.max(np.abs(_unconstrained_dual(arr))))


def _eps_gap(y: np.ndarray) -> float:
    """Duality-gap tolerance of a converged fit: 1e-8 * 0.5 * ||y||^2."""
    return max(1e-8 * 0.5 * float(y @ y), 1e-15)


def _tol_knot(y: np.ndarray) -> float:
    """Knot threshold on |D theta|: 1e-6 * (max(y) - min(y))."""
    return max(1e-6 * float(np.ptp(y)), 1e-12)


def _unconstrained_dual(y: np.ndarray) -> np.ndarray:
    return _banded_solve(_gram_submatrix_banded(np.arange(y.shape[0] - 2)), second_difference(y))


_FLAPACK = "scipy.linalg._flapack"


@functools.cache
def _dpbsv():
    """LAPACK dpbsv from scipy.linalg._flapack, without scipy.linalg's __init__.

    That package import loads all of scipy.linalg for this one routine.
    The path finder looks the extension up in each scipy/linalg directory
    instead (a top-level spec of scipy runs no __init__), and the module is
    loaded from that spec and registered under its own name, so a later
    ``import scipy.linalg`` in the same process reuses it. A module already
    loaded is taken as it is; no spec, or one that does not load, falls
    back to scipy.linalg.lapack.
    """
    flapack = sys.modules.get(_FLAPACK)
    if flapack is None:
        scipy = importlib.util.find_spec("scipy")
        roots = scipy.submodule_search_locations if scipy else None
        linalg = [os.path.join(root, "linalg") for root in roots or []]
        spec = importlib.machinery.PathFinder.find_spec(_FLAPACK, linalg)
        if spec is not None:
            try:
                flapack = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(flapack)
            except ImportError:
                flapack = None
            else:
                sys.modules[_FLAPACK] = flapack
    if flapack is None:
        from scipy.linalg.lapack import dpbsv

        return dpbsv
    return flapack.dpbsv


def _banded_solve(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the positive definite banded system (lower storage ``ab``) for ``rhs``.

    ``rhs`` is one right-hand side or a column per right-hand side. Calls
    LAPACK dpbsv directly (_dpbsv, looked up once per process), with the
    checks SciPy's banded Hermitian solver makes around it: non-finite input
    raises ValueError and a block that is not positive definite raises
    np.linalg.LinAlgError. Both arguments are overwritten.
    """
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    _, x, info = _dpbsv()(ab, rhs, lower=1, overwrite_ab=1, overwrite_b=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal pbsv")
    return x


def _bends(theta: np.ndarray, tol_knot: float) -> np.ndarray:
    """Interior indices where theta bends: |second_difference(theta)| > tol_knot."""
    return np.flatnonzero(np.abs(second_difference(theta)) > tol_knot) + 1


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
    knots = [int(k) for k in _bends(arr, tol_knot)]
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
    if not (np.isfinite(df_per_90) and df_per_90 > 0):
        raise InvalidInputError(f"df_per_90 must be finite and > 0, got {df_per_90!r}")
    target = df_per_90 * n_days / 90.0
    if not np.isfinite(target):
        raise InvalidInputError(f"df target {df_per_90!r} * {n_days} / 90 is not finite")
    return max(2, round(target))


def solve_tf(y: Sequence[float], lam: float) -> TrendFit:
    """Solve the trend-filter problem at one penalty weight.

    Returns a TrendFit whose duality gap is at or below
    1e-8 * 0.5 * ||y||^2 whenever ``converged`` is True. When the
    50,000-round cap is hit first, the box-clipped last iterate is returned
    with converged=False.
    """
    arr = _validate_series(y)
    if not (np.isfinite(lam) and lam >= 0):
        raise InvalidInputError(f"lambda must be a finite nonnegative real, got {lam}")
    point = next(_sweep(arr, [lam], _unconstrained_dual(arr)))
    return TrendFit(**point._asdict(), tol_knot=_tol_knot(arr), df_warning=False)


def fit_with_target_df(y: Sequence[float], target_df: int) -> TrendFit:
    """Pick the penalty on a geometric grid whose fit df lands closest to target.

    Sweeps 200 geometric points spanning [1e-4 * lambda_max, lambda_max]
    (lambda_max included), largest first, and returns the fit with df
    closest to ``target_df``, ties broken toward the larger (smoother)
    penalty. The sweep stops at the first point whose df equals the target:
    no smaller penalty can replace it, so the result is the one the full
    grid selects. When the target exceeds every df seen on the grid the
    closest fit is returned with ``df_warning`` set.
    """
    arr = _validate_series(y)
    if target_df < 2:
        raise InvalidInputError(f"target_df must be at least 2, got {target_df}")
    if arr.shape[0] < target_df + 1:
        raise InvalidInputError(
            f"series of length {arr.shape[0]} cannot support df {target_df}"
        )
    u_free = _unconstrained_dual(arr)
    lam_hi = float(np.max(np.abs(u_free)))
    grid = np.zeros(1)  # exactly linear (or constant) input: every penalty returns y itself
    if lam_hi > 0.0:
        grid = np.geomspace(_GRID_SPAN * lam_hi, lam_hi, _GRID_SIZE)  # both ends exact
    tol_knot = _tol_knot(arr)
    best: tuple[int, _Point] | None = None
    max_df_seen = 2
    for point in _sweep(arr, grid[::-1], u_free):
        df = _bends(point.fitted, tol_knot).size + 2
        max_df_seen = max(max_df_seen, df)
        # strict improvement keeps the largest lambda among ties
        if best is None or abs(df - target_df) < best[0]:
            best = (abs(df - target_df), point)
            if df == target_df:
                break
    assert best is not None
    return TrendFit(**best[1]._asdict(), tol_knot=tol_knot, df_warning=target_df > max_df_seen)


def oracle_solve(y: Sequence[float], lam: float, iters: int) -> np.ndarray:
    """Independent verification solve: bounded least squares plus projected gradient.

    The dual box problem min 0.5 ||y - D^T u||^2, |u| <= lam is solved with
    scipy's bounded-variable least squares on a dense D^T, after which the
    projected-gradient iteration

        u <- clip(u - eta * (D D^T u - D y), +-lam),   eta = 1/16

    runs for at most ``iters`` steps (the Gram operator's spectral norm is
    below 16, and the exact dual optimum is a fixed point of this map). It
    stops early at a step that returns u bit-for-bit unchanged, since every
    further step would return it again. Intended for short series; refuses
    inputs longer than 500 points. Deliberately shares no code with the
    production solver path.
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
        step = np.clip(u - eta * (gram @ u - dy), -lam, lam)
        if np.array_equal(step, u):
            break
        u = step
    return arr - dt @ u


# ---------------------------------------------------------------------------
# Dual solvers
# ---------------------------------------------------------------------------


class _Point(NamedTuple):
    """One solved penalty of a sweep."""

    lam: float
    dual: np.ndarray
    fitted: np.ndarray
    duality_gap: float
    converged: bool
    iterations: int


def _sweep(y: np.ndarray, lams: Sequence[float], u_free: np.ndarray) -> Iterator[_Point]:
    """Solve at each penalty of ``lams`` in the order given, fastest when descending.

    Each _Point holds a TrendFit's solver fields, under their names; the
    caller adds tol_knot and df_warning. ``u_free`` is the unconstrained
    dual of ``y`` (_unconstrained_dual), whose largest |u_j| is lambda_max;
    the caller solves it once per series. lam = 0 gives u = 0 and
    lam >= lambda_max the unconstrained dual, both with 0 iterations and
    converged. Any other penalty is reached by walking the exact dual path
    down from lambda_max, where every coordinate is free and the line is
    u_free (b = 0), and converges when _active_set_solve verifies the walk's
    line and the gap is at most _eps_gap(y).

    Between two events the partition ``side`` is fixed and the dual is its
    _line. As lam falls, a free coordinate joins the bound set when it
    reaches +-lam, and a bound coordinate leaves it when side * mu reaches 0
    (Tibshirani & Taylor, Ann. Stat. 2011). Each step moves to the largest
    event strictly below the current lam, skipping the coordinate changed
    last (its own event sits at the current lam up to rounding), so every
    step lowers lam and simultaneous events (ties) are not all taken; at
    most _MAX_PATH_STEPS are taken between two penalties. A solve of more
    than one round repaired such a miss, and the walk goes on from the
    partition it verified.
    """
    lam_max = float(np.max(np.abs(u_free)))
    eps_gap = _eps_gap(y)
    dy = second_difference(y)
    zero = np.zeros_like(u_free)
    at, changed, side = np.inf, -1, zero
    line = (u_free, zero, dy - _gram_apply(u_free), zero)
    for lam in map(float, lams):
        rounds, verified, gap_tol = 0, True, np.inf  # closed forms are exact
        if lam == 0.0:
            u = zero
        elif lam >= lam_max:
            u = u_free
        else:
            for _ in range(_MAX_PATH_STEPS):
                a, b, c, e = line
                # A free coordinate reaches sign(a) * lam at |a| / (1 + sign(a) b),
                # a bound one has side * (c + lam e) = 0 at -side c / (side e); each
                # is an event as lam falls only where its denominator is positive.
                num = np.abs(a) - side * c
                den = side * e + (side == 0) * (1.0 + np.sign(a) * b)
                times = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
                times[times >= at] = 0.0
                if changed >= 0:
                    times[changed] = 0.0
                j = int(np.argmax(times))
                if times[j] <= lam:
                    break
                at, changed = float(times[j]), j
                side = side.copy()
                side[j] = 0.0 if side[j] else np.sign(a[j])
                line = _line(dy, side)
            u, rounds, verified, side, line = _active_set_solve(dy, lam, side, line)
            if rounds > 1:
                at, changed = lam, -1
            gap_tol = eps_gap
        theta = y - _dt_apply(u, y.shape[0])
        dtheta = second_difference(theta)
        gap = lam * float(np.sum(np.abs(dtheta))) - float(u @ dtheta)
        yield _Point(lam, u, theta, max(gap, 0.0), verified and gap <= gap_tol, rounds)


def _line(dy: np.ndarray, side: np.ndarray) -> tuple[np.ndarray, ...]:
    """The dual on the fixed partition ``side`` as a line in lam: (a, b, c, e).

    The dual is u(lam) = a - lam * b and its KKT residual
    mu(lam) = D y - D D^T u(lam) = c + lam * e. On the bound coordinates
    a = 0 and b = -side; the free block F solves G_FF [a_F b_F] =
    [(D y)_F (G side)_F] with G = D D^T, one banded solve with two
    right-hand sides.
    """
    line = np.zeros((side.shape[0], 2))  # columns a and b
    line[:, 1] = -side
    free = np.flatnonzero(side == 0)
    if free.size:
        rhs = np.empty((free.size, 2), order="F")  # dpbsv takes it without a copy
        rhs[:, 0] = dy[free]
        rhs[:, 1] = _gram_apply(side)[free]
        line[free] = _banded_solve(_gram_submatrix_banded(free), rhs)
    gram = _gram_apply(line)
    return line[:, 0], line[:, 1], dy - gram[:, 0], gram[:, 1]


def _active_set_solve(
    dy: np.ndarray, lam: float, side: np.ndarray, line: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, int, bool, np.ndarray, tuple[np.ndarray, ...]]:
    """Active-set solve of the dual box problem from the partition ``side``.

    ``side`` holds one sign per dual coordinate (+1 pinned at the upper
    bound, -1 at the lower, 0 free) and ``line`` is its _line, so the free
    block's solve at lam is a - lam * b and mu = c + lam * e (which equals
    D theta). Each round reads the KKT test off the line: a coordinate fails
    when it is free and outside the box (``crossed``, the sign of the bound
    it crossed) or bound with side * mu < 0. When none fails the solve is
    done, so a start on the optimal partition verifies in round 1 without a
    banded solve. Otherwise the step rule is box-feasible, from the
    box-clipped start: a free solve outside the box is approached only up
    to the first bound it crosses, which pins the coordinates that reach
    it; one inside the box is taken, and every bound coordinate with
    side * mu < 0 is freed. That never raises the dual objective and each
    freeing lowers it, so no partition repeats short of exact degeneracy.
    (Block principal pivoting, which flips every failing coordinate at
    once, can cycle: D D^T is not an M-matrix.)

    Returns (u, rounds, kkt_verified, side, line) with u box-clipped and
    ``line`` the last partition's line; at most _MAX_ROUNDS rounds are run.
    """
    tol = 1e-11 * max(1.0, lam)
    bound = lam * (1 + 1e-12)
    side = side.copy()
    u = np.clip(line[0] - lam * line[1], -lam, lam)
    for rounds in range(1, _MAX_ROUNDS + 1):
        a, b, c, e = line
        target = a - lam * b
        crossed = (target > bound) * 1.0 - (target < -bound)  # non-zero only on free ones
        if crossed.any():
            out = np.flatnonzero(crossed)
            step = target - u
            reach = (crossed[out] * lam - u[out]) / step[out]
            alpha = max(float(np.min(reach)), 0.0)
            hit = out[reach <= alpha]
            side[hit] = crossed[hit]
            u = np.where(side == 0, u + alpha * step, lam * side)
        else:
            u = target
            release = side * (c + lam * e) < -tol  # true only on bound coordinates
            if not release.any():
                return np.clip(u, -lam, lam), rounds, True, side, line
            side[release] = 0.0
        line = _line(dy, side)
    return np.clip(u, -lam, lam), _MAX_ROUNDS, False, side, line
