import dataclasses
import importlib.machinery
import importlib.util
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from campaigntrends import (
    InvalidInputError,
    extract_segments,
    fit_with_target_df,
    lambda_max,
    oracle_solve,
    second_difference,
    solve_tf,
    target_df_for_span,
)
from campaigntrends import trendfilter
from campaigntrends.trendfilter import _active_set_solve
from conftest import bendy_signal, random_panel


def dense_second_difference(n):
    d = np.zeros((n - 2, n))
    for j in range(n - 2):
        d[j, j], d[j, j + 1], d[j, j + 2] = 1.0, -2.0, 1.0
    return d


def least_squares_line(y):
    x = np.arange(len(y))
    slope, intercept = np.polyfit(x, y, 1)
    return slope, intercept


class TestSolveTf:
    def test_linear_data_is_a_fixed_point(self):
        fit = solve_tf([1.0, 2.0, 3.0, 4.0, 5.0], 10.0)
        assert np.allclose(fit.fitted, [1, 2, 3, 4, 5], atol=1e-12)
        assert fit.knots == ()
        assert fit.df == 2

    def test_single_bump_closed_form(self):
        # n = 3 has one dual coordinate: unconstrained optimum -1/3 clips to
        # the box at -0.1, so theta = y - (-0.1) * [1, -2, 1].
        fit = solve_tf([0.0, 1.0, 0.0], 0.1)
        assert np.allclose(fit.fitted, [0.1, 0.8, 0.1], atol=1e-12)
        assert fit.knots == (1,)
        assert fit.df == 3
        assert fit.duality_gap <= trendfilter._eps_gap(np.array([0.0, 1.0, 0.0]))

    def test_zero_penalty_returns_input(self):
        fit = solve_tf([0.0, 1.0, 0.0], 0.0)
        assert np.array_equal(fit.fitted, [0.0, 1.0, 0.0])
        assert fit.duality_gap == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            solve_tf([1.0, np.nan, 2.0], 1.0)
        with pytest.raises(InvalidInputError):
            solve_tf([1.0, 2.0], 1.0)
        with pytest.raises(InvalidInputError):
            solve_tf([1.0, 2.0, 3.0], -0.5)
        with pytest.raises(InvalidInputError, match="sum of squares"):
            solve_tf([0.0, 1e308, -1e308, 3.0], 1.0)  # finite, but y @ y overflows

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        y = rng.uniform(0, 10, 40)
        lam = 0.4 * lambda_max(y)
        a = solve_tf(y, lam)
        b = solve_tf(y, lam)
        assert np.array_equal(a.fitted, b.fitted)
        assert a.knots == b.knots

    def test_gap_certificate_respected_on_random_panel(self):
        for y, lam in random_panel(seed=101, count=40):
            fit = solve_tf(y, lam)
            assert fit.converged
            eps = trendfilter._eps_gap(y)
            assert 0.0 <= fit.duality_gap <= eps

    def test_kkt_certificate(self):
        for y, lam in random_panel(seed=202, count=40):
            fit = solve_tf(y, lam)
            if not fit.converged or lam == 0.0:
                continue
            u = fit.dual
            assert np.all(np.abs(u) <= lam + 1e-12)
            dtheta = second_difference(fit.fitted)
            active = np.abs(dtheta) > fit.tol_knot
            if active.any():
                assert np.max(np.abs(u[active] - lam * np.sign(dtheta[active]))) <= 1e-6

    def test_linear_shift_equivariance(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(10, 40))
            y = rng.uniform(0, 10, n)
            lam = float(rng.uniform(0, 1.5 * lambda_max(y)))
            shift = rng.uniform(-3, 3) + rng.uniform(-0.5, 0.5) * np.arange(n)
            base = solve_tf(y, lam)
            moved = solve_tf(y + shift, lam)
            assert moved.knots == base.knots
            assert np.max(np.abs(moved.fitted - (base.fitted + shift))) <= 1e-6

    def test_positive_scale_equivariance(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(10, 40))
            y = rng.uniform(0, 10, n)
            lam = float(rng.uniform(0, 1.5 * lambda_max(y)))
            c = float(rng.uniform(0.1, 20.0))
            base = solve_tf(y, lam)
            scaled = solve_tf(c * y, c * lam)
            assert scaled.knots == base.knots
            assert np.max(np.abs(scaled.fitted - c * base.fitted)) <= 1e-6 * c

    def test_dual_solver_terminates_from_any_start(self):
        # block flips alone cycle from some of these partitions; the
        # box-feasible rule must finish each in few rounds at the unique optimum
        rng = np.random.default_rng(11)
        for trial in range(40):
            n = int(rng.integers(5, 301))
            y = rng.uniform(0, 10, n) if trial % 2 else rng.poisson(2, n).astype(float)
            lam = float(rng.uniform(0.001, 0.99)) * lambda_max(y)
            side = rng.choice([-1.0, 0.0, 1.0], n - 2)
            dy = second_difference(y)
            u, rounds, verified, _, _ = _active_set_solve(dy, lam, side, trendfilter._line(dy, side))
            assert verified and rounds <= 1_000, (trial, rounds)
            assert np.max(np.abs(u - solve_tf(y, lam).dual)) <= 1e-6 * lam

    def test_nonconvergence_returns_flagged_best_iterate(self, monkeypatch):
        # without the walk the solve starts from the unconstrained dual and
        # needs several rounds; capped at one
        rng = np.random.default_rng(3)
        y = rng.uniform(0, 10, 40)
        lam = 0.3 * lambda_max(y)
        monkeypatch.setattr(trendfilter, "_MAX_PATH_STEPS", 0)
        assert solve_tf(y, lam).iterations > 1
        monkeypatch.setattr(trendfilter, "_MAX_ROUNDS", 1)
        fit = solve_tf(y, lam)
        assert not fit.converged
        assert fit.iterations == 1
        assert fit.duality_gap > 0.0
        assert np.all(np.isfinite(fit.fitted))
        assert np.all(np.abs(fit.dual) <= lam)


def degenerate_panel():
    """Seeded series in the shapes the pipeline fits: counts, zero runs,
    spikes, near-linear polls, round dollar amounts and the shortest spans."""
    rng = np.random.default_rng(2024)
    zero_runs = rng.poisson(2.0, 45).astype(float)
    zero_runs[5:20] = 0.0
    zero_runs[30:42] = 0.0
    spike = rng.poisson(1.0, 30).astype(float)
    spike[17] += 400.0
    return {
        "poisson": rng.poisson(3.0, 40).astype(float),
        "zero_runs": zero_runs,
        "spike": spike,
        "near_linear": 3.0 + 0.25 * np.arange(35) + 1e-3 * rng.standard_normal(35),
        "multiples_of_2500": 2500.0 * rng.integers(0, 5, 40),
        "n3": np.array([2.0, 0.0, 5.0]),
        "n4": np.array([0.0, 2500.0, 0.0, 0.0]),
    }


def paper_window_panel():
    """degenerate_panel's longer shapes at n = 277, the paper's 2019-05-15..2020-02-15 window."""
    n = 277
    rng = np.random.default_rng(277)
    zero_runs = rng.poisson(2.0, n).astype(float)
    zero_runs[20:90] = 0.0
    zero_runs[150:200] = 0.0
    spike = rng.poisson(1.0, n).astype(float)
    spike[140] += 400.0
    return {
        "poisson": rng.poisson(3.0, n).astype(float),
        "zero_runs": zero_runs,
        "spike": spike,
        "near_linear": 3.0 + 0.05 * np.arange(n) + 1e-3 * rng.standard_normal(n),
        "multiples_of_2500": 2500.0 * rng.integers(0, 5, n),
    }


@st.composite
def pipeline_shaped_series(draw):
    """Integer counts (with a zero run or a single-day spike), exactly linear
    series, daily shares a / (a + b) of two counts with common zero days
    (0 where the total is 0), and the shortest spans n = 3 and 4."""
    kind = draw(st.sampled_from(["counts", "zero_run", "spike", "linear", "share", "shortest"]))
    n = draw(st.integers(3, 4) if kind == "shortest" else st.integers(5, 50))
    if kind == "linear":
        return draw(st.integers(-100, 100)) + draw(st.integers(-10, 10)) * np.arange(n, dtype=float)
    counts = st.lists(st.integers(0, 30), min_size=n, max_size=n)
    y = np.array(draw(counts), dtype=float)
    if kind == "share":
        other = np.array(draw(counts), dtype=float)
        zero_days = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
        y[zero_days] = other[zero_days] = 0.0
        total = y + other
        return np.divide(y, total, out=np.zeros(n), where=total > 0)
    if kind == "zero_run":
        start = draw(st.integers(0, n - 1))
        y[start : start + draw(st.integers(1, n))] = 0.0
    elif kind == "spike":
        y[draw(st.integers(0, n - 1))] += draw(st.integers(100, 5000))
    return y


class TestDegenerateShapes:
    @pytest.mark.parametrize("shape", sorted(degenerate_panel()))
    def test_converges_and_matches_oracle(self, shape):
        y = degenerate_panel()[shape]
        eps = trendfilter._eps_gap(y)
        lam_hi = lambda_max(y)
        assert lam_hi > 0.0
        for frac in (0.01, 0.1, 0.5, 0.99):
            lam = frac * lam_hi
            fit = solve_tf(y, lam)
            assert fit.converged, (shape, frac)
            assert 0.0 <= fit.duality_gap <= eps, (shape, frac)
            out = oracle_solve(y, lam, 20_000)
            assert np.max(np.abs(fit.fitted - out)) <= 1e-4 * np.ptp(y), (shape, frac)

    @settings(max_examples=60, deadline=None)
    @given(
        y=pipeline_shaped_series(),
        frac=st.floats(0.01, 1.2),
        offset=st.floats(-50.0, 50.0),
        slope=st.floats(-5.0, 5.0),
        scale=st.floats(0.1, 20.0),
    )
    def test_certified_oracle_agreeing_and_shift_equivariant(self, y, frac, offset, slope, scale):
        lam_hi = lambda_max(y)
        lam = frac * lam_hi if lam_hi > 0.0 else frac
        fit = solve_tf(y, lam)
        assert fit.converged
        assert 0.0 <= fit.duality_gap <= trendfilter._eps_gap(y)
        out = oracle_solve(y, lam, 20_000)
        assert np.max(np.abs(fit.fitted - out)) <= 1e-4 * np.ptp(y) + 1e-9
        shift = offset + slope * np.arange(y.shape[0])
        moved = solve_tf(y + shift, lam)
        assert np.max(np.abs(moved.fitted - (fit.fitted + shift))) <= 1e-8 * (1.0 + np.ptp(y))
        scaled = solve_tf(scale * y, scale * lam)
        assert scaled.knots == fit.knots
        assert np.max(np.abs(scaled.fitted - scale * fit.fitted)) <= 1e-8 * scale * (1.0 + np.ptp(y))


def sweep_grid(y):
    """fit_with_target_df's penalty grid for ``y``, largest penalty first."""
    lam_hi = lambda_max(y)
    if lam_hi == 0.0:
        return np.zeros(1)
    return np.geomspace(trendfilter._GRID_SPAN * lam_hi, lam_hi, trendfilter._GRID_SIZE)[::-1]


def assert_sweep_points_pass_dense_kkt(y):
    """Every walked point of the sweep against a cold, dense solve of its own KKT
    conditions: the partition is read off the point's dual (|u_j| == lam pinned
    at sign(u_j), every other coordinate free) and the free block is re-solved
    with np.linalg.solve on the dense D D^T, sharing no code with the solver.
    The point must be certified with the re-solve's df and a dual within
    1e-6 * lam of it, and the re-solve must keep its free coordinates inside
    the box and have side * mu >= 0 on its pinned ones, mu = D y - D D^T u."""
    grid = sweep_grid(y)
    tol_knot = trendfilter._tol_knot(y)
    d = dense_second_difference(y.shape[0])
    gram, dy = d @ d.T, d @ y
    points = list(trendfilter._sweep(y, grid, trendfilter._unconstrained_dual(y)))
    assert [p.lam for p in points] == grid.tolist()
    for point in points:
        lam = point.lam
        if not 0.0 < lam < grid[0]:
            continue  # the closed forms
        side = np.where(np.abs(point.dual) == lam, np.sign(point.dual), 0.0)
        free, pinned = side == 0.0, side != 0.0
        u = lam * side
        u[free] = np.linalg.solve(gram[np.ix_(free, free)], dy[free] - gram[np.ix_(free, pinned)] @ u[pinned])
        mu = dy - gram @ u
        tol = 1e-9 * lam
        assert point.converged, lam
        df = trendfilter._bends(point.fitted, tol_knot).size
        assert df == trendfilter._bends(y - d.T @ u, tol_knot).size, lam
        assert np.max(np.abs(point.dual - u)) <= 1e-6 * lam, lam
        assert np.all(np.abs(u[free]) <= lam + tol), lam
        assert np.all(side[pinned] * mu[pinned] >= -tol), lam


def full_sweep(y):
    """Every point of ``y``'s full grid sweep and the df of each."""
    tol_knot = trendfilter._tol_knot(y)
    points = list(trendfilter._sweep(y, sweep_grid(y), trendfilter._unconstrained_dual(y)))
    return points, [len(extract_segments(point.fitted, tol_knot)[0]) + 2 for point in points]


def documented_selection(y, points, dfs, target):
    """fit_with_target_df's rule applied to a full sweep: the df closest to
    ``target``, the largest penalty among ties, and df_warning when the
    target exceeds every df."""
    distance = [abs(df - target) for df in dfs]
    chosen = points[distance.index(min(distance))]
    return trendfilter.TrendFit(**chosen._asdict(), tol_knot=trendfilter._tol_knot(y), df_warning=target > max(dfs))


def assert_same_fit(got, want):
    for name in (f.name for f in dataclasses.fields(want)):
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b, name


def count_sweep_points(monkeypatch):
    """Wrap trendfilter._sweep; the returned list gets every point it yields."""
    yielded = []
    def counted(*args, _original=trendfilter._sweep):
        for point in _original(*args):
            yielded.append(point)
            yield point
    monkeypatch.setattr(trendfilter, "_sweep", counted)
    return yielded


SWEEP_SHAPES = {
    "bendy": bendy_signal(seed=56, n=90)[0],
    **degenerate_panel(),
    **{f"n277-{name}": y for name, y in paper_window_panel().items()},
}


class TestSweep:
    def test_one_fit_solves_unconstrained_once_and_builds_one_fit(self, monkeypatch):
        calls = {"_unconstrained_dual": 0, "extract_segments": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(trendfilter, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(trendfilter, name, counted)
        y, _ = bendy_signal(seed=55, n=90, n_knots=10)
        fit_with_target_df(y, 12)
        assert calls["_unconstrained_dual"] == 1
        assert calls["extract_segments"] == 1

    @pytest.mark.parametrize("shape", sorted(SWEEP_SHAPES))
    def test_warm_points_match_cold_solves(self, shape):
        assert_sweep_points_pass_dense_kkt(SWEEP_SHAPES[shape])

    @settings(max_examples=40, deadline=None)
    @given(y=pipeline_shaped_series())
    def test_warm_points_match_cold_solves_on_pipeline_shapes(self, y):
        assert_sweep_points_pass_dense_kkt(y)

    def test_walk_is_exact_without_ties(self):
        # uniform floats tie no two events: the walk from lambda_max reaches
        # every point's optimal partition, so each verifies in its first round
        for y, _ in random_panel(seed=505, count=12, n_lo=5, n_hi=300):
            points = list(trendfilter._sweep(y, sweep_grid(y), trendfilter._unconstrained_dual(y)))
            assert [p.iterations for p in points[1:]] == [1] * (len(points) - 1), y.size

    @pytest.mark.parametrize("shape", sorted(paper_window_panel()))
    def test_paper_window_shapes_converge_in_bounded_rounds(self, shape, monkeypatch):
        # the walk's line verifies in one round unless the walk missed a tie;
        # measured 199-231 rounds and 361-465 banded solves (path events and
        # repair rounds) per sweep, against 456-736 rounds when each solve
        # starts from the previous point's partition
        y = paper_window_panel()[shape]
        grid = sweep_grid(y)
        u_free = trendfilter._unconstrained_dual(y)
        solves = 0
        def counted(*args, _original=trendfilter._banded_solve):
            nonlocal solves
            solves += 1
            return _original(*args)
        monkeypatch.setattr(trendfilter, "_banded_solve", counted)
        points = list(trendfilter._sweep(y, grid, u_free))
        assert len(points) == grid.size
        assert solves <= 3 * trendfilter._GRID_SIZE, (shape, solves)
        for point in points:
            assert point.converged, (shape, point.lam)
            assert point.duality_gap <= trendfilter._eps_gap(y), (shape, point.lam)
            assert point.iterations <= 500, (shape, point.lam, point.iterations)
        assert sum(point.iterations for point in points) <= 3 * trendfilter._GRID_SIZE, shape

    @pytest.mark.parametrize("shape", sorted(paper_window_panel()))
    def test_paper_window_path_events_per_interval_bounded(self, shape, monkeypatch):
        # _line calls (path events and repair rounds) between two yielded
        # points; measured 9-11 per interval and 360-464 per sweep here, and
        # at most 11 per interval on the benchmark's ALPHA series
        y = paper_window_panel()[shape]
        lines = 0
        def counted(*args, _original=trendfilter._line):
            nonlocal lines
            lines += 1
            return _original(*args)
        monkeypatch.setattr(trendfilter, "_line", counted)
        per_interval = []
        for _ in trendfilter._sweep(y, sweep_grid(y), trendfilter._unconstrained_dual(y)):
            per_interval.append(lines)
            lines = 0
        assert per_interval[0] == 0  # lambda_max is a closed form
        assert max(per_interval) <= 25, (shape, per_interval)

    @pytest.mark.parametrize("shape", sorted(paper_window_panel()))
    def test_sweep_stops_at_first_exact_hit(self, shape, monkeypatch):
        # the early stop returns what the full grid selects, with fewer points
        y = paper_window_panel()[shape]
        points, dfs = full_sweep(y)
        target = dfs[trendfilter._GRID_SIZE // 2]
        want = documented_selection(y, points, dfs, target)
        yielded = count_sweep_points(monkeypatch)
        fit = fit_with_target_df(y, target)
        assert_same_fit(fit, want)
        assert not fit.df_warning
        assert len(yielded) == dfs.index(target) + 1 < trendfilter._GRID_SIZE, shape

    @pytest.mark.parametrize("shape", sorted(paper_window_panel()))
    def test_unreachable_target_sweeps_the_full_grid(self, shape, monkeypatch):
        y = paper_window_panel()[shape]
        points, dfs = full_sweep(y)
        target = max(dfs) + 1
        want = documented_selection(y, points, dfs, target)
        yielded = count_sweep_points(monkeypatch)
        fit = fit_with_target_df(y, target)
        assert_same_fit(fit, want)
        assert fit.df_warning
        assert len(yielded) == trendfilter._GRID_SIZE, shape

    @pytest.mark.parametrize("steps", [0, 1])
    @pytest.mark.parametrize("shape", sorted(paper_window_panel()))
    def test_walk_cut_short_reaches_the_same_optimum(self, shape, steps, monkeypatch):
        # a walk stopped by the step cap hands an inexact line to the
        # active-set solve, and the walk goes on from the partition it
        # verified (measured 340-736 rounds per sweep)
        y = paper_window_panel()[shape]
        grid = sweep_grid(y)
        u_free = trendfilter._unconstrained_dual(y)
        default = list(trendfilter._sweep(y, grid, u_free))
        monkeypatch.setattr(trendfilter, "_MAX_PATH_STEPS", steps)
        rounds = 0
        for point, ref in zip(trendfilter._sweep(y, grid, u_free), default, strict=True):
            assert point.converged, (shape, point.lam)
            assert np.max(np.abs(point.dual - ref.dual)) <= 1e-6 * point.lam, (shape, point.lam)
            rounds += point.iterations
        assert rounds <= 5 * trendfilter._GRID_SIZE, (shape, rounds)


def random_free_set(rng, size, layout):
    """Sorted free set of ``size`` dual indices: contiguous, single gaps or sparse."""
    if layout == "contiguous":
        start = int(rng.integers(0, 50))
        return np.arange(start, start + size)
    if layout == "single-gaps":
        return np.cumsum(rng.integers(1, 3, size))
    return np.sort(rng.choice(4 * size, size, replace=False))


class TestBandedSolve:
    @pytest.mark.parametrize("layout", ["contiguous", "single-gaps", "sparse"])
    def test_band_is_lower_band_of_dense_gram(self, layout):
        rng = np.random.default_rng(91)
        for size in [1, 2, 3, 4, 5, *rng.integers(6, 401, 25)]:
            idx = random_free_set(rng, int(size), layout)
            rows = dense_second_difference(int(idx[-1]) + 3)[idx]
            gram = rows @ rows.T
            want = np.zeros((3, idx.size))
            for offset in range(3):
                want[offset, : idx.size - offset] = np.diagonal(gram, -offset)
            assert np.array_equal(trendfilter._gram_submatrix_banded(idx), want), (layout, size)

    @pytest.mark.parametrize("layout", ["contiguous", "single-gaps", "sparse"])
    def test_matches_solveh_banded(self, layout):
        from scipy.linalg import solveh_banded

        rng = np.random.default_rng(90)
        for size in [1, 2, 3, 4, 5, *rng.integers(6, 401, 25)]:
            ab = trendfilter._gram_submatrix_banded(random_free_set(rng, int(size), layout))
            rhs = rng.normal(0.0, 10.0, int(size))
            want = solveh_banded(ab, rhs, lower=True)
            got = trendfilter._banded_solve(ab.copy(order="F"), rhs.copy())
            assert np.array_equal(got, want), (layout, size)

    @pytest.mark.parametrize("lookup", ["direct", "missing-file", "broken-file"])
    def test_dpbsv_lookups_match_scipy(self, lookup, monkeypatch, tmp_path):
        # the direct load of the extension, and the fallback to
        # scipy.linalg.lapack when its file is missing or does not load
        from scipy.linalg.lapack import dpbsv

        trendfilter._dpbsv.cache_clear()
        monkeypatch.delitem(sys.modules, trendfilter._FLAPACK)
        if lookup != "direct":
            spec = None
            if lookup == "broken-file":
                broken = tmp_path / "_flapack.so"
                broken.write_bytes(b"not a shared object")
                spec = importlib.util.spec_from_file_location(trendfilter._FLAPACK, broken)
            find_spec = importlib.machinery.PathFinder.find_spec

            def fake_find_spec(name, path=None, target=None):
                return spec if name == trendfilter._FLAPACK else find_spec(name, path, target)

            monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", fake_find_spec)
        rng = np.random.default_rng(92)
        for layout in ["contiguous", "single-gaps", "sparse"]:
            for size in [1, 2, 3, 4, 5, *rng.integers(6, 401, 10)]:
                ab = trendfilter._gram_submatrix_banded(random_free_set(rng, int(size), layout))
                rhs = rng.normal(0.0, 10.0, (int(size), 2))
                want = dpbsv(ab, rhs, lower=1)[1]
                got = trendfilter._banded_solve(ab.copy(order="F"), rhs.copy(order="F"))
                assert np.array_equal(got, want), (lookup, layout, size)
        # only the direct load registers a module of its own
        assert (trendfilter._FLAPACK in sys.modules) == (lookup == "direct")
        trendfilter._dpbsv.cache_clear()

    def test_direct_load_coexists_with_scipy_imports(self):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from campaigntrends import oracle_solve, solve_tf, lambda_max, trendfilter\n"
            "y = np.random.default_rng(93).poisson(3.0, 40).astype(float)\n"
            "lam = 0.2 * lambda_max(y)\n"
            "fit = solve_tf(y, lam)\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "import scipy.linalg, scipy.optimize\n"
            "from scipy.linalg import _flapack\n"
            "assert _flapack is sys.modules['scipy.linalg._flapack']\n"
            "assert scipy.linalg.lapack.dpbsv is trendfilter._dpbsv()\n"
            "assert np.array_equal(solve_tf(y, lam).fitted, fit.fitted)\n"
            "out = oracle_solve(y, lam, 20_000)\n"
            "assert np.max(np.abs(fit.fitted - out)) <= 1e-4 * np.ptp(y)\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_not_positive_definite_raises(self):
        ab = trendfilter._gram_submatrix_banded(np.arange(10))
        ab[0, 4] = -1.0
        with pytest.raises(np.linalg.LinAlgError):
            trendfilter._banded_solve(ab, np.ones(10))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_raises(self, bad):
        rhs = np.ones(10)
        rhs[3] = bad
        with pytest.raises(ValueError):
            trendfilter._banded_solve(trendfilter._gram_submatrix_banded(np.arange(10)), rhs)


class TestLambdaMax:
    def test_hand_computed_small_cases(self):
        # n=3: single row [1,-2,1], gram = 6, D y = -2 -> |u| = 1/3
        assert lambda_max([0.0, 1.0, 0.0]) == pytest.approx(1 / 3, abs=1e-12)
        # n=4: D y = [1, -1], gram = [[6,-4],[-4,6]], u = [0.1, -0.1]
        assert lambda_max([0.0, 0.0, 1.0, 1.0]) == pytest.approx(0.1, abs=1e-12)

    def test_matches_dense_linear_algebra(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(5, 60))
            y = rng.uniform(-5, 5, n)
            d = dense_second_difference(n)
            expected = np.max(np.abs(np.linalg.solve(d @ d.T, d @ y)))
            assert lambda_max(y) == pytest.approx(expected, rel=1e-10)

    def test_zero_for_linear_input(self):
        assert lambda_max(np.linspace(0, 9, 10) * 2.5 + 3.0) == pytest.approx(0.0, abs=1e-12)

    def test_threshold_behaviour(self):
        rng = np.random.default_rng(12)
        y = rng.uniform(0, 10, 25)
        lam_hi = lambda_max(y)
        slope, intercept = least_squares_line(y)
        line = intercept + slope * np.arange(len(y))
        above = solve_tf(y, 1.01 * lam_hi)
        assert np.max(np.abs(above.fitted - line)) <= 1e-8
        assert above.df == 2
        below = solve_tf(y, 0.9 * lam_hi)
        assert np.max(np.abs(below.fitted - line)) > 1e-6


class TestExtractSegments:
    def test_straight_line(self):
        knots, segments = extract_segments([0.0, 1.0, 2.0, 3.0], tol_knot=1e-9)
        assert knots == []
        assert len(segments) == 1
        assert segments[0].start == 0 and segments[0].end == 3
        assert segments[0].slope == pytest.approx(1.0)

    def test_triangle(self):
        knots, segments = extract_segments([0.0, 1.0, 2.0, 1.0, 0.0], tol_knot=1e-9)
        assert knots == [2]
        assert [s.slope for s in segments] == [pytest.approx(1.0), pytest.approx(-1.0)]
        assert (segments[0].start, segments[0].end) == (0, 2)
        assert (segments[1].start, segments[1].end) == (2, 4)

    def test_single_bump_fit(self):
        knots, segments = extract_segments([0.1, 0.8, 0.1], tol_knot=1e-9)
        assert knots == [1]
        assert [s.slope for s in segments] == [pytest.approx(0.7), pytest.approx(-0.7)]

    def test_segments_partition_span(self):
        rng = np.random.default_rng(13)
        y = rng.uniform(0, 10, 60)
        fit = solve_tf(y, 0.2 * lambda_max(y))
        assert fit.segments[0].start == 0
        assert fit.segments[-1].end == len(y) - 1
        for left, right in zip(fit.segments[:-1], fit.segments[1:]):
            assert left.end == right.start


class TestEffectiveDf:
    def test_straight_line_has_df_two(self):
        fit = solve_tf([1.0, 2.0, 3.0, 4.0], 5.0)
        assert fit.df == 2

    def test_one_bend_has_df_three(self):
        fit = solve_tf([0.0, 1.0, 0.0], 0.1)
        assert fit.df == 3

    def test_ten_bends_have_df_twelve(self):
        y, _ = bendy_signal(seed=400, n=90, n_knots=10, noise_frac=0.0)
        fit = fit_with_target_df(y, 12)
        assert fit.df == 12

    def test_equals_knots_plus_two_generally(self):
        for y, lam in random_panel(seed=303, count=20):
            fit = solve_tf(y, lam)
            assert fit.df == len(fit.knots) + 2


class TestTargetDfForSpan:
    def test_reference_values(self):
        assert target_df_for_span(90) == 12
        assert target_df_for_span(276) == 37
        assert target_df_for_span(3) == 2

    def test_never_below_two(self):
        for n in range(3, 40):
            assert target_df_for_span(n) >= 2

    def test_custom_rate(self):
        assert target_df_for_span(90, df_per_90=6.0) == 6
        assert target_df_for_span(45, df_per_90=6.0) == 3

    @pytest.mark.parametrize(
        "n_days, rate",
        [(90, float("inf")), (90, float("nan")), (90, 0.0), (50, 1e308)],
        ids=["inf", "nan", "zero", "overflow"],
    )
    def test_non_finite_or_non_positive_rate_rejected(self, n_days, rate):
        with pytest.raises(InvalidInputError):
            target_df_for_span(n_days, df_per_90=rate)


class TestOracleSolve:
    def test_single_bump(self):
        out = oracle_solve([0.0, 1.0, 0.0], 0.1, 10_000)
        assert np.max(np.abs(out - [0.1, 0.8, 0.1])) <= 1e-6

    def test_zero_penalty(self):
        y = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        assert np.array_equal(oracle_solve(y, 0.0, 100), y)

    def test_collapses_to_line_above_lambda_max(self):
        rng = np.random.default_rng(21)
        y = rng.uniform(0, 10, 30)
        slope, intercept = least_squares_line(y)
        line = intercept + slope * np.arange(len(y))
        out = oracle_solve(y, 1.05 * lambda_max(y), 100_000)
        assert np.max(np.abs(out - line)) <= 1e-5

    def test_refuses_long_series(self):
        with pytest.raises(InvalidInputError):
            oracle_solve(np.zeros(501), 1.0, 10)

    def test_agreement_with_solver_at_full_iterations(self):
        for y, lam in random_panel(seed=404, count=10):
            fit = solve_tf(y, lam)
            out = oracle_solve(y, lam, 100_000)
            assert np.max(np.abs(fit.fitted - out)) <= 1e-4 * np.ptp(y)


class TestFitWithTargetDf:
    def test_target_two_is_the_regression_line(self):
        rng = np.random.default_rng(31)
        y = rng.uniform(0, 10, 40)
        fit = fit_with_target_df(y, 2)
        slope, intercept = least_squares_line(y)
        line = intercept + slope * np.arange(len(y))
        assert fit.df == 2
        assert np.max(np.abs(fit.fitted - line)) <= 1e-6
        # every penalty from some point up gives df = 2; the smoother
        # tie-break must land on the largest, which is lambda_max itself
        assert fit.lam == pytest.approx(lambda_max(y), rel=1e-12)

    def test_linear_input_keeps_df_two_and_warns_when_unreachable(self):
        y = 1.5 * np.arange(30) + 2.0
        fit = fit_with_target_df(y, 8)
        assert fit.df == 2
        assert np.array_equal(fit.fitted, y)
        assert fit.df_warning

    def test_reachable_target_not_flagged(self):
        y, _ = bendy_signal(seed=55, n=90, n_knots=10)
        fit = fit_with_target_df(y, 12)
        assert not fit.df_warning

    def test_synthetic_ninety_day_budget(self):
        hits = 0
        for seed in range(40):
            y, _ = bendy_signal(seed=9000 + seed, n=90, n_knots=10)
            fit = fit_with_target_df(y, 12)
            if 10 <= fit.df <= 14:
                hits += 1
        assert hits >= 36  # 90% rate over the smaller in-module sample

    def test_penalty_term_monotone_in_lambda(self):
        rng = np.random.default_rng(41)
        y = rng.uniform(0, 10, 50)
        lam_hi = lambda_max(y)
        grid = np.geomspace(1e-3 * lam_hi, lam_hi, 25)
        penalties = []
        for lam in grid:
            fit = solve_tf(y, float(lam))
            penalties.append(np.sum(np.abs(second_difference(fit.fitted))))
        assert all(a >= b - 1e-9 for a, b in zip(penalties[:-1], penalties[1:]))

    def test_rejects_bad_targets(self):
        with pytest.raises(InvalidInputError):
            fit_with_target_df(np.arange(10.0), 1)
        with pytest.raises(InvalidInputError):
            fit_with_target_df(np.arange(10.0), 10)

    def test_fast_enough_for_long_series(self):
        y, _ = bendy_signal(seed=77, n=300, n_knots=10)
        start = time.perf_counter()
        fit_with_target_df(y, 12)
        assert time.perf_counter() - start < 1.0
