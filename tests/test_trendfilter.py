import time

import numpy as np
import pytest

from campaigntrends import (
    InvalidInputError,
    SolverSettings,
    extract_segments,
    fit_with_target_df,
    lambda_max,
    oracle_solve,
    second_difference,
    solve_tf,
    target_df_for_span,
)
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
        assert fit.duality_gap <= SolverSettings().resolve_eps_gap(np.array([0.0, 1.0, 0.0]))

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
            eps = SolverSettings().resolve_eps_gap(y)
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

    def test_nonconvergence_returns_flagged_best_iterate(self):
        # tiny iteration cap with a tolerance far below reach
        rng = np.random.default_rng(3)
        y = rng.uniform(0, 10, 40)
        lam = 0.3 * lambda_max(y)
        settings = SolverSettings(eps_gap=1e-300, max_iter=10)
        fit = solve_tf(y, lam, settings)
        assert not fit.converged
        assert fit.iterations == 10
        assert fit.duality_gap > 0.0
        assert np.all(np.isfinite(fit.fitted))


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
