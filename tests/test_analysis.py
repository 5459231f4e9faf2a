import io
import statistics
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from campaigntrends import (
    Changepoint,
    DateRange,
    Direction,
    GridMismatchError,
    InvalidValueError,
    TimeSeries,
    align_events,
    classify_changepoints,
    lead_lag,
    load_events,
    normalize_share,
    piecewise_linear,
    solve_tf,
    trend_regions,
)

D0 = date(2019, 6, 1)


def cp(day_offset, before=1.0, after=-1.0, index=None):
    return Changepoint.from_slopes(
        index if index is not None else day_offset,
        D0 + timedelta(days=day_offset),
        before,
        after,
    )


def ts(values, start=D0, label="m", candidate="c"):
    return TimeSeries(start, values, label=label, candidate=candidate)


class TestNormalizeShare:
    def test_two_candidate_shares(self):
        result = normalize_share(
            {"X": ts([50.0, 25.0, 1.0]), "Y": ts([100.0, 10.0, 1.0])}
        )
        assert np.allclose(result.shares["X"].values, [1 / 3, 5 / 7, 0.5])
        assert np.allclose(result.shares["Y"].values, [2 / 3, 2 / 7, 0.5])
        assert result.zero_days == ()

    def test_single_candidate_is_all_ones(self):
        result = normalize_share({"X": ts([5.0, 1.0, 2.0])})
        assert np.allclose(result.shares["X"].values, [1.0, 1.0, 1.0])

    def test_zero_total_day_annotated(self):
        result = normalize_share({"X": ts([1.0, 0.0, 2.0]), "Y": ts([1.0, 0.0, 0.0])})
        assert result.zero_days == (D0 + timedelta(days=1),)
        assert result.shares["X"].values[1] == 0.0
        assert result.shares["Y"].values[1] == 0.0

    def test_mismatched_grids_rejected(self):
        with pytest.raises(GridMismatchError):
            normalize_share(
                {"X": ts([1.0, 2.0, 3.0]), "Y": ts([1.0, 2.0, 3.0], start=D0 + timedelta(days=1))}
            )
        with pytest.raises(GridMismatchError):
            normalize_share({"X": ts([1.0, 2.0, 3.0]), "Y": ts([1.0, 2.0, 3.0, 4.0])})

    def test_negative_input_rejected(self):
        with pytest.raises(InvalidValueError):
            normalize_share({"X": ts([1.0, -2.0, 3.0])})

    def test_overflowing_daily_total_rejected(self):
        # pytest turns warnings into errors, so this also checks no overflow warning is printed
        with pytest.raises(InvalidValueError, match="2019-06-02"):
            normalize_share({"X": ts([1.0, 1e308, 3.0]), "Y": ts([1.0, 1e308, 3.0])})

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.lists(
            st.lists(st.floats(0.0, 100.0), min_size=4, max_size=4),
            min_size=1,
            max_size=5,
        )
    )
    def test_shares_sum_to_one_on_nonzero_days(self, data):
        series = {f"c{i}": ts(vals) for i, vals in enumerate(data)}
        result = normalize_share(series)
        stacked = np.vstack([s.values for s in result.shares.values()])
        totals = np.vstack([s.values for s in series.values()]).sum(axis=0)
        for day in range(4):
            if totals[day] > 0:
                assert abs(stacked[:, day].sum() - 1.0) <= 1e-12
            else:
                assert stacked[:, day].sum() == 0.0

    def test_common_scale_invariance(self):
        base = {"X": ts([5.0, 2.0, 3.0]), "Y": ts([1.0, 4.0, 2.0])}
        scaled = {k: ts(7.5 * v.values) for k, v in base.items()}
        a = normalize_share(base)
        b = normalize_share(scaled)
        for name in base:
            assert np.max(np.abs(a.shares[name].values - b.shares[name].values)) <= 1e-12


class TestClassifyChangepoints:
    def test_slowdown_is_down(self):
        # zero penalty keeps the exact piecewise signal, so slopes are exact
        signal = piecewise_linear(81, [40], [0.5, 0.2])
        fit = solve_tf(signal, 0.0)
        cps = classify_changepoints(fit, D0)
        assert len(cps) == 1
        assert cps[0].index == 40
        assert cps[0].date == D0 + timedelta(days=40)
        assert cps[0].direction is Direction.DOWN
        assert cps[0].slope_before == pytest.approx(0.5, abs=1e-9)
        assert cps[0].slope_after == pytest.approx(0.2, abs=1e-9)

    def test_recovery_is_up(self):
        signal = piecewise_linear(30, [12], [-0.1, 0.3])
        fit = solve_tf(signal, 0.0)
        cps = classify_changepoints(fit, D0)
        assert [c.direction for c in cps] == [Direction.UP]

    def test_count_matches_df(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            y = rng.uniform(0, 10, 50)
            fit = solve_tf(y, 0.35 * max(np.ptp(y), 1.0))
            cps = classify_changepoints(fit, D0)
            assert len(cps) == fit.df - 2


class TestTrendRegions:
    def test_triangle_regions(self):
        signal = piecewise_linear(61, [30], [1.0, -1.0])
        fit = solve_tf(signal, 1.0)
        regions = trend_regions(fit, D0)
        assert regions.falling == (
            DateRange(D0 + timedelta(days=30), D0 + timedelta(days=60)),
        )
        assert regions.rising == (DateRange(D0, D0 + timedelta(days=29)),)

    def test_all_rising(self):
        fit = solve_tf(np.arange(20.0), 1.0)
        regions = trend_regions(fit, D0)
        assert regions.falling == ()
        assert regions.rising == (DateRange(D0, D0 + timedelta(days=19)),)

    def test_same_sign_runs_merge(self):
        signal = piecewise_linear(41, [20], [-1.0, -0.5])
        fit = solve_tf(signal, 0.5)
        assert len(fit.knots) == 1
        regions = trend_regions(fit, D0)
        assert regions.falling == (DateRange(D0, D0 + timedelta(days=40)),)
        assert regions.rising == ()

    def test_regions_tile_the_span(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            y = rng.uniform(0, 10, 40)
            fit = solve_tf(y, 0.3 * np.ptp(y))
            regions = trend_regions(fit, D0)
            covered = []
            for r in regions.falling + regions.rising:
                covered.extend(range((r.start - D0).days, (r.end - D0).days + 1))
            assert sorted(covered) == list(range(40))


class TestAlignEvents:
    def test_window_matching_sorted_by_distance(self):
        cps = [("s", cp(12)), ("s", cp(19))]  # Jun 13 and Jun 20 offsets
        events = [(D0 + timedelta(days=14), "debate")]
        out = align_events(cps, events, window_days=7)
        assert len(out) == 1
        assert [m.offset_days for m in out[0].matches] == [-2, 5]
        assert out[0].event_label == "debate"

    def test_empty_when_nothing_close(self):
        out = align_events([("s", cp(0))], [(D0 + timedelta(days=30), "x")], window_days=7)
        assert out[0].matches == ()

    def test_every_offset_within_window(self):
        cps = [("a", cp(i)) for i in range(0, 40, 3)]
        events = [(D0 + timedelta(days=20), "e")]
        out = align_events(cps, events, window_days=10)
        assert all(abs(m.offset_days) <= 10 for m in out[0].matches)

    def test_deterministic_tie_order(self):
        cps = [("b", cp(16)), ("a", cp(12))]
        events = [(D0 + timedelta(days=14), "e")]
        out = align_events(cps, events, window_days=7)
        # same |offset|: negative offset first, then label
        assert [(m.series, m.offset_days) for m in out[0].matches] == [("a", -2), ("b", 2)]


class TestLeadLag:
    def test_simple_pair_with_negative_offset(self):
        report = lead_lag([cp(10)], [cp(7)], max_gap_days=14)
        assert len(report.pairs) == 1
        assert report.pairs[0].offset_days == -3
        assert report.median_offset == -3.0
        assert report.unmatched_a == () and report.unmatched_b == ()

    def test_far_apart_stay_unmatched(self):
        report = lead_lag([cp(10)], [cp(30)], max_gap_days=14)
        assert report.pairs == ()
        assert len(report.unmatched_a) == 1 and len(report.unmatched_b) == 1
        assert report.median_offset is None

    def test_tie_breaks_to_earlier_a(self):
        report = lead_lag([cp(10), cp(12)], [cp(11)], max_gap_days=14)
        assert len(report.pairs) == 1
        assert report.pairs[0].a.date == D0 + timedelta(days=10)
        assert report.pairs[0].b.date == D0 + timedelta(days=11)
        assert [c.date for c in report.unmatched_a] == [D0 + timedelta(days=12)]

    def test_each_changepoint_in_at_most_one_pair(self):
        a = [cp(i) for i in (0, 3, 6, 9)]
        b = [cp(i) for i in (1, 4, 7)]
        report = lead_lag(a, b, max_gap_days=5)
        seen_a = [p.a.date for p in report.pairs]
        seen_b = [p.b.date for p in report.pairs]
        assert len(set(seen_a)) == len(seen_a)
        assert len(set(seen_b)) == len(seen_b)

    @settings(max_examples=120, deadline=None)
    @given(
        a_days=st.lists(st.integers(0, 60), min_size=0, max_size=8, unique=True),
        b_days=st.lists(st.integers(0, 60), min_size=0, max_size=8, unique=True),
        gap=st.integers(1, 20),
    )
    def test_swap_symmetry(self, a_days, b_days, gap):
        a = [cp(d) for d in sorted(a_days)]
        b = [cp(d) for d in sorted(b_days)]
        fwd = lead_lag(a, b, max_gap_days=gap)
        rev = lead_lag(b, a, max_gap_days=gap)
        fwd_pairs = sorted((p.a.date, p.b.date, p.offset_days) for p in fwd.pairs)
        rev_pairs = sorted((p.b.date, p.a.date, -p.offset_days) for p in rev.pairs)
        assert fwd_pairs == rev_pairs
        assert sorted(c.date for c in fwd.unmatched_a) == sorted(c.date for c in rev.unmatched_b)
        assert sorted(c.date for c in fwd.unmatched_b) == sorted(c.date for c in rev.unmatched_a)
        if fwd.median_offset is None:
            assert rev.median_offset is None
        else:
            assert rev.median_offset == -fwd.median_offset

    @settings(max_examples=60, deadline=None)
    @given(
        a_days=st.lists(st.integers(0, 60), min_size=0, max_size=8, unique=True),
        b_days=st.lists(st.integers(0, 60), min_size=0, max_size=8, unique=True),
        gap=st.integers(1, 20),
    )
    def test_offsets_respect_gap(self, a_days, b_days, gap):
        report = lead_lag([cp(d) for d in sorted(a_days)], [cp(d) for d in sorted(b_days)], gap)
        assert all(abs(p.offset_days) <= gap for p in report.pairs)

    @settings(max_examples=120, deadline=None)
    @given(
        a_days=st.lists(st.integers(0, 60), min_size=0, max_size=40, unique=True),
        b_days=st.lists(st.integers(0, 60), min_size=0, max_size=40, unique=True),
        gap=st.integers(1, 30),
    )
    def test_median_offset_is_statistics_median(self, a_days, b_days, gap):
        report = lead_lag([cp(d) for d in sorted(a_days)], [cp(d) for d in sorted(b_days)], gap)
        offsets = [p.offset_days for p in report.pairs]
        if not offsets:
            assert report.median_offset is None
        else:
            assert type(report.median_offset) is float
            assert report.median_offset == float(statistics.median(offsets))


class TestLoadEvents:
    def test_round_trip(self):
        stream = io.StringIO("date,label\n2019-06-27,first debate\n2019-07-10,rally\n")
        events = load_events(stream)
        assert events == [
            (date(2019, 6, 27), "first debate"),
            (date(2019, 7, 10), "rally"),
        ]

    def test_bad_header(self):
        with pytest.raises(InvalidValueError):
            load_events(io.StringIO("when,what\n2019-06-27,x\n"))

    def test_bad_date_reports_line(self):
        with pytest.raises(InvalidValueError, match="line 2"):
            load_events(io.StringIO("date,label\nnot-a-date,x\n"))
