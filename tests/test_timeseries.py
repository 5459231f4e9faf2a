from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from campaigntrends import (
    DateRange,
    DuplicateDateError,
    EmptyInputError,
    FillPolicy,
    InvalidValueError,
    RangeTooNarrowError,
    TimeSeries,
    resample_daily,
)

D0 = date(2019, 6, 1)


def days(*offsets):
    return [D0 + timedelta(days=o) for o in offsets]


class TestDateRange:
    def test_inclusive_length_and_membership(self):
        r = DateRange(D0, D0 + timedelta(days=4))
        assert len(r) == 5
        assert D0 in r and D0 + timedelta(days=4) in r
        assert D0 + timedelta(days=5) not in r

    def test_reversed_range_rejected(self):
        with pytest.raises(InvalidValueError):
            DateRange(D0, D0 - timedelta(days=1))


class TestTimeSeries:
    def test_requires_three_values(self):
        with pytest.raises(RangeTooNarrowError):
            TimeSeries(D0, [1.0, 2.0])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidValueError):
            TimeSeries(D0, [1.0, np.nan, 2.0])

    def test_values_are_immutable(self):
        ts = TimeSeries(D0, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            ts.values[0] = 9.0

    def test_date_index_round_trip(self):
        ts = TimeSeries(D0, [1.0, 2.0, 3.0, 4.0])
        assert ts.end_date == D0 + timedelta(days=3)
        assert ts.date_at(2) == D0 + timedelta(days=2)
        assert ts.index_of(D0 + timedelta(days=2)) == 2


class TestResampleDaily:
    def test_zero_fill(self):
        d = days(0, 2)
        r = DateRange(d[0], d[1])
        ts = resample_daily([(d[0], 5.0), (d[1], 2.0)], r, FillPolicy.ZERO)
        assert list(ts.values) == [5.0, 0.0, 2.0]

    def test_interpolate_midpoint(self):
        d = days(0, 2)
        r = DateRange(d[0], d[1])
        ts = resample_daily([(d[0], 4.0), (d[1], 8.0)], r, FillPolicy.INTERPOLATE)
        assert list(ts.values) == [4.0, 6.0, 8.0]

    def test_interpolate_extends_flat_at_edges(self):
        r = DateRange(D0, D0 + timedelta(days=4))
        pts = [(D0 + timedelta(days=1), 2.0), (D0 + timedelta(days=3), 6.0)]
        ts = resample_daily(pts, r, FillPolicy.INTERPOLATE)
        assert list(ts.values) == [2.0, 2.0, 4.0, 6.0, 6.0]

    def test_duplicate_date_rejected(self):
        r = DateRange(D0, D0 + timedelta(days=2))
        with pytest.raises(DuplicateDateError):
            resample_daily([(D0, 1.0), (D0, 2.0), (D0 + timedelta(days=2), 3.0)], r, FillPolicy.ZERO)

    def test_empty_points_rejected(self):
        with pytest.raises(EmptyInputError):
            resample_daily([], DateRange(D0, D0 + timedelta(days=3)), FillPolicy.ZERO)

    def test_point_outside_range_rejected(self):
        r = DateRange(D0, D0 + timedelta(days=2))
        with pytest.raises(InvalidValueError):
            resample_daily([(D0 - timedelta(days=1), 1.0)], r, FillPolicy.ZERO)

    def test_two_day_range_too_narrow_after_fill(self):
        r = DateRange(D0, D0 + timedelta(days=1))
        with pytest.raises(RangeTooNarrowError):
            resample_daily([(D0, 1.0)], r, FillPolicy.ZERO)

    @settings(max_examples=50, deadline=None)
    @given(
        offsets=st.sets(st.integers(0, 30), min_size=1, max_size=12),
        span=st.integers(2, 30),
    )
    def test_output_length_always_matches_range(self, offsets, span):
        span = max(span, max(offsets))
        r = DateRange(D0, D0 + timedelta(days=span))
        pts = [(D0 + timedelta(days=o), float(o)) for o in sorted(offsets)]
        if span < 2:
            return
        try:
            ts = resample_daily(pts, r, FillPolicy.ZERO)
        except RangeTooNarrowError:
            assert len(r) < 3
            return
        assert len(ts) == len(r)

    @settings(max_examples=50, deadline=None)
    @given(offsets=st.sets(st.integers(0, 20), min_size=2, max_size=10))
    def test_interpolate_preserves_observed_values(self, offsets):
        span = max(max(offsets), 2)
        r = DateRange(D0, D0 + timedelta(days=span))
        pts = [(D0 + timedelta(days=o), float(o) ** 2 + 1) for o in sorted(offsets)]
        ts = resample_daily(pts, r, FillPolicy.INTERPOLATE)
        for day, value in pts:
            assert ts.values[(day - D0).days] == value

