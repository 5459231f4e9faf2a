from datetime import date, timedelta

import numpy as np
import pytest

from campaigntrends import DateRange, InvalidValueError, RangeTooNarrowError, TimeSeries

D0 = date(2019, 6, 1)


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
        assert ts.date_at(2) == D0 + timedelta(days=2)
        assert ts.date_at(3) == D0 + timedelta(days=3)
        with pytest.raises(IndexError):
            ts.date_at(4)
