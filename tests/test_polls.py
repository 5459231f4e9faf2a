import io
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from campaigntrends import (
    DateRange,
    DuplicateDateError,
    InvalidValueError,
    MissingDayError,
    UnknownCandidateError,
    load_poll_series,
)
from campaigntrends.polls import MAX_POLL_GAP_DAYS

D0 = date(2019, 6, 1)


def csv_stream(rows):
    return io.StringIO("date,candidate,pct\n" + "\n".join(rows) + "\n")


def iso(offset):
    return (D0 + timedelta(days=offset)).isoformat()


class TestLoadPollSeries:
    def test_interpolates_missing_day(self):
        stream = csv_stream([f"{iso(0)},biden,30", f"{iso(2)},biden,32"])
        ts = load_poll_series(stream, "biden", DateRange(D0, D0 + timedelta(days=2)))
        assert list(ts.values) == [30.0, 31.0, 32.0]
        assert ts.label == "poll"
        assert ts.candidate == "biden"

    def test_unknown_candidate(self):
        stream = csv_stream([f"{iso(0)},warren,30", f"{iso(2)},warren,32"])
        with pytest.raises(UnknownCandidateError):
            load_poll_series(stream, "biden", DateRange(D0, D0 + timedelta(days=2)))

    def test_out_of_bounds_pct_reports_line(self):
        stream = csv_stream([f"{iso(0)},biden,30", f"{iso(1)},biden,105"])
        with pytest.raises(InvalidValueError, match="line 3"):
            load_poll_series(stream, "biden", DateRange(D0, D0 + timedelta(days=2)))

    def test_empty_candidate_reports_line(self):
        stream = csv_stream([f"{iso(0)},biden,30", f"{iso(1)}, ,31"])
        with pytest.raises(InvalidValueError, match="line 3"):
            load_poll_series(stream, "biden", DateRange(D0, D0 + timedelta(days=2)))

    def test_bad_date_reports_line(self):
        stream = csv_stream(["not-a-date,biden,30"])
        with pytest.raises(InvalidValueError, match="line 2"):
            load_poll_series(stream, "biden", DateRange(D0, D0 + timedelta(days=2)))

    # float alone reads each of these: 10.0, 5.0 (an Arabic-Indic digit) and 40.0 (full-width digits).
    @pytest.mark.parametrize("pct", ["1_0", "\u0665", "\uff14\uff10"])
    def test_pct_not_in_ascii_reports_line(self, pct):
        stream = csv_stream([f"{iso(0)},biden,30", f"{iso(1)},biden,{pct}"])
        with pytest.raises(InvalidValueError, match=f"line 3: bad pct '{pct}'"):
            load_poll_series(stream, "biden", DateRange(D0, D0 + timedelta(days=2)))

    def test_gap_over_limit_rejected(self):
        stream = csv_stream([f"{iso(0)},biden,30", f"{iso(9)},biden,32"])
        with pytest.raises(MissingDayError):
            load_poll_series(stream, "biden", DateRange(D0, D0 + timedelta(days=9)))

    def test_gap_at_limit_accepted(self):
        stream = csv_stream([f"{iso(0)},biden,30", f"{iso(8)},biden,32"])
        ts = load_poll_series(stream, "biden", DateRange(D0, D0 + timedelta(days=8)))
        assert len(ts) == 9
        assert ts.values[0] == 30.0 and ts.values[-1] == 32.0

    def test_leading_gap_over_limit_rejected(self):
        stream = csv_stream([f"{iso(8)},biden,30", f"{iso(9)},biden,31", f"{iso(10)},biden,32"])
        with pytest.raises(MissingDayError):
            load_poll_series(stream, "biden", DateRange(D0, D0 + timedelta(days=10)))

    def test_leading_gap_at_limit_accepted(self):
        stream = csv_stream([f"{iso(7)},biden,30", f"{iso(8)},biden,31"])
        ts = load_poll_series(stream, "biden", DateRange(D0, D0 + timedelta(days=8)))
        assert list(ts.values) == [30.0] * 8 + [31.0]

    def test_trailing_gap_at_limit_accepted(self):
        stream = csv_stream([f"{iso(0)},biden,30", f"{iso(1)},biden,31"])
        ts = load_poll_series(stream, "biden", DateRange(D0, D0 + timedelta(days=8)))
        assert list(ts.values) == [30.0] + [31.0] * 8

    def test_trailing_gap_over_limit_rejected(self):
        stream = csv_stream([f"{iso(0)},biden,30", f"{iso(1)},biden,31"])
        with pytest.raises(MissingDayError, match="8 consecutive days"):
            load_poll_series(stream, "biden", DateRange(D0, D0 + timedelta(days=9)))

    def test_duplicate_row_rejected(self):
        stream = csv_stream(
            [f"{iso(0)},biden,30", f"{iso(0)},biden,31", f"{iso(2)},biden,32"]
        )
        with pytest.raises(DuplicateDateError):
            load_poll_series(stream, "biden", DateRange(D0, D0 + timedelta(days=2)))

    def test_other_candidates_ignored(self):
        stream = csv_stream(
            [
                f"{iso(0)},biden,30",
                f"{iso(0)},warren,12",
                f"{iso(1)},warren,13",
                f"{iso(2)},biden,32",
            ]
        )
        ts = load_poll_series(stream, "biden", DateRange(D0, D0 + timedelta(days=2)))
        assert list(ts.values) == [30.0, 31.0, 32.0]

    def test_rows_outside_range_dropped(self):
        stream = csv_stream(
            [
                f"{iso(-3)},biden,99",
                f"{iso(0)},biden,30",
                f"{iso(1)},biden,31",
                f"{iso(2)},biden,32",
            ]
        )
        ts = load_poll_series(stream, "biden", DateRange(D0, D0 + timedelta(days=2)))
        assert list(ts.values) == [30.0, 31.0, 32.0]

    def test_observed_values_kept_exactly(self):
        values = [30.17, 30.92, 31.44, 30.08]
        rows = [f"{iso(i)},biden,{v}" for i, v in enumerate(values)]
        ts = load_poll_series(csv_stream(rows), "biden", DateRange(D0, D0 + timedelta(days=3)))
        assert list(ts.values) == values

    def test_interpolate_extends_flat_at_edges(self):
        rows = [f"{iso(1)},biden,2", f"{iso(3)},biden,6"]
        ts = load_poll_series(csv_stream(rows), "biden", DateRange(D0, D0 + timedelta(days=4)))
        assert list(ts.values) == [2.0, 2.0, 4.0, 6.0, 6.0]

    @settings(max_examples=50, deadline=None)
    @given(
        first=st.integers(0, MAX_POLL_GAP_DAYS),
        steps=st.lists(st.integers(1, MAX_POLL_GAP_DAYS + 1), min_size=1, max_size=9),
        pcts=st.lists(st.floats(0.0, 100.0), min_size=10, max_size=10),
    )
    def test_interpolate_preserves_observed_values(self, first, steps, pcts):
        # runs of missing days stay within the limit, so every draw loads
        offsets = [int(o) for o in np.cumsum([first, *steps])]
        rows = [f"{iso(o)},biden,{pct!r}" for o, pct in zip(offsets, pcts)]
        span = max(offsets[-1], 2)
        ts = load_poll_series(csv_stream(rows), "biden", DateRange(D0, D0 + timedelta(days=span)))
        for o, pct in zip(offsets, pcts):
            assert ts.values[o] == pct

    def test_output_length_matches_range(self):
        rows = [f"{iso(i)},biden,30" for i in range(0, 12, 2)]
        ts = load_poll_series(csv_stream(rows), "biden", DateRange(D0, D0 + timedelta(days=11)))
        assert len(ts) == 12

    def test_bad_header_rejected(self):
        stream = io.StringIO("day,who,share\n2019-06-01,biden,30\n")
        with pytest.raises(InvalidValueError):
            load_poll_series(stream, "biden", DateRange(D0, D0 + timedelta(days=2)))

    def test_candidate_present_but_not_in_range(self):
        stream = csv_stream([f"{iso(-30)},biden,30"])
        with pytest.raises(MissingDayError):
            load_poll_series(stream, "biden", DateRange(D0, D0 + timedelta(days=2)))
