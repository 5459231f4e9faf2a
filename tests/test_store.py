import io
import json
from datetime import date

import numpy as np
import pytest

from campaigntrends import DateRange, InvalidValueError, TimeSeries
from campaigntrends.analysis import load_events
from campaigntrends.fec import load_committee_map
from campaigntrends.polls import load_poll_series
from campaigntrends.store import (
    SCHEMA_VERSION,
    read_store,
    series_from_json,
    series_to_json,
    validate_report,
    write_store,
)


def minimal_report():
    return {
        "schema_version": SCHEMA_VERSION,
        "series": [
            {
                "candidate": "ALPHA",
                "metric": "poll",
                "lambda": 1.5,
                "df": 3,
                "changepoints": [
                    {
                        "index": 4,
                        "date": "2019-06-05",
                        "slope_before": 1.0,
                        "slope_after": -0.5,
                        "direction": "DOWN",
                    }
                ],
                "falling_regions": [{"start": "2019-06-05", "end": "2019-06-10"}],
                "rising_regions": [{"start": "2019-06-01", "end": "2019-06-04"}],
            }
        ],
        "events": [{"date": "2019-06-05", "label": "debate", "matches": []}],
        "lead_lag": [
            {
                "candidate": "ALPHA",
                "series_a": "poll",
                "series_b": "donors",
                "pairs": [{"date_a": "2019-06-05", "date_b": "2019-06-03", "offset_days": -2}],
                "unmatched_a": [],
                "unmatched_b": [],
                "median_offset": -2.0,
            }
        ],
    }


class TestSeriesJson:
    def test_round_trip(self):
        ts = TimeSeries(date(2019, 6, 1), [1.0, 2.5, 3.25], label="poll", candidate="ALPHA")
        again = series_from_json(series_to_json(ts))
        assert again.start_date == ts.start_date
        assert again.label == ts.label
        assert again.candidate == ts.candidate
        assert np.array_equal(again.values, ts.values)


class TestStoreIo:
    def test_round_trip(self):
        doc = {"schema_version": SCHEMA_VERSION, "series": {}}
        buffer = io.StringIO()
        write_store(buffer, doc)
        buffer.seek(0)
        assert read_store(buffer) == doc

    def test_unknown_version_rejected(self):
        buffer = io.StringIO(json.dumps({"schema_version": 99}))
        with pytest.raises(InvalidValueError):
            read_store(buffer)


class TestValidateReport:
    def test_clean_report_passes(self):
        assert validate_report(minimal_report()) == []

    def test_bad_direction_flagged(self):
        report = minimal_report()
        report["series"][0]["changepoints"][0]["direction"] = "SIDEWAYS"
        assert any("direction" in p for p in validate_report(report))

    def test_bad_date_flagged(self):
        report = minimal_report()
        report["series"][0]["falling_regions"][0]["start"] = "06/05/2019"
        assert any("falling_regions" in p for p in validate_report(report))

    def test_missing_sections_flagged(self):
        assert validate_report({"schema_version": SCHEMA_VERSION}) != []

    def test_bad_median_flagged(self):
        report = minimal_report()
        report["lead_lag"][0]["median_offset"] = "soon"
        assert any("median_offset" in p for p in validate_report(report))

    def test_schema_file_agrees(self):
        jsonschema = pytest.importorskip("jsonschema")
        from pathlib import Path

        schema_path = (
            Path(__file__).parent.parent
            / "src" / "campaigntrends" / "schemas" / "report.schema.json"
        )
        schema = json.loads(schema_path.read_text())
        jsonschema.validate(minimal_report(), schema)
        bad = minimal_report()
        bad["series"][0]["changepoints"][0]["direction"] = "SIDEWAYS"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, schema)


POLL_RANGE = DateRange(date(2019, 6, 1), date(2019, 6, 3))

# name -> (loader, header line, a short row, its message with the line number
# left open, two valid rows with the loaded result)
CSV_READERS = {
    "committee map": (
        load_committee_map,
        "committee_id,candidate_id",
        "C001",
        "line {}: committee map row has no candidate: ['C001']",
        ("C001,ALPHA", "C002,BRAVO"),
        {"C001": "ALPHA", "C002": "BRAVO"},
    ),
    "poll CSV": (
        lambda stream: list(load_poll_series(stream, "ALPHA", POLL_RANGE).values),
        "date,candidate,pct",
        "2019-06-01,ALPHA",
        "line {}: expected 3 fields, got 2",
        ("2019-06-01,ALPHA,40", "2019-06-03,ALPHA,42"),
        [40.0, 41.0, 42.0],
    ),
    "events CSV": (
        load_events,
        "date,label",
        "2019-06-27",
        "line {}: expected date,label",
        ("2019-06-27,first debate", "2019-07-10,rally"),
        [(date(2019, 6, 27), "first debate"), (date(2019, 7, 10), "rally")],
    ),
}


@pytest.mark.parametrize("what", sorted(CSV_READERS))
@pytest.mark.parametrize(
    "case",
    ["empty", "wrong-header", "blank-first-line", "blank-rows-skipped", "short-row",
     "short-row-after-multi-line-cell"],
)
def test_csv_reader_errors(what, case):
    """Every CSV input frames its file alike: empty file, header, blank rows, line numbers."""
    load, header, short, short_message, valid, loaded = CSV_READERS[what]
    # blank and whitespace-only rows are skipped but still counted as lines
    padded = f"{header}\n\n   \n , \n"
    # a valid row whose quoted second cell spans two physical lines
    cells = valid[0].split(",")
    cells[1] = '"two\nlines"'
    multi_line = ",".join(cells)
    text, message = {
        "empty": ("", f"{what} is empty"),
        "wrong-header": (f"when,what\n{valid[0]}\n", f"{what} must have header '{header}', got 'when,what'"),
        "blank-first-line": (f"\n{header}\n{valid[0]}\n", f"{what} must have header '{header}', got ''"),
        "blank-rows-skipped": (f"{padded}{valid[0]}\n\t\n{valid[1]}\n", None),
        "short-row": (f"{padded}{short}\n", short_message.format(5)),
        "short-row-after-multi-line-cell": (
            f"{padded}{multi_line}\n{short}\n", short_message.format(7)
        ),
    }[case]
    if message is None:
        assert load(io.StringIO(text)) == loaded
        return
    with pytest.raises(InvalidValueError) as info:
        load(io.StringIO(text))
    assert type(info.value) is InvalidValueError
    assert str(info.value) == message
