import copy
import io
import json
import random
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from conftest import FIXTURES

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


SCHEMA_PATH = Path(__file__).parent.parent / "src" / "campaigntrends" / "schemas" / "report.schema.json"

# JSON Schema keywords the reader behind validate_report applies, and the
# annotations it may skip
READ_KEYWORDS = {"type", "const", "enum", "required", "properties", "items", "$ref", "minimum", "pattern", "format"}
ANNOTATIONS = {"$schema", "$id", "title", "$defs"}

# Single changes to the golden report that each break one rule of the schema
# no hand-written check covered: the path of the problem, and the change.
GOLDEN_REPORT_GAPS = {
    "rising-region-bad-date": ("report.series[0].rising_regions[0].start",
                               lambda r: r["series"][0]["rising_regions"][0].update(start="2019-06-31")),
    "df-string": ("report.series[0].df", lambda r: r["series"][0].update(df="7")),
    "negative-lambda": ("report.series[0].lambda", lambda r: r["series"][0].update({"lambda": -1})),
    "match-sideways": ("report.events[0].matches[0].direction",
                       lambda r: r["events"][0]["matches"][0].update(direction="SIDEWAYS")),
    "unmatched-not-a-date": ("report.lead_lag[0].unmatched_a[0]", lambda r: r["lead_lag"][0].update(unmatched_a=["soon"])),
    "offset-string": ("report.lead_lag[0].pairs[0].offset_days",
                      lambda r: r["lead_lag"][0]["pairs"][0].update(offset_days="3")),
    "no-rising-regions": ("report.series[0].rising_regions", lambda r: r["series"][0].pop("rising_regions")),
    "changepoint-index-0": ("report.series[0].changepoints[0].index",
                            lambda r: r["series"][0]["changepoints"][0].update(index=0)),
    "schema-version-true": ("report.schema_version", lambda r: r.update(schema_version=True)),
}

# Values a mutation puts in place of a field or into an array
MUTANTS = [
    None, True, False, 0, 1, -1, 2, 1.0, 7.0, -0.5, 1.5, "", "x", "UP", "DOWN", "SIDEWAYS",
    "2019-06-05", "2019-06-31", "20190605", "2019-06-05\n", "\u0662\u0660\u0661\u0669-06-05",
    [], {}, ["2019-06-05"], ["soon"], {"start": "2019-06-05", "end": "2019-06-09"},
]


def golden_report():
    return json.loads((FIXTURES / "golden" / "report.json").read_text())


def schema_nodes(schema):
    """Every (sub)schema of ``schema``, through the keywords that hold subschemas."""
    yield schema
    for sub in [*schema.get("properties", {}).values(), *schema.get("$defs", {}).values()]:
        yield from schema_nodes(sub)
    if "items" in schema:
        yield from schema_nodes(schema["items"])


def first_two(node):
    """``node`` with every array cut to its first two entries: the same shapes, far fewer values."""
    if isinstance(node, dict):
        return {key: first_two(value) for key, value in node.items()}
    if isinstance(node, list):
        return [first_two(value) for value in node[:2]]
    return node


def field_slots(node):
    """(container, key) of every value inside ``node``, at any depth."""
    for key in (node if isinstance(node, dict) else range(len(node))):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from field_slots(node[key])


def mutate(report, rng):
    """Change one field of ``report``: replace it, delete it, or append to it when it is an array."""
    container, key = rng.choice(list(field_slots(report)))
    action = rng.choice(["replace", "delete", "append"])
    if action == "delete" and isinstance(container, dict):
        del container[key]
    elif action == "append" and isinstance(container[key], list):
        container[key].append(copy.deepcopy(rng.choice(MUTANTS)))
    else:
        container[key] = copy.deepcopy(rng.choice(MUTANTS))


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

    def test_repeated_key_rejected(self):
        # json.load alone keeps the last value, so the right value goes last
        buffer = io.StringIO('{"schema_version": 1, "series": {"a": {"x": 0, "x": 1}}}')
        with pytest.raises(InvalidValueError, match="repeats the key 'x'"):
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

    def test_golden_report_passes(self):
        assert validate_report(golden_report()) == []

    @pytest.mark.parametrize("gap", sorted(GOLDEN_REPORT_GAPS))
    def test_schema_rule_flagged(self, gap):
        where, change = GOLDEN_REPORT_GAPS[gap]
        report = golden_report()
        change(report)
        problems = validate_report(report)
        assert any(p.startswith(where + " ") for p in problems), problems

    def test_schema_uses_only_read_keywords(self):
        schema = json.loads(SCHEMA_PATH.read_text())
        for node in schema_nodes(schema):
            assert set(node) <= READ_KEYWORDS | ANNOTATIONS, node
            assert node.get("format", "date") == "date", node
            assert node.get("$ref", "#/$defs/").startswith("#/$defs/"), node
            # const and enum are compared as scalars
            for value in [node.get("const"), *node.get("enum", [])]:
                assert not isinstance(value, (list, dict)), node

    def test_agrees_with_jsonschema_on_mutated_golden_reports(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA_PATH.read_text())
        validator = jsonschema.Draft202012Validator(schema, format_checker=jsonschema.FormatChecker())
        golden = first_two(golden_report())
        rng = random.Random(17)
        verdicts = {True: 0, False: 0}
        for _ in range(600):
            report = copy.deepcopy(golden)
            mutate(report, rng)
            valid = validator.is_valid(report)
            assert (validate_report(report) == []) == valid, json.dumps(report)
            verdicts[valid] += 1
        assert min(verdicts.values()) >= 50, verdicts

    def test_schema_file_agrees(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA_PATH.read_text())
        jsonschema.validate(minimal_report(), schema)
        bad = minimal_report()
        bad["series"][0]["changepoints"][0]["direction"] = "SIDEWAYS"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, schema)


POLL_RANGE = DateRange(date(2019, 6, 1), date(2019, 6, 3))

# name -> (loader, header line, two valid rows with the loaded result)
CSV_READERS = {
    "committee map": (
        load_committee_map,
        "committee_id,candidate_id",
        ("C001,ALPHA", "C002,BRAVO"),
        {"C001": "ALPHA", "C002": "BRAVO"},
    ),
    "poll CSV": (
        lambda stream: list(load_poll_series(stream, "ALPHA", POLL_RANGE).values),
        "date,candidate,pct",
        ("2019-06-01,ALPHA,40", "2019-06-03,ALPHA,42"),
        [40.0, 41.0, 42.0],
    ),
    "events CSV": (
        load_events,
        "date,label",
        ("2019-06-27,first debate", "2019-07-10,rally"),
        [(date(2019, 6, 27), "first debate"), (date(2019, 7, 10), "rally")],
    ),
}


@pytest.mark.parametrize("what", sorted(CSV_READERS))
@pytest.mark.parametrize(
    "case",
    ["empty", "wrong-header", "blank-first-line", "blank-rows-skipped", "short-row",
     "short-row-after-multi-line-cell", "extra-field"],
)
def test_csv_reader_errors(what, case):
    """Every CSV input frames its file alike: empty file, header, field count, blank rows, line numbers."""
    load, header, valid, loaded = CSV_READERS[what]
    fields = header.count(",") + 1
    # a valid row without its last cell, and with one cell too many
    short = valid[0].rpartition(",")[0]
    short_message = f"line {{}}: expected {fields} fields, got {fields - 1}"
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
        "extra-field": (
            f"{padded}{valid[0]},extra\n", f"line 5: expected {fields} fields, got {fields + 1}"
        ),
    }[case]
    if message is None:
        assert load(io.StringIO(text)) == loaded
        return
    with pytest.raises(InvalidValueError) as info:
        load(io.StringIO(text))
    assert type(info.value) is InvalidValueError
    assert str(info.value) == message
