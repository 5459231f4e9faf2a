import argparse
import csv
import dataclasses
import importlib
import json
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from campaigntrends import TimeSeries, fit_with_target_df, solve_tf
from campaigntrends import config, fec
from campaigntrends.analysis import Changepoint
from campaigntrends.cli import _build_parser, _fit_warning, main
from campaigntrends.store import SCHEMA_VERSION, fit_from_record, fit_to_record, validate_report
from conftest import bendy_signal


def run_main(capsys, args):
    """``main(args)`` in this process, with its exit code and captured output.

    An exception that escapes ``main`` fails the calling test, so a run that
    returns here printed no traceback.
    """
    capsys.readouterr()
    try:
        code = main(args)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    out, err = capsys.readouterr()
    return subprocess.CompletedProcess(args, code, out, err)


def run_stages_fresh(stages, flags):
    """Run ``stages`` through cli.main in one fresh interpreter.

    Returns their exit codes and the names of the modules loaded by the end.
    """
    code = (
        "import json, sys\n"
        "from campaigntrends.cli import main\n"
        "codes = [main([stage, *json.loads(sys.argv[2])]) for stage in sys.argv[1].split(',')]\n"
        "print(json.dumps([codes, sorted(sys.modules)]))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, ",".join(stages), json.dumps(flags)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def modules_after(code):
    """The names of the modules a fresh interpreter holds after running ``code``."""
    result = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys; print(*sorted(sys.modules))"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def replace_once(old, new):
    """A damage that replaces the first ``old`` in the text with ``new``."""
    return lambda text: text.replace(old, new, 1)


def edit_json(change):
    """A damage that applies ``change`` to the parsed document and writes it back."""
    def damage(text):
        document = json.loads(text)
        change(document)
        return json.dumps(document)
    return damage


# A store whose series are not the run its header names; fit must say to re-run ingest.
SHORT_ALPHA_POLL = edit_json(lambda doc: doc["series"]["ALPHA"]["poll"]["values"].pop())
DROP_BRAVO_SERIES = edit_json(lambda doc: doc["series"].pop("BRAVO"))
# Each candidate holds the four donation metrics, and a poll series for all candidates or none.
RENAME_ALPHA_AMOUNT = edit_json(lambda doc: doc["series"]["BRAVO"].update(bogus=doc["series"]["ALPHA"].pop("amount")))
DROP_ALPHA_POLL_RECORD = edit_json(lambda doc: doc.update(records=[
    r for r in doc["records"] if (r["candidate"], r["metric"]) != ("ALPHA", "poll")]))
# A series is named by its keys alone; one that names another is refused.
ALPHA_POLL_NAMES_BRAVO = edit_json(lambda doc: doc["series"]["ALPHA"]["poll"].update(candidate="BRAVO"))
# From Python 3.11, date.fromisoformat alone reads this start date as 2019-06-01.
STORE_DATE_NOT_ISO = edit_json(lambda doc: doc["range"].update({"from": "20190601"}))
FITS_DATE_NOT_ISO = edit_json(lambda doc: doc["records"][0].update(start_date="20190601"))
# Stores that decode but cannot be fit: the error names the series, not the file.
HUGE_ALPHA_AMOUNT = edit_json(lambda doc: doc["series"]["ALPHA"]["amount"]["values"].__setitem__(
    slice(0, 2), [1e308, -1e308]))
# json.load alone keeps the last of a repeated key; here that is the right value
STORE_REPEATED_KEY = replace_once('"poll": {', '"poll": null, "poll": {')
FITS_REPEATED_KEY = replace_once('"lambda": ', '"lambda": 0.0, "lambda": ')
# A file another version wrote names the stage that rewrites it.
STORE_VERSION_1 = edit_json(lambda doc: doc.update(schema_version=1))
FITS_VERSION_1 = edit_json(lambda doc: doc.update(schema_version=1))
FITS_REPEATED_RECORD = edit_json(lambda doc: doc["records"].append(doc["records"][0]))
# fit never writes a negative lambda, nor a normalize other than raw or share
FITS_NEGATIVE_LAMBDA = edit_json(lambda doc: doc["records"][0].update({"lambda": -1.0}))
FITS_NORMALIZE_NULL = edit_json(lambda doc: doc.update(normalize=None))
SHARE_OVERFLOW = edit_json(lambda doc: [doc["series"][c]["amount"]["values"].__setitem__(
    slice(0, 2), [1e308, 1e308]) for c in ("ALPHA", "BRAVO")])


def base_flags(fixtures_dir, out_dir):
    return [
        "--from", "2019-06-01",
        "--to", "2019-07-20",
        "--candidates", "ALPHA,BRAVO",
        "--committee-map", str(fixtures_dir / "committee_map.csv"),
        "--fec-file", str(fixtures_dir / "fec_sample.txt"),
        "--poll-csv", str(fixtures_dir / "polls.csv"),
        "--events-csv", str(fixtures_dir / "events.csv"),
        "--out", str(out_dir),
    ]


class TestSynthCommand:
    def test_triangle_is_exact(self, capsys):
        code = main([
            "synth", "--n-days", "61", "--knots", "30", "--slopes", "1,-1",
            "--noise-sd", "0", "--seed", "0",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "date,day,value"
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert len(values) == 61
        assert values[30] == 30.0
        assert values[60] == 0.0

    def test_same_seed_same_bytes(self, capsys):
        args = ["synth", "--n-days", "40", "--knots", "12,25",
                "--slopes", "1,-0.5,2", "--noise-sd", "0.7", "--seed", "7"]
        first = run_main(capsys, args)
        second = run_main(capsys, args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.count("\n") == 41

    def test_inconsistent_knots_exit_2(self, capsys):
        result = run_main(capsys, ["synth", "--n-days", "20", "--knots", "5,9",
                                   "--slopes", "1,-1", "--seed", "0"])
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--noise-sd", "nan"],
            ["--noise-sd", "inf"],
            ["--slopes", "1,nan"],
            ["--slopes", "1,1e308"],
            ["--seed", "-1"],
            ["--start-date", "9999-12-30"],
        ],
        ids=["noise-nan", "noise-inf", "slope-nan", "slopes-overflow", "negative-seed", "past-last-date"],
    )
    def test_bad_values_exit_2(self, capsys, flags):
        result = run_main(capsys, ["synth", "--n-days", "5", "--knots", "2", "--slopes", "1,-1", *flags])
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr
        assert result.stdout == ""


class TestConfigHandling:
    def test_flags_override_config_file(self, tmp_path, fixtures_dir):
        config = tmp_path / "run.conf"
        config.write_text(
            "from = 2019-06-01\n"
            "to = 2019-07-20\n"
            "candidates = ALPHA\n"
            f"committee_map = {fixtures_dir / 'committee_map.csv'}\n"
            f"fec_files = {fixtures_dir / 'fec_sample.txt'}\n"
            f"out = {tmp_path / 'out_from_file'}\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "out_from_flag"
        code = main(["ingest", "--config", str(config), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "store.json").exists()
        assert not (tmp_path / "out_from_file").exists()

    def test_missing_committee_map_exit_2(self, tmp_path, fixtures_dir):
        flags = base_flags(fixtures_dir, tmp_path / "out")
        idx = flags.index("--committee-map")
        flags[idx + 1] = str(tmp_path / "nope.csv")
        assert main(["ingest", *flags]) == 2

    @pytest.mark.parametrize("spelling", ["dot-dot", "symlink"])
    def test_fec_file_listed_twice_exit_2(self, tmp_path, fixtures_dir, capsys, spelling):
        fec_file = fixtures_dir / "fec_sample.txt"
        if spelling == "symlink":
            again = tmp_path / "link.txt"
            again.symlink_to(fec_file)
        else:
            again = fixtures_dir / ".." / fixtures_dir.name / "fec_sample.txt"
        flags = base_flags(fixtures_dir, tmp_path / "out")
        result = run_main(capsys, ["ingest", *flags, "--fec-file", str(again)])
        assert result.returncode == 2, result.stderr
        assert result.stderr == f"error: fec file {again} listed twice\n"
        assert not (tmp_path / "out").exists()

    def test_missing_config_keys_exit_2(self, tmp_path):
        assert main(["ingest", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "key",
        ["eps_gap = 1e-9", "max_iter = 1", "tol_knot = 0.1"],
        ids=["eps_gap", "max_iter", "tol_knot"],
    )
    def test_solver_tolerance_keys_exit_2(self, tmp_path, fixtures_dir, capsys, key):
        config = tmp_path / "run.conf"
        config.write_text(f"from = 2019-06-01\n{key}\n", encoding="utf-8")
        for stage in ("ingest", "fit", "report"):
            capsys.readouterr()
            flags = base_flags(fixtures_dir, tmp_path / "out")
            assert main([stage, "--config", str(config), *flags]) == 2
            assert capsys.readouterr().err.startswith("error: config line 2: unknown key")
        assert not (tmp_path / "out").exists()

    def test_empty_config_value_exit_2(self, tmp_path, fixtures_dir, capsys):
        config = tmp_path / "run.conf"
        config.write_text("from = 2019-06-01\ndf_per_90 =\n", encoding="utf-8")
        for stage in ("ingest", "fit", "report"):
            flags = base_flags(fixtures_dir, tmp_path / "out")
            result = run_main(capsys, [stage, "--config", str(config), *flags])
            assert result.returncode == 2, result.stderr
            assert result.stderr.startswith("error: config line 2: empty value for 'df_per_90'")
            assert "Traceback" not in result.stderr
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--window-days", "x", "error: config 'window_days': bad integer 'x'"),
            ("--window-days", "0", "error: window_days and max_gap_days must be positive"),
            ("--max-gap-days", "-3", "error: window_days and max_gap_days must be positive"),
            ("--out", "", "error: empty value for 'out'"),
            ("--out", " ", "error: empty value for 'out'"),
            ("--candidates", "ALPHA,ALPHA,BRAVO", "error: candidate 'ALPHA' listed twice"),
            ("--df-per-90", "inf", "error: df_per_90 must be finite and > 0, got inf"),
            ("--df-per-90", "nan", "error: df_per_90 must be finite and > 0, got nan"),
            ("--df-per-90", "0", "error: df_per_90 must be finite and > 0, got 0.0"),
            ("--df-per-90", "-1", "error: df_per_90 must be finite and > 0, got -1.0"),
            ("--normalize", "bogus", "error: normalize must be 'raw' or 'share', got 'bogus'"),
        ],
        ids=["window-days", "window-days-zero", "max-gap-days-negative", "empty-out", "blank-out", "duplicate-candidate",
             "df-per-90-inf", "df-per-90-nan", "df-per-90-zero", "df-per-90-negative",
             "normalize"],
    )
    def test_bad_flag_value_exit_2(self, tmp_path, fixtures_dir, capsys, flag, value, message):
        flags = base_flags(fixtures_dir, tmp_path / "out")
        for stage in ("ingest", "fit", "report"):
            result = run_main(capsys, [stage, *flags, flag, value])
            assert result.returncode == 2, result.stderr
            assert result.stderr.startswith(message)
            assert "Traceback" not in result.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("missing", ["--committee-map", "--fec-file"])
    def test_ingest_without_committee_map_or_fec_file_exit_2(self, tmp_path, fixtures_dir, capsys, missing):
        flags = base_flags(fixtures_dir, tmp_path / "out")
        at = flags.index(missing)
        del flags[at : at + 2]
        result = run_main(capsys, ["ingest", *flags])
        assert result.returncode == 2, result.stderr
        assert result.stderr == "error: ingest needs committee_map and at least one fec_files entry\n"
        assert not (tmp_path / "out").exists()

    def test_every_config_key_has_a_flag(self):
        stages = next(
            action for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ).choices
        for stage in ("ingest", "fit", "report"):
            flags = {action.dest: action.option_strings for action in stages[stage]._actions}
            for key in config.KEYS:
                if key == "fec_files":
                    assert flags["fec_file"] == ["--fec-file"], stage
                else:
                    assert flags[key] == ["--" + key.replace("_", "-")], (stage, key)

    def test_removed_or_abbreviated_flag_exit_2(self, pipeline, fixtures_dir, tmp_path, capsys):
        # flags are spelled in full: with prefixes on, argparse read --cand as
        # --candidates and --df, the removed df override, as --df-per-90
        out_dir = tmp_path / "run"
        out_dir.mkdir()
        for name in ("store.json", "fits.json", "report.json"):
            (out_dir / name).write_bytes((pipeline[0] / name).read_bytes())
        flags = base_flags(fixtures_dir, out_dir)
        runs = [
            [stage, *flags, *extra]
            for stage in ("ingest", "fit", "report")
            for extra in (["--df", "12"], ["--cand", "ALPHA,BRAVO"], ["--window", "3"])
        ]
        runs.append(["synth", "--n-days", "5", "--knots", "2", "--slopes", "1,-1", "--see", "3"])
        for args in runs:
            result = run_main(capsys, args)
            assert result.returncode == 2, args
            assert "error: unrecognized arguments: " in result.stderr, args
            assert result.stdout == "", args
        for name in ("store.json", "fits.json", "report.json"):
            assert (out_dir / name).read_bytes() == (pipeline[0] / name).read_bytes(), name

    def test_overflowing_df_target_exit_2(self, tmp_path, fixtures_dir, capsys):
        flags = base_flags(fixtures_dir, tmp_path / "out")
        assert main(["ingest", *flags]) == 0
        result = run_main(capsys, ["fit", *flags, "--df-per-90", "1e308"])
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: df target 1e+308 * 50 / 90 is not finite")
        assert not (tmp_path / "out" / "fits.json").exists()


def assert_matches_golden(got, want, abs_tol, path="$"):
    """Equal JSON, floats to a relative 1e-9 (or ``abs_tol``), all else exactly."""
    if isinstance(want, float):
        assert isinstance(got, (int, float)), path
        assert got == pytest.approx(want, rel=1e-9, abs=abs_tol), path
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            assert_matches_golden(got[key], want[key], abs_tol, f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches_golden(g, w, abs_tol, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, path


@pytest.fixture(scope="module")
def pipeline(fixtures_dir, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("pipeline")
    flags = base_flags(fixtures_dir, out_dir)
    codes = [
        main(["ingest", *flags]),
        main(["fit", *flags]),
        main(["report", *flags]),
    ]
    return out_dir, codes


class TestPipeline:

    def test_exit_codes_clean(self, pipeline):
        _, codes = pipeline
        assert codes == [0, 0, 0]

    def test_store_contents(self, pipeline):
        out_dir, _ = pipeline
        store = json.loads((out_dir / "store.json").read_text())
        assert store["schema_version"] == SCHEMA_VERSION
        assert sorted(store) == ["metadata", "range", "schema_version", "series"]
        assert sorted(store["series"]) == ["ALPHA", "BRAVO"]
        for candidate in ("ALPHA", "BRAVO"):
            metrics = store["series"][candidate]
            assert sorted(metrics) == [
                "amount", "donors", "new_donor_amount", "new_donors", "poll",
            ]
            for obj in metrics.values():
                assert list(obj) == ["values"]
                assert len(obj["values"]) == 50
        summary = json.loads((out_dir / "ingest_summary.json").read_text())
        assert summary["parsed"] > 0
        assert summary["malformed"] == 0
        assert summary["unmapped"] == 1

    def test_ingest_summary_file(self, pipeline):
        out_dir, _ = pipeline
        summary = json.loads((out_dir / "ingest_summary.json").read_text())
        assert set(summary) == {"lines_total", "parsed", "malformed", "unmapped"}
        assert summary["lines_total"] == summary["parsed"] + summary["malformed"] + summary["unmapped"]

    @pytest.mark.parametrize("name", ["store.json", "ingest_summary.json"])
    def test_ingest_outputs_match_golden_bytes(self, pipeline, fixtures_dir, name):
        out_dir, _ = pipeline
        golden = fixtures_dir / "golden" / name
        assert (out_dir / name).read_bytes() == golden.read_bytes()

    def test_fits_match_golden(self, pipeline, fixtures_dir):
        out_dir, _ = pipeline
        got = json.loads((out_dir / "fits.json").read_text())
        want = json.loads((fixtures_dir / "golden" / "fits.json").read_text())
        assert len(got["records"]) == len(want["records"])
        for g, w in zip(got["records"], want["records"]):
            # values near zero are rounding: tolerate 1e-9 of the series' scale,
            # and gaps to the certificate's own tolerance 1e-8 * 0.5 * ||y||^2
            observed = np.asarray(w["observed"])
            eps_gap = 1e-8 * 0.5 * float(observed @ observed)
            assert g.pop("duality_gap") == pytest.approx(w.pop("duality_gap"), abs=eps_gap)
            assert_matches_golden(g, w, 1e-9 * float(np.max(np.abs(observed))))
        got.pop("records"), want.pop("records")
        assert got == want

    def test_report_matches_golden(self, pipeline, fixtures_dir):
        out_dir, _ = pipeline
        got = json.loads((out_dir / "report.json").read_text())
        want = json.loads((fixtures_dir / "golden" / "report.json").read_text())
        fits = json.loads((fixtures_dir / "golden" / "fits.json").read_text())["records"]
        scale = max(max(abs(v) for v in record["observed"]) for record in fits)
        assert_matches_golden(got, want, 1e-9 * scale)

    def test_fec_file_flag_path_with_comma(self, pipeline, fixtures_dir, tmp_path):
        comma_dir = tmp_path / "c,d"
        comma_dir.mkdir()
        fec_file = comma_dir / "fec_sample.txt"
        fec_file.write_bytes((fixtures_dir / "fec_sample.txt").read_bytes())
        flags = base_flags(fixtures_dir, tmp_path / "out")
        flags[flags.index("--fec-file") + 1] = str(fec_file)
        assert main(["ingest", *flags]) == 0
        plain = (pipeline[0] / "store.json").read_bytes()
        assert (tmp_path / "out" / "store.json").read_bytes() == plain

    def test_fits_records(self, pipeline):
        out_dir, _ = pipeline
        fits = json.loads((out_dir / "fits.json").read_text())
        assert len(fits["records"]) == 10  # 2 candidates x 5 metrics
        for record in fits["records"]:
            assert record["df"] == len(record["knots"]) + 2
            assert len(record["fitted"]) == 50
            assert record["converged"] is True
            for segment in record["segments"]:
                assert segment["start"] <= segment["end"]

    def test_fits_long_csv(self, pipeline):
        out_dir, _ = pipeline
        lines = (out_dir / "fits_long.csv").read_text().strip().splitlines()
        assert lines[0] == "date,candidate,metric,observed,fitted"
        assert len(lines) == 1 + 10 * 50

    @pytest.mark.parametrize("normalize", ["raw", "share"])
    def test_fits_long_csv_matches_records(self, fixtures_dir, tmp_path, normalize):
        out_dir = tmp_path / normalize
        flags = base_flags(fixtures_dir, out_dir) + ["--normalize", normalize]
        assert main(["ingest", *flags]) == 0
        assert main(["fit", *flags]) == 0
        records = json.loads((out_dir / "fits.json").read_text())["records"]
        want = [["date", "candidate", "metric", "observed", "fitted"]]
        for record in records:
            start = date.fromisoformat(record["start_date"])
            for i, (observed, fitted) in enumerate(zip(record["observed"], record["fitted"])):
                day = (start + timedelta(days=i)).isoformat()
                want.append([day, record["candidate"], record["metric"], repr(observed), repr(fitted)])
        with open(out_dir / "fits_long.csv", newline="", encoding="utf-8") as handle:
            assert list(csv.reader(handle)) == want

    def test_report_structure_and_schema(self, pipeline):
        out_dir, _ = pipeline
        report = json.loads((out_dir / "report.json").read_text())
        assert validate_report(report) == []
        jsonschema = pytest.importorskip("jsonschema")
        schema_path = (
            Path(__file__).parent.parent
            / "src" / "campaigntrends" / "schemas" / "report.schema.json"
        )
        schema = json.loads(schema_path.read_text())
        jsonschema.validate(report, schema)
        assert len(report["series"]) == 10
        assert {e["label"] for e in report["events"]} == {"first debate", "rally"}
        assert len(report["lead_lag"]) == 8  # 2 candidates x 4 donation metrics

    def test_report_round_trips(self, pipeline):
        out_dir, _ = pipeline
        text = (out_dir / "report.json").read_text()
        report = json.loads(text)
        again = json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert again == text

    def test_share_mode_runs(self, fixtures_dir, tmp_path):
        out_dir = tmp_path / "share"
        flags = base_flags(fixtures_dir, out_dir) + ["--normalize", "share"]
        assert main(["ingest", *flags]) == 0
        assert main(["fit", *flags]) == 0
        assert main(["report", *flags]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert validate_report(report) == []

    def test_df_override_two_forces_straight_lines(self, fixtures_dir, tmp_path):
        out_dir = tmp_path / "df2"
        # df_per_90 = 90 * 2 / 50 is the df target 2 on the 50-day range
        flags = base_flags(fixtures_dir, out_dir) + ["--df-per-90", str(90 * 2 / 50)]
        assert main(["ingest", *flags]) == 0
        assert main(["fit", *flags]) == 0
        fits = json.loads((out_dir / "fits.json").read_text())
        for record in fits["records"]:
            assert record["df"] == 2
            assert record["knots"] == []
            assert len(record["segments"]) == 1

    def test_fit_without_store_exit_2(self, fixtures_dir, tmp_path):
        flags = base_flags(fixtures_dir, tmp_path / "nothing")
        assert main(["fit", *flags]) == 2

    def test_report_normalize_mismatch_exit_2(self, fixtures_dir, tmp_path):
        out_dir = tmp_path / "mismatch"
        flags = base_flags(fixtures_dir, out_dir)
        assert main(["ingest", *flags]) == 0
        assert main(["fit", *flags]) == 0
        assert main(["report", *flags, "--normalize", "share"]) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--from", "2019-06-02"],
            ["--to", "2019-07-19"],
            ["--from", "2018-01-01", "--to", "2018-02-01", "--candidates", "ZULU"],
            ["--candidates", "ALPHA"],
            ["--candidates", "ALPHA,BRAVO,ZULU"],
        ],
        ids=["from", "to", "range-and-candidates", "fewer-candidates", "more-candidates"],
    )
    def test_report_flag_mismatch_exit_2(self, pipeline, fixtures_dir, capsys, flags):
        out_dir, _ = pipeline
        before = (out_dir / "report.json").read_bytes()
        capsys.readouterr()
        assert main(["report", *base_flags(fixtures_dir, out_dir), *flags]) == 2
        assert capsys.readouterr().err.startswith("error: fits ")
        assert (out_dir / "report.json").read_bytes() == before

    @pytest.mark.parametrize(
        "flags",
        [
            ["--from", "2019-06-02"],
            ["--to", "2019-07-19"],
            ["--from", "2018-01-01", "--to", "2018-02-01", "--candidates", "ZULU"],
            ["--candidates", "ALPHA"],
            ["--candidates", "ALPHA,BRAVO,ZULU"],
        ],
        ids=["from", "to", "range-and-candidates", "fewer-candidates", "more-candidates"],
    )
    def test_fit_flag_mismatch_exit_2(self, pipeline, fixtures_dir, capsys, flags):
        out_dir, _ = pipeline
        before = (out_dir / "fits.json").read_bytes()
        capsys.readouterr()
        assert main(["fit", *base_flags(fixtures_dir, out_dir), *flags]) == 2
        assert capsys.readouterr().err.startswith("error: store ")
        assert (out_dir / "fits.json").read_bytes() == before

    def test_utf8_bom_inputs_match_plain_run(self, pipeline, fixtures_dir, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with a byte-order mark
        bom = "\ufeff"
        inputs = tmp_path / "bom_inputs"
        inputs.mkdir()
        for name in ("committee_map.csv", "polls.csv", "events.csv"):
            text = (fixtures_dir / name).read_text(encoding="utf-8")
            (inputs / name).write_text(bom + text, encoding="utf-8")
        out_dir = tmp_path / "bom_out"
        config_file = tmp_path / "run.conf"
        config_file.write_text(
            bom + "from = 2019-06-01\n"
            "to = 2019-07-20\n"
            "candidates = ALPHA,BRAVO\n"
            f"committee_map = {inputs / 'committee_map.csv'}\n"
            f"fec_files = {fixtures_dir / 'fec_sample.txt'}\n"
            f"poll_csv = {inputs / 'polls.csv'}\n"
            f"events_csv = {inputs / 'events.csv'}\n"
            f"out = {out_dir}\n",
            encoding="utf-8",
        )
        codes = [main([stage, "--config", str(config_file)]) for stage in ("ingest", "fit", "report")]
        assert codes == pipeline[1]
        for name in ("store.json", "report.json"):
            assert (out_dir / name).read_bytes() == (pipeline[0] / name).read_bytes(), name

    def test_report_without_fits_exit_2(self, fixtures_dir, tmp_path):
        out_dir = tmp_path / "only_store"
        flags = base_flags(fixtures_dir, out_dir)
        assert main(["ingest", *flags]) == 0
        assert main(["report", *flags]) == 2

    @pytest.mark.parametrize(
        "stage, upstream, output, damage",
        [
            ("fit", "store.json", "fits.json", lambda text: text[: len(text) // 2]),
            ("fit", "store.json", "fits.json",
             lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "range"})),
            ("fit", "store.json", "fits.json",
             lambda text: text.replace('"values": [', '"values": "x", "was": [', 1)),
            ("report", "fits.json", "report.json", lambda text: text[: len(text) // 2]),
            ("report", "fits.json", "report.json", lambda text: "[]"),
            ("report", "fits.json", "report.json",
             lambda text: text.replace('"slope": ', '"slope": Infinity, "was": ', 1)),
            ("report", "fits.json", "report.json",
             lambda text: text.replace('"fitted": [', '"fitted": [NaN, ', 1).replace(
                 '"observed": [', '"observed": [0.0, ', 1)),
            ("report", "fits.json", "report.json",
             lambda text: text.replace('"observed": [', '"observed": [-Infinity, ', 1).replace(
                 '"fitted": [', '"fitted": [0.0, ', 1)),
            ("report", "fits.json", "report.json",
             lambda text: text.replace('"lambda": ', '"lambda": NaN, "was": ', 1)),
            ("report", "fits.json", "report.json",
             lambda text: text.replace('"duality_gap": ', '"duality_gap": Infinity, "was": ', 1)),
            ("report", "fits.json", "report.json",
             lambda text: text.replace('"tol_knot": ', '"tol_knot": Infinity, "was": ', 1)),
            ("report", "fits.json", "report.json",
             lambda text: text.replace('"slope": ', '"slope": "1.5", "was": ', 1)),
            ("report", "fits.json", "report.json",
             lambda text: text.replace('"fitted": [', '"fitted": ["1.5", ', 1).replace(
                 '"observed": [', '"observed": [0.0, ', 1)),
            ("report", "fits.json", "report.json",
             lambda text: text.replace('"df": ', '"df": true, "was": ', 1)),
            ("report", "fits.json", "report.json",
             lambda text: text.replace('"converged": ', '"converged": "yes", "was": ', 1)),
            ("fit", "store.json", "fits.json", HUGE_ALPHA_AMOUNT),
            ("report", "fits.json", "report.json", edit_json(lambda doc: doc["records"][0].update(observed=[3.0]))),
            ("report", "fits.json", "report.json", edit_json(lambda doc: doc["records"][0].update(knots=[]))),
            ("report", "fits.json", "report.json",
             edit_json(lambda doc: doc["records"][0].update(df=float(doc["records"][0]["df"])))),
            ("fit", "store.json", "fits.json",
             edit_json(lambda doc: doc["series"]["ALPHA"]["amount"]["values"].__setitem__(0, 10**400))),
            ("report", "fits.json", "report.json", edit_json(lambda doc: doc["records"][0].update({"lambda": 10**400}))),
            ("fit --normalize share", "store.json", "fits.json", SHARE_OVERFLOW),
            ("fit", "store.json", "fits.json", SHORT_ALPHA_POLL),
            ("fit", "store.json", "fits.json", DROP_BRAVO_SERIES),
            ("fit", "store.json", "fits.json", STORE_DATE_NOT_ISO),
            ("report", "fits.json", "report.json", FITS_DATE_NOT_ISO),
            ("fit", "store.json", "fits.json", edit_json(lambda doc: doc.update(schema_version=True))),
            ("report", "fits.json", "report.json",
             edit_json(lambda doc: doc.update(schema_version=float(SCHEMA_VERSION)))),
            ("fit", "store.json", "fits.json",
             edit_json(lambda doc: doc["series"]["ALPHA"]["poll"]["values"].__setitem__(0, float("nan")))),
            ("fit", "store.json", "fits.json",
             edit_json(lambda doc: doc["series"]["ALPHA"]["amount"].update(values=[1.0, 2.0]))),
            ("report", "fits.json", "report.json", FITS_REPEATED_RECORD),
            ("fit", "store.json", "fits.json", STORE_REPEATED_KEY),
            ("report", "fits.json", "report.json", FITS_REPEATED_KEY),
            ("fit", "store.json", "fits.json", RENAME_ALPHA_AMOUNT),
            ("report", "fits.json", "report.json", DROP_ALPHA_POLL_RECORD),
            ("fit", "store.json", "fits.json", ALPHA_POLL_NAMES_BRAVO),
            ("fit", "store.json", "fits.json", STORE_VERSION_1),
            ("report", "fits.json", "report.json", FITS_VERSION_1),
            ("report", "fits.json", "report.json", FITS_NEGATIVE_LAMBDA),
            ("report", "fits.json", "report.json", edit_json(lambda doc: doc.pop("normalize"))),
            ("report", "fits.json", "report.json", FITS_NORMALIZE_NULL),
        ],
        ids=["truncated-store", "store-without-range", "store-values-not-numbers", "truncated-fits",
             "fits-not-an-object", "fits-infinite-slope", "fits-nan-fitted", "fits-infinite-observed",
             "fits-nan-lambda", "fits-infinite-gap", "fits-infinite-tol-knot", "fits-string-slope",
             "fits-string-fitted", "fits-bool-df", "fits-string-converged", "store-huge-values",
             "fits-one-observed-value", "fits-knots-emptied", "fits-float-df", "store-huge-integer",
             "fits-huge-integer-lambda", "store-share-overflow", "store-series-span-shifted",
             "store-series-dropped", "store-date-not-yyyy-mm-dd", "fits-date-not-yyyy-mm-dd",
             "store-version-true", "fits-version-float", "store-nan-value", "store-two-values",
             "fits-repeated-record", "store-repeated-key", "fits-repeated-key", "store-metric-renamed",
             "fits-poll-record-dropped", "store-series-names-another", "store-version-1",
             "fits-version-1", "fits-negative-lambda", "fits-normalize-missing", "fits-normalize-null"],
    )
    def test_damaged_upstream_exit_2(self, pipeline, fixtures_dir, tmp_path, capsys, stage, upstream, output, damage):
        out_dir = tmp_path / "damaged"
        out_dir.mkdir()
        for name in ("store.json", "fits.json", "report.json"):
            (out_dir / name).write_bytes((pipeline[0] / name).read_bytes())
        (out_dir / upstream).write_text(damage((out_dir / upstream).read_text()))
        before = (out_dir / output).read_bytes()
        result = run_main(capsys, [*stage.split(), *base_flags(fixtures_dir, out_dir)])
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr
        if damage in (SHORT_ALPHA_POLL, DROP_BRAVO_SERIES):
            assert "re-run ingest" in result.stderr
        elif damage is HUGE_ALPHA_AMOUNT:
            assert result.stderr.startswith("error: ALPHA/amount: input series is too large")
        elif damage is SHARE_OVERFLOW:
            assert result.stderr.startswith("error: amount: the daily total on 2019-06-01 is too large")
        else:
            assert str(out_dir / upstream) in result.stderr
        if damage in (STORE_DATE_NOT_ISO, FITS_DATE_NOT_ISO):
            assert "bad date" in result.stderr
        elif damage is FITS_REPEATED_RECORD:
            assert "ALPHA/amount has more than one record" in result.stderr
        elif damage in (STORE_REPEATED_KEY, FITS_REPEATED_KEY):
            assert "repeats the key" in result.stderr
        elif damage is RENAME_ALPHA_AMOUNT:
            assert "re-run ingest" in result.stderr
        elif damage is DROP_ALPHA_POLL_RECORD:
            assert "re-run fit" in result.stderr
        elif damage is ALPHA_POLL_NAMES_BRAVO:
            assert "ALPHA/poll" in result.stderr
        elif damage is STORE_VERSION_1:
            assert "schema_version 1 is not supported" in result.stderr
            assert "re-run ingest" in result.stderr
        elif damage is FITS_VERSION_1:
            assert "schema_version 1 is not supported" in result.stderr
            assert "re-run fit" in result.stderr
        elif damage is FITS_NEGATIVE_LAMBDA:
            assert "negative lambda" in result.stderr
        elif damage is FITS_NORMALIZE_NULL:
            assert result.stderr.endswith("; re-run fit\n")
        assert result.stderr.count("\n") == 1
        assert (out_dir / output).read_bytes() == before


class TestReportReadsFits:
    """report decodes fits.json and never re-solves or reads store.json."""

    def test_df_warnings_reach_report(self, fixtures_dir, tmp_path):
        # df target 48 (df_per_90 = 90 * 48 / 50) on a 50-day span is above every df the grid reaches
        out_dir = tmp_path / "df48"
        flags = base_flags(fixtures_dir, out_dir) + ["--df-per-90", str(90 * 48 / 50)]
        assert main(["ingest", *flags]) == 0
        assert main(["fit", *flags]) == 1
        assert main(["report", *flags]) == 1
        fits = json.loads((out_dir / "fits.json").read_text())["records"]
        report = json.loads((out_dir / "report.json").read_text())["series"]
        assert len(report) == len(fits) == 10
        changepoint_fields = {f.name for f in dataclasses.fields(Changepoint)}
        for record, entry in zip(fits, report):
            assert (entry["candidate"], entry["metric"]) == (record["candidate"], record["metric"])
            assert entry["df"] == record["df"]
            assert [cp["date"] for cp in entry["changepoints"]] == record["knots"]
            assert all(set(cp) == changepoint_fields for cp in entry["changepoints"])
            assert entry["converged"] == record["converged"]
            assert entry["df_warning"] == record["df_warning"]
        assert all(record["df_warning"] for record in fits)

    def test_each_warned_record_gets_one_stderr_line(self, fixtures_dir, tmp_path, capsys):
        out_dir = tmp_path / "df48"
        flags = base_flags(fixtures_dir, out_dir) + ["--df-per-90", str(90 * 48 / 50)]
        assert main(["ingest", *flags]) == 0
        capsys.readouterr()
        assert main(["fit", *flags]) == 1
        fit_err = capsys.readouterr().err.splitlines()
        records = json.loads((out_dir / "fits.json").read_text())["records"]
        assert all(record["df_warning"] and record["converged"] for record in records)
        want = [
            f"warning: {record['candidate']}/{record['metric']}: df target 48 is above every df "
            f"on the lambda grid; kept df {record['df']}"
            for record in records
        ]
        assert fit_err == want
        assert main(["report", *flags]) == 1
        assert capsys.readouterr().err.splitlines() == want

    def test_fit_warning_names_each_problem(self):
        fit = fit_with_target_df(np.array([0.0, 1.0, 4.0, 2.0, 5.0, 3.0, 6.0]), 3)
        assert _fit_warning("ALPHA", "poll", fit, 3) is None
        stalled = dataclasses.replace(fit, converged=False, duality_gap=0.25, df_warning=True)
        assert _fit_warning("ALPHA", "poll", stalled, 9) == (
            "warning: ALPHA/poll: not converged (duality gap 0.25); "
            f"df target 9 is above every df on the lambda grid; kept df {fit.df}"
        )

    def test_share_with_one_candidate_exit_2(self, fixtures_dir, tmp_path, capsys):
        out_dir = tmp_path / "one"
        flags = base_flags(fixtures_dir, out_dir) + ["--candidates", "ALPHA"]
        assert main(["ingest", *flags]) == 0
        capsys.readouterr()
        assert main(["fit", *flags, "--normalize", "share"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: normalize = share needs at least two candidates")
        assert not (out_dir / "fits.json").exists()

    def test_report_without_store_is_unchanged(self, fixtures_dir, tmp_path):
        out_dir = tmp_path / "no_store"
        flags = base_flags(fixtures_dir, out_dir)
        assert main(["ingest", *flags]) == 0
        assert main(["fit", *flags]) == 0
        assert main(["report", *flags]) == 0
        with_store = (out_dir / "report.json").read_bytes()
        (out_dir / "store.json").unlink()
        (out_dir / "report.json").unlink()
        assert main(["report", *flags]) == 0
        assert (out_dir / "report.json").read_bytes() == with_store

    @pytest.mark.parametrize("target", [12, 80])
    def test_record_round_trip(self, target):
        y, _ = bendy_signal(seed=31, n=90, n_knots=10)
        ts = TimeSeries(date(2019, 6, 1), y, "amount", "ALPHA")
        fit = fit_with_target_df(ts.values, target)
        assert fit.df_warning == (target == 80)
        record = json.loads(json.dumps(fit_to_record("ALPHA", "amount", ts, fit, target)))
        candidate, metric, back_target, start, back = fit_from_record(record)
        assert (candidate, metric, back_target, start) == ("ALPHA", "amount", target, ts.start_date)
        for f in dataclasses.fields(fit):
            if f.name == "dual":
                scale = float(np.max(np.abs(fit.dual)))
                assert float(np.max(np.abs(back.dual - fit.dual))) <= 1e-8 * scale
            elif f.name == "fitted":
                assert np.array_equal(back.fitted, fit.fitted)
            else:
                assert getattr(back, f.name) == getattr(fit, f.name), f.name

    def test_decoded_dual_reproduces_residual(self, fixtures_dir):
        records = json.loads((fixtures_dir / "golden" / "fits.json").read_text())["records"]
        for record in records:
            *_, fit = fit_from_record(record)
            observed = np.asarray(record["observed"], dtype=float)
            label = (record["candidate"], record["metric"])
            assert np.all(np.abs(fit.dual) <= fit.lam), label
            # D^T u as a full convolution with the stencil [1, -2, 1]
            residual = observed - fit.fitted - np.convolve(fit.dual, [1.0, -2.0, 1.0])
            assert np.max(np.abs(residual)) <= 1e-9 * np.max(np.abs(observed)), label

    def test_record_round_trip_keeps_solver_state(self):
        y, _ = bendy_signal(seed=32, n=40, n_knots=3)
        ts = TimeSeries(date(2019, 6, 1), y)
        fit = dataclasses.replace(solve_tf(y, 0.5), converged=False, iterations=123)
        *_, back = fit_from_record(json.loads(json.dumps(fit_to_record("A", "m", ts, fit, 5))))
        assert (back.converged, back.iterations, back.tol_knot) == (False, 123, fit.tol_knot)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda r: r.pop("df"),
            lambda r: r.pop("tol_knot"),
            lambda r: r.update(start_date="2019-13-01"),
            lambda r: r.update(knots=["not a date"]),
            lambda r: r.update({"lambda": int(r["lambda"])}),
            lambda r: r.update(candidate=5),
        ],
        ids=["missing-df", "missing-tol_knot", "bad-start-date", "bad-knot-date", "integer-lambda",
             "integer-candidate"],
    )
    def test_malformed_record_exit_2(self, fixtures_dir, tmp_path, capsys, damage):
        out_dir = tmp_path / "damaged"
        flags = base_flags(fixtures_dir, out_dir)
        assert main(["ingest", *flags]) == 0
        assert main(["fit", *flags]) == 0
        fits_path = out_dir / "fits.json"
        fits = json.loads(fits_path.read_text())
        damage(fits["records"][3])
        fits_path.write_text(json.dumps(fits))
        capsys.readouterr()
        assert main(["report", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed fit record")
        assert not (out_dir / "report.json").exists()

    def test_cli_import_skips_scipy_optimize(self):
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, campaigntrends.cli; print('scipy.optimize' in sys.modules)"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_ingest_and_report_never_import_scipy(self, fixtures_dir, tmp_path):
        flags = base_flags(fixtures_dir, tmp_path / "out")
        codes, loaded = run_stages_fresh(["ingest", "fit"], flags)
        assert codes == [0, 0]
        # the fit process solves, loading LAPACK's wrappers without scipy.linalg
        assert "scipy.linalg._flapack" in loaded
        assert "scipy.linalg" not in loaded and "scipy.optimize" not in loaded
        codes, loaded = run_stages_fresh(["ingest", "report"], flags)
        assert codes == [0, 0]
        assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


class TestWhatEachProcessLoads:
    """Each process loads only the modules it runs; the package import loads none."""

    NOT_IN_FIT_OR_REPORT = {
        "campaigntrends.fec", "campaigntrends.polls", "campaigntrends.synth", "statistics", "jsonschema",
    }

    def test_package_import_loads_no_module(self):
        loaded = modules_after("import campaigntrends")
        assert {m for m in loaded if m.startswith("campaigntrends.")} == set()
        assert "numpy" not in loaded

    def test_submodule_resolves_after_package_import(self):
        loaded = modules_after("import campaigntrends\nassert campaigntrends.fec.parse_fec_file")
        assert "campaigntrends.fec" in loaded

    @pytest.mark.parametrize("stage", ["fit", "report"])
    def test_stage_skips_ingest_modules(self, fixtures_dir, tmp_path, stage):
        flags = base_flags(fixtures_dir, tmp_path / "out")
        assert main(["ingest", *flags]) == 0
        if stage == "report":
            assert main(["fit", *flags]) == 0
        codes, loaded = run_stages_fresh([stage], flags)
        assert codes == [0]
        assert self.NOT_IN_FIT_OR_REPORT.isdisjoint(loaded)

    def test_worker_import_line_loads_only_what_it_parses_with(self):
        imports = [part for part in fec._WORKER_CODE.split("; ") if part.startswith(("import ", "from "))]
        loaded = modules_after("; ".join(imports))
        assert "campaigntrends.fec" in loaded
        for name in ("analysis", "cli", "config", "polls", "synth", "trendfilter"):
            assert f"campaigntrends.{name}" not in loaded

    def test_public_names_are_their_modules_objects(self):
        import campaigntrends

        assert set(campaigntrends.__all__) <= set(dir(campaigntrends))
        for name in campaigntrends.__all__:
            value = getattr(campaigntrends, name)
            assert value is getattr(importlib.import_module(value.__module__), name), name


class TestWarningPaths:
    def test_empty_fec_file_warns(self, tmp_path, fixtures_dir):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        out_dir = tmp_path / "out"
        code = main([
            "ingest",
            "--from", "2019-06-01", "--to", "2019-06-10",
            "--candidates", "ALPHA",
            "--committee-map", str(fixtures_dir / "committee_map.csv"),
            "--fec-file", str(empty),
            "--out", str(out_dir),
        ])
        assert code == 1
        store = json.loads((out_dir / "store.json").read_text())
        values = store["series"]["ALPHA"]["donors"]["values"]
        assert values == [0.0] * 10

    def test_malformed_lines_warn(self, tmp_path, fixtures_dir):
        dirty = tmp_path / "dirty.txt"
        dirty.write_text(
            "C00000101|SMITH, JOHN|22903|06052019|50\nnot a record\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "out"
        code = main([
            "ingest",
            "--from", "2019-06-01", "--to", "2019-06-10",
            "--candidates", "ALPHA",
            "--committee-map", str(fixtures_dir / "committee_map.csv"),
            "--fec-file", str(dirty),
            "--out", str(out_dir),
        ])
        assert code == 1
        summary = json.loads((out_dir / "ingest_summary.json").read_text())
        assert summary["malformed"] == 1
        assert summary["parsed"] == 1

    @pytest.mark.parametrize("amount", ["inf", "-inf", "1e400", "nan", "2e9"])
    def test_non_finite_amount_warns_without_traceback(self, tmp_path, fixtures_dir, capsys, amount):
        dirty = tmp_path / "dirty.txt"
        dirty.write_text(
            "C00000101|SMITH, JOHN|22903|06052019|50\n"
            f"C00000101|SMITH, JOHN|22903|06062019|{amount}\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "out"
        result = run_main(capsys, [
            "ingest",
            "--from", "2019-06-01", "--to", "2019-06-10",
            "--candidates", "ALPHA",
            "--committee-map", str(fixtures_dir / "committee_map.csv"),
            "--fec-file", str(dirty),
            "--out", str(out_dir),
        ])
        assert result.returncode == 1
        assert "warning: 1 malformed lines skipped" in result.stderr
        assert "Traceback" not in result.stderr
        summary = json.loads((out_dir / "ingest_summary.json").read_text())
        assert summary["malformed"] == 1
        assert summary["parsed"] == 1


def no_fec_line(*args):
    raise AssertionError("ingest read an FEC line before it rejected a small input")


class TestInputFiles:
    """Each user input reaches its stage through one reader; a bad one exits 2 first."""

    def run_with_input(self, pipeline, fixtures_dir, tmp_path, capsys, monkeypatch, flag, path):
        """Run the stage that reads ``flag``'s file with that flag set, or added, to ``path``.

        ingest runs with ``fec.accumulate_fec_path`` made to fail, so it must
        stop before any FEC line; report runs on copies of the pipeline's
        store.json and fits.json. Returns the result and the file the stage
        would have written.
        """
        out_dir = tmp_path / "out"
        flags = base_flags(fixtures_dir, out_dir)
        if flag in flags:
            flags[flags.index(flag) + 1] = str(path)
        else:
            flags += [flag, str(path)]
        if flag == "--events-csv":
            out_dir.mkdir()
            for name in ("store.json", "fits.json"):
                (out_dir / name).write_bytes((pipeline[0] / name).read_bytes())
            return run_main(capsys, ["report", *flags]), out_dir / "report.json"
        monkeypatch.setattr(fec, "accumulate_fec_path", no_fec_line)
        return run_main(capsys, ["ingest", *flags]), out_dir / "store.json"

    @pytest.mark.parametrize("flag", ["--committee-map", "--fec-file", "--poll-csv", "--events-csv", "--config"])
    def test_missing_input_exit_2(self, pipeline, fixtures_dir, tmp_path, capsys, monkeypatch, flag):
        missing = tmp_path / "missing.csv"
        result, output = self.run_with_input(
            pipeline, fixtures_dir, tmp_path, capsys, monkeypatch, flag, missing)
        assert result.returncode == 2, result.stderr
        assert result.stderr == f"error: input file not found: {missing}\n"
        assert not output.exists()

    @pytest.mark.parametrize("flag", ["--committee-map", "--poll-csv", "--events-csv"])
    @pytest.mark.parametrize(
        "content, message",
        [(b"when,who\n", "must have header"), (b"date,label\n\xff\n", "is not valid UTF-8")],
        ids=["bad-header", "not-utf8"],
    )
    def test_bad_input_csv_exit_2(
        self, pipeline, fixtures_dir, tmp_path, capsys, monkeypatch, flag, content, message
    ):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        result, output = self.run_with_input(
            pipeline, fixtures_dir, tmp_path, capsys, monkeypatch, flag, bad)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: ") and message in result.stderr
        assert result.stderr.count("\n") == 1
        assert not output.exists()

    # From Python 3.11, date.fromisoformat alone reads both of these as 2019-06-01.
    @pytest.mark.parametrize("text", ["20190601", "2019-W22-6"])
    @pytest.mark.parametrize("where", ["--from", "--to", "--config", "--poll-csv", "--events-csv", "--start-date"])
    def test_date_not_yyyy_mm_dd_exit_2(self, pipeline, fixtures_dir, tmp_path, capsys, monkeypatch, where, text):
        output = tmp_path / "out" / "store.json"
        if where in ("--from", "--to"):
            result, output = self.run_with_input(pipeline, fixtures_dir, tmp_path, capsys, monkeypatch, where, text)
        elif where == "--config":  # alone, since a flag would override the file's value
            config = tmp_path / "run.conf"
            config.write_text(
                f"from = {text}\nto = 2019-07-20\ncandidates = ALPHA\n"
                f"committee_map = {fixtures_dir / 'committee_map.csv'}\n"
                f"fec_files = {fixtures_dir / 'fec_sample.txt'}\n",
                encoding="utf-8",
            )
            monkeypatch.setattr(fec, "accumulate_fec_path", no_fec_line)
            result = run_main(capsys, ["ingest", "--config", str(config), "--out", str(output.parent)])
        elif where == "--start-date":
            result = run_main(capsys, ["synth", "--n-days", "5", "--knots", "2", "--slopes", "1,-1", where, text])
            assert result.stdout == ""
        else:
            dated = tmp_path / "dated.csv"
            header, row = ("date,candidate,pct", f"{text},ALPHA,40") if where == "--poll-csv" else (
                "date,label", f"{text},debate")
            dated.write_text(f"{header}\n{row}\n", encoding="utf-8")
            result, output = self.run_with_input(pipeline, fixtures_dir, tmp_path, capsys, monkeypatch, where, dated)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: ") and f"bad date {text!r}" in result.stderr
        assert result.stderr.count("\n") == 1
        assert not output.exists()

    def test_committee_for_two_candidates_exit_2(self, pipeline, fixtures_dir, tmp_path, capsys, monkeypatch):
        mapped = tmp_path / "committees.csv"
        mapped.write_text("committee_id,candidate_id\nC00000101,ALPHA\nC00000101,BRAVO\n", encoding="utf-8")
        result, output = self.run_with_input(
            pipeline, fixtures_dir, tmp_path, capsys, monkeypatch, "--committee-map", mapped)
        assert result.returncode == 2, result.stderr
        assert result.stderr == (
            "error: line 3: committee 'C00000101' maps to 'BRAVO', but an earlier line maps it to 'ALPHA'\n"
        )
        assert not output.exists()

    def test_range_under_3_days_exit_2(self, fixtures_dir, tmp_path, capsys, monkeypatch):
        # no poll CSV, so only the range check keeps ingest from reading the FEC file
        out_dir = tmp_path / "out"
        monkeypatch.setattr(fec, "accumulate_fec_path", no_fec_line)
        result = run_main(capsys, [
            "ingest", "--from", "2019-06-01", "--to", "2019-06-02", "--candidates", "ALPHA",
            "--committee-map", str(fixtures_dir / "committee_map.csv"),
            "--fec-file", str(fixtures_dir / "fec_sample.txt"),
            "--out", str(out_dir),
        ])
        assert result.returncode == 2, result.stderr
        assert result.stderr == (
            "error: range 2019-06-01..2019-06-02 has 2 days; a time series needs at least 3 daily values\n"
        )
        assert not (out_dir / "store.json").exists()

    def test_config_not_utf8_exit_2(self, pipeline, fixtures_dir, tmp_path, capsys, monkeypatch):
        bad = tmp_path / "bad.conf"
        bad.write_bytes(b"from = 2019-06-01\nto = 2019-07-20\ncandidates = AL\xffPHA\n")
        result, output = self.run_with_input(
            pipeline, fixtures_dir, tmp_path, capsys, monkeypatch, "--config", bad)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith(f"error: {bad} is not valid UTF-8: ")
        assert result.stderr.count("\n") == 1
        assert not output.exists()
