import dataclasses
import json
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from campaigntrends import TimeSeries, fit_with_target_df, solve_tf
from campaigntrends.cli import _fit_from_record, _fit_record, main
from campaigntrends.store import validate_report
from conftest import bendy_signal


def run_cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "campaigntrends.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


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

    def test_same_seed_same_bytes(self):
        args = ["synth", "--n-days", "40", "--knots", "12,25",
                "--slopes", "1,-0.5,2", "--noise-sd", "0.7", "--seed", "7"]
        first = run_cli(args)
        second = run_cli(args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.count("\n") == 41

    def test_inconsistent_knots_exit_2(self):
        result = run_cli(["synth", "--n-days", "20", "--knots", "5,9",
                          "--slopes", "1,-1", "--seed", "0"])
        assert result.returncode == 2


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

    def test_missing_config_keys_exit_2(self, tmp_path):
        assert main(["ingest", "--out", str(tmp_path)]) == 2


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
        assert store["schema_version"] == 1
        assert sorted(store["series"]) == ["ALPHA", "BRAVO"]
        for candidate in ("ALPHA", "BRAVO"):
            metrics = store["series"][candidate]
            assert sorted(metrics) == [
                "amount", "donors", "new_donor_amount", "new_donors", "poll",
            ]
            for obj in metrics.values():
                assert len(obj["values"]) == 50
        summary = store["ingest_summary"]
        assert summary["parsed"] > 0
        assert summary["malformed"] == 0
        assert summary["unmapped"] == 1

    def test_ingest_summary_file(self, pipeline):
        out_dir, _ = pipeline
        summary = json.loads((out_dir / "ingest_summary.json").read_text())
        assert set(summary) == {"lines_total", "parsed", "malformed", "unmapped"}
        assert summary["lines_total"] == summary["parsed"] + summary["malformed"] + summary["unmapped"]

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
        flags = base_flags(fixtures_dir, out_dir) + ["--df", "2"]
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

    def test_report_without_fits_exit_2(self, fixtures_dir, tmp_path):
        out_dir = tmp_path / "only_store"
        flags = base_flags(fixtures_dir, out_dir)
        assert main(["ingest", *flags]) == 0
        assert main(["report", *flags]) == 2


class TestReportReadsFits:
    """report decodes fits.json and never re-solves or reads store.json."""

    def test_df_warnings_reach_report(self, fixtures_dir, tmp_path):
        # df 48 on a 50-day span is above every df the grid reaches
        out_dir = tmp_path / "df48"
        flags = base_flags(fixtures_dir, out_dir) + ["--df", "48"]
        assert main(["ingest", *flags]) == 0
        assert main(["fit", *flags]) == 1
        assert main(["report", *flags]) == 1
        fits = json.loads((out_dir / "fits.json").read_text())["records"]
        report = json.loads((out_dir / "report.json").read_text())["series"]
        assert len(report) == len(fits) == 10
        for record, entry in zip(fits, report):
            assert (entry["candidate"], entry["metric"]) == (record["candidate"], record["metric"])
            assert entry["df"] == record["df"]
            assert [cp["date"] for cp in entry["changepoints"]] == record["knots"]
            assert entry["converged"] == record["converged"]
            assert entry["df_warning"] == record["df_warning"]
        assert all(record["df_warning"] for record in fits)

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
        record = json.loads(json.dumps(_fit_record("ALPHA", "amount", ts, fit, target)))
        start, back = _fit_from_record(record)
        assert start == ts.start_date
        for f in dataclasses.fields(fit):
            if f.name == "dual":
                scale = float(np.max(np.abs(fit.dual)))
                assert float(np.max(np.abs(back.dual - fit.dual))) <= 1e-8 * scale
            elif f.name == "fitted":
                assert np.array_equal(back.fitted, fit.fitted)
            else:
                assert getattr(back, f.name) == getattr(fit, f.name), f.name

    def test_record_round_trip_keeps_solver_state(self):
        y, _ = bendy_signal(seed=32, n=40, n_knots=3)
        ts = TimeSeries(date(2019, 6, 1), y)
        fit = dataclasses.replace(solve_tf(y, 0.5), converged=False, iterations=123)
        _, back = _fit_from_record(json.loads(json.dumps(_fit_record("A", "m", ts, fit, 5))))
        assert (back.converged, back.iterations, back.tol_knot) == (False, 123, fit.tol_knot)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda r: r.pop("df"),
            lambda r: r.pop("tol_knot"),
            lambda r: r.update(start_date="2019-13-01"),
            lambda r: r.update(knots=["not a date"]),
        ],
        ids=["missing-df", "missing-tol_knot", "bad-start-date", "bad-knot-date"],
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
