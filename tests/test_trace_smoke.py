"""Smoke test of the traced benchmark run on the test fixtures.

``perfbench/trace.py`` wraps package functions by name, so renaming or
deleting one of them breaks the traced run; this test catches that here.
It also runs the stages untraced and requires the same exit codes and
byte-identical outputs, so the tracer's wrappers change no result.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from campaigntrends.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="the tracer reads its thread count from /proc/self/status")
def test_traced_pipeline_runs(tmp_path, fixtures_dir):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "from = 2019-06-01\n"
        "to = 2019-07-20\n"
        "candidates = ALPHA, BRAVO\n"
        f"committee_map = {fixtures_dir / 'committee_map.csv'}\n"
        f"fec_files = {fixtures_dir / 'fec_sample.txt'}\n"
        f"poll_csv = {fixtures_dir / 'polls.csv'}\n"
        f"events_csv = {fixtures_dir / 'events.csv'}\n",
        encoding="utf-8",
    )
    result_path = tmp_path / "trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace.py"), "--stages", "ingest,fit,report",
         "--config", str(conf), "--out", str(tmp_path / "out"), "--result", str(result_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(result_path.read_text(encoding="utf-8"))
    assert trace["exits"] == {"ingest": 0, "fit": 0, "report": 0}
    plain = {stage: main([stage, "--config", str(conf), "--out", str(tmp_path / "plain")])
             for stage in trace["exits"]}
    assert plain == trace["exits"]
    for name in ("store.json", "ingest_summary.json", "fits.json", "fits_long.csv", "report.json"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "out" / name).read_bytes(), name
