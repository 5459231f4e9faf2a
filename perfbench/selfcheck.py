"""Self-check of the benchmark at toy size.

    python3 perfbench/selfcheck.py      # from the root of a checkout

Runs every workload untraced and traced on toy inputs (a 50-day window,
4000 FEC lines) and asserts three things: every metric
of BENCHMARK.json is printed with its unit, the output checks ran on every
operation, and a deliberately corrupted fits.json is counted as failed.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import checks
import run

# Operations checked in one toy pass: ingest counters, exit code, candidate
# set, 4 donation series (+1 poll series) per candidate; then per fitted
# series a certificate and a fits/report agreement, plus two exit codes.
EXPECTED_ATTEMPTS = {
    "campaign_pipeline": 3 + 5 + 5 + 1 + 5 + 1,
    "ingest_bulk": 3 + 4 * len(run.gen.CANDIDATES),
}


def check_result(workload: str, result: dict, units: dict[str, str]) -> list[str]:
    problems = []
    line = json.dumps(result)
    if set(json.loads(line)) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload}: result keys {sorted(result)}")
    missing = sorted(set(units) - set(result["metrics"]))
    extra = sorted(set(result["metrics"]) - set(units))
    if missing or extra:
        problems.append(f"{workload}: metrics missing {missing}, unexpected {extra}")
    for name, entry in result["metrics"].items():
        if entry.get("unit") != units.get(name) or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{workload}: {name} printed as {entry}")
    if result["attempted"] != EXPECTED_ATTEMPTS[workload]:
        problems.append(f"{workload}: {result['attempted']} operations checked, "
                        f"expected {EXPECTED_ATTEMPTS[workload]}")
    return problems


def corrupted_fits_counted() -> list[str]:
    """Run the toy pipeline, then check it again with one fitted value moved."""
    inputs = run.prepare("campaign_pipeline", 1, toy=True)
    out = run.fresh_dir(run.WORK / "out" / "corrupted")
    clean = checks.Tally()
    done = run.pipeline_pass(run.STAGES["campaign_pipeline"], inputs, out, clean)
    fits_path = out / "fits.json"
    doc = json.loads(fits_path.read_text(encoding="utf-8"))
    fitted = doc["records"][0]["fitted"]
    fitted[len(fitted) // 2] += 1.0 + abs(fitted[len(fitted) // 2])
    fits_path.write_text(json.dumps(doc), encoding="utf-8")
    corrupted = checks.Tally()
    run.check_pipeline(corrupted, out, inputs, done["exits"], done["ingest_stdout"])
    if corrupted.attempted != clean.attempted or corrupted.failed <= clean.failed:
        return [f"corrupted fits.json not counted: {clean.failed}/{clean.attempted} failed before, "
                f"{corrupted.failed}/{corrupted.attempted} after"]
    return []


def main() -> int:
    if not (run.SRC / "campaigntrends" / "cli.py").is_file():
        print(f"error: run from the root of a campaigntrends checkout (no {run.SRC}/campaigntrends)",
              file=sys.stderr)
        return 1
    run.WORK = run.ROOT / ".perfbench" / "selfcheck"
    end_to_end, per_layer = run.catalogue()
    problems: list[str] = []
    for workload in run.WORKLOADS:
        for trace, units in ((False, end_to_end), (True, per_layer)):
            result = run.run_workload(workload, 1, 0.0, trace, toy=True)
            problems += check_result(workload, result, units)
    problems += corrupted_fits_counted()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
