"""campaigntrends benchmark: one workload per run, metrics as JSON.

    python3 perfbench/run.py --workload campaign_pipeline --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout: the package is imported from ./src,
inputs and outputs go under ./.perfbench. Each workload runs its program in
one child process at a time, repeats its job until --seconds have passed
(at least once), checks every output, and prints as its last line
``{"correct", "attempted", "failed", "metrics"}``. With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json; with --trace 1 they are the
per-layer ones, from a traced in-process run.
``--workload all`` runs every workload untraced and prints all job metrics.

Workloads (the seed changes what ingest reads: donor names, spellings,
zips, committees, refunds, bad lines and line order; the gift structure
and the polls are fixed scenarios, so fit and report work do not depend
on the seed):

- campaign_pipeline: ``campaigntrends ingest``, ``fit``, ``report`` as
  three processes on the 2019-05-15..2020-02-15 window, raw normalization.
  The FEC file (about 2.3e5 lines, mostly one-time donors) holds four
  candidates; the job analyses one of them with its poll series and the
  debate dates, so fit makes five 200-point lambda sweeps at n = 277.
- ingest_bulk: ``campaigntrends ingest`` alone on about 1e6 lines from
  heavily repeating donors, all four candidates, no polls.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
STAGES = {"campaign_pipeline": ("ingest", "fit", "report"), "ingest_bulk": ("ingest",)}
WORKLOADS = tuple(STAGES)
CAMPAIGN_CANDIDATES = ("ALPHA",)
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0
IMPORT_CLI = "import campaigntrends.cli"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one BLAS thread: the job is one single-threaded process at a time
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """Exit code, wall time, peak RSS and output of one finished child,
    started and measured by launch.py."""

    def __init__(self, argv: list[str], log_dir: Path, name: str) -> None:
        log_dir.mkdir(parents=True, exist_ok=True)
        out_path, err_path = log_dir / f"{name}.out", log_dir / f"{name}.err"
        spec = {"argv": argv, "env": child_env(), "cwd": str(ROOT), "stdout": str(out_path),
                "stderr": str(err_path), "timeout": CHILD_TIMEOUT_S}
        launched = subprocess.run([sys.executable, str(HERE / "launch.py")], input=json.dumps(spec),
                                  capture_output=True, text=True, check=True)
        result = json.loads(launched.stdout)
        self.exit_code = result["exit_code"]
        self.wall_s = result["wall_s"]
        self.rss_mb = result["rss_mb"]
        self.stdout = out_path.read_text(encoding="utf-8", errors="replace")
        self.stderr = err_path.read_text(encoding="utf-8", errors="replace")


class Unverifiable(Exception):
    """An output the checks need is missing or unreadable, or a child crashed."""


def run_child(argv: list[str], log_dir: Path, name: str, ok_codes=(0, 1)) -> Child:
    child = Child(argv, log_dir, name)
    if child.exit_code not in ok_codes:
        tail = child.stderr.strip().splitlines()[-3:]
        raise Unverifiable(f"{name} exited {child.exit_code}: {' | '.join(tail)}")
    return child


def measure_setup(log_dir: Path) -> list[float]:
    """Wall time of fresh interpreters that import the CLI. The median hides
    the first start in a new checkout, which also compiles the bytecode cache."""
    argv = [sys.executable, "-c", IMPORT_CLI]
    return [run_child(argv, log_dir, f"setup-{i}", ok_codes=(0,)).wall_s for i in range(SETUP_SAMPLES)]


def cli_argv(stage: str, conf: Path, out: Path) -> list[str]:
    return [sys.executable, "-m", "campaigntrends.cli", stage, "--config", str(conf), "--out", str(out)]


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# workloads: each pass runs the job once and checks it
# ---------------------------------------------------------------------------


def pipeline_pass(stages: tuple[str, ...], inputs: dict, out: Path, tally: checks.Tally) -> dict:
    conf = inputs["in_dir"] / "run.conf"
    runs = {stage: run_child(cli_argv(stage, conf, out), out / "logs", stage) for stage in stages}
    exits = {stage: r.exit_code for stage, r in runs.items()}
    check_pipeline(tally, out, inputs, exits, runs["ingest"].stdout)
    return {
        "wall_s": sum(r.wall_s for r in runs.values()),
        "stage_s": {s: r.wall_s for s, r in runs.items()},
        "rss_mb": max(r.rss_mb for r in runs.values()),
        "lines": inputs["truth"]["counters"]["lines_total"],
        "exits": exits,
        "ingest_stdout": runs["ingest"].stdout,
    }


def check_pipeline(tally: checks.Tally, out: Path, inputs: dict, exits: dict, ingest_stdout: str) -> None:
    try:
        checks.check_ingest(tally, out, inputs["truth"], inputs["candidates"], exits["ingest"], ingest_stdout)
        if "fit" in exits:
            fits = checks.load_json(out / "fits.json")
            checks.check_fits(tally, fits, exits["fit"])
            checks.check_report(tally, fits, checks.load_json(out / "report.json"), exits["report"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise Unverifiable(f"outputs unreadable: {exc!r}") from exc


def prepare(workload: str, seed: int, toy: bool = False) -> dict:
    """Inputs of one run; ``toy`` shrinks them for the self-check."""
    if workload == "campaign_pipeline":
        profile, candidates, polls = "campaign", CAMPAIGN_CANDIDATES, True
    else:
        profile, candidates, polls = "bulk", gen.CANDIDATES, False
    in_dir, truth = gen.ensure_inputs(WORK / "inputs", workload, "toy" if toy else profile, seed,
                                      candidates, polls)
    return {"in_dir": in_dir, "truth": truth, "candidates": candidates}


def run_job(workload: str, seconds: float, inputs: dict, tally: checks.Tally) -> list[dict]:
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        out = fresh_dir(WORK / "out" / workload)
        passes.append(pipeline_pass(STAGES[workload], inputs, out, tally))
    return passes


def job_metrics(passes: list[dict], setup: list[float], tally: checks.Tally) -> dict:
    """Every end-to-end number the workload produces (medians over passes)."""
    med = statistics.median
    m = {
        "setup_s": med(setup),
        "pipeline_s": med(p["wall_s"] for p in passes),
        "peak_rss_mb": med(p["rss_mb"] for p in passes),
        "failed_ratio": tally.failed / tally.attempted,
    }
    for stage in passes[0]["stage_s"]:
        m[f"{stage}_s"] = med(p["stage_s"][stage] for p in passes)
    m["ingest_lines_per_s"] = passes[0]["lines"] / m["ingest_s"]
    m["passes"] = len(passes)
    return m


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def import_breakdown(log_dir: Path) -> dict[str, float]:
    """Cumulative import time per module, median over fresh interpreters."""
    wanted = {"numpy": "setup.import_numpy_s", "scipy.linalg": "setup.import_scipy_linalg_s",
              "scipy.optimize": "setup.import_scipy_optimize_s",
              "campaigntrends": "setup.import_campaigntrends_s"}
    samples: dict[str, list[float]] = {name: [] for name in wanted.values()}
    for i in range(IMPORTTIME_SAMPLES):
        child = run_child([sys.executable, "-X", "importtime", "-c", IMPORT_CLI], log_dir,
                          f"importtime-{i}", ok_codes=(0,))
        seen: dict[str, float] = {}
        for line in child.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = [p.strip() for p in line[len("import time:"):].split("|")]
            if parts[0].isdigit() and parts[2] in wanted:
                seen[wanted[parts[2]]] = int(parts[1]) / 1e6
        for name in samples:
            samples[name].append(seen.get(name, 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


def traced_run(workload: str, inputs: dict, tally: checks.Tally) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, whose outputs are checked too."""
    out = fresh_dir(WORK / "out" / f"{workload}-traced")
    result_path = out / "trace.json"
    stages = ",".join(STAGES[workload])
    run_child([sys.executable, str(HERE / "trace.py"), "--result", str(result_path), "--stages", stages,
               "--config", str(inputs["in_dir"] / "run.conf"), "--out", str(out)],
              out / "logs", "trace", ok_codes=(0,))
    trace = checks.load_json(result_path)
    check_pipeline(tally, out, inputs, trace["exits"], trace["ingest_stdout"])
    metrics = dict(trace["metrics"])
    metrics["tracing.overhead_s"] = trace["ingest_overhead_s"]
    metrics["tracing.spans"] = len(trace["spans"])
    counters = checks.load_json(out / "ingest_summary.json")
    metrics.update({f"fec.{k}": v for k, v in counters.items()})
    return metrics, trace["machine"]


# ---------------------------------------------------------------------------
# metric catalogue and output
# ---------------------------------------------------------------------------


def catalogue() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def untraced(workload: str, seed: int, seconds: float, toy: bool) -> tuple[dict, checks.Tally, dict]:
    """Inputs, checks and job metrics of the untraced runs of a workload."""
    inputs = prepare(workload, seed, toy)
    tally = checks.Tally()
    setup = measure_setup(WORK / "out" / "setup")
    job = job_metrics(run_job(workload, seconds, inputs, tally), setup, tally)
    return inputs, tally, job


def run_workload(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    end_to_end, per_layer = catalogue()
    if not trace:
        inputs, tally, job = untraced(workload, seed, seconds, toy)
        print("job: " + json.dumps(job, sort_keys=True))
        values, units = {name: job[name] for name in end_to_end}, end_to_end
    else:
        inputs = prepare(workload, seed, toy)
        tally = checks.Tally()
        values = {name: 0.0 for name in per_layer}
        values.update(import_breakdown(WORK / "out" / "setup"))
        layers, machine = traced_run(workload, inputs, tally)
        values.update(layers)
        values["failed_ratio"] = tally.failed / tally.attempted
        values["fec.repeat_key_ratio"] = inputs["truth"]["repeat_key_ratio"]
        values["machine.nproc"] = os.cpu_count() or 0
        values["machine.child_threads"] = machine["threads"]
        values["machine.blas_threads"] = int(machine["blas_threads_env"] or 0)
        print("machine: " + json.dumps(machine))
        unknown = sorted(set(values) - set(per_layer))
        if unknown:
            raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
        units = per_layer
    for failure in tally.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return {
        "correct": True,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


JOB_UNITS = {"setup_s": "s", "pipeline_s": "s", "ingest_s": "s", "fit_s": "s", "report_s": "s",
             "ingest_lines_per_s": "lines/s", "peak_rss_mb": "MB", "failed_ratio": "ratio"}


def run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced; print the job metrics of each by name."""
    summary = {}
    for workload in WORKLOADS:
        _, tally, job = untraced(workload, seed, seconds, False)
        summary[workload] = {"attempted": tally.attempted, "failed": tally.failed, **job}
        for name, unit in JOB_UNITS.items():
            shown = f"{job[name]:.6g}" if name in job else "n/a"
            print(f"{workload:18s} {name:20s} {shown:>12s} {unit}")
        for failure in tally.failures:
            print(f"{workload:18s} check failed: {failure}")
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "campaigntrends" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: run from the root of a campaigntrends checkout (no {SRC}/campaigntrends)",
              file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            print(json.dumps(run_all(args.seed, args.seconds), sort_keys=True))
        else:
            print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    except Unverifiable as exc:
        print(f"error: cannot verify the run: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
