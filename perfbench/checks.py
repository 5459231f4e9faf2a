"""Output checks: every function returns the number of operations it
checked and a list of the ones that failed, with a reason each.

The fit certificate here is independent of the solver: it recovers the
dual vector u from ``observed - fitted = D^T u`` by dense least squares and
then checks the box |u| <= lambda and the duality gap against the same
scale-derived tolerance the solver promises (1e-8 * 0.5 * ||y||^2).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Slack for rounding in the recovered dual and in JSON round trips.
BOX_RTOL = 1e-6
RANGE_RTOL = 1e-8
POLL_ATOL = 1e-9


class Tally:
    """Attempted and failed operations of one run, with failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def _dt_dense(n: int) -> np.ndarray:
    dt = np.zeros((n, n - 2))
    j = np.arange(n - 2)
    dt[j, j] = 1.0
    dt[j + 1, j] = -2.0
    dt[j + 2, j] = 1.0
    return dt


def certificate(observed, fitted, lam: float) -> tuple[bool, str]:
    """Check that ``fitted`` is a trend-filter optimum for ``observed`` at ``lam``."""
    y = np.asarray(observed, dtype=float)
    theta = np.asarray(fitted, dtype=float)
    if y.shape != theta.shape or y.shape[0] < 3 or not np.all(np.isfinite(theta)):
        return False, "fitted values missing, non-finite or of the wrong length"
    r = y - theta
    dt = _dt_dense(y.shape[0])
    u = np.linalg.lstsq(dt, r, rcond=None)[0]
    scale = max(float(np.max(np.abs(y))), 1.0)
    residual = float(np.max(np.abs(dt @ u - r))) if r.size else 0.0
    if residual > RANGE_RTOL * scale:
        return False, f"observed - fitted is not in the range of D^T (residual {residual:.3g})"
    if float(np.max(np.abs(u), initial=0.0)) > lam * (1 + BOX_RTOL) + RANGE_RTOL * scale:
        return False, f"dual outside the box: max|u| {float(np.max(np.abs(u))):.6g} > lambda {lam:.6g}"
    u = np.clip(u, -lam, lam)
    dtheta = theta[:-2] - 2.0 * theta[1:-1] + theta[2:]
    gap = lam * float(np.sum(np.abs(dtheta))) - float(u @ dtheta)
    eps = max(1e-8 * 0.5 * float(y @ y), 1e-15)
    slack = BOX_RTOL * lam * float(np.sum(np.abs(dtheta)))
    if gap > eps + slack:
        return False, f"duality gap {gap:.3g} above tolerance {eps:.3g}"
    return True, ""


def load_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_ingest(tally: Tally, out_dir: Path, truth: dict, candidates, exit_code: int, stdout: str) -> None:
    """Counters and every analysed store.json series against the generator's tally."""
    expected = truth["counters"]
    printed = json.loads(stdout.strip().splitlines()[-1]) if stdout.strip() else None
    summary = load_json(out_dir / "ingest_summary.json")
    tally.check(printed == expected and summary == expected,
                f"ingest counters {summary} differ from the generator's {expected}")
    tally.check(exit_code == (1 if expected["malformed"] or not expected["parsed"] else 0),
                f"ingest exit code {exit_code} disagrees with its counters")
    store = load_json(out_dir / "store.json")
    tally.check(sorted(store["series"]) == sorted(candidates),
                f"store holds candidates {sorted(store['series'])}, expected {sorted(candidates)}")
    for cand in candidates:
        for metric, values in truth["series"][cand].items():
            got = store["series"].get(cand, {}).get(metric, {}).get("values")
            tally.check(got == values, f"store series {cand}/{metric} differs from the tally")
    for cand in candidates if "polls" in truth else ():
        values = truth["polls"][cand]
        got = store["series"].get(cand, {}).get("poll", {}).get("values")
        ok = got is not None and len(got) == len(values) and bool(
            np.max(np.abs(np.asarray(got) - np.asarray(values))) <= POLL_ATOL * 100)
        tally.check(ok, f"store poll series {cand} differs from the interpolated polls")


def check_fits(tally: Tally, fits_doc: dict, exit_code: int) -> None:
    """Certificate per fit record, and the fit exit code against its flags."""
    warned = False
    for rec in fits_doc["records"]:
        ok, why = certificate(rec["observed"], rec["fitted"], rec["lambda"])
        tally.check(ok, f"fit {rec['candidate']}/{rec['metric']}: {why}")
        warned = warned or not rec["converged"] or rec["df_warning"]
    tally.check(exit_code == (1 if warned else 0),
                f"fit exit code {exit_code} disagrees with its converged/df_warning flags")


def check_report(tally: Tally, fits_doc: dict, report_doc: dict, exit_code: int) -> None:
    """fits.json and report.json agree per series; report exit code matches."""
    by_key = {(s["candidate"], s["metric"]): s for s in report_doc["series"]}
    warned = False
    for rec in fits_doc["records"]:
        key = (rec["candidate"], rec["metric"])
        entry = by_key.get(key)
        if entry is None:
            tally.check(False, f"report has no entry for {key[0]}/{key[1]}")
            continue
        warned = warned or not entry["converged"] or entry["df_warning"]
        knots = [cp["date"] for cp in entry["changepoints"]]
        diffs = [
            name for name, a, b in (
                ("df", rec["df"], entry["df"]),
                ("knots", rec["knots"], knots),
                ("converged", rec["converged"], entry["converged"]),
                ("df_warning", rec["df_warning"], entry["df_warning"]),
            ) if a != b
        ]
        tally.check(not diffs, f"report disagrees with fits on {key[0]}/{key[1]}: "
                    + ", ".join(f"{d}" for d in diffs)
                    + f" (df {rec['df']} vs {entry['df']})")
    tally.check(exit_code == (1 if warned else 0),
                f"report exit code {exit_code} disagrees with its converged/df_warning flags")
