"""Seeded inputs for the ingest workloads, with their ground-truth tally.

The FEC file uses the pipe-separated ``ColumnMap()`` default layout that
``campaigntrends ingest`` reads: committee|name|zip|MMDDYYYY|dollars. The
generator draws structured gifts first and renders each one as a text
line, so it knows every line's fate (parsed, refund, malformed, unmapped)
and every donor's identity without parsing its own output. The tally of
the four daily donation series is computed here from that structure, by
plain dictionaries, independently of the package.

Everything depends only on (profile, seed): the same pair writes the same
bytes. Nothing here imports campaigntrends.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

PAPER_WINDOW = (date(2019, 5, 15), date(2020, 2, 15))
CANDIDATES = ("ALPHA", "BRAVO", "CHARLIE", "DELTA")
# Debate nights of the 2019-20 primary season.
DEBATES = (
    "2019-06-26", "2019-06-27", "2019-07-30", "2019-07-31", "2019-09-12",
    "2019-10-15", "2019-11-20", "2019-12-19", "2020-01-14", "2020-02-07",
)
QUARTER_ENDS = (date(2019, 6, 30), date(2019, 9, 30), date(2019, 12, 31))
UNMAPPED_COMMITTEES = ("C00999001", "C00999002", "C00999003")

LAST_NAMES = (
    "SMITH JOHNSON WILLIAMS BROWN JONES GARCIA MILLER DAVIS RODRIGUEZ MARTINEZ "
    "HERNANDEZ LOPEZ GONZALEZ WILSON ANDERSON THOMAS TAYLOR MOORE JACKSON MARTIN "
    "LEE PEREZ THOMPSON WHITE HARRIS SANCHEZ CLARK RAMIREZ LEWIS ROBINSON WALKER "
    "YOUNG ALLEN KING WRIGHT SCOTT TORRES NGUYEN HILL FLORES GREEN ADAMS NELSON "
    "BAKER HALL RIVERA CAMPBELL MITCHELL CARTER ROBERTS CHEN PATEL KIM OBRIEN"
).split()
FIRST_NAMES = (
    "JAMES MARY ROBERT PATRICIA JOHN JENNIFER MICHAEL LINDA DAVID ELIZABETH "
    "WILLIAM BARBARA RICHARD SUSAN JOSEPH JESSICA THOMAS SARAH CHARLES KAREN "
    "MARIA LENA HUGO ANA WEI PRIYA OMAR FATIMA DIEGO SOFIA"
).split()


@dataclass(frozen=True)
class Profile:
    """Size and donor mix of one generated FEC file."""

    lines: int
    donors: int  # distinct donor identities in the population
    zipf_a: float  # tail exponent of gifts per donor; larger = more one-time donors
    early_gift_share: float  # donors with an extra gift dated before the window
    window: tuple[date, date] = PAPER_WINDOW


PROFILES = {
    # about 2e5 lines, mostly one-time donors (the job users run)
    "campaign": Profile(lines=200_000, donors=150_000, zipf_a=2.6, early_gift_share=0.08),
    # about 1e6 lines from few, heavily repeating donors (ingest at scale)
    "bulk": Profile(lines=1_000_000, donors=40_000, zipf_a=1.6, early_gift_share=0.05),
    # toy size for the self-check
    "toy": Profile(lines=4_000, donors=2_500, zipf_a=2.2, early_gift_share=0.08,
                   window=(date(2019, 6, 1), date(2019, 7, 20))),
}


def window_days(window: tuple[date, date]) -> list[date]:
    start, end = window
    return [start + timedelta(days=i) for i in range((end - start).days + 1)]


def committees_for(candidate: str) -> tuple[str, str]:
    k = CANDIDATES.index(candidate) + 1
    return (f"C00{k:03d}101", f"C00{k:03d}202")


def _rate_curve(rng: np.random.Generator, days: list[date]) -> np.ndarray:
    """Expected gifts per day: a piecewise-linear trend with end-of-quarter
    surges and a bump after each debate."""
    n = len(days)
    knots = np.sort(rng.choice(np.arange(20, n - 20), 5, replace=False))
    anchors = np.concatenate([[0], knots, [n - 1]])
    levels = rng.uniform(0.4, 1.6, anchors.shape[0])
    rate = np.interp(np.arange(n), anchors, levels)
    for qe in QUARTER_ENDS:
        i = (qe - days[0]).days
        if 2 <= i < n:
            rate[i - 2: i + 1] *= (2.0, 3.5, 6.0)
    for d in DEBATES:
        i = (date.fromisoformat(d) - days[0]).days
        if 0 <= i < n:
            rate[i + 1: i + 4] *= 1.6
    return rate / rate.sum()


def _identities(rng: np.random.Generator, donors: int) -> tuple[list[str], list[str]]:
    """Canonical name and zip5 per donor, no two donors sharing both.

    About 5% of donors have no usable zip and share the 00000 sentinel, so
    only their names tell them apart.
    """
    has_zip = rng.random(donors) > 0.05
    names: list[str] = [""] * donors
    zip5: list[str] = [""] * donors
    seen: set[tuple[str, str]] = set()
    todo = np.arange(donors)
    while todo.size:
        last = rng.integers(0, len(LAST_NAMES), todo.size).tolist()
        first = rng.integers(0, len(FIRST_NAMES), todo.size).tolist()
        initial = rng.integers(0, 26, todo.size).tolist()
        zips = rng.integers(1000, 99999, todo.size).tolist()  # leading zeros happen
        retry = []
        for j, i in enumerate(todo.tolist()):
            name = f"{LAST_NAMES[last[j]]} {FIRST_NAMES[first[j]]} {chr(65 + initial[j])}"
            z = f"{zips[j]:05d}" if has_zip[i] else "00000"
            if (name, z) in seen:
                retry.append(i)
                continue
            seen.add((name, z))
            names[i], zip5[i] = name, z
        todo = np.asarray(retry, dtype=int)
    return names, zip5


def _raw_name(canonical: str, style: int) -> str:
    """A raw spelling that normalizes back to ``canonical``: case, commas,
    periods and extra spaces vary, letters and word breaks do not."""
    last, first, mi = canonical.split(" ")
    if style == 0:
        return f"{last}, {first} {mi}."
    if style == 1:
        return f"{last.title()}, {first.title()} {mi}"
    if style == 2:
        return f"{last.lower()},  {first.lower()} {mi.lower()}."
    if style == 3:
        return f" {last} {first} {mi} "
    return f"{last}, {first} {mi}"


def _raw_zip(zip5: str, style: int, plus4: int) -> str:
    if zip5 == "00000":
        return ("", "123", "N/A", "")[style % 4]
    if style == 1:
        return f"{zip5}-{plus4:04d}"
    if style == 2:
        return f"{zip5}{plus4:04d}"
    return zip5


def _mmddyyyy(d: date) -> str:
    return f"{d.month:02d}{d.day:02d}{d.year:04d}"


def generate_fec(profile: Profile, seed: int, out_dir: Path) -> dict:
    """Write fec.txt and committee_map.csv; return the ground-truth tally.

    The gift structure (who gives to whom, on which day, how much) comes
    from a fixed per-profile scenario, so the daily series and the fit and
    report work on them are the same for every seed. The seed decides what
    ingest reads around that structure: donor names and zips, their
    spellings, the committee each gift goes through, refunds, gifts dated
    before and after the window, bad lines and the line order.
    """
    plan = np.random.default_rng([profile.lines, 2019])
    rng = np.random.default_rng([seed, profile.lines])
    days = window_days(profile.window)
    n_days = len(days)
    first_day, last_day = profile.window

    # structure: heavy-tailed gifts per donor, one main candidate per donor
    # (some gifts go to a second one), days from each candidate's rate curve
    counts = np.minimum(plan.zipf(profile.zipf_a, profile.donors), 400)
    counts = np.maximum(1, np.round(counts * profile.lines * 0.955 / counts.sum())).astype(int)
    donor_of_gift = np.repeat(np.arange(profile.donors), counts)
    main_cand = plan.integers(0, len(CANDIDATES), profile.donors)
    second = plan.integers(0, len(CANDIDATES), profile.donors)
    switches = plan.random(donor_of_gift.shape[0]) < 0.1
    cand_of_gift = np.where(switches, second[donor_of_gift], main_cand[donor_of_gift])
    curves = [_rate_curve(plan, days) for _ in CANDIDATES]
    day_of_gift = np.empty(donor_of_gift.shape[0], dtype=int)
    for c in range(len(CANDIDATES)):
        mask = cand_of_gift == c
        day_of_gift[mask] = plan.choice(n_days, int(mask.sum()), p=curves[c])
    dollars = np.clip(np.round(plan.lognormal(3.4, 1.1, day_of_gift.shape[0])), 1, 2800)
    cents_of_gift = (dollars * 100).astype(int) + 50 * (plan.random(day_of_gift.shape[0]) < 0.05)
    early = plan.choice(profile.donors, int(profile.early_gift_share * profile.donors), replace=False)

    names, zip5 = _identities(rng, profile.donors)
    gifts = list(zip(donor_of_gift.tolist(), cand_of_gift.tolist(),
                     (days[i] for i in day_of_gift.tolist()), cents_of_gift.tolist()))
    # earlier gifts decide who is new inside the window
    early_start = date(2019, 1, 1)
    early_offsets = rng.integers(0, (first_day - early_start).days, early.shape[0]).tolist()
    gifts += [(d, int(main_cand[d]), early_start + timedelta(days=k), 2500)
              for d, k in zip(early.tolist(), early_offsets)]
    # gifts dated after the window: parsed, never in a series
    late = rng.choice(profile.donors, profile.lines // 200, replace=False).tolist()
    gifts += [(d, int(main_cand[d]), last_day + timedelta(days=int(rng.integers(1, 60))), 1000)
              for d in late]
    # refunds and zero amounts: parsed, then dropped by the accumulator
    refunds = rng.choice(profile.donors, profile.lines // 100, replace=False).tolist()
    gifts += [(d, int(main_cand[d]), days[int(rng.integers(0, n_days))],
               0 if i % 7 == 0 else -100 * int(rng.integers(1, 200)))
              for i, d in enumerate(refunds)]

    lines: list[str] = []
    first_seen: dict[tuple[int, int], date] = {}
    day_totals: dict[tuple[int, date], dict[int, int]] = {}
    styles = rng.integers(0, 5, len(gifts)).tolist()
    zstyles = rng.integers(0, 4, len(gifts)).tolist()
    plus4 = rng.integers(0, 10000, len(gifts)).tolist()
    committee_pick = rng.integers(0, 2, len(gifts)).tolist()
    committees = [committees_for(cand) for cand in CANDIDATES]
    date_text: dict[date, str] = {}
    for i, (d, c, when, cents) in enumerate(gifts):
        amount = f"{cents // 100}" if cents % 100 == 0 else f"{cents / 100:.2f}"
        day_text = date_text.get(when)
        if day_text is None:
            day_text = date_text[when] = _mmddyyyy(when)
        lines.append("|".join((
            committees[c][committee_pick[i]],
            _raw_name(names[d], styles[i]),
            _raw_zip(zip5[d], zstyles[i], plus4[i]),
            day_text,
            amount,
        )))
        if cents <= 0:
            continue
        prior = first_seen.get((c, d))
        if prior is None or when < prior:
            first_seen[(c, d)] = when
        by_donor = day_totals.setdefault((c, when), {})
        by_donor[d] = by_donor.get(d, 0) + cents
    parsed = len(lines)
    positive = sum(1 for g in gifts if g[3] > 0)

    unmapped = profile.lines // 50
    for i in range(unmapped):
        d = int(rng.integers(0, profile.donors))
        lines.append(f"{UNMAPPED_COMMITTEES[i % len(UNMAPPED_COMMITTEES)]}|"
                     f"{_raw_name(names[d], i % 5)}|{zip5[d]}|{_mmddyyyy(days[i % n_days])}|{10 + i % 90}")
    malformed = max(8, profile.lines // 200)
    for i in range(malformed):
        d = int(rng.integers(0, profile.donors))
        committee = committees_for(CANDIDATES[i % len(CANDIDATES)])[0]
        head = f"{committee}|{_raw_name(names[d], 0)}|{zip5[d]}"
        lines.append((
            f"{committee}|{_raw_name(names[d], 0)}",  # too few fields
            f"{head}|2019-06-01|25",  # ISO date
            f"{head}|13012019|25",  # month 13
            f"{head}|02302019|25",  # February 30
            f"{head}|12312016|25",  # before the plausible range
            f"{head}|01012022|25",  # after the plausible range
            f"{head}|06012019|abc",  # amount not a number
            f"{head}|06012019|",  # amount missing
        )[i % 8])

    order = rng.permutation(len(lines)).tolist()
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "fec.txt", "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines[i] for i in order))
        handle.write("\n")
    with open(out_dir / "committee_map.csv", "w", encoding="utf-8") as handle:
        handle.write("committee_id,candidate_id\n")
        for cand in CANDIDATES:
            for committee in committees_for(cand):
                handle.write(f"{committee},{cand}\n")

    series: dict[str, dict[str, list[float]]] = {}
    for c, cand in enumerate(CANDIDATES):
        donors_s, new_s, amount_s, new_amount_s = ([0.0] * n_days for _ in range(4))
        for i, day in enumerate(days):
            by_donor = day_totals.get((c, day))
            if not by_donor:
                continue
            fresh = [d for d in by_donor if first_seen[(c, d)] == day]
            donors_s[i] = float(len(by_donor))
            amount_s[i] = sum(by_donor.values()) / 100.0
            new_s[i] = float(len(fresh))
            new_amount_s[i] = sum(by_donor[d] for d in fresh) / 100.0
        series[cand] = {"donors": donors_s, "new_donors": new_s,
                        "amount": amount_s, "new_donor_amount": new_amount_s}

    return {
        "counters": {"lines_total": len(lines), "parsed": parsed,
                     "malformed": malformed, "unmapped": unmapped},
        "distinct_donors": {cand: sum(1 for c, _ in first_seen if c == k)
                            for k, cand in enumerate(CANDIDATES)},
        "repeat_key_ratio": 1.0 - len(first_seen) / positive,
        "series": series,
    }


def generate_polls(window: tuple[date, date], out_dir: Path) -> dict[str, list[float]]:
    """Write polls.csv (gaps of at most 7 missing days, both ends observed)
    and return each candidate's expected daily series.

    Like the gift structure, the polls are a fixed scenario: the poll series
    and the work of fitting them do not depend on the seed.
    """
    rng = np.random.default_rng([2019, 7])
    days = window_days(window)
    n = len(days)
    rows = []
    expected = {}
    for cand in CANDIDATES:
        knots = np.sort(rng.choice(np.arange(15, n - 15), 4, replace=False))
        anchors = np.concatenate([[0], knots, [n - 1]])
        levels = rng.uniform(4.0, 30.0, anchors.shape[0])
        trend = np.interp(np.arange(n), anchors, levels)
        observed = [0]
        while observed[-1] < n - 1:
            observed.append(min(observed[-1] + int(rng.integers(1, 9)), n - 1))
        obs = np.asarray(observed)
        values = np.round(np.clip(trend[obs] + rng.normal(0, 0.4, obs.shape[0]), 0, 100), 2)
        rows.extend((days[i].isoformat(), cand, float(v)) for i, v in zip(obs.tolist(), values))
        expected[cand] = np.interp(np.arange(n), obs, values).tolist()
    rows.sort()
    with open(out_dir / "polls.csv", "w", encoding="utf-8") as handle:
        handle.write("date,candidate,pct\n")
        for day, cand, pct in rows:
            handle.write(f"{day},{cand},{pct:.2f}\n")
    return expected


def write_events(out_dir: Path) -> None:
    with open(out_dir / "events.csv", "w", encoding="utf-8") as handle:
        handle.write("date,label\n")
        for i, day in enumerate(DEBATES):
            handle.write(f"{day},debate night {i // 2 + 1}\n")


def write_config(
    dest: Path, in_dir: Path, window: tuple[date, date], candidates: tuple[str, ...], with_polls: bool
) -> None:
    """Write run.conf into ``dest``, naming the inputs as they sit in ``in_dir``."""
    lines = [
        f"from = {window[0].isoformat()}",
        f"to = {window[1].isoformat()}",
        f"candidates = {', '.join(candidates)}",
        f"committee_map = {in_dir / 'committee_map.csv'}",
        f"fec_files = {in_dir / 'fec.txt'}",
        "normalize = raw",
    ]
    if with_polls:
        lines += [f"poll_csv = {in_dir / 'polls.csv'}", f"events_csv = {in_dir / 'events.csv'}"]
    (dest / "run.conf").write_text("\n".join(lines) + "\n", encoding="utf-8")


def ensure_inputs(
    cache_root: Path, workload: str, profile_name: str, seed: int,
    candidates: tuple[str, ...], with_polls: bool,
) -> tuple[Path, dict]:
    """Generate (or reuse) one seed's inputs; return their directory and tally.

    Keeps the three most recent seeds per workload so a long series of runs
    does not fill the disk.
    """
    in_dir = cache_root / f"{workload}-{seed}"
    truth_path = in_dir / "truth.json"
    if truth_path.exists():
        return in_dir, json.loads(truth_path.read_text(encoding="utf-8"))
    older = sorted(cache_root.glob(f"{workload}-*"), key=lambda p: p.stat().st_mtime)
    for stale in older[:-2]:
        for f in stale.iterdir():
            f.unlink()
        stale.rmdir()
    tmp = cache_root / f".{workload}-{seed}.tmp"
    if tmp.exists():
        for f in tmp.iterdir():
            f.unlink()
    tmp.mkdir(parents=True, exist_ok=True)
    profile = PROFILES[profile_name]
    truth = generate_fec(profile, seed, tmp)
    if with_polls:
        truth["polls"] = generate_polls(profile.window, tmp)
        write_events(tmp)
    (tmp / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
    write_config(tmp, in_dir, profile.window, candidates, with_polls)
    tmp.rename(in_dir)
    return in_dir, truth
