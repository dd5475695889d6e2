"""Output checks for benchmark commands.

Each check reads what a command printed and wrote, and compares it with
facts the generator knows (sample counts, pixel and grain counts, the
exit code it must return).  Nothing here calls qlitho, so a defect in the
timed code cannot also hide itself from its check.
"""

from __future__ import annotations

import re
from array import array
from pathlib import Path

import numpy as np

from bench_inputs import Command

DEVIATION_TOL = 1e-9
PEAK_TOL = 1e-12
STATS_TOL = 1e-9

_DEVIATION = re.compile(r"max \|closed - brute\| after peak normalization: (\S+)")
_SUM_CHECK = re.compile(r"sum check: max \|original \+ negative - 1\| = (\S+)")


def _column(path: Path, header: str) -> tuple[array, array]:
    """First and last column of a CSV profile, read line by line to keep memory low."""
    first, last = array("d"), array("d")
    with open(path, "rb") as handle:
        for line in handle:
            if line.startswith(b"#"):
                continue
            if line.rstrip(b"\n").decode() == header:
                break
            raise ValueError(f"{path.name}: unexpected line before the {header!r} header")
        else:
            raise ValueError(f"{path.name}: missing {header!r} header")
        for line in handle:
            head, _, tail = line.partition(b",")
            first.append(float(head))
            last.append(float(tail.rpartition(b",")[2]))
    return first, last


def _check_profile(path: Path, rows: int, normalize: str, header: str) -> list[str]:
    if not path.is_file():
        return [f"{path.name} was not written"]
    try:
        xs, values = _column(path, header)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if len(values) != rows:
        problems.append(f"{path.name}: {len(values)} rows, expected {rows}")
    rates = np.frombuffer(values, dtype=float)
    if not np.all(np.isfinite(rates)):
        problems.append(f"{path.name}: non-finite rate")
    elif rates.size and rates.min() < 0:
        problems.append(f"{path.name}: negative rate {rates.min():.3e}")
    elif normalize == "peak" and rates.size and abs(rates.max() - 1.0) > PEAK_TOL:
        problems.append(f"{path.name}: peak-normalized profile peaks at {rates.max()!r}")
    if not np.all(np.diff(np.frombuffer(xs, dtype=float)) >= 0):
        problems.append(f"{path.name}: x column is not ascending")
    return problems


def _printed(pattern: re.Pattern, stdout: str, what: str, tol: float) -> list[str]:
    match = pattern.search(stdout)
    if not match:
        return [f"no {what} printed"]
    value = float(match.group(1))
    if not value <= tol:
        return [f"{what} {value:.3e} exceeds {tol:.0e}"]
    return []


def _plan_entries(path: Path) -> int:
    with open(path, encoding="utf-8") as handle:
        return sum(1 for line in handle if line.startswith("entry "))


def _check_rate(e: dict, stdout: str, out: Path) -> list[str]:
    problems = []
    files = {"closed": ["profile_closed.csv"], "brute": ["profile_brute.csv"],
             "both": ["profile_closed.csv", "profile_brute.csv"]}[e["engine"]]
    for name in files:
        problems += _check_profile(out / name, e["samples"], e["normalize"], "x_lambda,rate")
    if e["engine"] == "both":
        problems += _printed(_DEVIATION, stdout, "closed-vs-brute deviation", DEVIATION_TOL)
        if not problems:
            closed = _column(out / "profile_closed.csv", "x_lambda,rate")[1]
            brute = _column(out / "profile_brute.csv", "x_lambda,rate")[1]
            a = np.frombuffer(closed, dtype=float)
            b = np.frombuffer(brute, dtype=float)
            gap = float(np.abs(a / a.max() - b / b.max()).max())
            if not gap <= DEVIATION_TOL:
                problems.append(f"written closed and brute profiles differ by {gap:.3e}")
    if e["two_d"]:
        problems += _check_profile(out / "profile_2d.csv", e["samples"] ** 2, e["normalize"],
                                   "x_lambda,y_lambda,rate")
    return problems


def _check_plan(e: dict, stdout: str, out: Path) -> list[str]:
    problems = _check_profile(out / "plan_profile.csv", e["samples"], e["normalize"], "x_lambda,rate")
    if e.get("negative"):
        problems += _printed(_SUM_CHECK, stdout, "negative-plan sum check", DEVIATION_TOL)
    for name in ("plan.txt", "plan_report.txt"):
        if not (out / name).is_file():
            problems.append(f"{name} was not written")
    if not problems and _plan_entries(out / "plan.txt") != e["entries"]:
        problems.append(f"plan.txt has {_plan_entries(out / 'plan.txt')} entries, expected {e['entries']}")
    return problems


def _check_plan2d(e: dict, stdout: str, out: Path) -> list[str]:
    problems = _check_profile(out / "plan_profile_2d.csv", e["samples"] ** 2, "raw",
                              "x_lambda,y_lambda,rate")
    if not (out / "plan.txt").is_file():
        problems.append("plan.txt was not written")
    elif _plan_entries(out / "plan.txt") != e["entries"]:
        problems.append(f"plan.txt has {_plan_entries(out / 'plan.txt')} entries, expected {e['entries']}")
    return problems


def _check_expose(e: dict, stdout: str, out: Path) -> list[str]:
    path = out / "exposure.txt"
    if not path.is_file():
        return ["exposure.txt was not written"]
    stats, counts = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("counts "):
            counts.append(line.split()[1:])
        elif line and line[0].isdigit():
            stats.append([float(v) for v in line.split(",")[1:]])
    if len(counts) != e["repeats"] or any(len(row) != e["pixels"] for row in counts):
        return [f"exposure.txt: count rows are not {e['repeats']} x {e['pixels']}"]
    if not all(t.isdigit() for row in counts for t in row):
        return ["exposure.txt: a count is not a non-negative integer"]
    raw = np.array(counts, dtype=np.int64)
    if raw.max() > e["grains"]:
        return [f"exposure.txt: count {raw.max()} exceeds {e['grains']} grains"]
    if len(stats) != e["pixels"]:
        return [f"exposure.txt: {len(stats)} mean/std rows, expected {e['pixels']}"]
    table = np.array(stats)
    mean = raw.mean(axis=0)
    std = raw.std(axis=0, ddof=1)
    if not (np.allclose(table[:, 0], mean, rtol=STATS_TOL, atol=STATS_TOL)
            and np.allclose(table[:, 1], std, rtol=STATS_TOL, atol=STATS_TOL)):
        return ["exposure.txt: mean/std rows do not match the raw counts"]
    return []


def _check_verify(e: dict, stdout: str, out: Path) -> list[str]:
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return ["verify printed no results"]
    return [f"verify: {line}" for line in lines if not line.startswith("PASS ")]


def _check_refuse(e: dict, stdout: str, out: Path) -> list[str]:
    written = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
    return [f"refused command wrote {written}"] if written else []


_CHECKS = {
    "rate": _check_rate,
    "plan": _check_plan,
    "plan2d": _check_plan2d,
    "expose": _check_expose,
    "verify": _check_verify,
    "refuse": _check_refuse,
}


def check(command: Command, code, stdout: str, stderr: str, out: Path) -> list[str]:
    """Problems with one finished command; an empty list means it passed."""
    if code != command.expect_exit:
        tail = stderr.strip().splitlines()[-1:] or ["no message"]
        return [f"exit code {code}, expected {command.expect_exit}: {tail[0]}"]
    return _CHECKS[command.expect["kind"]](command.expect, stdout, out)
