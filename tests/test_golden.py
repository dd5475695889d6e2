"""Golden-output guard: fixed CLI runs must keep their exact output bytes.

Each case runs one command on a fixed config and compares the SHA-256
digest of every output file, of stdout and the exit code against values
recorded from a known-good build.  A refactor that claims "same numbers"
must leave these digests alone; a deliberate format or numerics change
updates them, and says so.  Printed deviations that are pure roundoff
are checked against their bound and replaced by a placeholder before
hashing, so their last digits are not pinned.  To print fresh digests
after a deliberate change:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import re
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from qlitho import deposition, imperfections, planner
from qlitho.cli import main
from qlitho.config import load_config

PAIR33 = """
[geometry]
pairs =
    photons=3 scaling=1
    photons=3 scaling=1/4
"""

CONFIGS = {
    "plan.ini": PAIR33 + """
[grid]
x_min = 0
x_max = 2
samples = 257

[plan]
targets = 2 6 11

[output]
normalize = peak
""",
    "negative.ini": PAIR33 + """
[grid]
x_min = 0
x_max = 2
samples = 200

[plan]
targets = 3 4 9 14

[output]
normalize = pixelsum
""",
    "negative-peak.ini": PAIR33 + """
[grid]
x_min = 0
x_max = 2
samples = 129

[plan]
targets = 1 5 6 12

[output]
normalize = peak
""",
    "raw.ini": PAIR33 + """
[grid]
x_min = 0
x_max = 2
samples = 160

[plan]
targets = 4 7 13
weights = 2 1 1

[output]
normalize = raw
""",
    "both.ini": """
[geometry]
pairs =
    photons=2 scaling=1
    photons=1 scaling=1/2
    photons=1 scaling=1/4

[grid]
x_min = 0
x_max = 3
samples = 96

[plan]
targets = 2 7 10

[output]
normalize = peak
two_d = true
""",
    "bitmap.ini": PAIR33 + """
[grid]
x_min = -0.25
x_max = 1.75
samples = 64
""",
    "bitmap.txt": """
# a diagonal run with one isolated cell
1 0 0 0
0 1 0 0
0 0 1 0
0 0 0 0
1 0 0 0
""",
    "expose.ini": PAIR33 + """
[plan]
targets = 6 11

[film]
grains = 40
absorb_prob = 0.03
shots = 120
seed = 5
repeats = 4
""",
}

CASES = {
    "plan": ["plan", "--config", "plan.ini"],
    "plan-negative": ["plan", "--config", "negative.ini", "--negative"],
    "plan-negative-peak": ["plan", "--config", "negative-peak.ini", "--negative"],
    "plan-raw": ["plan", "--config", "raw.ini"],
    "plan-bitmap": ["plan", "--config", "bitmap.ini", "--pattern", "bitmap.txt"],
    "rate-both": ["rate", "--config", "both.ini", "--engine", "both"],
    "expose": ["expose", "--config", "expose.ini", "--grain-bitmap"],
    "verify": ["verify"],
}

DIGESTS = {
    'expose': {
        'exit': 0,
        'stdout': '3ed1d29964ddd8b5f56f3798dd42d35d1033a12ca0e22f21ff24fb9a13a3bdaa',
        'exposure.txt': '695baa1a3e8f596b955d0e00cc064bc7abad5e050ef950ea8213c3f638f2c8c4',
        'grains.txt': '6e57dcdd87bba11cc344067751cd754e671a269d00a757c246be580cf8ce4447',
    },
    'plan': {
        'exit': 0,
        'stdout': 'b1d8b5707c29e8f651da057056765f5a70b53fe91948178498f6a62e9b12908a',
        'plan.txt': 'f6f774c7c98143913304e2ece438fa59f06d188815a64b8844ba6fe21434bf84',
        'plan_profile.csv': '19aa85d922e3f5f9d4693081318c4dd29acce298fc881bc4ad08618778911b34',
        'plan_report.txt': '1556173cdfcb584c12f3b5b49d56495dbc0d4bf5c9f8a065b07ef9034d9a3219',
    },
    'plan-bitmap': {
        'exit': 0,
        'stdout': '21eb4326c5ed922370f75b0d83138986a99cfcdddcb26af7d535946c89f25e75',
        'plan.txt': 'ad58ea75f9771ce38f4bdf32defc475d425cb1f5a5f71703bcb5f99809eb05f1',
        'plan_profile_2d.csv': '6477c37e2ad997a00044327e773465ee79a8529bb14d878bd4e5de78e981f587',
    },
    'plan-negative': {
        'exit': 0,
        'stdout': '81a245c6f14fe8000f0ea7074af7491e3c934279a316591655eae58a3c8df0a3',
        'plan.txt': 'c0448157623978a3518ac38e192e02d0672cd916e948f2a1348febaf66b48024',
        'plan_profile.csv': '51c340d9c56825987ee63ac54c34cd13d962cda54b37d0049b6ae4a93f4f727b',
        'plan_report.txt': '729e524db8ff95196c66df6bc1154ce3724c8f01be771b2c062c6cf41589d6d3',
    },
    'plan-negative-peak': {
        'exit': 0,
        'stdout': '81a245c6f14fe8000f0ea7074af7491e3c934279a316591655eae58a3c8df0a3',
        'plan.txt': '2024f5e63cf4204b334f136bd6e2a5100cdd8a2adc530316fe68ee5908e14a49',
        'plan_profile.csv': 'ebf46524140ed785203961248071913da8c65697a22ab37fc8ad723ceb8c6abe',
        'plan_report.txt': '21692db280bb9ccc3720de27b75bce58055c732e9470d34873c673080bc70869',
    },
    'plan-raw': {
        'exit': 0,
        'stdout': 'b1d8b5707c29e8f651da057056765f5a70b53fe91948178498f6a62e9b12908a',
        'plan.txt': '859076992c854b1793541fd448f0f3ee4d14ef3495c5cd3cd95ace3fd6abf767',
        'plan_profile.csv': 'a672ac46258b0612f87e907f3f9a2e0562a38b629c5ff62f7ac256d033272d07',
        'plan_report.txt': 'bf8ec959bba8fbd009b75b59fd79fd3a63c4ba1139ec190439d82fc0c40c3f1f',
    },
    'rate-both': {
        'exit': 0,
        'stdout': '805d0d0cef0e80927dde85fbdcfffaab8577352042b7270fd4afe6f638e4adb5',
        'profile_2d.csv': 'eb8c318e22ecf9291d180668455543e19744060712d8f0a94b9b7ab9bbdb4353',
        'profile_brute.csv': 'a1b66106bd6e6e9197165d7f4b19f7453084f401f912c25c6c186dd373fbd580',
        'profile_closed.csv': 'b6e740d40430d6ed1babf7597fa288fa84aa43b0ae639b235ea02d7effe6665c',
    },
    'verify': {
        'exit': 0,
        'stdout': 'f89bedba9c044a9f1df0c739fdcdf88af0d5186e60fa67a6c1f2ba1542b0c064',
    },
}


# stdout lines whose number is a roundoff deviation, and the bound it must meet
ROUNDOFF_PREFIXES = (
    "max |closed - brute| after peak normalization: ",
    "sum check: max |original + negative - 1| = ",
)
ROUNDOFF_BOUND = 1e-12

# verify suites whose max_dev is a roundoff deviation, bounded by the line's own tol
ROUNDOFF_SUITES = ("factorized",)
VERIFY_LINE = re.compile(r"(PASS|FAIL) (\S+) \S+ max_dev=(\S+) tol=(\S+)\n")


def mask_roundoff(stdout: str) -> str:
    lines = []
    for line in stdout.splitlines(keepends=True):
        for prefix in ROUNDOFF_PREFIXES:
            if line.startswith(prefix):
                assert float(line[len(prefix):]) <= ROUNDOFF_BOUND, line
                line = prefix + "<roundoff>\n"
        match = VERIFY_LINE.fullmatch(line)
        if match and match[2] in ROUNDOFF_SUITES:
            assert float(match[3]) < float(match[4]), line
            line = line.replace(f"max_dev={match[3]}", "max_dev=<roundoff>")
        lines.append(line)
    return "".join(lines)


def run_case(name: str, root: Path) -> dict:
    """Exit code and SHA-256 digests of stdout and of every output file."""
    for filename, text in CONFIGS.items():
        (root / filename).write_text(text)
    out = root / "out"
    argv = [str(root / a) if a in CONFIGS else a for a in CASES[name]]
    if name != "verify":
        argv += ["--out", str(out)]
    stdout = StringIO()
    with redirect_stdout(stdout):
        code = main(argv)
    record = {
        "exit": code,
        "stdout": hashlib.sha256(mask_roundoff(stdout.getvalue().replace(str(out), "<out>")).encode()).hexdigest(),
    }
    for path in sorted(out.glob("*")) if out.exists() else ():
        record[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return record


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_unchanged(name, tmp_path):
    assert run_case(name, tmp_path) == DIGESTS[name]


def read_profile(path: Path) -> np.ndarray:
    """(x, rate) rows of a written 1D profile."""
    lines = path.read_text().splitlines()
    return np.array([[float(v) for v in l.split(",")] for l in lines[lines.index("x_lambda,rate") + 1 :]])


@pytest.mark.parametrize("name, written", [
    ("plan", "plan_profile.csv"),
    ("plan-negative", "plan_profile.csv"),
    ("plan-negative-peak", "plan_profile.csv"),
    ("plan-raw", "plan_profile.csv"),
    ("rate-both", "profile_closed.csv"),
])
def test_closed_profile_matches_factorized_engine(name, written, tmp_path):
    """Pins the written closed-form rates, not only their bytes, to the factorized
    Fock engine at full order, both scaled to a peak of one."""
    run_case(name, tmp_path)
    rows = read_profile(tmp_path / "out" / written)
    cfg = load_config(tmp_path / CASES[name][2])
    plan = planner.plan_pattern(cfg.geometry(), cfg.targets, cfg.weights)
    if "--negative" in CASES[name]:
        plan = planner.negative_plan(plan)
    fock = imperfections.plan_fock_values(plan, cfg.geometry().total_photons, rows[:, 0])
    assert np.abs(rows[:, 1] / rows[:, 1].max() - fock / fock.max()).max() <= 1e-12


def test_brute_profile_matches_generic_engine(tmp_path):
    """Pins the rates of the ``rate-both`` brute profile, not only its bytes, to
    the generic sparse engine run on the whole plan mixture."""
    run_case("rate-both", tmp_path)
    rows = read_profile(tmp_path / "out" / "profile_brute.csv")
    cfg = load_config(tmp_path / "both.ini")
    plan = planner.plan_pattern(cfg.geometry(), cfg.targets)
    grid = deposition.SamplingGrid(cfg.grid.x_min, cfg.grid.x_max, cfg.grid.samples)
    order = cfg.geometry().total_photons
    generic = deposition.profile_brute(planner.plan_mixture(plan), order, grid, "peak_unity").values
    assert np.array_equal(rows[:, 0], grid.points())
    assert np.abs(rows[:, 1] - generic).max() <= 1e-12 * generic.max()


if __name__ == "__main__":
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {case!r}: {{")
            for key, value in run_case(case, Path(tmp)).items():
                print(f"        {key!r}: {value!r},")
            print("    },")
