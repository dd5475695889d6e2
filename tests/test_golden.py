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

from qlitho import deposition, planner
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
        'plan.txt': 'a84c224ca6e590e920f69b919793140b79e88c45f8e259a16e6a54050dbf327b',
        'plan_profile.csv': '66b09c4c828d00fe46caf41707b4d82faa78d589cc2368cc3af83c159f66557d',
        'plan_report.txt': 'f5b23768c441ea30cfa84859e49d695ce1cff0655508c7956d46707a36fd2ffb',
    },
    'plan-bitmap': {
        'exit': 0,
        'stdout': '21eb4326c5ed922370f75b0d83138986a99cfcdddcb26af7d535946c89f25e75',
        'plan.txt': 'ad58ea75f9771ce38f4bdf32defc475d425cb1f5a5f71703bcb5f99809eb05f1',
        'plan_profile_2d.csv': 'ca5a321305e1f0465d61f9663d24f8017806934670e51bea88bbfa15dd64b3df',
    },
    'plan-negative': {
        'exit': 0,
        'stdout': '81a245c6f14fe8000f0ea7074af7491e3c934279a316591655eae58a3c8df0a3',
        'plan.txt': '3b9202cb1a48a08710f7403702c83f0c457cccbaabe046c41d527b44c700a4e2',
        'plan_profile.csv': '4a826458c4a8e320c4e2e738ef9ee0541534c2b606090bda5b075b16df7d93f5',
        'plan_report.txt': '3a0316305ad0f30d6afd9daa5d1254fb034bb6d3e611e4af39da4bd32d9c70e7',
    },
    'plan-negative-peak': {
        'exit': 0,
        'stdout': '81a245c6f14fe8000f0ea7074af7491e3c934279a316591655eae58a3c8df0a3',
        'plan.txt': '40b5ac61ee94d6c9df1f81426033e3d3f3366e8cb2c6e46eed6514cc9b92d096',
        'plan_profile.csv': '8ccfe7aba7f498ee816ba570a75a048e49ef771013c251ac7d46c4d96599c4e4',
        'plan_report.txt': 'b08306b2bc735ec6dcee7ee18ffa35e05bdedbd10b0e74313436c8f293b29f1c',
    },
    'plan-raw': {
        'exit': 0,
        'stdout': 'b1d8b5707c29e8f651da057056765f5a70b53fe91948178498f6a62e9b12908a',
        'plan.txt': 'fc5caffeca2029f0d277cb9960aba99d3af1f28d0a39dfde60af90b5d140d026',
        'plan_profile.csv': '1c4ea7689243818acfd1c7c39f905f63fa4cf0c3c5daed4481972e8e33fdfef3',
        'plan_report.txt': '5ebd27ee6fee874e3c27b34144cee963ec1ddc9643fe4769853b2508c61f5ac2',
    },
    'rate-both': {
        'exit': 0,
        'stdout': '805d0d0cef0e80927dde85fbdcfffaab8577352042b7270fd4afe6f638e4adb5',
        'profile_2d.csv': '7261b38ec4ecc296462b06ab5f76a992f3654784008c1d7a56e8bdac1bdfdf46',
        'profile_brute.csv': 'bd1e39c69891d1e2443be7fda2c2c08b1051bb19c040909e7ccdcffb41ded689',
        'profile_closed.csv': 'e13263d6b0080cfc61807b494fc2223ef129673ca90f79de9e24172c5b24a1de',
    },
    'verify': {
        'exit': 0,
        'stdout': 'e922b362a598e3ff80b62e701a2a122e9a3f26b1fb50ffb4b4e6c71132d922ba',
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


def test_brute_profile_matches_generic_engine(tmp_path):
    """Pins the rates of the ``rate-both`` brute profile, not only its bytes, to
    the generic sparse engine run on the whole plan mixture."""
    run_case("rate-both", tmp_path)
    lines = (tmp_path / "out" / "profile_brute.csv").read_text().splitlines()
    rows = np.array([[float(v) for v in l.split(",")] for l in lines[lines.index("x_lambda,rate") + 1 :]])
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
