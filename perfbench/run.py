"""qlitho benchmark: seeded CLI workloads timed end to end, with a traced layer breakdown.

Usage, from the repository root:

    python3 perfbench/run.py --workload brute-rates --seed 1 --seconds 20 --trace 0

One client drives ``qlitho.cli.main(argv)`` in this process in a closed
loop over whole passes of the workload's generated commands, until the
commands have run for ``--seconds`` seconds.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs every workload, each in its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("brute-rates", "plan-expose-2d")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# Set-up is repeated this many times in fresh processes, besides the run's own.
SETUP_REPEATS = 4
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used to repeat set-up)")
    return parser.parse_args(argv)


def cap_blas_threads() -> int:
    """Cap BLAS threads at the cores this process may use; must precede the numpy import."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cap):
            os.environ[var] = str(cap)
    return min(int(os.environ[var]) for var in BLAS_THREAD_VARS)


def load_cli():
    """Import qlitho from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import qlitho.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import qlitho from {SRC}: {exc}")
    if not Path(qlitho.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: qlitho was imported from {qlitho.cli.__file__}, not {SRC}")
    return qlitho.cli


def run_header(seed: int, blas_threads: int) -> dict:
    import numpy

    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "seed": seed,
    }


def repeated_setups(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh processes: interpreter start-up excluded, import included."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--setup-only"],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed: {done.stderr.strip()[-500:]}")
        times.append(float(done.stdout.split()[-1]))
    return times


def measure(main, commands, out, tally, args, setup_s) -> dict:
    """Untraced whole passes until the commands have run for ``--seconds``: end-to-end metrics."""
    import numpy as np
    from bench_runner import FastestCpu, run_pass

    cpu = FastestCpu()
    while not tally.attempted or tally.busy_ms < args.seconds * 1000.0:
        run_pass(main, commands, out, tally, cpu=cpu)
    # A command's time is its fastest over the run's passes (best of k, as
    # timeit reports it).  On a shared 2-vCPU VM the machine's speed switches
    # between levels up to twice apart for seconds to minutes at a time, which
    # moves any mean or median over the run; a command's fastest pass steps
    # aside from the slow spells as long as one pass ran outside them.
    passes = len(tally.times_ms) // len(commands)
    times = np.array(tally.best_ms(len(commands)))
    # Empirical quantiles (no interpolation): each is a measured time.
    p50, p90 = np.percentile(times, [50, 90], method="inverted_cdf")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    setups = [setup_s] + repeated_setups(args.workload, args.seed)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "cmd_ms_p50": metric(float(p50), "ms"),
        "cmd_ms_p90": metric(float(p90), "ms"),
        "cmds_per_s": metric(times.size / (times.sum() / 1000.0), "1/s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    for name, m in metrics.items():
        print(f"{name:12s} {m['value']:12.6g} {m['unit']}")
    print(f"samples      {times.size} commands, best of {passes} passes each, "
          f"{int((times > p90).sum())} beyond p90; "
          f"set-ups {', '.join(f'{s:.4f}' for s in setups)} s")
    return metrics


def trace(main, commands, out, tally, args) -> dict:
    """Alternate untraced and traced passes, swapping their order each round: per-layer metrics.

    The tracing overhead is the traced over the untraced wall time of the
    same passes, minus one.
    """
    from bench_runner import FastestCpu, run_pass
    from bench_trace import LAYER_METRICS, Tracer

    cpu = FastestCpu()
    tracer = Tracer()
    spent = {False: 0.0, True: 0.0}
    order = (False, True)
    while not spent[True] or spent[False] + spent[True] < args.seconds * 1000.0:
        for traced in order:
            if not traced:
                spent[False] += run_pass(main, commands, out, tally, cpu=cpu)
                continue
            tracer.install()
            try:
                spent[True] += run_pass(main, commands, out, tally, tracer, cpu)
            finally:
                tracer.uninstall()
        order = order[::-1]
    if tracer.missing:
        print(f"# not traced, absent from qlitho: {', '.join(tracer.missing)}")
    tracer.write(WORK / f"spans-{args.workload}.jsonl")
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    print(f"# traced {tracer.commands} commands of {tally.attempted}, "
          f"{tracer.command_ms:.3f} ms per traced command")
    metrics = {}
    for name, value in tracer.layer_metrics(spent[True] / spent[False] - 1.0).items():
        metrics[name] = metric(value, units[name])
        share = f"  ({value / tracer.command_ms:6.1%} of command time)" if units[name] == "ms" else ""
        print(f"{name:32s} {value:14.6g} {units[name]}{share}")
    return metrics


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_all(args) -> int:
    """Every workload in its own process; relays reports and merges the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            print(f"perfbench: workload {workload} exited with {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


class Terminated(BaseException):
    """SIGTERM, raised past the runner's handlers so that clean-up still runs."""


def _terminate(signum, frame):
    raise Terminated(signum)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    blas_threads = cap_blas_threads()
    run_dir = WORK / f"run-{os.getpid()}"
    signal.signal(signal.SIGTERM, _terminate)
    try:
        # numpy loads here, through qlitho, after the BLAS cap and inside the timed set-up;
        # so the bench modules, which import numpy too, are imported late as well.
        cli = load_cli()
        from bench_inputs import generate
        from bench_runner import Tally

        commands = generate(args.workload, args.seed, run_dir / "in")
        setup_s = time.perf_counter() - started
        if args.setup_only:
            print(f"setup_s {setup_s!r}")
            return 0

        print("# run " + json.dumps(run_header(args.seed, blas_threads)))
        print(f"# workload {args.workload}: {len(commands)} commands per pass, "
              f"{sum(c.expect_exit != 0 for c in commands)} expected to be refused")
        tally = Tally()
        if args.trace:
            metrics = trace(cli.main, commands, run_dir / "out", tally, args)
        else:
            metrics = measure(cli.main, commands, run_dir / "out", tally, args, setup_s)
        failed = len(tally.failures)
        print(f"error_rate   {failed / tally.attempted:12.6g} ({failed} of {tally.attempted} failed)")
        for failure in tally.failures:
            print(f"# FAILED {failure}")
        print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    except Terminated:
        return 128 + signal.SIGTERM
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
