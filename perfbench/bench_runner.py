"""Closed-loop runner: one client issues each command after the previous one ends.

Each command is timed by wall clock from the call into ``qlitho.cli.main``
until it returns, which is after its output files are written.  Its
outputs are then checked, outside the timed interval, and removed.
"""

from __future__ import annotations

import io
import os
import shutil
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from bench_checks import check
from bench_inputs import Command


@dataclass
class Tally:
    """Per-command wall times, passing or not, and every failure."""

    times_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def busy_ms(self) -> float:
        return sum(self.times_ms)

    def best_ms(self, per_pass: int) -> list[float]:
        """Each command's fastest time over the whole passes recorded so far."""
        if not self.times_ms or len(self.times_ms) % per_pass:
            raise ValueError(f"{len(self.times_ms)} times are not whole passes of {per_pass}")
        return [min(self.times_ms[slot::per_pass]) for slot in range(per_pass)]


def clear_program_caches() -> None:
    """Empty every functools cache on a qlitho module, as a fresh process would have."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "qlitho" or name.startswith("qlitho.")):
            continue
        for value in vars(module).values():
            cache_clear = getattr(value, "cache_clear", None)
            if callable(cache_clear):
                cache_clear()


def run_command(main, command: Command, out: Path, tally: Tally, tracer=None, command_id=-1) -> float:
    """Run, time and check one command; record it in ``tally``; return its wall ms."""
    argv = list(command.argv) + (["--out", str(out)] if command.takes_out else [])
    stdout, stderr = io.StringIO(), io.StringIO()
    span = tracer.command(command_id) if tracer else nullcontext()
    code = None
    problems = []
    with span, redirect_stdout(stdout), redirect_stderr(stderr):
        start = time.perf_counter_ns()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            problems = ["raised " + traceback.format_exc().strip().splitlines()[-1]]
        elapsed_ms = (time.perf_counter_ns() - start) / 1e6
    tally.attempted += 1
    if not problems:
        problems = check(command, code, stdout.getvalue(), stderr.getvalue(), out)
    if problems:
        tally.failures.append(f"{command.name} {' '.join(command.argv)}: {'; '.join(problems)}")
    tally.times_ms.append(elapsed_ms)
    shutil.rmtree(out, ignore_errors=True)
    return elapsed_ms


class FastestCpu:
    """Keeps the commands on whichever usable CPU currently runs a fixed loop fastest.

    On a shared VM each vCPU slows down on its own, by up to 1.5 times, for
    seconds to minutes, while the scheduler leaves a lone busy thread where
    it is.  So every ``every_ms`` of command time the calling thread times
    the loop on its CPU and on one other, taken in turn, and stays on or
    moves to the faster.  This runs between commands, outside every timed
    interval, and moves no other thread.
    """

    def __init__(self, every_ms: float = 500.0):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.cpu = self.cpus[0]
        self.every_ms = every_ms
        self.due_ms = 0.0
        self.turn = 0

    @staticmethod
    def _loop_s() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        return time.perf_counter() - start

    def settle(self, busy_ms: float) -> None:
        if len(self.cpus) < 2 or busy_ms < self.due_ms:
            return
        self.due_ms = busy_ms + self.every_ms
        rivals = [cpu for cpu in self.cpus if cpu != self.cpu]
        rival = rivals[self.turn % len(rivals)]
        self.turn += 1
        speed = {}
        for cpu in (self.cpu, rival):
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(self._loop_s() for _ in range(4))
        self.cpu = min(speed, key=speed.get)
        os.sched_setaffinity(0, {self.cpu})


def run_pass(main, commands, out_root: Path, tally: Tally, tracer=None, cpu=None) -> float:
    """One pass over the commands from cold program caches; returns its wall ms.

    ``cpu``, a ``FastestCpu``, moves the client to the fastest CPU between commands.
    """
    clear_program_caches()
    total = 0.0
    for command in commands:
        if cpu:
            cpu.settle(tally.busy_ms)
        command_id = tally.attempted
        total += run_command(main, command, out_root / f"c{command_id}", tally, tracer, command_id)
    return total
