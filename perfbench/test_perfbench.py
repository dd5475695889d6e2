"""Tests of the benchmark itself: input generation, span arithmetic, failure counting."""

import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from bench_inputs import WORKLOADS, Command, generate  # noqa: E402
from bench_runner import FastestCpu, Tally, run_command, run_pass  # noqa: E402
from bench_trace import Span, Tracer, self_times  # noqa: E402
from qlitho import cli  # noqa: E402


def _snapshot(directory: Path, commands):
    files = {p.name: p.read_text() for p in sorted(directory.iterdir())}
    argvs = [tuple(a.replace(str(directory), "<in>") for a in c.argv) for c in commands]
    return files, argvs, [(c.name, c.expect_exit, c.expect) for c in commands]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_inputs(workload, tmp_path):
    first = _snapshot(tmp_path / "a", generate(workload, 7, tmp_path / "a"))
    again = _snapshot(tmp_path / "b", generate(workload, 7, tmp_path / "b"))
    other = _snapshot(tmp_path / "c", generate(workload, 8, tmp_path / "c"))
    assert first == again
    assert first[0] != other[0]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0, 100),
        Span("a", 10, 40, parent=0),
        Span("a.inner", 15, 25, parent=1),
        Span("b", 30, 60, parent=0),  # overlaps a: 10..60 is covered once
        Span("c", 90, 130, parent=0),  # overhangs the root: only 90..100 counts
    ]
    assert self_times(spans) == [100 - 50 - 10, 30 - 10, 10, 30, 40]


def test_tracer_patches_imported_names_and_restores_them():
    from qlitho import deposition, exposure, fock, planner

    originals = (fock.absorption_transfer, deposition.absorption_transfer,
                 planner.plan_rate_values, exposure.plan_rate_values, cli.load_config)
    tracer = Tracer()
    tracer.install()
    try:
        assert deposition.absorption_transfer is fock.absorption_transfer is not originals[0]
        assert exposure.plan_rate_values is planner.plan_rate_values is not originals[2]
        assert cli.load_config is not originals[4]
        assert fock.absorption_transfer.cache_clear
    finally:
        tracer.uninstall()
    assert (fock.absorption_transfer, deposition.absorption_transfer, planner.plan_rate_values,
            exposure.plan_rate_values, cli.load_config) == originals
    assert not tracer.missing


def test_best_of_passes_takes_each_commands_fastest_run():
    tally = Tally(times_ms=[5.0, 40.0, 7.0, 30.0, 6.0, 60.0])  # 3 passes of 2 commands
    assert tally.best_ms(2) == [5.0, 30.0]
    with pytest.raises(ValueError):
        tally.best_ms(4)


def test_fastest_cpu_pins_the_client_to_one_usable_cpu_when_due():
    allowed = os.sched_getaffinity(0)
    cpu = FastestCpu(every_ms=1000.0)
    try:
        cpu.settle(0.0)
        assert os.sched_getaffinity(0) == ({cpu.cpu} if len(allowed) > 1 else allowed)
        assert cpu.cpu in allowed
        due, turn = cpu.due_ms, cpu.turn
        cpu.settle(999.0)
        assert (cpu.due_ms, cpu.turn) == (due, turn)
    finally:
        os.sched_setaffinity(0, allowed)


def _plan_command(tmp_path, text, expect_exit=0):
    config = tmp_path / "run.ini"
    config.write_text(text)
    return Command("plan", ("plan", "--config", str(config)), expect_exit,
                   {"kind": "plan", "samples": 64, "normalize": "peak", "entries": 1})


PLAN_INI = """[geometry]
pairs =
    photons=3 scaling=1
    photons=3 scaling=1/4
[grid]
x_min = 0
x_max = 2
samples = 64
[plan]
targets = 6
[output]
normalize = peak
"""


def test_passing_command_is_counted_once(tmp_path):
    tally = Tally()
    run_command(cli.main, _plan_command(tmp_path, PLAN_INI), tmp_path / "out", tally)
    assert (tally.attempted, tally.failures, len(tally.times_ms)) == (1, [], 1)
    assert not (tmp_path / "out").exists()


def test_unexpected_exit_code_is_a_failure(tmp_path):
    broken = PLAN_INI.replace("[grid]\nx_min = 0\nx_max = 2\nsamples = 64\n", "")
    tally = Tally()
    run_command(cli.main, _plan_command(tmp_path, broken), tmp_path / "out", tally)
    assert tally.attempted == 1
    assert len(tally.failures) == 1 and "exit code 2, expected 0" in tally.failures[0]


def test_expected_refusal_that_succeeds_is_a_failure(tmp_path):
    tally = Tally()
    run_command(cli.main, _plan_command(tmp_path, PLAN_INI, expect_exit=2), tmp_path / "out", tally)
    assert tally.attempted == 1 and len(tally.failures) == 1


def test_corrupted_output_is_a_failure(tmp_path):
    def corrupting_main(argv):
        code = cli.main(argv)
        path = Path(argv[argv.index("--out") + 1]) / "plan_profile.csv"
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",nan"
        path.write_text("\n".join(lines) + "\n")
        return code

    tally = Tally()
    run_pass(corrupting_main, [_plan_command(tmp_path, PLAN_INI)], tmp_path / "out", tally)
    assert tally.attempted == 1
    assert len(tally.failures) == 1 and "non-finite rate" in tally.failures[0]


def test_raising_command_is_a_failure(tmp_path):
    def raising_main(argv):
        raise FileNotFoundError("pattern.txt")

    tally = Tally()
    run_command(raising_main, _plan_command(tmp_path, PLAN_INI), tmp_path / "out", tally)
    assert tally.attempted == 1
    assert len(tally.failures) == 1 and "FileNotFoundError" in tally.failures[0]
