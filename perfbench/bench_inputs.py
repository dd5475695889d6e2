"""Seeded input generator for the qlitho benchmark workloads.

A workload is one *pass*: a fixed list of command slots.  Each slot fixes
what sets a command's cost (pair count and photon numbers, grid samples,
plan entries, grains and repeats), and the seed fills in everything else
(pair order, target pixels, bitmaps, transmission, absorption order within
its range, normalization, film seed, command order).  So every seed runs
the same mix of costs on different inputs, which keeps medians and tail
percentiles comparable across seeds.  On ``brute-rates`` pair order,
targets and command order move a command's cost too, so there they come
from a draw that does not depend on the seed.

The generator writes config and pattern files into a directory and returns
the commands that use them, each with the exit code it must return and the
facts its output check needs.  It does not import qlitho: the checks must
not depend on the code they check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("brute-rates", "plan-expose-2d")

EXIT_OK = 0
EXIT_CONFIG = 2


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output must satisfy.

    ``argv`` omits ``--out``; the runner appends a fresh directory for each
    execution when ``takes_out`` is set.  ``expect`` holds the facts the
    check needs (kind, samples, normalization, pixels, grains, ...).
    """

    name: str
    argv: tuple[str, ...]
    expect_exit: int
    expect: dict = field(default_factory=dict)
    takes_out: bool = True


def pixel_count(photons) -> int:
    return math.prod(n + 1 for n in photons)


def period(photons) -> Fraction:
    """Pattern period in wavelengths: pixel count times pixel width 1/(2(n1+1))."""
    return Fraction(pixel_count(photons), 2 * (photons[0] + 1))


def _config(photons, samples=None, x_max=None, *, targets=None, order=None,
            transmission=None, normalize=None, two_d=False, film=None) -> str:
    """INI text of a nested geometry: pair j scales by 1/(n_j + 1) of pair j-1."""
    scaling = Fraction(1)
    lines = []
    for i, n in enumerate(photons):
        if i:
            scaling /= n + 1
        lines.append(f"    photons={n} scaling={scaling}")
    text = "[geometry]\npairs =\n" + "\n".join(lines) + "\n"
    if samples is not None:
        text += f"\n[grid]\nx_min = 0\nx_max = {float(x_max)!r}\nsamples = {samples}\n"
    if targets is not None:
        text += "\n[plan]\ntargets = " + " ".join(str(t) for t in targets) + "\n"
    if order is not None:
        text += f"\n[absorption]\norder = {order}\n"
    if transmission is not None:
        text += f"\n[loss]\ntransmission = {transmission!r}\n"
    if film is not None:
        text += "\n[film]\n" + "".join(f"{k} = {v!r}\n" for k, v in film.items())
    output = {}
    if normalize is not None:
        output["normalize"] = normalize
    if two_d:
        output["two_d"] = "true"
    if output:
        text += "\n[output]\n" + "".join(f"{k} = {v}\n" for k, v in output.items())
    return text


class _Writer:
    """Numbers files in the input directory and collects commands."""

    def __init__(self, directory: Path, rng: random.Random, fixed: random.Random):
        self.directory = directory
        self.rng = rng
        self.fixed = fixed
        self.commands: list[Command] = []

    def file(self, stem: str, text: str) -> str:
        path = self.directory / f"{len(self.commands):03d}-{stem}"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def add(self, name, argv, expect_exit=EXIT_OK, takes_out=True, **expect):
        self.commands.append(Command(name, tuple(argv), expect_exit, expect, takes_out))

    def shuffled(self, photons, rng=None) -> tuple[int, ...]:
        """A pair order drawn from ``rng``, the seeded one by default."""
        order = list(photons)
        (rng or self.rng).shuffle(order)
        return tuple(order)

    def targets(self, photons, count, rng=None) -> list[int]:
        return sorted((rng or self.rng).sample(range(1, pixel_count(photons) + 1), count))


# ---------------------------------------------------------------------------
# brute-rates: Fock-space rates at full and lower order, with and without loss
# ---------------------------------------------------------------------------

BRUTE_SAMPLES = 512
# (photon numbers, plan entries, recipe).  "full" geometries get the whole
# recipe, including loss; "wide" ones (6-9 pairs) only the lossless commands,
# because their loss mixtures would run for minutes.
BRUTE_SLOTS = (
    ((3, 3), 2, "full"),
    ((2, 4), 2, "full"),
    ((2, 2, 2), 2, "full"),
    ((3, 2, 1, 1), 2, "full"),
    ((2, 1, 1, 1, 1), 2, "full"),
    ((4, 1, 1, 1, 1, 1), 1, "wide"),
    ((3, 1, 1, 1, 1, 1, 1), 1, "wide"),
    ((1,) * 9, 1, "single"),
)


def _brute_rates(w: _Writer) -> None:
    # Pair order and targets set a brute command's cost (up to 1.5 times
    # apart on one geometry), and command order sets which command of a
    # geometry builds its transfer matrices and which finds them cached.  So
    # all three come from the seed-independent draw: the seed picks
    # transmission and the lower order.
    for base, entries, recipe in BRUTE_SLOTS:
        photons = w.shuffled(base, w.fixed)
        n = sum(photons)
        x_max = period(photons)

        def rate(label, engine, normalize, order=None, transmission=None):
            targets = w.targets(photons, entries, w.fixed)
            path = w.file(f"{label}.ini", _config(
                photons, BRUTE_SAMPLES, x_max, targets=targets, order=order,
                transmission=transmission, normalize=normalize))
            w.add(f"rate-{label}-{len(photons)}p", ["rate", "--config", path, "--engine", engine],
                  kind="rate", engine=engine, samples=BRUTE_SAMPLES,
                  normalize=normalize, two_d=False)

        rate("both", "both", "peak")
        if recipe == "single":
            continue
        rate("brute-lower1", "brute", "peak", order=n - 1)
        if recipe == "wide":
            continue
        # Full order a second time, so that one of the two hits the transfer cache.
        rate("brute-full", "brute", "raw", order=n)
        rate("brute-lower", "brute", "raw", order=w.rng.randint(math.ceil(n / 2), n - 2))
        rate("brute-loss", "brute", "peak", transmission=round(w.rng.uniform(0.8, 0.99), 4))
        rate("brute-loss-lower", "brute", "peak", order=n - 1,
             transmission=round(w.rng.uniform(0.8, 0.99), 4))
    w.fixed.shuffle(w.commands)


# ---------------------------------------------------------------------------
# plan-expose-2d, part 1: 2D plans and 2D rate products on large grids
# ---------------------------------------------------------------------------

# (photon numbers, bitmap side, grid samples, share of pixels set, negative)
BITMAP_SLOTS = (
    ((3, 3), 16, 256, 0.3, False),
    ((4, 3), 20, 256, 0.3, False),
    ((2, 1, 1, 1), 24, 320, 0.3, False),
    ((3, 1, 1, 1), 32, 384, 0.3, False),
    ((4, 1, 1, 1), 40, 768, 0.3, False),
    ((3, 3), 16, 256, 0.3, True),
    ((4, 3), 20, 320, 0.3, True),
)
# (photon numbers, grid samples, plan entries) for `rate` with two_d = true.
RATE_2D_SLOTS = (
    ((3, 3), 256, 2),
    ((2, 2, 1), 320, 3),
    ((2, 2, 1), 512, 3),
)


def _bitmap_2d(w: _Writer) -> None:
    for base, side, samples, share, negative in BITMAP_SLOTS:
        photons = w.shuffled(base)
        cells = w.rng.sample(range(side * side), round(share * side * side))
        bits = [[0] * side for _ in range(side)]
        for cell in cells:
            bits[cell // side][cell % side] = 1
        pattern = w.file("bitmap.txt", "\n".join(" ".join(map(str, row)) for row in bits) + "\n")
        config = w.file("bitmap.ini", _config(photons, samples, period(photons)))
        argv = ["plan", "--config", config, "--pattern", pattern]
        if negative:
            argv.append("--negative")
        entries = side * side - len(cells) if negative else len(cells)
        w.add(f"plan-bitmap{side}{'-neg' if negative else ''}", argv,
              kind="plan2d", samples=samples, entries=entries)
    for base, samples, entries in RATE_2D_SLOTS:
        photons = w.shuffled(base)
        config = w.file("rate2d.ini", _config(
            photons, samples, period(photons), targets=w.targets(photons, entries),
            normalize="peak", two_d=True))
        w.add(f"rate-2d-{samples}", ["rate", "--config", config],
              kind="rate", engine="closed", samples=samples, normalize="peak", two_d=True)


# ---------------------------------------------------------------------------
# plan-expose-2d, part 2: many short 1D commands on small grids
# ---------------------------------------------------------------------------

# (photon numbers, grid samples, targets) for plans; negatives cover the rest.
PLAN_SLOTS = (
    ((3, 3), 256, 2), ((3, 3), 512, 3), ((2, 4), 1024, 3), ((2, 4), 2048, 4),
    ((2, 2, 2), 512, 4), ((2, 2, 2), 1024, 6), ((4, 1, 1, 1), 1024, 5),
    ((4, 1, 1, 1), 2048, 8), ((3, 2, 1), 256, 3), ((3, 2, 1), 2048, 6),
)
NEGATIVE_SLOTS = (
    ((3, 3), 512, 3), ((3, 3), 1024, 5), ((2, 4), 256, 4), ((2, 4), 2048, 6),
    ((2, 2, 2), 1024, 9), ((4, 1, 1, 1), 512, 10), ((3, 2, 1), 1024, 8),
    ((3, 2, 1), 2048, 12),
)
# (photon numbers, plan entries, grains per pixel, repeats)
EXPOSE_SLOTS = (
    ((3, 3), 2, 500, 20), ((3, 3), 3, 2000, 50), ((2, 4), 2, 1000, 100),
    ((2, 2, 2), 4, 1500, 60), ((4, 1, 1, 1), 5, 500, 200), ((3, 2, 1), 3, 2000, 20),
    ((2, 4), 4, 1000, 150), ((3, 2, 1), 6, 800, 80),
)
VERIFY_SUITES = (None, "oracle", "sum-to-one", "zero-at-centers", "table-one")
REFUSALS = ("too-many-pixels", "closed-lower-order", "closed-lossy")
REFUSALS_PER_PASS = 3


def _plan_expose(w: _Writer) -> None:
    normalizations = ("raw", "peak", "pixelsum")
    for base, samples, count in PLAN_SLOTS:
        photons = w.shuffled(base)
        periods = w.rng.choice((1, 2))
        normalize = w.rng.choice(normalizations)
        config = w.file("plan.ini", _config(photons, samples, periods * period(photons),
                                             normalize=normalize))
        pattern = w.file("targets.txt", " ".join(map(str, w.targets(photons, count))) + "\n")
        w.add("plan", ["plan", "--config", config, "--pattern", pattern],
              kind="plan", samples=samples, normalize=normalize, entries=count)
    for base, samples, count in NEGATIVE_SLOTS:
        photons = w.shuffled(base)
        normalize = w.rng.choice(normalizations)
        config = w.file("negative.ini", _config(photons, samples, period(photons),
                                                 normalize=normalize))
        pattern = w.file("targets.txt", "\n".join(map(str, w.targets(photons, count))) + "\n")
        w.add("plan-negative", ["plan", "--config", config, "--pattern", pattern, "--negative"],
              kind="plan", samples=samples, normalize=normalize,
              entries=pixel_count(photons) - count, negative=True)
    for base, entries, grains, repeats in EXPOSE_SLOTS:
        photons = w.shuffled(base)
        film = {
            "grains": grains,
            "absorb_prob": round(w.rng.uniform(0.005, 0.05), 4),
            "shots": w.rng.randint(50, 200),
            "seed": w.rng.randint(0, 2**31 - 1),
            "repeats": repeats,
        }
        config = w.file("expose.ini", _config(photons, targets=w.targets(photons, entries), film=film))
        w.add("expose", ["expose", "--config", config],
              kind="expose", pixels=pixel_count(photons), grains=grains, repeats=repeats)
    for suite in VERIFY_SUITES:
        argv = ["verify"] if suite is None else ["verify", "--suite", suite]
        w.add(f"verify-{suite or 'all'}", argv, takes_out=False, kind="verify")
    for reason in w.rng.sample(REFUSALS, REFUSALS_PER_PASS):
        photons = w.shuffled((3, 3))
        if reason == "too-many-pixels":
            config = w.file("refuse.ini", _config(photons, 256, period(photons)))
            pattern = w.file("targets.txt", " ".join(
                str(p) for p in range(1, pixel_count(photons) + 2)) + "\n")
            argv = ["plan", "--config", config, "--pattern", pattern]
        else:
            lossy = reason == "closed-lossy"
            config = w.file("refuse.ini", _config(
                photons, 256, period(photons), targets=w.targets(photons, 2),
                order=None if lossy else sum(photons) - 1,
                transmission=0.9 if lossy else None))
            argv = ["rate", "--config", config, "--engine", "closed"]
        w.add(f"refuse-{reason}", argv, expect_exit=EXIT_CONFIG, kind="refuse")


def _plan_expose_2d(w: _Writer) -> None:
    # One workload, not two, so that each run can be longer within the time
    # the benchmark may take: the short 1D commands set the median, the 2D
    # ones the tail and the throughput.
    _bitmap_2d(w)
    _plan_expose(w)
    w.rng.shuffle(w.commands)


_GENERATORS = {"brute-rates": _brute_rates, "plan-expose-2d": _plan_expose_2d}


def generate(workload: str, seed: int, directory: Path) -> list[Command]:
    """Write the workload's input files for ``seed`` and return one pass of commands.

    The same workload and seed give the same files and commands, in the same
    order, whatever the directory.
    """
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    directory.mkdir(parents=True, exist_ok=True)
    writer = _Writer(directory, random.Random(f"{workload}:{seed}"), random.Random(workload))
    _GENERATORS[workload](writer)
    return writer.commands
