"""Command-line surface: rate, plan, expose, verify, table.

Every command reads a config file; flags override file values.  All
outputs are plain text with a header echoing the fully resolved
configuration, written atomically (temp file + rename) once the whole
output set is computed.  Exit codes: 0 success, 1 verification failure,
2 invalid configuration, usage or unreadable input file, 3 computation
error or unwritable output.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import deposition, exposure, imperfections, planner, verify
from .config import (
    ENGINE_CHOICES,
    NORMALIZE_CHOICES,
    ConfigError,
    RunConfig,
    load_config,
    serialize_config,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_COMPUTE = 3

OUT_DIR_ENV = "QLITHO_OUT"


def atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_all(out: Path, outputs: dict) -> None:
    """Write a command's output files; callers build every text first, so a
    failed run leaves no partial output set."""
    for name, text in outputs.items():
        atomic_write(out / name, text)


def _config_header(cfg: RunConfig) -> list[str]:
    lines = ["resolved config:"]
    lines.extend("  " + l for l in serialize_config(cfg).splitlines() if l.strip())
    return lines


def _out_dir(args, cfg: RunConfig) -> Path:
    if args.out:
        return Path(args.out)
    if cfg.out_dir:
        return Path(cfg.out_dir)
    if os.environ.get(OUT_DIR_ENV):
        return Path(os.environ[OUT_DIR_ENV])
    return Path.cwd()


def _load(args) -> RunConfig:
    if not args.config:
        raise ConfigError("--config PATH is required")
    try:
        cfg = load_config(args.config)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if getattr(args, "normalize", None):
        cfg = replace(cfg, normalize=args.normalize)
    if getattr(args, "engine", None):
        cfg = replace(cfg, engine=args.engine)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, film=replace(cfg.film, seed=args.seed))
    if getattr(args, "shots", None) is not None:
        cfg = replace(cfg, film=replace(cfg.film, shots=args.shots))
    if getattr(args, "repeats", None) is not None:
        cfg = replace(cfg, film=replace(cfg.film, repeats=args.repeats))
    return cfg


def _plan_from_config(cfg: RunConfig) -> planner.ExposurePlan:
    geometry = cfg.geometry()
    if cfg.phase_entries is not None:
        n_pairs = len(geometry.pairs)
        entries = []
        weights = cfg.weights or (1.0,) * len(cfg.phase_entries)
        total = sum(weights)
        for turns, w in zip(cfg.phase_entries, weights):
            if len(turns) != n_pairs:
                raise ConfigError(f"[plan]: entry needs {n_pairs} phases, got {len(turns)}")
            entries.append(
                planner.PlanEntry(w / total, tuple(2.0 * np.pi * t for t in turns))
            )
        return planner.ExposurePlan(geometry, tuple(entries))
    if cfg.targets is not None:
        addresses = [
            planner.PixelAddress(p, "x", intermediate=inter) for p, inter in cfg.targets
        ]
        return _pixel_plan(geometry, addresses, cfg.weights)
    # No plan section: a single zero-phase entry (unsteered pattern).
    return planner.ExposurePlan(
        geometry, (planner.PlanEntry(1.0, (0.0,) * len(geometry.pairs)),)
    )


def _pixel_spec(geometry) -> planner.PixelSpec:
    """Pixel grid of the configured geometry; one that is not nested has none."""
    try:
        return planner.PixelSpec.from_geometry(geometry)
    except ValueError as exc:
        raise ConfigError(f"[geometry]: {exc}") from exc


def _pixel_plan(geometry, addresses, weights=None) -> planner.ExposurePlan:
    """``plan_pattern`` over target pixels that exist on the geometry's grid."""
    count = _pixel_spec(geometry).pixel_count
    highest = max((a.index for a in addresses), default=1)
    if highest > count:
        raise ConfigError(f"target pixel {highest} out of range 1..{count}")
    return planner.plan_pattern(geometry, addresses, weights)


def _grid(cfg: RunConfig) -> deposition.SamplingGrid:
    if cfg.grid is None:
        raise ConfigError("[grid] section is required for this command")
    return deposition.SamplingGrid(cfg.grid.x_min, cfg.grid.x_max, cfg.grid.samples)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_rate(args) -> int:
    cfg = _load(args)
    geometry = cfg.geometry()
    grid = _grid(cfg)
    plan = _plan_from_config(cfg)
    order = cfg.absorption_order or geometry.total_photons
    mode = NORMALIZE_CHOICES[cfg.normalize]
    header = _config_header(cfg)
    out = _out_dir(args, cfg)

    closed_profile = None
    brute_profile = None
    outputs = {}
    if cfg.engine in ("brute", "both") and mode == "pixel_sum_unity":
        raise ConfigError("pixelsum normalization applies to the closed-form engine only")
    if cfg.engine in ("closed", "both"):
        if order != geometry.total_photons:
            raise ConfigError("closed form requires full-order absorption")
        if cfg.transmission != 1.0:
            raise ConfigError("closed form requires a lossless beam path; use the brute engine")
        closed_profile = planner.plan_profile(plan, grid, mode)
        outputs["profile_closed.csv"] = deposition.profile_text(closed_profile, header)
    if cfg.engine in ("brute", "both"):
        loss = imperfections.LossModel(cfg.transmission) if cfg.transmission != 1.0 else None
        values = imperfections.plan_fock_values(plan, order, grid.points(), loss)
        brute_profile = deposition.finalize_profile(grid, values, mode)
        outputs["profile_brute.csv"] = deposition.profile_text(brute_profile, header)
    if cfg.two_d:
        base = closed_profile if closed_profile is not None else brute_profile
        grid2d = deposition.profile_2d(base, base)
        outputs["profile_2d.csv"] = deposition.profile_2d_text(grid, grid, grid2d, header)
    _write_all(out, outputs)
    if cfg.engine == "both":
        a = closed_profile.values / closed_profile.values.max()
        b = brute_profile.values / brute_profile.values.max()
        print(f"max |closed - brute| after peak normalization: {np.abs(a - b).max():.3e}")
    print(f"wrote profiles to {out}")
    return EXIT_OK


def _read_pattern(path: Path):
    """Pixel-index list, or a 0/1 bitmap when the file looks like a matrix."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read pattern: {exc}") from exc
    lines = [l.strip() for l in text.splitlines() if l.strip() and not l.lstrip().startswith("#")]
    if not lines:
        raise ConfigError(f"pattern file {path} is empty")
    rows = [l.replace(",", " ").split() for l in lines]
    tokens = [t for row in rows for t in row]
    if len(rows) > 1 and all(t in ("0", "1") for t in tokens):
        return np.array([[int(t) for t in row] for row in rows])
    return [t for t in tokens]


def cmd_plan(args) -> int:
    cfg = _load(args)
    geometry = cfg.geometry()
    header = _config_header(cfg)
    out = _out_dir(args, cfg)
    spec = _pixel_spec(geometry)

    pattern = _read_pattern(Path(args.pattern)) if args.pattern else None
    if isinstance(pattern, np.ndarray):
        if args.negative:
            pattern = 1 - pattern
        plan2d = planner.plan_bitmap(geometry, pattern)
        grid = _grid(cfg)
        values = planner.plan_rate_values_2d(plan2d, grid.points(), grid.points())
        _write_all(out, {
            "plan.txt": planner.plan2d_to_text(plan2d),
            "plan_profile_2d.csv": deposition.profile_2d_text(grid, grid, values, header),
        })
        print(f"wrote 2d plan ({len(plan2d.entries)} entries) to {out}")
        return EXIT_OK

    if pattern is not None:
        try:
            targets = [planner.parse_address(t) for t in pattern]
        except ValueError as exc:
            raise ConfigError(f"pattern {args.pattern}: {exc}") from exc
        distinct = {(a.index, a.intermediate) for a in targets}
        if len(distinct) > spec.pixel_count:
            raise ConfigError(
                f"pattern selects {len(distinct)} distinct pixels but the grid has {spec.pixel_count}"
            )
        plan = _pixel_plan(geometry, targets)
    else:
        plan = _plan_from_config(cfg)
    grid = _grid(cfg)
    if args.negative:
        positive = plan
        plan = planner.negative_plan(positive)
        total = planner.plan_profile(positive, grid, "pixel_sum_unity").values + \
            planner.plan_profile(plan, grid, "pixel_sum_unity").values
        print(f"sum check: max |original + negative - 1| = {np.abs(total - 1.0).max():.3e}")

    profile = planner.plan_profile(plan, grid, NORMALIZE_CHOICES[cfg.normalize])
    raw = profile if profile.normalization_mode == "raw" else planner.plan_profile(plan, grid, "raw")
    targets = [e.address.index for e in plan.entries if e.address is not None and not e.address.intermediate]
    report = imperfections.degradation_report(raw, raw, geometry, targets=targets or None)
    report_lines = [f"# {line}" for line in header]
    report_lines += [
        f"entries: {len(plan.entries)}",
        f"pixel_count: {spec.pixel_count}",
        f"pixel_width_lambda: {format(spec.pixel_width, '.17g')}",
        f"period_lambda: {format(spec.period, '.17g')}",
        f"fwhm_lambda: {format(report.fwhm, '.17g')}",
        f"exposure_penalty_at_centers: {format(report.exposure_penalty, '.17g')}",
        f"offtarget_max: {format(report.offtarget_max, '.17g')}",
        f"offtarget_dose_fraction: {format(report.offtarget_dose_fraction, '.17g')}",
        f"top_harmonic_ratio: {format(report.top_harmonic_ratio, '.17g')}",
    ]
    _write_all(out, {
        "plan.txt": planner.plan_to_text(plan),
        "plan_profile.csv": deposition.profile_text(profile, header),
        "plan_report.txt": "\n".join(report_lines) + "\n",
    })
    print(f"wrote plan ({len(plan.entries)} entries) to {out}")
    return EXIT_OK


def cmd_expose(args) -> int:
    cfg = _load(args)
    plan = _plan_from_config(cfg)
    film = exposure.FilmModel(cfg.film.grains, cfg.film.absorb_prob)
    result = exposure.simulate_exposure(
        plan, film, cfg.film.shots, cfg.film.seed, cfg.film.repeats, keep_grains=args.grain_bitmap
    )
    out = _out_dir(args, cfg)
    outputs = {"exposure.txt": exposure.exposure_result_text(result, _config_header(cfg))}
    if args.grain_bitmap:
        outputs["grains.txt"] = exposure.grain_bitmap_text(result)
    _write_all(out, outputs)
    print(f"wrote exposure statistics to {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    results = verify.run_suites(names)
    for result in results:
        print(result.line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


def cmd_table(args) -> int:
    rows = planner.partition_table(args.photons)
    print("photons_1,photons_2,pixels,feature_size_lambda,period_lambda")
    for row in rows:
        print(f"{row.photons_1},{row.photons_2},{row.pixels},{row.feature_size},{row.period}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qlitho",
        description="Entangled-state sub-wavelength lithography simulator and planner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seedable=False):
        p.add_argument("--config", help="run configuration file (INI sections)")
        p.add_argument("--out", help=f"output directory (default: config, ${OUT_DIR_ENV}, or cwd)")
        p.add_argument("--normalize", choices=sorted(NORMALIZE_CHOICES))
        if seedable:
            p.add_argument("--seed", type=int)

    rate = sub.add_parser("rate", help="deposition-rate profiles (closed form and/or brute force)")
    common(rate)
    rate.add_argument(
        "--engine", choices=ENGINE_CHOICES,
        help="closed: Dirichlet product (full order, lossless); brute: exact Fock-space "
        "rates, factorized per mode pair, any order and loss; both: the two and their deviation",
    )
    rate.set_defaults(func=cmd_rate)

    plan = sub.add_parser("plan", help="compile a pixel pattern into an exposure plan")
    common(plan)
    plan.add_argument("--pattern", help="pixel-index list or 0/1 bitmap file")
    plan.add_argument("--negative", action="store_true", help="emit the complement (negative image) plan")
    plan.set_defaults(func=cmd_plan)

    expose = sub.add_parser("expose", help="Monte Carlo film exposure of a plan")
    common(expose, seedable=True)
    expose.add_argument("--shots", type=int)
    expose.add_argument("--repeats", type=int)
    expose.add_argument("--grain-bitmap", action="store_true", help="also dump the per-grain 0/1 map")
    expose.set_defaults(func=cmd_expose)

    ver = sub.add_parser("verify", help="run named invariant suites")
    ver.add_argument("--suite", default="all", choices=["all", *sorted(verify.SUITES)])
    ver.set_defaults(func=cmd_verify)

    table = sub.add_parser("table", help="photon partition trade-off table for 2N photons")
    table.add_argument("--photons", type=int, required=True, metavar="N", help="photons per half (table covers 2N)")
    table.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
