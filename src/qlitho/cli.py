"""Command-line surface: rate, plan, expose, verify, table.

Every command reads a config file; flags override file values.  All
outputs are plain text with a header echoing the fully resolved
configuration, written atomically (temp file + rename) once the whole
output set is computed.  Each command builds all of its inputs inside
``input_errors`` before it computes anything.  Exit codes: 0 success,
1 verification failure, 2 refused input (any config value, flag or
pattern), usage error or unreadable input file, 3 computation failure or
unwritable output.
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
    input_errors,
    load_config,
    serialize_config,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_COMPUTE = 3

OUT_DIR_ENV = "QLITHO_OUT"


def atomic_write(path: Path, text: str | list[str]) -> None:
    """Write one string or a list of chunks (a 2D profile's rows) to a temp file, then rename it to ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_all(out: Path, outputs: dict) -> None:
    """Write a command's output files; callers build every text first, so a
    failed computation writes nothing."""
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
        weights = planner.mixture_weights(cfg.weights, len(cfg.phase_entries))
        entries = tuple(
            planner.PlanEntry(w, tuple(2.0 * np.pi * t for t in turns))
            for turns, w in zip(cfg.phase_entries, weights)
            if w != 0.0
        )
        return planner.ExposurePlan(geometry, entries)
    if cfg.targets is not None:
        return planner.plan_pattern(geometry, cfg.targets, cfg.weights)
    # No plan section: a single zero-phase entry (unsteered pattern).
    return planner.ExposurePlan(
        geometry, (planner.PlanEntry(1.0, (0.0,) * len(geometry.pairs)),)
    )


def _refuse_imperfections(cfg: RunConfig, who: str, lossy_hint: str = "") -> None:
    """Refuse a lower order or a lossy path where ``who`` models only the ideal exposure."""
    if cfg.absorption_order not in (None, cfg.geometry().total_photons):
        raise ConfigError(f"{who} requires full-order absorption")
    if cfg.transmission != 1.0:
        raise ConfigError(f"{who} requires a lossless beam path{lossy_hint}")


def _grid(cfg: RunConfig) -> deposition.SamplingGrid:
    if cfg.grid is None:
        raise ConfigError("[grid] section is required for this command")
    return cfg.grid


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_rate(args) -> int:
    with input_errors("rate"):
        cfg = _load(args)
        geometry = cfg.geometry()
        grid = _grid(cfg)
        plan = _plan_from_config(cfg)
        order = cfg.absorption_order or geometry.total_photons
        mode = NORMALIZE_CHOICES[cfg.normalize]
        if cfg.engine in ("brute", "both") and mode == "pixel_sum_unity":
            raise ConfigError("pixelsum normalization applies to the closed-form engine only")
        if cfg.engine in ("closed", "both"):
            _refuse_imperfections(cfg, "closed form", "; use the brute engine")
        if cfg.two_d:
            _refuse_imperfections(cfg, "rate 2D output")
    header = _config_header(cfg)
    out = _out_dir(args, cfg)

    closed_profile = None
    brute_profile = None
    outputs = {}
    if cfg.engine in ("closed", "both"):
        closed_profile = planner.plan_profile(plan, grid, mode)
        outputs["profile_closed.csv"] = deposition.profile_text(closed_profile, header)
    if cfg.engine in ("brute", "both"):
        loss = imperfections.LossModel(cfg.transmission) if cfg.transmission != 1.0 else None
        values = imperfections.plan_fock_values(plan, order, grid.points(), loss)
        brute_profile = deposition.finalize_profile(grid, values, mode)
        outputs["profile_brute.csv"] = deposition.profile_text(brute_profile, header)
    if cfg.two_d:
        # The X and Y pairs enter the product state independently, so the rate is separable.
        base = closed_profile if closed_profile is not None else brute_profile
        profile_2d = deposition.DepositionProfile(grid, np.outer(base.values, base.values), base.normalization_mode)
        outputs["profile_2d.csv"] = deposition.profile_2d_text(profile_2d, header)
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
    with input_errors("plan"):
        cfg = _load(args)
        geometry = cfg.geometry()
        _refuse_imperfections(cfg, "plan")
        spec = planner.PixelSpec.from_geometry(geometry)
        grid = _grid(cfg)
        pattern = _read_pattern(Path(args.pattern)) if args.pattern else None
        if isinstance(pattern, np.ndarray):
            plan2d = planner.plan_bitmap(geometry, 1 - pattern if args.negative else pattern)
        else:
            deposition.whole_periods(grid, spec.period)
            if pattern is not None:
                plan = planner.plan_pattern(geometry, [planner.parse_address(t) for t in pattern])
            else:
                plan = _plan_from_config(cfg)
            if args.negative:
                positive, plan = plan, planner.negative_plan(plan)
    header = _config_header(cfg)
    out = _out_dir(args, cfg)
    mode = NORMALIZE_CHOICES[cfg.normalize]

    if isinstance(pattern, np.ndarray):
        values = planner.plan_rate_values_2d(plan2d, grid.points(), grid.points())
        profile = deposition.finalize_profile(grid, values, mode, len(plan2d.entries))
        _write_all(out, {
            "plan.txt": planner.plan2d_to_text(plan2d),
            "plan_profile_2d.csv": deposition.profile_2d_text(profile, header),
        })
        print(f"wrote 2d plan ({len(plan2d.entries)} entries) to {out}")
        return EXIT_OK

    raw = planner.plan_profile(plan, grid)
    if args.negative:
        total = planner.plan_profile(positive, grid, "pixel_sum_unity").values + \
            deposition.finalize_profile(grid, raw.values, "pixel_sum_unity", len(plan.entries)).values
        print(f"sum check: max |original + negative - 1| = {np.abs(total - 1.0).max():.3e}")

    profile = deposition.finalize_profile(grid, raw.values, mode, len(plan.entries))
    targets = [e.address.index for e in plan.entries if e.address is not None and not e.address.intermediate]
    report = imperfections.degradation_report(raw, raw, geometry, targets=targets or None)
    report_lines = [f"# {line}" for line in header]
    report_lines += [
        f"entries: {len(plan.entries)}",
        f"pixel_count: {spec.pixel_count}",
        f"pixel_width_lambda: {deposition.FLOAT % spec.pixel_width}",
        f"period_lambda: {deposition.FLOAT % spec.period}",
        f"fwhm_lambda: {deposition.FLOAT % report.fwhm}",
        f"exposure_penalty_at_centers: {deposition.FLOAT % report.exposure_penalty}",
        f"offtarget_max: {deposition.FLOAT % report.offtarget_max}",
        f"offtarget_dose_fraction: {deposition.FLOAT % report.offtarget_dose_fraction}",
        f"top_harmonic_ratio: {deposition.FLOAT % report.top_harmonic_ratio}",
    ]
    _write_all(out, {
        "plan.txt": planner.plan_to_text(plan),
        "plan_profile.csv": deposition.profile_text(profile, header),
        "plan_report.txt": "\n".join(report_lines) + "\n",
    })
    print(f"wrote plan ({len(plan.entries)} entries) to {out}")
    return EXIT_OK


def cmd_expose(args) -> int:
    with input_errors("expose"):
        cfg = _load(args)
        plan = _plan_from_config(cfg)
        _refuse_imperfections(cfg, "expose")
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
    with input_errors("table"):
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
    except MemoryError as exc:
        print(f"computation error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
