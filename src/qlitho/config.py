"""Run configuration: flat INI-style text with one section per concern.

Geometries are multi-line, so they live in a config file rather than in
positional flags; command-line flags override file values.  Scalings
accept the arcsin(1/k) idiom directly as fractions (``scaling = 1/4``) or
an ``angle`` in radians (exclusive with ``scaling``).
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .fock import Geometry, ModePair


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class PairConfig:
    photons: int
    scaling: float


@dataclass(frozen=True)
class GridConfig:
    x_min: float
    x_max: float
    samples: int


@dataclass(frozen=True)
class FilmConfig:
    grains: int = 1000
    absorb_prob: float = 0.01
    shots: int = 100
    seed: int = 0
    repeats: int = 1


@dataclass(frozen=True)
class RunConfig:
    pairs: tuple[PairConfig, ...] = ()
    grid: GridConfig | None = None
    # Plan: pixel targets (index, intermediate) XOR explicit per-entry phases in turns.
    targets: tuple[tuple[int, bool], ...] | None = None
    weights: tuple[float, ...] | None = None
    phase_entries: tuple[tuple[float, ...], ...] | None = None
    absorption_order: int | None = None
    transmission: float = 1.0
    film: FilmConfig = field(default_factory=FilmConfig)
    out_dir: str | None = None
    normalize: str = "raw"
    engine: str = "closed"
    two_d: bool = False

    def geometry(self) -> Geometry:
        if not self.pairs:
            raise ConfigError("[geometry] section with at least one pair is required")
        return Geometry(
            tuple(ModePair(i + 1, p.photons, p.scaling) for i, p in enumerate(self.pairs))
        )


NORMALIZE_CHOICES = {"raw": "raw", "peak": "peak_unity", "pixelsum": "pixel_sum_unity"}
ENGINE_CHOICES = ("closed", "brute", "both")


def _parse_scaling(token: str) -> float:
    if "/" in token:
        return float(Fraction(token))
    return float(token)


def _parse_pair_line(line: str, lineno: int) -> PairConfig:
    photons = None
    scaling = None
    angle = None
    for tok in line.split():
        if "=" not in tok:
            raise ConfigError(f"[geometry] pairs line {lineno}: expected key=value, got {tok!r}")
        key, value = tok.split("=", 1)
        if key == "photons":
            photons = int(value)
        elif key == "scaling":
            scaling = _parse_scaling(value)
        elif key == "angle":
            angle = float(value)
        else:
            raise ConfigError(f"[geometry] pairs line {lineno}: unknown key {key!r}")
    if photons is None:
        raise ConfigError(f"[geometry] pairs line {lineno}: missing photons")
    if (scaling is None) == (angle is None):
        raise ConfigError(
            f"[geometry] pairs line {lineno}: exactly one of scaling or angle is required"
        )
    if angle is not None:
        scaling = math.sin(angle)
    if photons < 0 or not 0.0 < scaling <= 1.0:
        raise ConfigError(f"[geometry] pairs line {lineno}: need photons >= 0 and scaling in (0, 1]")
    return PairConfig(photons, scaling)


def _parse_target(token: str) -> tuple[int, bool]:
    index = token.removesuffix("i")
    if not index.isdecimal() or int(index) < 1:
        raise ConfigError(f"[plan]: target {token!r} is not a pixel index like 6 or 6i")
    return int(index), index != token


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc

    cfg = RunConfig()

    if parser.has_section("geometry"):
        raw = parser.get("geometry", "pairs", fallback="")
        lines = [l.strip() for l in raw.splitlines() if l.strip()]
        if not lines:
            raise ConfigError("[geometry] section present but no pairs given")
        pairs = tuple(_parse_pair_line(l, i + 1) for i, l in enumerate(lines))
        cfg = replace(cfg, pairs=pairs)

    if parser.has_section("grid"):
        sec = parser["grid"]
        try:
            grid = GridConfig(sec.getfloat("x_min"), sec.getfloat("x_max"), sec.getint("samples"))
        except (configparser.Error, TypeError, ValueError) as exc:
            raise ConfigError(f"[grid]: {exc}") from exc
        if grid.x_min is None or grid.x_max is None or grid.samples is None:
            raise ConfigError("[grid]: x_min, x_max, and samples are all required")
        if not grid.x_min < grid.x_max:
            raise ConfigError(f"[grid]: need x_min < x_max, got [{grid.x_min}, {grid.x_max}]")
        if grid.samples < 2:
            raise ConfigError(f"[grid]: need samples >= 2, got {grid.samples}")
        cfg = replace(cfg, grid=grid)

    if parser.has_section("plan"):
        sec = parser["plan"]
        targets = None
        if sec.get("targets"):
            targets = tuple(_parse_target(t) for t in sec.get("targets").split())
        phase_entries = None
        if sec.get("phase_turns"):
            phase_entries = tuple(
                tuple(float(v) for v in line.split(","))
                for line in sec.get("phase_turns").splitlines()
                if line.strip()
            )
        if (targets is None) == (phase_entries is None):
            raise ConfigError("[plan]: exactly one of targets or phase_turns is required")
        weights = None
        if sec.get("weights"):
            weights = tuple(float(w) for w in sec.get("weights").split())
            count = len(targets) if targets is not None else len(phase_entries)
            if len(weights) != count:
                raise ConfigError(f"[plan]: {len(weights)} weights for {count} entries")
        cfg = replace(cfg, targets=targets, weights=weights, phase_entries=phase_entries)

    if parser.has_section("absorption"):
        try:
            order = parser.getint("absorption", "order")
        except (configparser.Error, ValueError) as exc:
            raise ConfigError(f"[absorption]: {exc}") from exc
        if order < 1:
            raise ConfigError(f"[absorption]: order must be >= 1, got {order}")
        cfg = replace(cfg, absorption_order=order)

    if parser.has_section("loss"):
        try:
            eta = parser.getfloat("loss", "transmission")
        except (configparser.Error, ValueError) as exc:
            raise ConfigError(f"[loss]: {exc}") from exc
        if not 0.0 <= eta <= 1.0:
            raise ConfigError(f"[loss]: transmission must lie in [0, 1], got {eta}")
        cfg = replace(cfg, transmission=eta)

    if parser.has_section("film"):
        sec = parser["film"]
        try:
            film = FilmConfig(
                grains=sec.getint("grains", FilmConfig.grains),
                absorb_prob=sec.getfloat("absorb_prob", FilmConfig.absorb_prob),
                shots=sec.getint("shots", FilmConfig.shots),
                seed=sec.getint("seed", FilmConfig.seed),
                repeats=sec.getint("repeats", FilmConfig.repeats),
            )
        except (configparser.Error, ValueError) as exc:
            raise ConfigError(f"[film]: {exc}") from exc
        if film.grains < 2:
            raise ConfigError("[film]: need at least two grains per pixel")
        if not 0.0 < film.absorb_prob <= 1.0:
            raise ConfigError(f"[film]: absorb_prob must lie in (0, 1], got {film.absorb_prob}")
        if film.shots < 1 or film.repeats < 1:
            raise ConfigError("[film]: shots and repeats must be >= 1")
        cfg = replace(cfg, film=film)

    if parser.has_section("output"):
        sec = parser["output"]
        normalize = sec.get("normalize", cfg.normalize)
        if normalize not in NORMALIZE_CHOICES:
            raise ConfigError(f"[output]: normalize must be one of {sorted(NORMALIZE_CHOICES)}")
        engine = sec.get("engine", cfg.engine)
        if engine not in ENGINE_CHOICES:
            raise ConfigError(f"[output]: engine must be one of {ENGINE_CHOICES}")
        cfg = replace(
            cfg,
            out_dir=sec.get("dir", cfg.out_dir),
            normalize=normalize,
            engine=engine,
            two_d=sec.getboolean("two_d", cfg.two_d),
        )

    return cfg


def load_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as handle:
        return parse_config(handle.read())


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg."""
    parser = configparser.ConfigParser()
    if cfg.pairs:
        lines = "".join(
            f"\nphotons={p.photons} scaling={format(p.scaling, '.17g')}" for p in cfg.pairs
        )
        parser["geometry"] = {"pairs": lines}
    if cfg.grid is not None:
        parser["grid"] = {
            "x_min": format(cfg.grid.x_min, ".17g"),
            "x_max": format(cfg.grid.x_max, ".17g"),
            "samples": str(cfg.grid.samples),
        }
    if cfg.targets is not None or cfg.phase_entries is not None:
        plan = {}
        if cfg.targets is not None:
            plan["targets"] = " ".join(f"{p}i" if inter else str(p) for p, inter in cfg.targets)
        if cfg.phase_entries is not None:
            plan["phase_turns"] = "".join(
                "\n" + ",".join(format(v, ".17g") for v in entry) for entry in cfg.phase_entries
            )
        if cfg.weights is not None:
            plan["weights"] = " ".join(format(w, ".17g") for w in cfg.weights)
        parser["plan"] = plan
    if cfg.absorption_order is not None:
        parser["absorption"] = {"order": str(cfg.absorption_order)}
    if cfg.transmission != 1.0:
        parser["loss"] = {"transmission": format(cfg.transmission, ".17g")}
    parser["film"] = {
        "grains": str(cfg.film.grains),
        "absorb_prob": format(cfg.film.absorb_prob, ".17g"),
        "shots": str(cfg.film.shots),
        "seed": str(cfg.film.seed),
        "repeats": str(cfg.film.repeats),
    }
    output = {"normalize": cfg.normalize, "engine": cfg.engine, "two_d": str(cfg.two_d).lower()}
    if cfg.out_dir is not None:
        output["dir"] = cfg.out_dir
    parser["output"] = output
    buffer = io.StringIO()
    parser.write(buffer)
    return buffer.getvalue()
