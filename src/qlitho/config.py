"""Run configuration: flat INI-style text with one section per concern.

Geometries are multi-line, so they live in a config file rather than in
positional flags; command-line flags override file values.  Scalings
accept the arcsin(1/k) idiom directly as fractions (``scaling = 1/4``) or
an ``angle`` in radians (exclusive with ``scaling``).

Sections parse straight into the domain types (``ModePair``,
``SamplingGrid``, ``PixelAddress``, ``LossModel``, ``FilmModel``), whose
constructors hold the range checks; ``input_errors`` reports whatever they
or the text parsers refuse as a ``ConfigError`` that names the section.
"""

from __future__ import annotations

import configparser
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .deposition import FLOAT, SamplingGrid
from .exposure import FilmModel
from .fock import Geometry, ModePair
from .imperfections import LossModel
from .planner import PixelAddress, format_address, parse_address


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@contextmanager
def input_errors(prefix: str):
    """Re-raise a refused input value as a ``ConfigError`` that starts with ``prefix``."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, ZeroDivisionError, configparser.Error) as exc:
        raise ConfigError(f"{prefix}: {exc}") from exc


@dataclass(frozen=True)
class FilmConfig:
    grains: int = 1000
    absorb_prob: float = 0.01
    shots: int = 100
    seed: int = 0
    repeats: int = 1

    def __post_init__(self):
        FilmModel(self.grains, self.absorb_prob)
        if self.shots < 1 or self.repeats < 1 or self.seed < 0:
            raise ValueError(
                f"need shots >= 1, repeats >= 1 and seed >= 0, "
                f"got shots={self.shots} repeats={self.repeats} seed={self.seed}"
            )


@dataclass(frozen=True)
class RunConfig:
    pairs: tuple[ModePair, ...] = ()
    grid: SamplingGrid | None = None
    # Plan: pixel targets XOR explicit per-entry phases in turns.
    targets: tuple[PixelAddress, ...] | None = None
    weights: tuple[float, ...] | None = None
    phase_entries: tuple[tuple[float, ...], ...] | None = None
    absorption_order: int | None = None
    transmission: float = 1.0
    film: FilmConfig = field(default_factory=FilmConfig)
    out_dir: str | None = None
    normalize: str = "raw"
    engine: str = "closed"
    two_d: bool = False

    def __post_init__(self):
        if self.out_dir is not None and self.out_dir != self.out_dir.strip():
            raise ValueError(f"output dir {self.out_dir!r} has surrounding whitespace, which INI strips")

    def geometry(self) -> Geometry:
        if not self.pairs:
            raise ConfigError("[geometry] section with at least one pair is required")
        return Geometry(self.pairs)


NORMALIZE_CHOICES = {"raw": "raw", "peak": "peak_unity", "pixelsum": "pixel_sum_unity"}
ENGINE_CHOICES = ("closed", "brute", "both")


def _parse_scaling(token: str) -> float:
    if "/" in token:
        return float(Fraction(token))
    return float(token)


def _parse_pair_line(line: str, lineno: int) -> ModePair:
    photons = None
    scaling = None
    angle = None
    with input_errors(f"[geometry] pairs line {lineno}"):
        for tok in line.split():
            if "=" not in tok:
                raise ValueError(f"expected key=value, got {tok!r}")
            key, value = tok.split("=", 1)
            if key == "photons":
                photons = int(value)
            elif key == "scaling":
                scaling = _parse_scaling(value)
            elif key == "angle":
                angle = float(value)
            else:
                raise ValueError(f"unknown key {key!r}")
        if photons is None:
            raise ValueError("missing photons")
        if (scaling is None) == (angle is None):
            raise ValueError("exactly one of scaling or angle is required")
        if angle is not None:
            scaling = math.sin(angle)
        return ModePair(lineno, photons, scaling)


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    with input_errors("config"):
        parser.read_string(text)

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
        with input_errors("[grid]"):
            x_min, x_max, samples = sec.getfloat("x_min"), sec.getfloat("x_max"), sec.getint("samples")
            if x_min is None or x_max is None or samples is None:
                raise ValueError("x_min, x_max, and samples are all required")
            cfg = replace(cfg, grid=SamplingGrid(x_min, x_max, samples))

    if parser.has_section("plan"):
        sec = parser["plan"]
        with input_errors("[plan]"):
            targets = None
            if sec.get("targets"):
                targets = tuple(parse_address(t) for t in sec.get("targets").split())
            phase_entries = None
            if sec.get("phase_turns"):
                phase_entries = tuple(
                    tuple(float(v) for v in line.split(","))
                    for line in sec.get("phase_turns").splitlines()
                    if line.strip()
                )
            if (targets is None) == (phase_entries is None):
                raise ValueError("exactly one of targets or phase_turns is required")
            weights = None
            if sec.get("weights"):
                weights = tuple(float(w) for w in sec.get("weights").split())
                count = len(targets) if targets is not None else len(phase_entries)
                if len(weights) != count:
                    raise ValueError(f"{len(weights)} weights for {count} entries")
        cfg = replace(cfg, targets=targets, weights=weights, phase_entries=phase_entries)

    if parser.has_section("absorption"):
        with input_errors("[absorption]"):
            order = parser.getint("absorption", "order")
            if order < 1:
                raise ValueError(f"order must be >= 1, got {order}")
        cfg = replace(cfg, absorption_order=order)

    if parser.has_section("loss"):
        with input_errors("[loss]"):
            loss = LossModel(parser.getfloat("loss", "transmission"))
        cfg = replace(cfg, transmission=loss.transmission)

    if parser.has_section("film"):
        sec = parser["film"]
        with input_errors("[film]"):
            film = FilmConfig(
                grains=sec.getint("grains", FilmConfig.grains),
                absorb_prob=sec.getfloat("absorb_prob", FilmConfig.absorb_prob),
                shots=sec.getint("shots", FilmConfig.shots),
                seed=sec.getint("seed", FilmConfig.seed),
                repeats=sec.getint("repeats", FilmConfig.repeats),
            )
        cfg = replace(cfg, film=film)

    if parser.has_section("output"):
        sec = parser["output"]
        with input_errors("[output]"):
            normalize = sec.get("normalize", cfg.normalize)
            if normalize not in NORMALIZE_CHOICES:
                raise ValueError(f"normalize must be one of {sorted(NORMALIZE_CHOICES)}")
            engine = sec.get("engine", cfg.engine)
            if engine not in ENGINE_CHOICES:
                raise ValueError(f"engine must be one of {ENGINE_CHOICES}")
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
    parser = configparser.ConfigParser(interpolation=None)
    if cfg.pairs:
        lines = "".join(f"\nphotons={p.photons} scaling={FLOAT % p.scaling}" for p in cfg.pairs)
        parser["geometry"] = {"pairs": lines}
    if cfg.grid is not None:
        parser["grid"] = {
            "x_min": FLOAT % cfg.grid.x_min,
            "x_max": FLOAT % cfg.grid.x_max,
            "samples": str(cfg.grid.samples),
        }
    if cfg.targets is not None or cfg.phase_entries is not None:
        plan = {}
        if cfg.targets is not None:
            plan["targets"] = " ".join(map(format_address, cfg.targets))
        if cfg.phase_entries is not None:
            plan["phase_turns"] = "".join("\n" + ",".join(FLOAT % v for v in e) for e in cfg.phase_entries)
        if cfg.weights is not None:
            plan["weights"] = " ".join(FLOAT % w for w in cfg.weights)
        parser["plan"] = plan
    if cfg.absorption_order is not None:
        parser["absorption"] = {"order": str(cfg.absorption_order)}
    if cfg.transmission != 1.0:
        parser["loss"] = {"transmission": FLOAT % cfg.transmission}
    parser["film"] = {
        "grains": str(cfg.film.grains),
        "absorb_prob": FLOAT % cfg.film.absorb_prob,
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
