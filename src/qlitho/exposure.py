"""Monte Carlo film exposure with Poisson-regime shot statistics.

The film is a lattice of binary grains, several per pixel.  Each exposure
shot flips an unexposed grain with probability q * rate(x_grain); a grain
stays exposed once flipped.  Per-grain outcomes over S shots therefore
follow Bernoulli(1 - (1 - q rate)^S), which is what gets sampled, one
counter-based substream per repeat, so results do not depend on worker
scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deposition import FLOAT
from .planner import ExposurePlan, PixelSpec, plan_rate_values


@dataclass(frozen=True)
class FilmModel:
    """Grain lattice and per-shot absorption probability scale.

    ``base_absorb_prob`` is the flip probability of a grain sitting at
    unit deposition rate during one shot.  Grains must be smaller than a
    pixel, hence at least two per pixel.
    """

    grains_per_pixel: int
    base_absorb_prob: float

    def __post_init__(self):
        if self.grains_per_pixel < 2:
            raise ValueError("need at least two grains per pixel (grains must be smaller than pixels)")
        if not 0.0 < self.base_absorb_prob <= 1.0:
            raise ValueError(f"absorb_prob must lie in (0, 1], got {self.base_absorb_prob}")


@dataclass(frozen=True, eq=False)
class ExposureResult:
    """Per-pixel statistics of exposed-grain counts across repeats."""

    per_pixel_mean: np.ndarray
    per_pixel_std: np.ndarray
    shots_used: int
    seed: int
    counts: np.ndarray
    grain_bitmap: np.ndarray | None = None


def grain_positions(spec: PixelSpec, grains_per_pixel: int) -> np.ndarray:
    """Grain coordinates as a (pixels, grains) array covering one period."""
    pixels = np.arange(spec.pixel_count)[:, None]
    offsets = (np.arange(grains_per_pixel)[None, :] + 0.5) / grains_per_pixel
    return (pixels + offsets) * spec.pixel_width


def flip_probability(per_shot, shots: int):
    """Chance 1 - (1 - p)^S that a grain flips in S shots, as -expm1(S log1p(-p)) so
    that p below the float epsilon of 1 does not round to zero; p = 1 gives 1."""
    with np.errstate(divide="ignore"):
        return -np.expm1(shots * np.log1p(-np.asarray(per_shot, dtype=float)))


def simulate_exposure(
    plan: ExposurePlan,
    film: FilmModel,
    shots: int,
    seed: int,
    repeats: int = 1,
    keep_grains: bool = False,
) -> ExposureResult:
    """Expose the film ``repeats`` independent times with ``shots`` shots each.

    Deterministic for a given seed: repeat r draws from the r-th child of
    the seed sequence through a Philox counter-based generator.  The same
    seed with more shots (or larger q) can only expose more grains, since
    the per-grain uniforms are shared and only the threshold moves.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    if repeats < 1:
        raise ValueError("need at least one repeat")
    spec = PixelSpec.from_geometry(plan.geometry)
    positions = grain_positions(spec, film.grains_per_pixel)
    rate = plan_rate_values(plan, positions.ravel()).reshape(positions.shape)
    per_shot = film.base_absorb_prob * rate
    if per_shot.max(initial=0.0) > 1.0 + 1e-12:
        raise ValueError(
            f"per-shot absorption probability {per_shot.max():.3g} exceeds 1; lower q or the rate"
        )
    flip_prob = flip_probability(np.clip(per_shot, 0.0, 1.0), shots)

    counts = np.empty((repeats, spec.pixel_count), dtype=np.int64)
    bitmaps = np.empty((repeats,) + positions.shape, dtype=bool) if keep_grains else None
    children = np.random.SeedSequence(seed).spawn(repeats)
    for r in range(repeats):
        rng = np.random.Generator(np.random.Philox(children[r]))
        exposed = rng.random(positions.shape) < flip_prob
        counts[r] = exposed.sum(axis=1)
        if keep_grains:
            bitmaps[r] = exposed
    std = counts.std(axis=0, ddof=1) if repeats > 1 else np.zeros(spec.pixel_count)
    return ExposureResult(
        per_pixel_mean=counts.mean(axis=0),
        per_pixel_std=std,
        shots_used=shots,
        seed=seed,
        counts=counts,
        grain_bitmap=bitmaps,
    )


def exposure_result_text(result: ExposureResult, header_lines=()) -> str:
    """Structured text: per-pixel mean/std table followed by raw counts."""
    lines = [f"# {line}" for line in header_lines]
    lines.append(f"# shots: {result.shots_used}")
    lines.append(f"# seed: {result.seed}")
    lines.append(f"# repeats: {result.counts.shape[0]}")
    lines.append("pixel,mean,std")
    row = f"%d,{FLOAT},{FLOAT}"
    stats = zip(result.per_pixel_mean.tolist(), result.per_pixel_std.tolist())
    lines.extend(row % (p, mean, std) for p, (mean, std) in enumerate(stats, start=1))
    lines.append("# raw counts: one row per repeat, one column per pixel")
    lines.extend("counts " + " ".join(map(str, row)) for row in result.counts.tolist())
    return "\n".join(lines) + "\n"


def grain_bitmap_text(result: ExposureResult) -> str:
    """0/1 grain map of the first repeat (one row per pixel), for rendering."""
    if result.grain_bitmap is None:
        raise ValueError("simulation was run without keep_grains=True")
    rows = result.grain_bitmap[0].astype(np.uint8).tolist()
    return "\n".join("".join(map(str, row)) for row in rows) + "\n"
