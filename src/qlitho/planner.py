"""Pixel addressing and exposure planning.

A nested geometry (each pair's scaling is its predecessor's divided by
``photons + 1``) divides one period of the deposition pattern into equal
pixels.  Every pixel is selected purely by per-pair relative phases: the
phase rule ``phi_j = 4 pi s_j x_center`` centers the global closed-form
peak on the pixel and makes the rate exactly zero at the centers of all
other pixels.  Plans are statistical mixtures of such phase settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import deposition
from .fock import Geometry, MixedState, ModePair, PureState, apply_pair_phase, reciprocal_binomial, tensor


@dataclass(frozen=True)
class PixelAddress:
    """One-based pixel index on one axis; ``intermediate`` selects the
    half-step offset, midway between this pixel's center and the next."""

    index: int
    intermediate: bool = False

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"pixel index must be >= 1, got {self.index}")


@dataclass(frozen=True)
class PixelSpec:
    """Pixel grid parameters of a nested geometry.

    ``pixel_count`` is the product of ``photons + 1`` over the pairs, the
    pixel width is set by the first pair, and ``pixel_count * pixel_width
    == period`` always holds.
    """

    pixel_count: int
    pixel_width: float
    period: float

    @staticmethod
    def from_geometry(geometry: Geometry) -> "PixelSpec":
        pairs = geometry.pairs
        count = pairs[0].photons + 1
        prev = pairs[0].scaling
        for pair in pairs[1:]:
            expected = prev / (pair.photons + 1)
            if abs(pair.scaling - expected) > 1e-9 * expected:
                raise ValueError(
                    "pixel addressing requires nested scalings "
                    f"(pair {pair.index} should scale by 1/{pair.photons + 1} of its predecessor)"
                )
            prev = pair.scaling
            count *= pair.photons + 1
        width = 1.0 / (2.0 * pairs[0].scaling * (pairs[0].photons + 1))
        return PixelSpec(count, width, count * width)


def chain_geometry(resolution_photons: int, total_photons: int) -> Geometry:
    """Photon-optimal geometry for a given feature size and pattern length.

    Pair 1 carries ``resolution_photons`` at grazing incidence and fixes
    the pixel width; each remaining photon goes into its own single-photon
    pair at half the previous pair's scaling, doubling the pattern period.
    The pixel count ``2**(M - N) * (N + 1)`` beats putting the same extra
    photons into one larger second pair, which only reaches
    ``(M - N + 1) * (N + 1)``.
    """
    if resolution_photons < 1:
        raise ValueError("resolution pair needs at least one photon")
    if total_photons < resolution_photons:
        raise ValueError(
            f"total photons {total_photons} below resolution photons {resolution_photons}"
        )
    pairs = [ModePair(1, resolution_photons, 1.0)]
    for i in range(2, total_photons - resolution_photons + 2):
        pairs.append(ModePair(i, 1, 2.0 ** -(i - 1)))
    return Geometry(tuple(pairs))


def _half_steps(spec: PixelSpec, address) -> int:
    """A pixel address's center in half pixel widths: 2i - 1 for pixel i, 2i for its half step."""
    address = _as_address(address)
    if address.index > spec.pixel_count:
        raise ValueError(f"pixel {address.index} out of range 1..{spec.pixel_count}")
    return 2 * address.index - (not address.intermediate)


def pixel_center(spec_or_geometry, address) -> float:
    """Center coordinate (wavelength units) of a pixel on its axis."""
    spec = spec_or_geometry
    if not isinstance(spec, PixelSpec):
        spec = PixelSpec.from_geometry(spec)
    return 0.5 * _half_steps(spec, address) * spec.pixel_width


def _as_address(address) -> PixelAddress:
    if isinstance(address, PixelAddress):
        return address
    return PixelAddress(int(address))


def phases_for_pixel(geometry: Geometry, address) -> tuple[float, ...]:
    """Per-pair phase settings that park the deposition peak on a pixel.

    The rule is phi_j = 4 pi s_j x_center mod 2 pi: every Dirichlet factor
    then peaks at the pixel center.  With the center at a half pixel widths
    and M_j = prod_{l <= j} (N_l + 1) it is phi_j = pi (a mod 2 M_j) / M_j,
    computed from the integer residue and so exact to one rounding.
    """
    a = _half_steps(PixelSpec.from_geometry(geometry), address)
    radices = [math.prod(p.photons + 1 for p in geometry.pairs[: j + 1]) for j in range(len(geometry.pairs))]
    return tuple(math.pi * (a % (2 * m)) / m for m in radices)


def pixel_levels(index: int, photons_1: int, photons_2: int) -> tuple[int, int]:
    """Per-pair phase-step multiples (l1, l2) of a pixel in a two-pair geometry.

    Inverse of the labeling index = l1 + (photons_1 + 1) * l2 taken modulo
    the pixel count, with l1 in 1..photons_1+1 and l2 in 1..photons_2+1.
    """
    size = (photons_1 + 1) * (photons_2 + 1)
    if not 1 <= index <= size:
        raise ValueError(f"pixel {index} out of range 1..{size}")
    l1 = (index - 1) % (photons_1 + 1) + 1
    l2 = ((index - l1) // (photons_1 + 1) - 1) % (photons_2 + 1) + 1
    return l1, l2


# ---------------------------------------------------------------------------
# Exposure plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanEntry:
    weight: float
    phases: tuple[float, ...]
    address: PixelAddress | None = None


@dataclass(frozen=True)
class ExposurePlan:
    """Weighted list of per-pair phase settings realizing a pixel pattern."""

    geometry: Geometry
    entries: tuple[PlanEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValueError("plan needs at least one entry")
        pairs = len(self.geometry.pairs)
        for e in self.entries:
            if len(e.phases) != pairs:
                raise ValueError(f"entry needs {pairs} phases, got {len(e.phases)}")
            if not all(map(math.isfinite, (e.weight, *e.phases))):
                raise ValueError(f"entry weights and phases must be finite, got {e.weight!r}, {e.phases!r}")
        if any(e.weight <= 0 for e in self.entries):
            raise ValueError("entry weights must be positive")
        total = sum(e.weight for e in self.entries)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"entry weights sum to {total!r}, expected 1")


def mixture_weights(weights, count: int) -> list[float]:
    """Weights of ``count`` entries normalized to sum to one: equal by
    default, else non-negative and not all zero."""
    weights = [1.0] * count if weights is None else [float(w) for w in weights]
    if len(weights) != count:
        raise ValueError(f"{len(weights)} weights for {count} entries")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    total = sum(weights)
    if total <= 0:
        raise ValueError("weights must not all vanish")
    return [w / total for w in weights]


def plan_pattern(geometry: Geometry, targets, weights=None) -> ExposurePlan:
    """Build a plan exposing the given pixel addresses.

    Weights default to an equal statistical mixture; arbitrary
    non-negative weights are accepted for grayscale patterns and are
    normalized to sum to one.  A zero weight drops its target.
    """
    addresses = [_as_address(t) for t in targets]
    if not addresses:
        raise ValueError("target set must be non-empty")
    entries = tuple(
        PlanEntry(w, phases_for_pixel(geometry, a), a)
        for w, a in zip(mixture_weights(weights, len(addresses)), addresses)
        if w != 0.0
    )
    return ExposurePlan(geometry, entries)


def negative_plan(plan: ExposurePlan) -> ExposurePlan:
    """Plan over the complement pixel set (the negative image).

    Because the full pixel family of deposition rates sums to one
    everywhere, the count-scaled profiles of a plan and its negative add
    up to exactly one.
    """
    spec = PixelSpec.from_geometry(plan.geometry)
    covered = set()
    for entry in plan.entries:
        if entry.address is None or entry.address.intermediate:
            raise ValueError("negative image needs a plan built from regular pixel addresses")
        covered.add(entry.address.index)
    complement = [p for p in range(1, spec.pixel_count + 1) if p not in covered]
    if not complement:
        raise ValueError("plan already covers every pixel; complement is empty")
    return plan_pattern(plan.geometry, complement)


def pixel_basis(geometry: Geometry, addresses, xs) -> np.ndarray:
    """Single-pixel closed-form rates ``B[a, x]`` of ``addresses`` at positions ``xs``."""
    phases = [phases_for_pixel(geometry, a) for a in addresses]
    return deposition.closed_form_values(geometry, phases, xs)


def fold_plan(plan: ExposurePlan, xs, start: np.ndarray, pair_step):
    """Sum over entries of weight times every pair's factor applied to ``start``.

    ``pair_step(j, theta, acc)``, linear in ``acc``, applies pair j's factor
    at theta = ``deposition.pair_angles`` - phi_j.  The sorted entries form a
    tree of shared phase prefixes, pair 1 at the root, walked depth-first with
    each subtree summed before its pair's step, so the step runs once per
    distinct prefix and one sum per tree level is held.
    """
    angles = deposition.pair_angles(plan.geometry, xs)
    depth = len(angles)
    entries = sorted((e.phases, e.weight) for e in plan.entries)
    sums = [0.0] * (depth + 1)  # sums[j]: finished part of the open subtree sharing j phases
    for (phases, weight), (following, _) in zip(entries, entries[1:] + [((None,) * depth, 0.0)]):
        sums[depth] = sums[depth] + weight * start
        shared = next((j for j in range(depth) if following[j] != phases[j]), depth)
        for j in range(depth - 1, shared - 1, -1):  # close the subtrees the next entry leaves
            sums[j], sums[j + 1] = sums[j] + pair_step(j, angles[j] - phases[j], sums[j + 1]), 0.0
    return sums[0]


def plan_rate_values(plan: ExposurePlan, xs) -> np.ndarray:
    """Raw weighted closed-form rate of a plan at ``xs``: ``fold_plan`` with one Dirichlet factor per pair."""
    photons = [pair.photons for pair in plan.geometry.pairs]
    return fold_plan(plan, xs, np.ones(np.shape(xs)),
                     lambda j, theta, acc: acc * deposition.dirichlet_factor(photons[j], theta))


def plan_profile(plan: ExposurePlan, grid: deposition.SamplingGrid,
                 normalization: str = "raw") -> deposition.DepositionProfile:
    """Closed-form profile of a plan, normalized by ``deposition.finalize_profile``; under
    ``pixel_sum_unity`` the family of all single-pixel profiles sums to exactly one everywhere."""
    return deposition.finalize_profile(grid, plan_rate_values(plan, grid.points()), normalization, len(plan.entries))


def entry_state(geometry: Geometry, phases) -> PureState:
    """Quantum state realizing one plan entry.

    The product of per-pair reciprocal binomial states with each pair's
    ``+`` mode shifted by minus the planner phase; propagation to the
    pixel center then aligns all interference terms constructively.
    """
    phases = tuple(phases)
    state = None
    for pair in geometry.pairs:
        part = reciprocal_binomial(pair.photons, pair.scaling, pair.index)
        state = part if state is None else tensor(state, part)
    for pair, phi in zip(geometry.pairs, phases):
        state = apply_pair_phase(state, pair.index, -phi)
    return state


def plan_mixture(plan: ExposurePlan) -> MixedState:
    """Statistical mixture of entry states, for brute-force cross-checks."""
    return MixedState(tuple((e.weight, entry_state(plan.geometry, e.phases)) for e in plan.entries))


# ---------------------------------------------------------------------------
# Photon partitioning table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionRow:
    photons_1: int
    photons_2: int
    pixels: int
    feature_size: Fraction
    period: Fraction


def partition_table(photons_half: int) -> list[PartitionRow]:
    """Pixel count, feature size, and period for every two-pair split of 2N photons.

    Row n puts n photons in the grazing pair and 2N - n in the nested
    pair: pixels (n+1)(2N-n+1), feature size 1/(2(n+1)), period
    (2N-n+1)/2, all in wavelength units and exact rationals.
    """
    if photons_half < 1:
        raise ValueError("need at least one photon per half")
    total = 2 * photons_half
    return [
        PartitionRow(photons_1=n, photons_2=total - n, pixels=(n + 1) * (total - n + 1),
                     feature_size=Fraction(1, 2 * (n + 1)), period=Fraction(total - n + 1, 2))
        for n in range(total + 1)
    ]


# ---------------------------------------------------------------------------
# Two-dimensional plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanEntry2D:
    weight: float
    x_address: PixelAddress
    y_address: PixelAddress


@dataclass(frozen=True)
class ExposurePlan2D:
    """Mixture of product states, each exposing one (x, y) pixel."""

    geometry: Geometry
    entries: tuple[PlanEntry2D, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValueError("plan needs at least one entry")
        total = sum(e.weight for e in self.entries)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"entry weights sum to {total!r}, expected 1")


def plan_bitmap(geometry: Geometry, bitmap) -> ExposurePlan2D:
    """Plan from a 0/1 bitmap; rows index y pixels, columns index x pixels.

    Row 0 is the top of the image (largest y), so a bitmap prints the way
    it deposits.
    """
    bitmap = np.asarray(bitmap)
    spec = PixelSpec.from_geometry(geometry)
    rows, cols = bitmap.shape
    if rows > spec.pixel_count or cols > spec.pixel_count:
        raise ValueError(
            f"bitmap {rows}x{cols} exceeds the {spec.pixel_count}-pixel grid"
        )
    cells = [(c + 1, rows - r) for r in range(rows) for c in range(cols) if bitmap[r, c]]
    if not cells:
        raise ValueError("bitmap selects no pixels")
    entries = tuple(
        PlanEntry2D(1.0 / len(cells), PixelAddress(px), PixelAddress(py))
        for px, py in cells
    )
    return ExposurePlan2D(geometry, entries)


def plan_rate_values_2d(plan: ExposurePlan2D, xs, ys) -> np.ndarray:
    """Weighted sum of per-entry products x-rate * y-rate, as ``Bx^T W By``.

    ``Bx`` and ``By`` are the pixel bases of the plan's distinct x and y
    addresses and ``W[i, j]`` is the summed weight of the entries at
    ``(x_i, y_j)``; this is not an outer product of the axis sums.
    """
    x_rows = {a: i for i, a in enumerate(dict.fromkeys(e.x_address for e in plan.entries))}
    y_rows = {a: i for i, a in enumerate(dict.fromkeys(e.y_address for e in plan.entries))}
    weights = np.zeros((len(x_rows), len(y_rows)))
    for entry in plan.entries:
        weights[x_rows[entry.x_address], y_rows[entry.y_address]] += entry.weight
    basis_x = pixel_basis(plan.geometry, x_rows, xs)
    basis_y = pixel_basis(plan.geometry, y_rows, ys)
    return basis_x.T @ (weights @ basis_y)


# ---------------------------------------------------------------------------
# Plan serialization
# ---------------------------------------------------------------------------

def format_address(address: PixelAddress | None) -> str:
    """``"6"``, ``"6i"`` (intermediate) or ``"-"`` (no address); inverse of ``parse_address``."""
    if address is None:
        return "-"
    return f"{address.index}i" if address.intermediate else str(address.index)


def parse_address(token: str) -> PixelAddress:
    """Parse ``"6"`` or ``"6i"`` (intermediate)."""
    index = token.removesuffix("i")
    if not index.isdecimal():
        raise ValueError(f"{token!r} is not a pixel index like 6 or 6i")
    return PixelAddress(int(index), intermediate=index != token)


def _geometry_lines(geometry: Geometry) -> list[str]:
    lines = [f"pairs {len(geometry.pairs)}"]
    for pair in geometry.pairs:
        lines.append(
            f"pair {pair.index} photons {pair.photons} scaling {deposition.FLOAT % pair.scaling}"
        )
    return lines


def plan_to_text(plan: ExposurePlan) -> str:
    """Serialize geometry, entry weights, phases (in turns), and targets.

    Two-pair geometries additionally carry the (l1, l2) level labels of
    each addressed pixel.
    """
    lines = ["# exposure plan"]
    lines.extend(_geometry_lines(plan.geometry))
    spec = PixelSpec.from_geometry(plan.geometry)
    lines.append(f"pixels {spec.pixel_count}")
    two_pair = len(plan.geometry.pairs) == 2
    for entry in plan.entries:
        turns = ",".join(deposition.FLOAT % (p / (2.0 * math.pi)) for p in entry.phases)
        line = (
            f"entry weight={deposition.FLOAT % entry.weight} "
            f"phase_turns={turns} target={format_address(entry.address)}"
        )
        if two_pair and entry.address is not None and not entry.address.intermediate:
            l1, l2 = pixel_levels(
                entry.address.index,
                plan.geometry.pairs[0].photons,
                plan.geometry.pairs[1].photons,
            )
            line += f" levels={l1},{l2}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def plan2d_to_text(plan: ExposurePlan2D) -> str:
    lines = ["# exposure plan 2d"]
    lines.extend(_geometry_lines(plan.geometry))
    spec = PixelSpec.from_geometry(plan.geometry)
    lines.append(f"pixels {spec.pixel_count}")
    for entry in plan.entries:
        lines.append(
            f"entry weight={deposition.FLOAT % entry.weight} "
            f"x={format_address(entry.x_address)} y={format_address(entry.y_address)}"
        )
    return "\n".join(lines) + "\n"
