"""Deposition-rate profiles by two independent routes.

The brute-force route propagates a Fock state to each film coordinate and
takes the squared norm of the absorbed state: it works for any absorption
order and any state, including mixtures.  The closed-form route evaluates
a product of Dirichlet kernels, one per mode pair, and is valid only for
full-order absorption of the reciprocal-binomial product states.  The two
must agree after peak normalization; that cross-check is the central
correctness property of the package.

The engine here is the generic sparse one, exponential in the pair count.
Plan states are products over pairs, so ``imperfections.plan_fock_values``
computes their brute-force rates pair by pair in polynomial time; the
``rate`` command uses it, and this engine stays the independent oracle
that ``verify`` checks it against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    Geometry,
    MixedState,
    PureState,
    absorption_transfer,
    relative_wavevector,
)

NORMALIZATION_MODES = ("raw", "peak_unity", "pixel_sum_unity")

# Below this |sin(theta/2)| the Dirichlet ratio is replaced by its limit.
_SINGULARITY_GUARD = 1e-9


@dataclass(frozen=True)
class SamplingGrid:
    """Uniformly spaced film coordinates, inclusive of both endpoints."""

    x_min: float
    x_max: float
    samples: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if self.samples < 2:
            raise ValueError(f"need at least 2 samples, got {self.samples}")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.samples - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.samples)


@dataclass(frozen=True, eq=False)
class DepositionProfile:
    """Sampled deposition rate over a grid, tagged with its normalization."""

    grid: SamplingGrid
    values: np.ndarray
    normalization_mode: str = "raw"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.samples,):
            raise ValueError(f"expected {self.grid.samples} values, got shape {values.shape}")
        if not np.all(values >= 0):
            raise ValueError("deposition rates must be non-negative")
        if self.normalization_mode not in NORMALIZATION_MODES:
            raise ValueError(f"unknown normalization mode {self.normalization_mode!r}")


def finalize_profile(grid: SamplingGrid, values: np.ndarray, mode: str) -> DepositionProfile:
    """Wrap sampled rates as a profile, dividing by the peak for ``peak_unity``."""
    if mode == "peak_unity":
        peak = values.max(initial=0.0)
        if peak <= 0.0:
            raise ValueError("peak normalization requires a nonzero profile")
        values = values / peak
    return DepositionProfile(grid, values, mode)


# ---------------------------------------------------------------------------
# Closed form: product of Dirichlet kernels
# ---------------------------------------------------------------------------

def dirichlet_factor(photons: int, theta) -> np.ndarray:
    """Normalized Dirichlet kernel sin^2((N+1)t/2) / ((N+1) sin(t/2))^2.

    Equals |sum_{n=0..N} exp(i n t)|^2 / (N+1)^2, so it lies in [0, 1] with
    removable singularities at t = 0 mod 2 pi where the value is 1.
    """
    theta = np.asarray(theta, dtype=float)
    half = np.sin(theta / 2.0)
    near = np.abs(half) < _SINGULARITY_GUARD
    safe = np.where(near, 1.0, half)
    ratio = np.sin((photons + 1) * theta / 2.0) / ((photons + 1) * safe)
    return np.where(near, 1.0, ratio * ratio)


def closed_form_values(geometry: Geometry, phases, xs) -> np.ndarray:
    """Full-order deposition rate at positions ``xs`` (wavelength units).

    Each mode pair contributes one Dirichlet kernel in
    theta_j = 4 pi s_j x - phi_j; the product peaks at exactly 1 where all
    kernel arguments vanish simultaneously.  Only valid when the film
    absorbs the full photon number of the product state.  ``phases`` is
    one setting of shape ``(pairs,)`` or a stack of shape
    ``(settings, pairs)``, which gives one row of rates per setting.
    """
    phases = np.asarray(phases, dtype=float)
    if phases.shape[-1:] != (len(geometry.pairs),):
        raise ValueError(f"expected {len(geometry.pairs)} phases per setting, got shape {phases.shape}")
    xs = np.asarray(xs, dtype=float)
    shifts = phases.reshape(phases.shape[:-1] + (1,) * xs.ndim + phases.shape[-1:])
    out = np.ones(phases.shape[:-1] + xs.shape)
    for j, pair in enumerate(geometry.pairs):
        theta = 4.0 * math.pi * pair.scaling * xs - shifts[..., j]
        out = out * dirichlet_factor(pair.photons, theta)
    return out


# ---------------------------------------------------------------------------
# Brute force: absorb in Fock space
# ---------------------------------------------------------------------------

def _brute_values_pure(state: PureState, order: int, xs: np.ndarray) -> np.ndarray:
    support = state.support
    if not support:
        return np.zeros_like(xs)
    amps = np.array([state.amplitudes[occ] for occ in support])
    freqs = np.array([relative_wavevector(state.geometry, occ) for occ in support])
    _, matrix = absorption_transfer(support, state.geometry.mode_count, order)
    if matrix.size == 0:
        return np.zeros_like(xs)
    carriers = amps[:, None] * np.exp(2j * math.pi * np.outer(freqs, xs))
    final = matrix @ carriers
    return np.einsum("fx,fx->x", final.conj(), final).real


def brute_force_values(state, order: int, xs) -> np.ndarray:
    """Rate at positions ``xs`` as the squared norm of the absorbed, propagated state.

    Summing |amplitude|^2 over the orthogonal final occupation vectors makes
    distinguishable absorption outcomes add without interference, the physical
    behaviour below full order; mixtures contribute their weighted average.
    The grid sweep is one cached transfer matrix times a phase matrix.
    """
    if order < 1:
        raise ValueError("absorption order must be >= 1")
    xs = np.asarray(xs, dtype=float)
    if isinstance(state, MixedState):
        out = np.zeros_like(xs)
        for w, s in state.components:
            out += w * _brute_values_pure(s, order, xs)
        return out
    return _brute_values_pure(state, order, xs)


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

def profile_brute(state, order: int, grid: SamplingGrid, normalization: str = "raw") -> DepositionProfile:
    """Sample the brute-force rate over a grid."""
    if normalization == "pixel_sum_unity":
        raise ValueError("pixel_sum_unity applies to closed-form pixel plans only")
    return finalize_profile(grid, brute_force_values(state, order, grid.points()), normalization)


def profile_closed(geometry: Geometry, phases, grid: SamplingGrid, normalization: str = "raw") -> DepositionProfile:
    """Sample the closed-form rate for one phase setting over a grid."""
    return finalize_profile(grid, closed_form_values(geometry, phases, grid.points()), normalization)


def profile_2d(profile_x: DepositionProfile, profile_y: DepositionProfile) -> np.ndarray:
    """Outer product of two axis profiles: rate[i, j] = x[i] * y[j].

    Separable because the X and Y mode pairs enter the product state
    independently; both inputs must carry the same normalization mode.
    """
    if profile_x.normalization_mode != profile_y.normalization_mode:
        raise ValueError(
            f"normalization modes differ: {profile_x.normalization_mode!r} "
            f"vs {profile_y.normalization_mode!r}"
        )
    return np.outer(profile_x.values, profile_y.values)


# ---------------------------------------------------------------------------
# Spectral content
# ---------------------------------------------------------------------------

def fourier_harmonics(profile: DepositionProfile, fundamental_period: float,
                      max_harmonic: int | None = None) -> np.ndarray:
    """Magnitudes of the profile's Fourier coefficients at integer harmonics.

    The grid must span an integer number of fundamental periods (the
    duplicated endpoint sample is dropped before the transform).  Harmonic
    k is the coefficient at spatial frequency k / fundamental_period.
    """
    grid = profile.grid
    span = grid.x_max - grid.x_min
    cycles = span / fundamental_period
    if abs(cycles - round(cycles)) > 1e-9 * max(1.0, cycles) or round(cycles) < 1:
        raise ValueError(
            f"grid span {span} is not an integer number of periods {fundamental_period}"
        )
    cycles = round(cycles)
    n_unique = grid.samples - 1
    if max_harmonic is None:
        max_harmonic = n_unique // (2 * cycles)
    values = profile.values[:n_unique]
    t = (grid.points()[:n_unique] - grid.x_min) / fundamental_period
    ks = np.arange(max_harmonic + 1)
    basis = np.exp(-2j * math.pi * np.outer(ks, t))
    return np.abs(basis @ values) / n_unique


# ---------------------------------------------------------------------------
# Text export
# ---------------------------------------------------------------------------

def profile_text(profile: DepositionProfile, header_lines=()) -> str:
    """Two-column CSV text (x_lambda, rate) with comment header."""
    lines = [f"# {line}" for line in header_lines]
    lines.append(f"# normalization: {profile.normalization_mode}")
    lines.append("x_lambda,rate")
    for x, v in zip(profile.grid.points(), profile.values):
        lines.append(f"{format(x, '.17g')},{format(v, '.17g')}")
    return "\n".join(lines) + "\n"


def profile_2d_text(grid_x: SamplingGrid, grid_y: SamplingGrid, values: np.ndarray,
                    header_lines=()) -> str:
    """Row-major (x outer, y inner) triplet rows with axis ranges in the header."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid_x.samples, grid_y.samples):
        raise ValueError(f"expected shape {(grid_x.samples, grid_y.samples)}, got {values.shape}")
    lines = [f"# {line}" for line in header_lines]
    lines.append(f"# x_axis: min={format(grid_x.x_min, '.17g')} max={format(grid_x.x_max, '.17g')} samples={grid_x.samples}")
    lines.append(f"# y_axis: min={format(grid_y.x_min, '.17g')} max={format(grid_y.x_max, '.17g')} samples={grid_y.samples}")
    lines.append("x_lambda,y_lambda,rate")
    xs = grid_x.points()
    ys = grid_y.points()
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            lines.append(f"{format(x, '.17g')},{format(y, '.17g')},{format(values[i, j], '.17g')}")
    return "\n".join(lines) + "\n"
