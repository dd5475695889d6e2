"""Sparse multi-mode Fock states for counter-propagating beam pairs.

A state lives on ``W = 2 * len(pairs)`` plane-wave modes, one ``(+, -)``
mode pair per beam direction.  Amplitudes are kept in a sparse map from
occupation vectors to complex numbers, so product states of many
low-photon pairs stay cheap (a chain of single-photon pairs needs
``2**pairs`` dense entries but only a handful of sparse ones).

Occupation vectors are flat integer tuples ordered
``(n_{+1}, n_{-1}, n_{+2}, n_{-2}, ...)`` following the pair order of the
geometry.  All operations are pure functions returning new states; states
are plain frozen dataclasses and pickle cleanly for use across workers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# Constructions are exact rationals under square roots; any norm drift
# beyond this indicates a bug, not roundoff.
NORM_TOL = 1e-12


@dataclass(frozen=True)
class ModePair:
    """One counter-propagating beam pair.

    ``scaling`` is the in-plane wavevector fraction sin(theta) of the
    incidence angle; 1.0 means grazing incidence.
    """

    index: int
    photons: int
    scaling: float = 1.0

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"pair index must be >= 1, got {self.index}")
        if self.photons < 0 or not 0.0 < self.scaling <= 1.0:
            raise ValueError(
                f"need photons >= 0 and scaling in (0, 1], got photons={self.photons} scaling={self.scaling}"
            )


@dataclass(frozen=True)
class Geometry:
    """Ordered mode pairs spanning one film axis."""

    pairs: tuple[ModePair, ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        if not self.pairs:
            raise ValueError("geometry needs at least one mode pair")
        indices = [p.index for p in self.pairs]
        if len(set(indices)) != len(indices):
            raise ValueError(f"duplicate pair indices: {sorted(indices)}")

    @property
    def total_photons(self) -> int:
        return sum(p.photons for p in self.pairs)

    @property
    def mode_count(self) -> int:
        return 2 * len(self.pairs)

    @property
    def scalings(self) -> tuple[float, ...]:
        return tuple(p.scaling for p in self.pairs)

    def pair_position(self, pair_index: int) -> int:
        for pos, pair in enumerate(self.pairs):
            if pair.index == pair_index:
                return pos
        raise ValueError(f"unknown pair index {pair_index}")


@dataclass(frozen=True)
class PureState:
    """Sparse state vector over occupation vectors.

    ``normalized=False`` tags results of non-unitary maps (absorption);
    their squared norm is the physical rate and must not be rescaled.
    """

    geometry: Geometry
    amplitudes: dict[tuple[int, ...], complex] = field(default_factory=dict)
    normalized: bool = True

    def __post_init__(self):
        w = self.geometry.mode_count
        for occ in self.amplitudes:
            if len(occ) != w:
                raise ValueError(f"occupation vector {occ} does not match {w} modes")
            if any(n < 0 for n in occ):
                raise ValueError(f"negative occupation in {occ}")
        if self.normalized:
            norm = norm_sq(self)
            if abs(norm - 1.0) > NORM_TOL:
                raise ValueError(f"state marked normalized but |norm^2 - 1| = {abs(norm - 1.0):.3e}")

    @property
    def support(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.amplitudes))


@dataclass(frozen=True)
class MixedState:
    """Convex mixture of pure states (weights sum to one)."""

    components: tuple[tuple[float, PureState], ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("mixture needs at least one component")
        if any(w < 0 for w, _ in self.components):
            raise ValueError("mixture weights must be non-negative")
        total = sum(w for w, _ in self.components)
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"mixture weights sum to {total!r}, expected 1")


def norm_sq(state: PureState) -> float:
    """Squared two-norm; the absorption rate when applied after ``apply_absorption``."""
    return sum(a.real * a.real + a.imag * a.imag for a in state.amplitudes.values())


def reciprocal_binomial(photons: int, scaling: float = 1.0, pair_index: int = 1) -> PureState:
    """Two-mode entangled pair state with amplitudes proportional to sqrt(n!(N-n)!).

    The inverse-binomial weighting is chosen so that full-order absorption
    turns the pair into a uniform-weight exponential sum over position,
    i.e. a Dirichlet-kernel fringe.  ``photons=0`` gives the vacuum pair.
    """
    if photons < 0:
        raise ValueError("photon number must be >= 0")
    pair = ModePair(pair_index, photons, scaling)
    norm = sum(math.factorial(n) * math.factorial(photons - n) for n in range(photons + 1))
    amps = {
        (n, photons - n): complex(math.sqrt(math.factorial(n) * math.factorial(photons - n) / norm))
        for n in range(photons + 1)
    }
    return PureState(Geometry((pair,)), amps)


def relative_wavevector(geometry: Geometry, occupation: tuple[int, ...]) -> float:
    """In-plane wavevector imbalance sum_j s_j (n_{+j} - n_{-j}) of one basis vector.

    This is the spatial frequency (in cycles per wavelength, up to a factor
    of two) that the basis vector contributes to interference patterns.
    """
    return sum(
        pair.scaling * (occupation[2 * pos] - occupation[2 * pos + 1])
        for pos, pair in enumerate(geometry.pairs)
    )


def propagate(state: PureState, x: float) -> PureState:
    """Free propagation to film coordinate ``x`` (wavelength units).

    Each basis vector acquires exp(i 2 pi s_j x (n_{+j} - n_{-j})) per
    pair: the symmetric relative-phase convention, with global phases
    dropped.  Norm is preserved.
    """
    geom = state.geometry
    amps = {
        occ: amp * cmath.exp(2j * math.pi * x * relative_wavevector(geom, occ))
        for occ, amp in state.amplitudes.items()
    }
    return PureState(geom, amps, normalized=state.normalized)


def apply_pair_phase(state: PureState, pair_index: int, phase: float) -> PureState:
    """Shift mode ``+pair_index`` by ``phase`` radians relative to its partner.

    Applies exp(i phase n_{+j}) in the occupation basis; norm preserved.
    """
    pos = state.geometry.pair_position(pair_index)
    amps = {
        occ: amp * cmath.exp(1j * phase * occ[2 * pos])
        for occ, amp in state.amplitudes.items()
    }
    return PureState(state.geometry, amps, normalized=state.normalized)


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product of states on disjoint pair indices."""
    overlap = {p.index for p in a.geometry.pairs} & {p.index for p in b.geometry.pairs}
    if overlap:
        raise ValueError(f"overlapping pair indices: {sorted(overlap)}")
    geom = Geometry(a.geometry.pairs + b.geometry.pairs)
    amps = {
        occ_a + occ_b: amp_a * amp_b
        for occ_a, amp_a in a.amplitudes.items()
        for occ_b, amp_b in b.amplitudes.items()
    }
    return PureState(geom, amps, normalized=a.normalized and b.normalized)


def apply_absorption(state: PureState, order: int) -> PureState:
    """Apply the ``order``-th power of the symmetric annihilation operator.

    The film couples to e = (1/sqrt(W)) sum_m a_m over all W modes, so
    every basis vector branches into all single-photon removals with
    amplitude sqrt(n_m / W).  The result is unnormalized; its squared norm
    is the ``order``-photon absorption rate.  Annihilating more photons
    than the state holds yields the zero state (empty amplitude map).
    """
    if order < 1:
        raise ValueError("absorption order must be >= 1")
    scale = 1.0 / math.sqrt(state.geometry.mode_count)
    return PureState(state.geometry, _annihilate(state.amplitudes, order, scale), normalized=False)


def _annihilate(amps: dict, order: int, scale: float) -> dict:
    """Apply (scale * sum_m a_m)^order to a sparse amplitude map."""
    for _ in range(order):
        nxt = {}
        for occ, amp in amps.items():
            for m, n in enumerate(occ):
                if n:
                    target = occ[:m] + (n - 1,) + occ[m + 1 :]
                    nxt[target] = nxt.get(target, 0) + amp * (math.sqrt(n) * scale)
        amps = nxt
    return amps


@lru_cache(maxsize=128)
def absorption_transfer(
    support: tuple[tuple[int, ...], ...], mode_count: int, order: int
) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Matrix elements of e^order between a fixed support and its image.

    Returns ``(finals, matrix)`` where ``matrix[f, i]`` is the (real,
    non-negative) amplitude from ``support[i]`` to ``finals[f]``.  Cached
    because the matrix depends only on the support, not on amplitudes or
    propagation phases, so profile evaluation over a grid reuses it.
    ``support`` must be sorted for cache hits.
    """
    scale = 1.0 / math.sqrt(mode_count)
    columns = [_annihilate({occ: 1.0}, order, scale) for occ in support]
    finals = tuple(sorted(set().union(*map(set, columns)))) if columns else ()
    matrix = np.zeros((len(finals), len(support)))
    row = {occ: f for f, occ in enumerate(finals)}
    for i, col in enumerate(columns):
        for occ, a in col.items():
            matrix[row[occ], i] = a
    return finals, matrix
