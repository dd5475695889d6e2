"""Degradation from linear loss and competing lower-order absorption.

Loss is the exact beam-splitter channel: every photon survives
independently with the mode's transmission, and the environment records
how many photons each mode lost, so the state decoheres into one mixture
component per loss pattern.  Lower-order absorption is handled by the
brute-force rate, which sums distinguishable final states incoherently.
For plan states, which are products over mode pairs, ``plan_fock_values``
computes that rate pair by pair, loss included, from amplitude tables
cached per pair photon number and built with the same ``lossy_mixture``
and ``absorption_transfer`` that the generic oracle uses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .deposition import DepositionProfile, _harmonic_magnitudes
from .fock import Geometry, MixedState, PureState, absorption_transfer, reciprocal_binomial
from .planner import ExposurePlan, PixelSpec, fold_plan


# A top-harmonic ratio below this counts as missing.
MISSING_HARMONIC_RATIO = 1e-6


@dataclass(frozen=True)
class LossModel:
    """Intensity transmission, the same for every mode."""

    transmission: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.transmission <= 1.0:
            raise ValueError(f"transmission must lie in [0, 1], got {self.transmission}")


@dataclass(frozen=True)
class DegradationReport:
    """Resolution and exposure-penalty summary of one profile.

    Three penalty readings are reported because "unwanted exposure" is
    scale-dependent: ``exposure_penalty`` is measured at off-target pixel
    centers (exactly zero for ideal full-order exposure),
    ``offtarget_max`` over the span between the first and last center of
    each off-target pixel run (the residual modulation of a trench), and
    ``offtarget_dose_fraction`` is the fraction of the integrated dose
    landing in off-target pixel intervals (how incomplete the destructive
    interference is overall).
    """

    fwhm: float
    exposure_penalty: float
    offtarget_max: float
    offtarget_dose_fraction: float
    missing_top_harmonic: bool
    top_harmonic_ratio: float

    def __post_init__(self):
        if self.fwhm <= 0:
            raise ValueError("fwhm must be positive")
        if self.exposure_penalty < 0:
            raise ValueError("exposure penalty must be non-negative")


def lossy_mixture(state: PureState, loss: LossModel) -> MixedState:
    """Exact loss channel: one renormalized component per loss pattern.

    A pattern assigns each mode the number of photons it loses; its Kraus
    amplitude on an occupation vector is the square root of
    binom(n, l) eta^(n-l) (1-eta)^l per mode.  Components that turn out
    proportional (same ray) are merged, so eta = 0 collapses to the vacuum
    with weight one.  Weights sum to one exactly.
    """
    eta = loss.transmission
    support = state.amplitudes
    if not support:
        raise ValueError("cannot apply loss to the zero state")
    max_loss = [max(occ[m] for occ in support) for m in range(state.geometry.mode_count)]
    components: list[tuple[float, dict]] = []
    for pattern in itertools.product(*(range(m + 1) for m in max_loss)):
        amps: dict[tuple[int, ...], complex] = {}
        for occ, amp in support.items():
            weight = 1.0
            for n, lost in zip(occ, pattern):
                if lost > n:
                    weight = 0.0
                    break
                weight *= math.comb(n, lost) * eta ** (n - lost) * (1.0 - eta) ** lost
            if weight:
                reduced = tuple(n - lost for n, lost in zip(occ, pattern))
                amps[reduced] = amps.get(reduced, 0j) + amp * math.sqrt(weight)
        if not amps:
            continue
        weight = sum(a.real * a.real + a.imag * a.imag for a in amps.values())
        if weight <= 0.0:
            continue
        scale = 1.0 / math.sqrt(weight)
        amps = {occ: a * scale for occ, a in amps.items()}
        _fix_global_phase(amps)
        _merge_component(components, weight, amps)
    total = sum(w for w, _ in components)
    return MixedState(
        tuple(
            (w / total, PureState(state.geometry, amps, normalized=True))
            for w, amps in components
        )
    )


def _fix_global_phase(amps: dict) -> None:
    lead = amps[min(amps)]
    mag = abs(lead)
    if mag > 0:
        rot = lead.conjugate() / mag
        for occ in amps:
            amps[occ] *= rot


def _merge_component(components: list, weight: float, amps: dict) -> None:
    for i, (w, existing) in enumerate(components):
        if existing.keys() == amps.keys() and all(
            abs(existing[k] - amps[k]) <= 1e-12 for k in amps
        ):
            components[i] = (w + weight, existing)
            return
    components.append((weight, amps))


@lru_cache(maxsize=64)
def pair_rate_tables(photons: int, order: int, transmission: float) -> tuple[np.ndarray, ...]:
    """Amplitude tables ``A_k[f, p]``, k = 1..order, of one reciprocal-binomial pair.

    Phased to theta = 4 pi s x - phi, the pair carries exp(i p theta) on the
    basis vectors with p photons in the ``+`` mode, and loss keeps that up to
    a global phase per mixture component.  So for every s, phi and x the
    pair's order-k rate under the two-mode coupling is the sum of squares
    sum_f |sum_p A_k[f, p] exp(i p theta)|^2.  A component of weight w adds
    the rows sqrt(w) T diag(amps), T its ``absorption_transfer``, in the
    columns of its post-loss ``+`` occupations.
    """
    state = reciprocal_binomial(photons)
    mixture = MixedState(((1.0, state),)) if transmission == 1.0 else lossy_mixture(state, LossModel(transmission))
    tables = []
    for k in range(1, order + 1):
        blocks = []
        for w, component in mixture.components:
            support = component.support
            _, transfer = absorption_transfer(support, 2, k)
            amps = np.array([component.amplitudes[occ] for occ in support])
            block = np.zeros((transfer.shape[0], photons + 1), dtype=complex)
            block[:, [occ[0] for occ in support]] = math.sqrt(w) * transfer * amps
            blocks.append(block)
        tables.append(np.concatenate(blocks))
        tables[-1].flags.writeable = False  # shared by every caller through the cache
    return tuple(tables)


def plan_fock_values(plan: ExposurePlan, order: int, xs, loss: LossModel | None = None) -> np.ndarray:
    """Brute-force Fock-space rate of a plan at ``xs``, factorized over mode pairs.

    Each plan entry is a product of per-pair reciprocal-binomial states and
    loss acts mode by mode, so the entry stays a product of per-pair
    mixtures.  Splitting e = sum_p e_p, the order-K rate is
    (K!)^2 sum over K_1 + K_2 + ... = K of prod_p rbar_{p,K_p} / (K_p!)^2,
    with no cross terms between splits.  Pair p's own order-k rate under the
    1/sqrt(W) coupling is rbar_{p,k} = (2/W)^k ||A_k exp(i p theta)||^2 from
    ``pair_rate_tables``.  Each ``fold_plan`` step merges one pair's rates
    into K + 1 order accumulators with weights (j + k choose k)^2, linear in
    them, so no large factorial is formed and the cost is polynomial in the
    pair count.  It equals ``brute_force_values`` of the loss-mixed
    ``plan_mixture`` to roundoff, and is exactly zero where that is (order
    above the photon number, or no transmission).
    """
    if order < 1:
        raise ValueError("absorption order must be >= 1")
    xs = np.asarray(xs, dtype=float)
    geometry = plan.geometry
    if order > geometry.total_photons:
        return np.zeros_like(xs)
    transmission = 1.0 if loss is None else loss.transmission
    tables = [pair_rate_tables(p.photons, min(p.photons, order), transmission) for p in geometry.pairs]
    merges = [np.array([float(math.comb(j + k, k) ** 2) for j in range(order + 1 - k)])[:, None]
              for k in range(1, max(map(len, tables)) + 1)]  # once per call, not per step

    def pair_step(j, theta, acc):
        carriers = np.exp(1j * np.outer(np.arange(geometry.pairs[j].photons + 1), theta))
        out = acc.copy()
        for k, (table, merge) in enumerate(zip(tables[j], merges), start=1):
            final = table @ carriers
            rate = (2.0 / geometry.mode_count) ** k * np.einsum("fx,fx->x", final.conj(), final).real
            out[k:] += merge * rate * acc[: order + 1 - k]
        return out

    start = np.zeros((order + 1,) + xs.shape)
    start[0] = 1.0
    return fold_plan(plan, xs, start, pair_step)[order]


def top_harmonic_index(geometry: Geometry) -> int:
    """Index of the highest harmonic a full-order pattern can carry.

    The finest interference term beats at sum_j 2 s_j N_j cycles per
    wavelength; relative to the fundamental period 1/(2 s_min) that is
    harmonic sum_j s_j N_j / s_min.
    """
    s_min = min(geometry.scalings)
    return round(sum(p.scaling * p.photons for p in geometry.pairs) / s_min)


def fwhm(profile: DepositionProfile) -> float:
    """Full width at half maximum of the dominant peak, by linear interpolation.

    The profile is treated as periodic over its grid (endpoint sample
    duplicated), so peaks near the boundary wrap correctly.  A profile that
    never falls to half its maximum has an infinite width.
    """
    values = np.asarray(profile.values, dtype=float)
    unique = values[:-1]
    if unique.size < 2 or np.ptp(values) == 0 or values.max() <= 0:
        raise ValueError("flat profile has no peak")
    peak = int(np.argmax(unique))
    half = unique[peak] / 2.0
    right = _steps_to_half(unique, peak, +1, half)
    left = _steps_to_half(unique, peak, -1, half)
    return (left + right) * profile.grid.spacing


def _steps_to_half(values: np.ndarray, start: int, direction: int, half: float) -> float:
    n = values.size
    prev = values[start]
    for step in range(1, n + 1):
        cur = values[(start + direction * step) % n]
        if cur <= half:
            return (step - 1) + (prev - half) / (prev - cur)
        prev = cur
    return math.inf


def degradation_report(
    profile: DepositionProfile,
    reference: DepositionProfile,
    geometry: Geometry,
    targets=None,
) -> DegradationReport:
    """Compare a (possibly degraded) profile against the intended exposure.

    ``targets`` lists the intended pixel indices; if omitted, the single
    pixel under the reference profile's peak is assumed; an empty list
    leaves every pixel off-target.  Both profiles must share a grid
    spanning an integer number of pattern periods.  Only harmonics 0 and
    ``top_harmonic_index`` are transformed; above the grid's Nyquist limit
    the sampled top reading is aliased.
    """
    if profile.grid != reference.grid:
        raise ValueError("profile and reference must share a grid")
    spec = PixelSpec.from_geometry(geometry)
    grid = profile.grid
    xs = grid.points()
    values = profile.values
    if targets is None:
        x_peak = xs[int(np.argmax(reference.values))] % spec.period
        targets = [min(int(x_peak / spec.pixel_width) + 1, spec.pixel_count)]
    target_set = {int(t) for t in targets}
    if not all(1 <= t <= spec.pixel_count for t in target_set):
        raise ValueError(f"targets must be pixels 1..{spec.pixel_count}, got {sorted(target_set)}")
    peak = float(values.max())
    if peak <= 0:
        raise ValueError("flat profile has no peak")

    off_target = np.ones(spec.pixel_count, dtype=bool)
    off_target[[t - 1 for t in target_set]] = False
    centers = (np.arange(1, spec.pixel_count + 1) - 0.5) * spec.pixel_width

    # Off-target centers folded into the grid span, then interpolated.
    at = grid.x_min + (centers[off_target] - grid.x_min) % spec.period
    at[at > grid.x_min + (grid.x_max - grid.x_min)] -= spec.period
    penalty = np.interp(at, xs, values).max(initial=0.0)

    # A sample lies in an off-target span when the centers on both sides of
    # it (the same center, if it sits on one) are off-target; the span from
    # the last center round to the first counts only if some pixel is a target.
    folded = xs % spec.period
    left = np.searchsorted(centers, folded, side="right") - 1
    right = np.searchsorted(centers, folded, side="left")
    in_span = off_target[left % spec.pixel_count] & off_target[right % spec.pixel_count]
    if not target_set:
        in_span &= (left >= 0) & (right < spec.pixel_count)
    offband = values[in_span].max(initial=0.0)

    sample_pixel = np.minimum((folded / spec.pixel_width).astype(int) + 1, spec.pixel_count)
    dose_fraction = float(values[off_target[sample_pixel - 1]].sum()) / float(values.sum())

    zeroth, top = _harmonic_magnitudes(profile, spec.period, [0, top_harmonic_index(geometry)])
    ratio = float(top / zeroth) if zeroth > 0 else math.inf
    return DegradationReport(
        fwhm=fwhm(profile),
        exposure_penalty=float(penalty) / peak,
        offtarget_max=float(offband) / peak,
        offtarget_dose_fraction=dose_fraction,
        missing_top_harmonic=ratio < MISSING_HARMONIC_RATIO,
        top_harmonic_ratio=ratio,
    )
