"""Degradation from linear loss and competing lower-order absorption.

Loss is the exact beam-splitter channel: every photon survives
independently with the mode's transmission, and the environment records
how many photons each mode lost, so the state decoheres into one mixture
component per loss pattern.  Lower-order absorption is handled by the
brute-force rate, which sums distinguishable final states incoherently.
For plan states, which are products over mode pairs, ``plan_fock_values``
computes that rate pair by pair, loss included.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .deposition import DepositionProfile, brute_force_values, fourier_harmonics
from .fock import Geometry, MixedState, PureState, apply_pair_phase, reciprocal_binomial
from .planner import ExposurePlan, PixelSpec, pixel_center


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


def plan_fock_values(plan: ExposurePlan, order: int, xs, loss: LossModel | None = None) -> np.ndarray:
    """Brute-force Fock-space rate of a plan at ``xs``, factorized over mode pairs.

    Each plan entry is a product of per-pair reciprocal-binomial states and
    loss acts mode by mode, so the entry stays a product of per-pair
    mixtures.  Splitting e = sum_p e_p, the order-K rate is
    (K!)^2 sum over K_1 + K_2 + ... = K of prod_p rbar_{p,K_p} / (K_p!)^2:
    different splits leave different photon numbers in the pairs and add
    without cross terms.  ``rbar_{p,k}`` is pair p's own order-k rate under
    the 1/sqrt(W) coupling of all W modes, averaged over its loss mixture.
    The sum over splits is a truncated polynomial product over orders,
    merged pair by pair with weights (j + k choose k)^2 so that no large
    factorial is formed; the cost is polynomial in the pair count.  It
    equals ``brute_force_values`` of the loss-mixed ``plan_mixture`` to
    roundoff, and is exactly zero where that is (order above the photon
    number, or no transmission).
    """
    if order < 1:
        raise ValueError("absorption order must be >= 1")
    xs = np.asarray(xs, dtype=float)
    geometry = plan.geometry
    if order > geometry.total_photons:
        return np.zeros_like(xs)
    out = np.zeros_like(xs)
    for entry in plan.entries:
        acc = np.zeros((order + 1,) + xs.shape)
        acc[0] = 1.0
        for pair, phi in zip(geometry.pairs, entry.phases):
            state = apply_pair_phase(
                reciprocal_binomial(pair.photons, pair.scaling, pair.index), pair.index, -phi
            )
            if loss is not None:
                state = lossy_mixture(state, loss)
            nxt = acc.copy()
            for k in range(1, min(pair.photons, order) + 1):
                rate = (2.0 / geometry.mode_count) ** k * brute_force_values(state, k, xs)
                merge = np.array([float(math.comb(j + k, k) ** 2) for j in range(order + 1 - k)])
                nxt[k:] += merge[:, None] * rate * acc[: order + 1 - k]
            acc = nxt
        out += entry.weight * acc[order]
    return out


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
    duplicated), so peaks near the boundary wrap correctly.
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
    raise ValueError("profile never falls to half maximum")


def degradation_report(
    profile: DepositionProfile,
    reference: DepositionProfile,
    geometry: Geometry,
    targets=None,
) -> DegradationReport:
    """Compare a (possibly degraded) profile against the intended exposure.

    ``targets`` lists the intended pixel indices; if omitted, the single
    pixel under the reference profile's peak is assumed.  Both profiles
    must share a grid spanning an integer number of pattern periods.
    """
    if profile.grid != reference.grid:
        raise ValueError("profile and reference must share a grid")
    spec = PixelSpec.from_geometry(geometry)
    xs = profile.grid.points()
    if targets is None:
        x_peak = (xs[int(np.argmax(reference.values))] - profile.grid.x_min) % spec.period
        targets = [min(int(x_peak / spec.pixel_width) + 1, spec.pixel_count)]
    target_set = {int(t) for t in targets}
    peak = float(profile.values.max())
    if peak <= 0:
        raise ValueError("flat profile has no peak")

    off_targets = [p for p in range(1, spec.pixel_count + 1) if p not in target_set]
    folded = (xs - profile.grid.x_min) % spec.period
    penalty = 0.0
    for p in off_targets:
        center = pixel_center(spec, p)
        penalty = max(penalty, _interp_periodic(profile, center, spec.period))
    offband = 0.0
    for first, last in _cyclic_runs(off_targets, spec.pixel_count):
        lo = pixel_center(spec, first)
        hi = pixel_center(spec, last)
        if lo <= hi:
            mask = (folded >= lo) & (folded <= hi)
        else:
            mask = (folded >= lo) | (folded <= hi)
        if mask.any():
            offband = max(offband, float(profile.values[mask].max()))

    sample_pixel = np.minimum(
        (folded / spec.pixel_width).astype(int) + 1, spec.pixel_count
    )
    off_mask = ~np.isin(sample_pixel, sorted(target_set))
    total_dose = float(profile.values.sum())
    dose_fraction = float(profile.values[off_mask].sum()) / total_dose if total_dose > 0 else 0.0

    magnitudes = fourier_harmonics(profile, spec.period, top_harmonic_index(geometry))
    ratio = float(magnitudes[-1] / magnitudes[0]) if magnitudes[0] > 0 else math.inf
    return DegradationReport(
        fwhm=fwhm(profile),
        exposure_penalty=penalty / peak,
        offtarget_max=offband / peak,
        offtarget_dose_fraction=dose_fraction,
        missing_top_harmonic=ratio < MISSING_HARMONIC_RATIO,
        top_harmonic_ratio=ratio,
    )


def _interp_periodic(profile: DepositionProfile, position: float, period: float) -> float:
    xs = profile.grid.points()
    span = profile.grid.x_max - profile.grid.x_min
    folded = profile.grid.x_min + (position - profile.grid.x_min) % period
    if folded > profile.grid.x_min + span:
        folded -= period
    return float(np.interp(folded, xs, profile.values))


def _cyclic_runs(pixels, count):
    """Maximal runs of consecutive pixels on the cyclic 1..count grid."""
    if not pixels:
        return []
    present = set(pixels)
    if len(present) == count:
        return [(1, count)]
    runs = []
    for p in sorted(present):
        prev = count if p == 1 else p - 1
        if prev in present:
            continue
        end = p
        while (1 if end == count else end + 1) in present:
            end = 1 if end == count else end + 1
        runs.append((p, end))
    return runs
