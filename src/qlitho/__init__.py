"""Entangled-state sub-wavelength lithography: simulation and exposure planning."""

from .deposition import (
    DepositionProfile,
    SamplingGrid,
    brute_force_values,
    closed_form_values,
    fourier_harmonics,
    profile_2d,
    profile_brute,
    profile_closed,
)
from .exposure import ExposureResult, FilmModel, simulate_exposure
from .fock import (
    Geometry,
    MixedState,
    ModePair,
    PureState,
    apply_absorption,
    apply_pair_phase,
    norm_sq,
    propagate,
    reciprocal_binomial,
    tensor,
)
from .imperfections import (
    DegradationReport,
    LossModel,
    degradation_report,
    fwhm,
    lossy_mixture,
    plan_fock_values,
    top_harmonic_index,
)
from .planner import (
    ExposurePlan,
    PixelAddress,
    PixelSpec,
    chain_geometry,
    entry_state,
    negative_plan,
    partition_table,
    phases_for_pixel,
    pixel_basis,
    pixel_center,
    pixel_levels,
    plan_mixture,
    plan_pattern,
    plan_profile,
)

__version__ = "0.1.0"
