import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import nested_geometry

from qlitho.deposition import (
    DepositionProfile,
    SamplingGrid,
    brute_force_values,
    fourier_harmonics,
    profile_brute,
)
from qlitho.fock import Geometry, ModePair, norm_sq, reciprocal_binomial
from qlitho.imperfections import (
    MISSING_HARMONIC_RATIO,
    DegradationReport,
    LossModel,
    degradation_report,
    fwhm,
    lossy_mixture,
    plan_fock_values,
    top_harmonic_index,
)
from qlitho.planner import PixelSpec, entry_state, phases_for_pixel, pixel_center, plan_pattern, plan_profile


@pytest.fixture
def grazing_four():
    """Four-photon grazing pair steered onto pixel 3 (interior peak)."""
    geometry = Geometry((ModePair(1, 4, 1.0),))
    return geometry, entry_state(geometry, phases_for_pixel(geometry, 3))


@pytest.fixture
def six_mode_four_photon():
    """Three nested pairs holding (2, 1, 1) photons, steered onto pixel 7 of 12."""
    geometry = Geometry((ModePair(1, 2, 1.0), ModePair(2, 1, 0.5), ModePair(3, 1, 0.25)))
    return geometry, entry_state(geometry, phases_for_pixel(geometry, 7))


class TestLossModel:
    def test_transmission_range_validated(self):
        with pytest.raises(ValueError):
            LossModel(1.2)
        with pytest.raises(ValueError):
            LossModel(-0.1)


class TestLossyMixture:
    def test_unit_transmission_returns_original(self):
        state = reciprocal_binomial(3)
        mix = lossy_mixture(state, LossModel(1.0))
        assert len(mix.components) == 1
        weight, survivor = mix.components[0]
        assert weight == pytest.approx(1.0)
        assert survivor.amplitudes == state.amplitudes

    def test_zero_transmission_collapses_to_vacuum(self):
        mix = lossy_mixture(reciprocal_binomial(3), LossModel(0.0))
        assert len(mix.components) == 1
        weight, vacuum = mix.components[0]
        assert weight == pytest.approx(1.0)
        assert vacuum.amplitudes == {(0, 0): pytest.approx(1.0 + 0j)}

    def test_weights_sum_to_one_components_normalized(self, grazing_four):
        _, state = grazing_four
        mix = lossy_mixture(state, LossModel(0.73))
        assert sum(w for w, _ in mix.components) == pytest.approx(1.0, abs=1e-12)
        for _, component in mix.components:
            assert norm_sq(component) == pytest.approx(1.0, abs=1e-12)

    def test_strict_absorber_rate_scales_by_transmission_power(self, grazing_four):
        geometry, state = grazing_four
        eta = 0.9
        mix = lossy_mixture(state, LossModel(eta))
        xs = np.linspace(0.0, 0.5, 64)
        lossy = brute_force_values(mix, 4, xs)
        ideal = brute_force_values(state, 4, xs)
        assert np.abs(lossy - eta**4 * ideal).max() <= 1e-12 * ideal.max()
        assert eta**4 == pytest.approx(0.6561)

    def test_zero_loss_branch_is_original_state_with_weight_eta_m(self, grazing_four):
        geometry, state = grazing_four
        eta = 0.85
        mix = lossy_mixture(state, LossModel(eta))
        full = [(w, s) for w, s in mix.components if sum(next(iter(s.amplitudes))) == 4]
        assert len(full) == 1
        weight, survivor = full[0]
        assert weight == pytest.approx(eta**4, rel=1e-12)
        for occ, amp in state.amplitudes.items():
            assert survivor.amplitudes[occ] == pytest.approx(amp, abs=1e-12)

    def test_one_lost_branch_matches_reduced_order_rate(self, grazing_four):
        # losing one photon before the film is the same as leaving one of
        # M photons unabsorbed: the branch rate is (1-eta) eta^(M-1)
        # times the ideal (M-1)-photon rate of the intact state
        geometry, state = grazing_four
        eta = 0.85
        mix = lossy_mixture(state, LossModel(eta))
        branch = [(w, s) for w, s in mix.components if sum(next(iter(s.amplitudes))) == 3]
        xs = np.linspace(0.0, 0.5, 101)
        branch_rate = sum(w * brute_force_values(s, 3, xs) for w, s in branch)
        expected = (1 - eta) * eta**3 * brute_force_values(state, 3, xs)
        assert np.abs(branch_rate - expected).max() < 1e-9 * expected.max()


class TestLowerOrderProfile:
    def test_fwhm_strictly_widens_as_order_drops(self, grazing_four):
        geometry, state = grazing_four
        grid = SamplingGrid(0.0, 0.5, 2001)
        widths = [fwhm(profile_brute(state, k, grid, "peak_unity")) for k in (4, 3, 2, 1)]
        assert widths[0] < widths[1] < widths[2] < widths[3]

    def test_single_photon_absorption_is_half_wave_fringe(self):
        # only adjacent photon-number paths interfere, so the pattern
        # carries nothing beyond the first harmonic of the lambda/2 period
        state = reciprocal_binomial(5)
        grid = SamplingGrid(0.0, 0.5, 513)
        profile = profile_brute(state, 1, grid, "peak_unity")
        mags = fourier_harmonics(profile, 0.5, 5)
        assert mags[1] > 1e-2 * mags[0]
        assert np.all(mags[2:] < 1e-9 * mags[0])

    def test_monotone_degradation_in_order(self, grazing_four):
        geometry, state = grazing_four
        grid = SamplingGrid(0.0, 0.5, 2001)
        reference = profile_brute(state, 4, grid, "peak_unity")
        reports = {}
        for order in (1, 2, 3):
            reports[order] = degradation_report(
                profile_brute(state, order, grid, "peak_unity"), reference, geometry, targets=[3]
            )
        reports[4] = degradation_report(reference, reference, geometry, targets=[3])
        for low, high in ((1, 2), (2, 3), (3, 4)):
            assert reports[low].fwhm >= reports[high].fwhm
            assert reports[low].exposure_penalty >= reports[high].exposure_penalty


class TestDegradationReport:
    def test_profile_equal_to_reference(self, grazing_four):
        geometry, state = grazing_four
        grid = SamplingGrid(0.0, 0.5, 2001)
        reference = profile_brute(state, 4, grid, "peak_unity")
        report = degradation_report(reference, reference, geometry, targets=[3])
        assert report.fwhm == fwhm(reference)
        assert report.exposure_penalty < 1e-12
        assert not report.missing_top_harmonic

    def test_top_harmonic_present_then_absent(self, grazing_four):
        geometry, state = grazing_four
        assert top_harmonic_index(geometry) == 4
        grid = SamplingGrid(0.0, 0.5, 2001)
        reference = profile_brute(state, 4, grid, "peak_unity")
        full = degradation_report(reference, reference, geometry, targets=[3])
        assert full.top_harmonic_ratio > 1e-3
        reduced = degradation_report(
            profile_brute(state, 3, grid, "peak_unity"), reference, geometry, targets=[3]
        )
        assert reduced.missing_top_harmonic
        assert reduced.top_harmonic_ratio < 1e-9

    def test_six_mode_state_degrades_more_by_dose_fraction(
        self, grazing_four, six_mode_four_photon
    ):
        # with more modes there are more distinguishable final states, so
        # destructive interference outside the peak is less complete and a
        # larger share of the dose lands off target
        geom2, state2 = grazing_four
        geom6, state6 = six_mode_four_photon
        grid2 = SamplingGrid(0.0, 0.5, 2001)
        grid6 = SamplingGrid(0.0, 2.0, 2401)
        ref2 = profile_brute(state2, 4, grid2, "peak_unity")
        ref6 = profile_brute(state6, 4, grid6, "peak_unity")
        for order in (3, 2, 1):
            two_mode = degradation_report(
                profile_brute(state2, order, grid2, "peak_unity"), ref2, geom2, targets=[3]
            )
            six_mode = degradation_report(
                profile_brute(state6, order, grid6, "peak_unity"), ref6, geom6, targets=[7]
            )
            assert six_mode.offtarget_dose_fraction > two_mode.offtarget_dose_fraction

    def test_trench_modulation_near_ten_percent(self):
        geometry = Geometry((ModePair(1, 10, 1.0),))
        targets = [1, 2, 3, 4, 9, 10, 11]
        plan = plan_pattern(geometry, targets)
        grid = SamplingGrid(0.0, 0.5, 2201)
        profile = plan_profile(plan, grid, "pixel_sum_unity")
        report = degradation_report(profile, profile, geometry, targets=targets)
        assert 0.05 <= report.offtarget_max <= 0.15
        assert report.exposure_penalty < 1e-12

    def test_flat_profile_rejected(self, grazing_four):
        geometry, _ = grazing_four
        grid = SamplingGrid(0.0, 0.5, 65)
        flat = DepositionProfile(grid, np.ones(65))
        with pytest.raises(ValueError, match="peak"):
            degradation_report(flat, flat, geometry)

    def test_grid_mismatch_rejected(self, grazing_four):
        geometry, state = grazing_four
        a = profile_brute(state, 4, SamplingGrid(0.0, 0.5, 65))
        b = profile_brute(state, 4, SamplingGrid(0.0, 0.5, 129))
        with pytest.raises(ValueError, match="grid"):
            degradation_report(a, b, geometry)

    @pytest.mark.parametrize("target", [0, 6])
    def test_target_outside_pixel_grid_rejected(self, grazing_four, target):
        geometry, state = grazing_four
        profile = profile_brute(state, 4, SamplingGrid(0.0, 0.5, 65))
        with pytest.raises(ValueError, match=r"targets must be pixels 1\.\.5"):
            degradation_report(profile, profile, geometry, targets=[2, target])

    def test_target_inferred_from_reference_peak(self, grazing_four):
        geometry, state = grazing_four
        grid = SamplingGrid(0.0, 0.5, 2001)
        reference = profile_brute(state, 4, grid, "peak_unity")
        inferred = degradation_report(reference, reference, geometry)
        explicit = degradation_report(reference, reference, geometry, targets=[3])
        assert inferred.exposure_penalty == explicit.exposure_penalty

    def test_report_field_validation(self):
        with pytest.raises(ValueError):
            DegradationReport(0.0, 0.1, 0.1, 0.1, False, 1.0)
        with pytest.raises(ValueError):
            DegradationReport(0.1, -0.1, 0.1, 0.1, False, 1.0)


def reference_readings(profile, spec, targets):
    """The three penalty readings as the ``DegradationReport`` docstring defines
    them, one pixel, one off-target run and one sample at a time."""
    grid = profile.grid
    xs = grid.points()
    values = profile.values
    span = grid.x_max - grid.x_min
    count = spec.pixel_count
    off = [p for p in range(1, count + 1) if p not in targets]

    penalty = 0.0
    for p in off:
        x = grid.x_min + (pixel_center(spec, p) - grid.x_min) % spec.period
        if x > grid.x_min + span:
            x -= spec.period
        penalty = max(penalty, float(np.interp(x, xs, values)))

    # Maximal runs of consecutive off-target pixels on the cyclic pixel
    # grid; when every pixel is off-target the run is 1..count, unwrapped.
    if len(off) == count:
        runs = [(1, count)]
    else:
        runs = []
        for p in off:
            if (p - 2) % count + 1 in off:
                continue
            end = p
            while end % count + 1 in off:
                end = end % count + 1
            runs.append((p, end))
    folded = xs % spec.period
    offband = 0.0
    for first, last in runs:
        lo, hi = pixel_center(spec, first), pixel_center(spec, last)
        for f, v in zip(folded, values):
            if (lo <= f <= hi) if lo <= hi else (f >= lo or f <= hi):
                offband = max(offband, float(v))

    sample_pixel = [min(int(f / spec.pixel_width) + 1, count) for f in folded]
    in_off = np.array([p not in targets for p in sample_pixel])
    dose = float(values[in_off].sum()) / float(values.sum())
    peak = float(values.max())
    return penalty / peak, offband / peak, dose


class TestReportAgainstDefinitions:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=4),
        st.integers(1, 2),
        st.sampled_from([65, 257, 300, 1025]),
        st.sampled_from([0.0, -0.3, 0.125]),
        st.data(),
    )
    def test_fields_match_definitions(self, photons, periods, samples, x_min, data):
        geometry = nested_geometry(photons)
        spec = PixelSpec.from_geometry(geometry)
        pixels = st.integers(1, spec.pixel_count)
        exposed = sorted(data.draw(st.sets(pixels, min_size=1, max_size=4)))
        targets = data.draw(st.sets(pixels, max_size=spec.pixel_count))
        order = data.draw(st.integers(1, geometry.total_photons))
        grid = SamplingGrid(x_min, x_min + periods * spec.period, samples)
        plan = plan_pattern(geometry, exposed)
        profile = DepositionProfile(grid, plan_fock_values(plan, order, grid.points()))
        report = degradation_report(profile, profile, geometry, targets=sorted(targets))
        penalty, offband, dose = reference_readings(profile, spec, targets)
        assert report.exposure_penalty == penalty
        assert report.offtarget_max == offband
        assert report.offtarget_dose_fraction == dose
        assert report.fwhm == fwhm(profile)
        magnitudes = fourier_harmonics(profile, spec.period, top_harmonic_index(geometry))[[0, -1]]
        np.testing.assert_allclose(report.top_harmonic_ratio, magnitudes[1] / magnitudes[0], rtol=1e-12, atol=0)
        assert report.missing_top_harmonic == (report.top_harmonic_ratio < MISSING_HARMONIC_RATIO)

    def test_readings_do_not_depend_on_where_the_grid_starts(self, two_pair_33):
        """pair(3,3), pixel 6 (the target the report reads off the peak), one period at four starts."""
        plan = plan_pattern(two_pair_33, [6])
        base = None
        for start in (0.0, -1.0, -2.0, 2.0):
            profile = plan_profile(plan, SamplingGrid(start, start + 2.0, 2049))
            report = degradation_report(profile, profile, two_pair_33)
            base = base or report
            for field in ("fwhm", "exposure_penalty", "offtarget_max", "top_harmonic_ratio"):
                assert abs(getattr(report, field) - getattr(base, field)) < 1e-12
            # Both grid ends fold onto one point of the period, and the dose counts that
            # sample twice: fold 0 for the whole-period starts, fold 1 for start -1.
            share = profile.values.max() / profile.values.sum() if start == -1.0 else 0.0
            assert abs(report.offtarget_dose_fraction - base.offtarget_dose_fraction) <= share + 1e-12


class TestFwhm:
    def test_known_cosine_width(self):
        # cos^2(2 pi x) falls to half max a quarter period from the peak
        grid = SamplingGrid(0.0, 1.0, 4001)
        values = np.cos(2 * np.pi * grid.points()) ** 2
        profile = DepositionProfile(grid, values)
        assert fwhm(profile) == pytest.approx(0.25, abs=2 * grid.spacing)

    def test_peak_at_boundary_wraps(self):
        grid = SamplingGrid(0.0, 1.0, 4001)
        values = np.cos(2 * np.pi * (grid.points() - 0.999)) ** 2
        profile = DepositionProfile(grid, values)
        assert fwhm(profile) == pytest.approx(0.25, abs=2 * grid.spacing)

    def test_flat_rejected(self):
        grid = SamplingGrid(0.0, 1.0, 65)
        with pytest.raises(ValueError, match="flat"):
            fwhm(DepositionProfile(grid, np.full(65, 0.4)))
