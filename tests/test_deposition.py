import math

import numpy as np
import pytest

from qlitho.deposition import (
    DepositionProfile,
    SamplingGrid,
    brute_force_values,
    closed_form_values,
    dirichlet_factor,
    fourier_harmonics,
    profile_2d,
    profile_2d_text,
    profile_brute,
    profile_closed,
    profile_text,
)
from qlitho.fock import (
    Geometry,
    MixedState,
    ModePair,
    PureState,
    apply_absorption,
    norm_sq,
    propagate,
    reciprocal_binomial,
)
from qlitho.planner import PixelSpec, entry_state, phases_for_pixel


def zero_phases(geometry):
    return (0.0,) * len(geometry.pairs)


def pointwise_rate(state, x, order):
    """Reference rate at one position, straight from the Fock-space operators."""
    return norm_sq(apply_absorption(propagate(state, x), order))


class TestBruteForce:
    def test_single_photon_pair_gives_cosine_fringe(self):
        # hand expansion: e |psi_x> = cos(2 pi x) |0,0>
        state = reciprocal_binomial(1)
        xs = np.linspace(-0.7, 1.3, 41)
        for x, rate in zip(xs, brute_force_values(state, 1, xs)):
            expected = math.cos(2.0 * math.pi * x) ** 2
            assert pointwise_rate(state, x, 1) == pytest.approx(expected, abs=1e-14)
            assert rate == pytest.approx(expected, abs=1e-14)

    def test_order_above_total_photons_is_zero_everywhere(self):
        state = reciprocal_binomial(2)
        xs = np.linspace(0, 1, 17)
        assert np.all(brute_force_values(state, 3, xs) == 0.0)

    def test_vectorized_matches_pointwise(self, two_pair_33, rng):
        state = entry_state(two_pair_33, phases_for_pixel(two_pair_33, 6))
        xs = rng.uniform(0, 2, size=25)
        for order in (6, 4, 2, 1):
            vec = brute_force_values(state, order, xs)
            point = np.array([pointwise_rate(state, x, order) for x in xs])
            assert np.abs(vec - point).max() < 1e-12 * max(1.0, point.max())

    def test_mixture_rate_is_weighted_sum(self, rng):
        a = reciprocal_binomial(2)
        b = reciprocal_binomial(1)
        mix = MixedState(((0.3, a), (0.7, b)))
        xs = rng.uniform(0, 1, size=8)
        expected = np.array([0.3 * pointwise_rate(a, x, 1) + 0.7 * pointwise_rate(b, x, 1) for x in xs])
        assert np.abs(brute_force_values(mix, 1, xs) - expected).max() < 1e-14

    def test_oracle_equivalence_two_pair(self, two_pair_33):
        state = entry_state(two_pair_33, zero_phases(two_pair_33))
        grid = SamplingGrid(0.0, 2.0, 801)
        brute = profile_brute(state, 6, grid, "peak_unity")
        closed = profile_closed(two_pair_33, zero_phases(two_pair_33), grid, "peak_unity")
        assert np.abs(brute.values - closed.values).max() < 1e-9


class TestClosedForm:
    def test_peak_is_exactly_one_at_origin(self, two_pair_33):
        assert closed_form_values(two_pair_33, zero_phases(two_pair_33), 0.0) == 1.0

    def test_kernel_zero_at_eighth_wavelength(self, two_pair_33):
        # pair-1 kernel: theta = pi/2, sin^2(pi) kills the numerator
        assert closed_form_values(two_pair_33, zero_phases(two_pair_33), 0.125) < 1e-25

    def test_two_pair_shape_periodicity_and_nulls(self, two_pair_33):
        phases = zero_phases(two_pair_33)
        xs = np.linspace(0.0, 2.0, 231)
        assert np.abs(
            closed_form_values(two_pair_33, phases, xs)
            - closed_form_values(two_pair_33, phases, xs + 2.0)
        ).max() < 1e-12
        # nulls every eighth wavelength except at whole periods
        nulls = closed_form_values(two_pair_33, phases, np.arange(1, 16) / 8.0)
        assert nulls.max() < 1e-24

    def test_telescoped_denominator_identity(self, two_pair_33, two_pair_24, rng):
        # the product of two Dirichlet kernels collapses to a single ratio
        # when the second pair is nested at 1/(N2+1) scaling
        for geometry in (two_pair_33, two_pair_24):
            n1 = geometry.pairs[0].photons
            n2 = geometry.pairs[1].photons
            xs = rng.uniform(0.0, 5.0, size=200)
            top = np.sin(2.0 * (n1 + 1) * math.pi * xs) ** 2
            bottom = np.sin(2.0 * math.pi * xs / (n2 + 1)) ** 2
            keep = bottom > 1e-6
            expected = top[keep] / bottom[keep] / ((n1 + 1) * (n2 + 1)) ** 2
            got = closed_form_values(geometry, zero_phases(geometry), xs[keep])
            assert np.abs(got - expected).max() < 1e-9

    def test_range_zero_to_one(self, rng):
        for _ in range(10):
            geometry = Geometry(
                (
                    ModePair(1, int(rng.integers(0, 5)), float(rng.uniform(0.3, 1.0))),
                    ModePair(2, int(rng.integers(0, 5)), float(rng.uniform(0.05, 0.3))),
                )
            )
            phases = tuple(rng.uniform(0, 2 * math.pi, size=2))
            values = closed_form_values(geometry, phases, rng.uniform(-5, 5, size=200))
            assert values.min() >= 0.0
            assert values.max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("offset", [0.0, 1e-12, 1e-10, 1e-8])
    def test_removable_singularity_continuity(self, offset):
        geometry = Geometry((ModePair(1, 3, 1.0),))
        value = closed_form_values(geometry, (0.0,), 0.5 + offset)
        assert np.isfinite(value)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_dirichlet_factor_limit_matches_neighbourhood(self):
        for n in (1, 3, 7):
            assert dirichlet_factor(n, 0.0) == 1.0
            assert dirichlet_factor(n, 4.0 * math.pi) == 1.0
            assert dirichlet_factor(n, 3e-9) == pytest.approx(1.0, abs=1e-12)

    def test_periodicity_least_common_period(self, chain_36):
        period = PixelSpec.from_geometry(chain_36).period
        assert period == 4.0
        phases = zero_phases(chain_36)
        xs = np.linspace(0.0, 4.0, 123)
        assert np.abs(
            closed_form_values(chain_36, phases, xs)
            - closed_form_values(chain_36, phases, xs + period)
        ).max() < 1e-12

    def test_stacked_settings_match_single_calls_bitwise(self, chain_47, rng):
        settings = rng.uniform(0, 2 * math.pi, size=(5, len(chain_47.pairs)))
        xs = rng.uniform(-1, 5, size=300)
        stacked = closed_form_values(chain_47, settings, xs)
        assert stacked.shape == (5, 300)
        for row, phases in zip(stacked, settings):
            assert np.array_equal(row, closed_form_values(chain_47, tuple(phases), xs))
        at_point = closed_form_values(chain_47, settings, 0.3)
        assert at_point.shape == (5,)
        assert np.array_equal(at_point, closed_form_values(chain_47, settings, [0.3])[:, 0])

    def test_phase_count_validated(self, two_pair_33):
        with pytest.raises(ValueError, match="phases"):
            closed_form_values(two_pair_33, (0.0,), 0.1)


class TestProfiles:
    def test_zero_profile_raw_ok_peak_rejected(self):
        geometry = Geometry((ModePair(1, 1, 1.0),))
        zero = PureState(geometry, {}, normalized=False)
        grid = SamplingGrid(0.0, 1.0, 16)
        raw = profile_brute(zero, 1, grid, "raw")
        assert np.all(raw.values == 0.0)
        with pytest.raises(ValueError, match="nonzero"):
            profile_brute(zero, 1, grid, "peak_unity")

    def test_raw_and_peak_differ_by_one_scalar(self, two_pair_33):
        grid = SamplingGrid(0.0, 2.0, 301)
        raw = profile_closed(two_pair_33, zero_phases(two_pair_33), grid, "raw")
        peak = profile_closed(two_pair_33, zero_phases(two_pair_33), grid, "peak_unity")
        scale = raw.values.max()
        assert np.abs(raw.values - scale * peak.values).max() < 1e-12

    def test_pixel_six_profile_peaks_in_pixel_interval(self, two_pair_33):
        grid = SamplingGrid(0.0, 2.0, 2048)
        profile = profile_closed(two_pair_33, phases_for_pixel(two_pair_33, 6), grid, "peak_unity")
        x_peak = grid.points()[np.argmax(profile.values)]
        assert 5.0 / 8.0 <= x_peak <= 6.0 / 8.0

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError):
            SamplingGrid(1.0, 1.0, 16)
        with pytest.raises(ValueError):
            SamplingGrid(0.0, 1.0, 1)


class TestProfile2D:
    def test_uniform_y_replicates_rows(self):
        grid = SamplingGrid(0.0, 1.0, 5)
        px = DepositionProfile(grid, np.array([0.1, 0.4, 1.0, 0.4, 0.1]))
        py = DepositionProfile(grid, np.ones(5))
        out = profile_2d(px, py)
        assert np.array_equal(out, np.tile(px.values[:, None], (1, 5)))

    def test_max_is_product_of_maxima(self, rng):
        grid = SamplingGrid(0.0, 1.0, 33)
        px = DepositionProfile(grid, rng.uniform(0, 2, 33))
        py = DepositionProfile(grid, rng.uniform(0, 3, 33))
        assert profile_2d(px, py).max() == pytest.approx(px.values.max() * py.values.max())

    def test_mismatched_normalization_rejected(self):
        grid = SamplingGrid(0.0, 1.0, 4)
        a = DepositionProfile(grid, np.ones(4), "raw")
        b = DepositionProfile(grid, np.ones(4), "peak_unity")
        with pytest.raises(ValueError, match="normalization"):
            profile_2d(a, b)

    def test_two_single_pixel_profiles_give_one_peak(self, two_pair_33):
        grid = SamplingGrid(0.0, 2.0, 512)
        px = profile_closed(two_pair_33, phases_for_pixel(two_pair_33, 6), grid, "peak_unity")
        py = profile_closed(two_pair_33, phases_for_pixel(two_pair_33, 11), grid, "peak_unity")
        out = profile_2d(px, py)
        i, j = np.unravel_index(np.argmax(out), out.shape)
        xs = grid.points()
        assert xs[i] == pytest.approx(11.0 / 16.0, abs=2 * grid.spacing)
        assert xs[j] == pytest.approx(21.0 / 16.0, abs=2 * grid.spacing)
        # at the exact centers the off-diagonal combination vanishes
        vx = closed_form_values(two_pair_33, phases_for_pixel(two_pair_33, 6), 11.0 / 16.0)
        vy = closed_form_values(two_pair_33, phases_for_pixel(two_pair_33, 11), 11.0 / 16.0)
        assert vx * vy < 1e-12


class TestFourierHarmonics:
    def test_constant_profile_has_only_dc(self):
        grid = SamplingGrid(0.0, 1.0, 65)
        flat = DepositionProfile(grid, np.full(65, 0.7))
        mags = fourier_harmonics(flat, 0.5)
        assert mags[0] == pytest.approx(0.7, abs=1e-12)
        assert np.all(mags[1:] < 1e-12)

    def test_full_order_carries_all_harmonics_to_top(self):
        state = reciprocal_binomial(3)
        grid = SamplingGrid(0.0, 0.5, 513)
        profile = profile_brute(state, 3, grid, "peak_unity")
        mags = fourier_harmonics(profile, 0.5, 4)
        assert np.all(mags[:4] > 1e-3 * mags[0])
        assert mags[4] < 1e-9 * mags[0]  # band-limited above the photon number

    def test_reduced_order_removes_top_harmonic(self):
        state = reciprocal_binomial(3)
        grid = SamplingGrid(0.0, 0.5, 513)
        full = profile_brute(state, 3, grid, "peak_unity")
        reduced = profile_brute(state, 2, grid, "peak_unity")
        assert fourier_harmonics(full, 0.5, 3)[3] > 1e-3 * fourier_harmonics(full, 0.5, 3)[0]
        mags = fourier_harmonics(reduced, 0.5, 3)
        assert mags[3] < 1e-9 * mags[0]

    def test_non_commensurate_grid_rejected(self):
        grid = SamplingGrid(0.0, 0.37, 64)
        profile = DepositionProfile(grid, np.ones(64))
        with pytest.raises(ValueError, match="integer number of periods"):
            fourier_harmonics(profile, 0.5)


class TestExportText:
    def test_profile_text_format(self, two_pair_33):
        grid = SamplingGrid(0.0, 2.0, 9)
        profile = profile_closed(two_pair_33, zero_phases(two_pair_33), grid, "raw")
        text = profile_text(profile, ["config: demo"])
        lines = text.splitlines()
        assert lines[0] == "# config: demo"
        assert "x_lambda,rate" in lines
        data = [l for l in lines if not l.startswith("#") and "," in l and "x_lambda" not in l]
        assert len(data) == 9
        x, v = data[0].split(",")
        assert float(x) == 0.0
        assert float(v) == pytest.approx(1.0)
        # 17 significant digits survive a parse round trip bit-exactly
        for line in data:
            x, v = line.split(",")
            assert format(float(v), ".17g") == v

    def test_profile_2d_text_shape(self):
        gx = SamplingGrid(0.0, 1.0, 3)
        gy = SamplingGrid(0.0, 2.0, 2)
        text = profile_2d_text(gx, gy, np.arange(6, dtype=float).reshape(3, 2))
        rows = [l for l in text.splitlines() if not l.startswith("#") and "x_lambda" not in l]
        assert len(rows) == 6
        assert rows[0].split(",")[2] == "0"
        with pytest.raises(ValueError, match="shape"):
            profile_2d_text(gx, gy, np.zeros((2, 3)))


def test_fundamental_periods(two_pair_33, two_pair_24, chain_47):
    single = Geometry((ModePair(1, 5, 1.0),))
    periods = [PixelSpec.from_geometry(g).period for g in (two_pair_33, two_pair_24, chain_47, single)]
    assert periods == [2.0, 2.5, 4.0, 0.5]
