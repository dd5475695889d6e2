import warnings

import numpy as np
import pytest

from qlitho.exposure import (
    FilmModel,
    exposure_result_text,
    flip_probability,
    grain_bitmap_text,
    grain_positions,
    simulate_exposure,
)
from qlitho.fock import Geometry, ModePair
from qlitho.planner import PixelSpec, plan_pattern, plan_rate_values


@pytest.fixture
def small_plan():
    """Single target pixel on a four-pixel single-pair pattern."""
    geometry = Geometry((ModePair(1, 3, 1.0),))
    return plan_pattern(geometry, [2])


def expected_counts(plan, film, shots):
    spec = PixelSpec.from_geometry(plan.geometry)
    positions = grain_positions(spec, film.grains_per_pixel)
    rate = plan_rate_values(plan, positions.ravel()).reshape(positions.shape)
    flip = 1.0 - (1.0 - film.base_absorb_prob * rate) ** shots
    return flip.sum(axis=1), (flip * (1.0 - flip)).sum(axis=1)


class TestFilmModel:
    def test_grain_count_and_probability_validated(self):
        with pytest.raises(ValueError, match="grains"):
            FilmModel(1, 0.1)
        with pytest.raises(ValueError):
            FilmModel(10, 0.0)
        with pytest.raises(ValueError):
            FilmModel(10, 1.5)

    def test_grain_lattice_spans_pixels(self, small_plan):
        spec = PixelSpec.from_geometry(small_plan.geometry)
        positions = grain_positions(spec, 4)
        assert positions.shape == (4, 4)
        assert positions.min() > 0.0
        assert positions.max() < spec.period
        # lattice spacing strictly below the pixel width
        assert np.diff(positions[0]).max() < spec.pixel_width


class TestSimulate:
    def test_dark_pixel_centers_never_expose(self, small_plan):
        # grains sitting exactly on off-target pixel centers see rate zero
        film = FilmModel(5, 1.0)  # odd count puts grain 2 on the center
        result = simulate_exposure(small_plan, film, shots=500, seed=3, repeats=40, keep_grains=True)
        for pixel in (0, 2, 3):
            assert not result.grain_bitmap[:, pixel, 2].any()

    def test_single_shot_matches_bernoulli_expectation(self, small_plan):
        film = FilmModel(5000, 0.8)
        mean, var = expected_counts(small_plan, film, 1)
        result = simulate_exposure(small_plan, film, shots=1, seed=11)
        total = result.counts[0].sum()
        assert abs(total - mean.sum()) < 5.0 * np.sqrt(var.sum())

    def test_deterministic_for_fixed_seed(self, small_plan):
        film = FilmModel(200, 0.05)
        a = simulate_exposure(small_plan, film, shots=30, seed=42, repeats=5)
        b = simulate_exposure(small_plan, film, shots=30, seed=42, repeats=5)
        assert np.array_equal(a.counts, b.counts)
        c = simulate_exposure(small_plan, film, shots=30, seed=43, repeats=5)
        assert not np.array_equal(a.counts, c.counts)

    def test_monotone_in_shots_and_probability(self, small_plan):
        film = FilmModel(500, 0.02)
        base = simulate_exposure(small_plan, film, shots=10, seed=7)
        more_shots = simulate_exposure(small_plan, film, shots=40, seed=7)
        assert np.all(more_shots.counts >= base.counts)
        stronger = simulate_exposure(small_plan, FilmModel(500, 0.08), shots=10, seed=7)
        assert np.all(stronger.counts >= base.counts)

    def test_counts_bounded_by_grain_count(self, small_plan):
        film = FilmModel(50, 1.0)
        result = simulate_exposure(small_plan, film, shots=200, seed=1, repeats=3)
        assert result.counts.max() <= 50
        assert np.all(result.per_pixel_mean <= 50)

    def test_poisson_dispersion_at_small_probability(self, small_plan):
        # variance over independent repeats stays within the Poisson band
        film = FilmModel(4000, 5e-4)
        mean, _ = expected_counts(small_plan, film, 40)
        assert mean[1] >= 50
        result = simulate_exposure(small_plan, film, shots=40, seed=99, repeats=250)
        counts = result.counts[:, 1].astype(float)
        ratio = counts.var(ddof=1) / counts.mean()
        assert 0.8 <= ratio <= 1.2

    def test_exposed_fraction_converges_to_saturation_law(self, small_plan):
        # at S q peak = 3 the exposed fraction tracks 1 - exp(-S q rate)
        absorb = 3e-4
        shots = int(round(3.0 / absorb))
        film = FilmModel(10_000, absorb)
        spec = PixelSpec.from_geometry(small_plan.geometry)
        positions = grain_positions(spec, film.grains_per_pixel)
        rate = plan_rate_values(small_plan, positions.ravel()).reshape(positions.shape)
        theory = (1.0 - np.exp(-shots * absorb * rate)).mean(axis=1)
        result = simulate_exposure(small_plan, film, shots=shots, seed=5)
        fraction = result.counts[0] / film.grains_per_pixel
        rel_l2 = np.linalg.norm(fraction - theory) / np.linalg.norm(theory)
        assert rel_l2 < 0.05

    def test_argument_validation(self, small_plan):
        film = FilmModel(10, 0.1)
        with pytest.raises(ValueError):
            simulate_exposure(small_plan, film, shots=0, seed=1)
        with pytest.raises(ValueError):
            simulate_exposure(small_plan, film, shots=1, seed=1, repeats=0)


class TestFlipProbability:
    def test_tiny_probability_does_not_underflow(self):
        # 1 - (1 - 1e-17)**100 rounds to 0.0; the true value is 1e-15
        assert flip_probability(1e-17, 100) == pytest.approx(1e-15, rel=1e-12)

    def test_certain_and_impossible_flips(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(flip_probability(np.array([0.0, 0.5, 1.0]), 2), [0.0, 0.75, 1.0])


class TestResultText:
    def test_statistics_table_and_counts(self, small_plan):
        film = FilmModel(50, 0.1)
        result = simulate_exposure(small_plan, film, shots=20, seed=8, repeats=3)
        text = exposure_result_text(result, ["demo run"])
        lines = text.splitlines()
        assert "# demo run" in lines
        assert "# shots: 20" in lines
        assert "pixel,mean,std" in lines
        assert sum(1 for l in lines if l.startswith("counts ")) == 3

    def test_grain_bitmap_requires_keep_grains(self, small_plan):
        film = FilmModel(8, 0.5)
        plain = simulate_exposure(small_plan, film, shots=5, seed=2)
        with pytest.raises(ValueError, match="keep_grains"):
            grain_bitmap_text(plain)
        kept = simulate_exposure(small_plan, film, shots=5, seed=2, keep_grains=True)
        text = grain_bitmap_text(kept)
        rows = text.splitlines()
        assert len(rows) == 4
        assert all(len(r) == 8 and set(r) <= {"0", "1"} for r in rows)
