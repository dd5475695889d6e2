import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import nested_geometry
from qlitho.deposition import SamplingGrid, closed_form_values, profile_brute
from qlitho.fock import Geometry, ModePair
from qlitho.planner import (
    ExposurePlan,
    ExposurePlan2D,
    PixelAddress,
    PixelSpec,
    PlanEntry,
    PlanEntry2D,
    chain_geometry,
    entry_state,
    negative_plan,
    parse_address,
    partition_table,
    phases_for_pixel,
    pixel_basis,
    pixel_center,
    pixel_levels,
    plan2d_to_text,
    plan_bitmap,
    plan_mixture,
    plan_pattern,
    plan_profile,
    plan_rate_values,
    plan_rate_values_2d,
    plan_to_text,
)

TWO_PI = 2.0 * math.pi

# Randomized nested geometries: 1-4 pairs holding 1-4 photons each.
PAIR_PHOTONS = st.lists(st.integers(1, 4), min_size=1, max_size=4)
RANDOMIZED = settings(derandomize=True, deadline=None, max_examples=40)


class TestChainGeometry:
    def test_four_seven_chain(self, chain_47):
        assert [p.photons for p in chain_47.pairs] == [4, 1, 1, 1]
        assert [p.scaling for p in chain_47.pairs] == [1.0, 0.5, 0.25, 0.125]
        spec = PixelSpec.from_geometry(chain_47)
        assert spec.pixel_count == 40
        assert spec.pixel_width == pytest.approx(1.0 / 10.0)
        assert spec.period == pytest.approx(4.0)

    def test_single_pair_when_no_extra_photons(self):
        geometry = chain_geometry(3, 3)
        assert len(geometry.pairs) == 1
        assert geometry.pairs[0].photons == 3

    def test_total_below_resolution_rejected(self):
        with pytest.raises(ValueError):
            chain_geometry(4, 3)

    def test_chain_beats_equal_partition(self):
        chain = PixelSpec.from_geometry(chain_geometry(3, 6))
        equal = PixelSpec.from_geometry(Geometry((ModePair(1, 3, 1.0), ModePair(2, 3, 0.25))))
        assert chain.pixel_count == 32
        assert equal.pixel_count == 16
        assert chain.pixel_width == equal.pixel_width

    def test_pixel_count_times_width_equals_period(self, chain_47, two_pair_33, two_pair_24):
        for geometry in (chain_47, two_pair_33, two_pair_24):
            spec = PixelSpec.from_geometry(geometry)
            assert spec.pixel_count * spec.pixel_width == pytest.approx(spec.period, rel=1e-12)

    def test_non_nested_geometry_rejected(self):
        bad = Geometry((ModePair(1, 3, 1.0), ModePair(2, 3, 0.3)))
        with pytest.raises(ValueError, match="nested"):
            PixelSpec.from_geometry(bad)

    def test_halved_wavevectors_double_pixel_and_period(self, two_pair_33):
        # scaling all in-plane wavevectors by 1/2 leaves the pixel count
        # alone and stretches both feature size and period by two
        scaled = Geometry((ModePair(1, 3, 0.5), ModePair(2, 3, 0.125)))
        base = PixelSpec.from_geometry(two_pair_33)
        wide = PixelSpec.from_geometry(scaled)
        assert wide.pixel_count == base.pixel_count
        assert wide.pixel_width == pytest.approx(2.0 * base.pixel_width)
        assert wide.period == pytest.approx(2.0 * base.period)


class TestPixelCenter:
    def test_first_pixel(self):
        geometry = Geometry((ModePair(1, 3, 1.0),))
        assert pixel_center(geometry, 1) == pytest.approx(1.0 / 16.0)

    def test_pixel_six_of_sixteen(self, two_pair_33):
        assert pixel_center(two_pair_33, 6) == pytest.approx(11.0 / 16.0)

    def test_intermediate_is_half_pixel_beyond(self, two_pair_33):
        base = pixel_center(two_pair_33, 4)
        inter = pixel_center(two_pair_33, PixelAddress(4, intermediate=True))
        assert inter - base == pytest.approx(1.0 / 16.0)
        assert inter == pytest.approx((pixel_center(two_pair_33, 4) + pixel_center(two_pair_33, 5)) / 2)

    def test_out_of_range_rejected(self, two_pair_33):
        with pytest.raises(ValueError, match="out of range"):
            pixel_center(two_pair_33, 17)
        with pytest.raises(ValueError):
            PixelAddress(0)


class TestPhasesForPixel:
    def test_single_pair_phase_steps(self):
        # expected: 2 pi (l - 1/2) / (N + 1) modulo a full turn
        geometry = Geometry((ModePair(1, 3, 1.0),))
        for ell in range(1, 5):
            (phi,) = phases_for_pixel(geometry, ell)
            assert phi == pytest.approx((TWO_PI * (ell - 0.5) / 4.0) % TWO_PI, abs=1e-12)

    def test_peak_value_one_at_own_center(self, two_pair_33, chain_47):
        for geometry in (two_pair_33, chain_47):
            spec = PixelSpec.from_geometry(geometry)
            for p in range(1, spec.pixel_count + 1, 3):
                phases = phases_for_pixel(geometry, p)
                assert closed_form_values(geometry, phases, pixel_center(spec, p)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_at_all_other_centers(self, two_pair_33):
        spec = PixelSpec.from_geometry(two_pair_33)
        centers = np.array([pixel_center(spec, p) for p in range(1, 17)])
        for p in range(1, 17):
            rates = closed_form_values(two_pair_33, phases_for_pixel(two_pair_33, p), centers)
            rates[p - 1] = 0.0
            assert rates.max() < 1e-12

    def test_brute_force_peak_lands_on_pixel_center(self, rng, two_pair_33, two_pair_24, chain_36):
        geometries = (two_pair_33, two_pair_24, chain_36)
        cases = 0
        while cases < 50:
            geometry = geometries[cases % len(geometries)]
            spec = PixelSpec.from_geometry(geometry)
            p = int(rng.integers(1, spec.pixel_count + 1))
            grid = SamplingGrid(0.0, spec.period, 640)
            state = entry_state(geometry, phases_for_pixel(geometry, p))
            profile = profile_brute(state, geometry.total_photons, grid)
            x_peak = grid.points()[np.argmax(profile.values)]
            assert abs(x_peak - pixel_center(spec, p)) <= grid.spacing
            cases += 1

    def test_phase_tuples_distinct_per_pixel(self, two_pair_33, chain_36):
        for geometry in (two_pair_33, chain_36):
            spec = PixelSpec.from_geometry(geometry)
            seen = {
                tuple(round(phi % TWO_PI, 9) for phi in phases_for_pixel(geometry, p))
                for p in range(1, spec.pixel_count + 1)
            }
            assert len(seen) == spec.pixel_count


class TestPixelLevels:
    def test_pixel_six_decomposes_to_two_one(self):
        assert pixel_levels(6, 3, 3) == (2, 1)

    def test_top_level_wraps(self):
        # index equal to l1 alone comes from l2 at its maximum, wrapped
        for l1 in range(1, 5):
            assert pixel_levels(l1, 3, 3) == (l1, 4)

    @RANDOMIZED
    @given(st.integers(1, 4), st.integers(1, 4))
    def test_round_trip_all_pixels(self, photons_1, photons_2):
        # levels in range and index = l1 + (photons_1 + 1) l2 modulo the pixel count
        size = (photons_1 + 1) * (photons_2 + 1)
        for p in range(1, size + 1):
            l1, l2 = pixel_levels(p, photons_1, photons_2)
            assert 1 <= l1 <= photons_1 + 1 and 1 <= l2 <= photons_2 + 1
            assert (l1 + (photons_1 + 1) * l2 - p) % size == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pixel_levels(17, 3, 3)


class TestPlans:
    def test_single_target_plan(self, two_pair_33):
        plan = plan_pattern(two_pair_33, [6])
        assert len(plan.entries) == 1
        assert plan.entries[0].weight == 1.0
        grid = SamplingGrid(0.0, 2.0, 512)
        profile = plan_profile(plan, grid, "peak_unity")
        x_peak = grid.points()[np.argmax(profile.values)]
        assert abs(x_peak - 11.0 / 16.0) <= grid.spacing

    def test_trench_plan_has_equal_weights(self):
        geometry = Geometry((ModePair(1, 10, 1.0),))
        plan = plan_pattern(geometry, [1, 2, 3, 4, 9, 10, 11])
        assert len(plan.entries) == 7
        assert all(e.weight == pytest.approx(1.0 / 7.0) for e in plan.entries)

    def test_custom_weights_normalized(self, two_pair_33):
        plan = plan_pattern(two_pair_33, [1, 2], weights=[3.0, 1.0])
        assert plan.entries[0].weight == pytest.approx(0.75)
        grid = SamplingGrid(0.0, 2.0, 257)
        xs = grid.points()
        expected = 0.75 * closed_form_values(two_pair_33, phases_for_pixel(two_pair_33, 1), xs)
        expected += 0.25 * closed_form_values(two_pair_33, phases_for_pixel(two_pair_33, 2), xs)
        assert np.abs(plan_rate_values(plan, xs) - expected).max() < 1e-15

    def test_empty_target_set_rejected(self, two_pair_33):
        with pytest.raises(ValueError, match="non-empty"):
            plan_pattern(two_pair_33, [])
        with pytest.raises(ValueError, match="at least one entry"):
            ExposurePlan(two_pair_33, ())

    def test_weight_validation(self, two_pair_33):
        with pytest.raises(ValueError):
            plan_pattern(two_pair_33, [1, 2], weights=[1.0])
        with pytest.raises(ValueError):
            plan_pattern(two_pair_33, [1, 2], weights=[-1.0, 2.0])
        with pytest.raises(ValueError):
            plan_pattern(two_pair_33, [1], weights=[0.0])

    def test_mixture_matches_plan(self, two_pair_33):
        plan = plan_pattern(two_pair_33, [3, 9])
        mix = plan_mixture(plan)
        assert len(mix.components) == 2
        assert all(s.geometry == two_pair_33 for _, s in mix.components)

    def test_chain_plan_zero_between_exposed_pixels(self, chain_36):
        # expose pixels 13 and 15; the gap pixel 14 stays dark at its center
        spec = PixelSpec.from_geometry(chain_36)
        assert spec.pixel_count == 32
        plan = plan_pattern(chain_36, [13, 15])
        center14 = pixel_center(spec, 14)
        assert plan_rate_values(plan, np.array([center14]))[0] < 1e-12


class TestNegativePlan:
    def test_complement_of_one_pixel(self, two_pair_33):
        plan = plan_pattern(two_pair_33, [6])
        neg = negative_plan(plan)
        assert len(neg.entries) == 15
        assert {e.address.index for e in neg.entries} == set(range(1, 17)) - {6}

    def test_original_plus_negative_is_flat(self, two_pair_33):
        grid = SamplingGrid(0.0, 2.0, 700)
        plan = plan_pattern(two_pair_33, [2, 6, 7])
        total = (
            plan_profile(plan, grid, "pixel_sum_unity").values
            + plan_profile(negative_plan(plan), grid, "pixel_sum_unity").values
        )
        assert np.abs(total - 1.0).max() < 1e-9

    def test_double_negative_restores_targets(self, two_pair_33):
        plan = plan_pattern(two_pair_33, [4, 8, 15])
        again = negative_plan(negative_plan(plan))
        assert {e.address.index for e in again.entries} == {4, 8, 15}

    def test_full_cover_rejected(self, two_pair_33):
        plan = plan_pattern(two_pair_33, list(range(1, 17)))
        with pytest.raises(ValueError, match="complement"):
            negative_plan(plan)

    def test_plan_without_addresses_rejected(self, two_pair_33):
        plan = ExposurePlan(two_pair_33, (PlanEntry(1.0, (0.0, 0.0)),))
        with pytest.raises(ValueError, match="addresses"):
            negative_plan(plan)


class TestPartitionTable:
    def test_all_photons_in_resolution_pair(self):
        for n in (1, 3, 5):
            row = partition_table(n)[-1]
            assert row.photons_1 == 2 * n and row.photons_2 == 0
            assert row.pixels == 2 * n + 1
            assert row.feature_size == Fraction(1, 4 * n + 2)
            assert row.period == Fraction(1, 2)

    def test_single_photon_resolution_row(self):
        for n in (1, 2, 4):
            row = partition_table(n)[1]
            assert (row.photons_1, row.photons_2) == (1, 2 * n - 1)
            assert row.pixels == 4 * n
            assert row.feature_size == Fraction(1, 4)
            assert row.period == Fraction(n)

    def test_pixel_counts_symmetric_under_swap(self):
        for n in (1, 2, 3, 4):
            rows = partition_table(n)
            pixels = [r.pixels for r in rows]
            assert pixels == pixels[::-1]

    def test_consistency_count_times_feature_is_period(self):
        for row in partition_table(4):
            assert row.pixels * row.feature_size == row.period


class TestPlanSerialization:
    def test_round_trip(self, two_pair_33):
        plan = plan_pattern(two_pair_33, [6, PixelAddress(3, intermediate=True)], weights=[2.0, 1.0])
        lines = plan_to_text(plan).splitlines()
        assert lines[:5] == [
            "# exposure plan",
            "pairs 2",
            "pair 1 photons 3 scaling 1",
            "pair 2 photons 3 scaling 0.25",
            "pixels 16",
        ]
        assert len(lines) == 7
        fields = [dict(tok.split("=", 1) for tok in line.split()[1:]) for line in lines[5:]]
        assert [f["target"] for f in fields] == ["6", "3i"]
        assert [f.get("levels") for f in fields] == ["2,1", None]
        for f, entry in zip(fields, plan.entries):
            assert float(f["weight"]) == entry.weight
            phases = [float(t) * TWO_PI for t in f["phase_turns"].split(",")]
            assert np.allclose(phases, entry.phases, atol=1e-12)

    def test_levels_label_present_for_two_pairs(self, two_pair_33):
        text = plan_to_text(plan_pattern(two_pair_33, [6]))
        assert "levels=2,1" in text
        assert "phase_turns=" in text

    def test_address_tokens(self):
        assert parse_address("6") == PixelAddress(6)
        assert parse_address("6i") == PixelAddress(6, intermediate=True)
        with pytest.raises(ValueError):
            parse_address("-")


class TestTwoDimensional:
    def test_bitmap_plan_addresses(self, two_pair_33):
        bitmap = [[1, 0], [0, 1]]
        plan = plan_bitmap(two_pair_33, bitmap)
        cells = {(e.x_address.index, e.y_address.index) for e in plan.entries}
        # row 0 is the top of the image (largest y)
        assert cells == {(1, 2), (2, 1)}

    def test_bitmap_too_large_rejected(self, two_pair_33):
        with pytest.raises(ValueError, match="exceeds"):
            plan_bitmap(two_pair_33, np.ones((17, 2)))
        with pytest.raises(ValueError, match="no pixels"):
            plan_bitmap(two_pair_33, np.zeros((2, 2)))

    def test_2d_rate_is_mixture_of_products(self, two_pair_33):
        plan = plan_bitmap(two_pair_33, [[1, 0], [0, 1]])
        spec = PixelSpec.from_geometry(two_pair_33)
        x1, x2 = pixel_center(spec, 1), pixel_center(spec, 2)
        values = plan_rate_values_2d(plan, np.array([x1, x2]), np.array([x1, x2]))
        # each exposed cell carries half weight; cross cells are dark
        assert values[0, 1] == pytest.approx(0.5, abs=1e-9)
        assert values[1, 0] == pytest.approx(0.5, abs=1e-9)
        assert values[0, 0] < 1e-12
        assert values[1, 1] < 1e-12

    def test_2d_rate_matches_per_entry_outer_products(self, chain_47, rng):
        # unequal weights, a repeated (x, y) cell, a repeated x address and
        # a half-step intermediate cell on both axes
        cells = [(3, 5), (7, 5), (3, 5), (3, 9), (12, 1), (4, 6)]
        addresses = [(PixelAddress(x), PixelAddress(y)) for x, y in cells]
        addresses.append((PixelAddress(3, intermediate=True), PixelAddress(5, intermediate=True)))
        weights = rng.uniform(0.1, 1.0, size=len(addresses))
        weights /= weights.sum()
        plan = ExposurePlan2D(
            chain_47, [PlanEntry2D(w, ax, ay) for w, (ax, ay) in zip(weights, addresses)]
        )
        spec = PixelSpec.from_geometry(chain_47)
        xs = np.linspace(0.0, spec.period, 301)
        ys = np.linspace(0.5, spec.period + 0.5, 257)
        expected = np.zeros((xs.size, ys.size))
        for entry in plan.entries:
            vx = closed_form_values(chain_47, phases_for_pixel(chain_47, entry.x_address), xs)
            vy = closed_form_values(chain_47, phases_for_pixel(chain_47, entry.y_address), ys)
            expected += entry.weight * np.outer(vx, vy)
        got = plan_rate_values_2d(plan, xs, ys)
        assert got.min() >= 0.0
        assert np.abs(got - expected).max() <= 1e3 * np.finfo(float).eps * expected.max()

    def test_pixel_basis_rows_are_single_pixel_rates(self, two_pair_33):
        xs = np.linspace(0.0, 2.0, 65)
        pixels = [1, 6, PixelAddress(6, intermediate=True)]
        basis = pixel_basis(two_pair_33, pixels, xs)
        assert basis.shape == (3, 65)
        for row, pixel in zip(basis, pixels):
            assert np.array_equal(row, closed_form_values(two_pair_33, phases_for_pixel(two_pair_33, pixel), xs))

    def test_2d_serialization_round_trip(self, two_pair_33):
        plan = plan_bitmap(two_pair_33, [[1, 1], [0, 1]])
        lines = plan2d_to_text(plan).splitlines()
        third = format(1 / 3, ".17g")
        assert lines == [
            "# exposure plan 2d",
            "pairs 2",
            "pair 1 photons 3 scaling 1",
            "pair 2 photons 3 scaling 0.25",
            "pixels 16",
            f"entry weight={third} x=1 y=2",
            f"entry weight={third} x=2 y=2",
            f"entry weight={third} x=2 y=1",
        ]
        assert [(e.x_address.index, e.y_address.index) for e in plan.entries] == [(1, 2), (2, 2), (2, 1)]


class TestCompleteness:
    @pytest.mark.parametrize("case", ["33", "24", "chain47"])
    def test_pixel_family_sums_to_one(self, case, two_pair_33, two_pair_24, chain_47):
        geometry = {"33": two_pair_33, "24": two_pair_24, "chain47": chain_47}[case]
        spec = PixelSpec.from_geometry(geometry)
        xs = np.linspace(0.0, spec.period, 400)
        total = np.zeros_like(xs)
        for p in range(1, spec.pixel_count + 1):
            total += closed_form_values(geometry, phases_for_pixel(geometry, p), xs)
        assert np.abs(total - 1.0).max() < 1e-9

    @RANDOMIZED
    @given(PAIR_PHOTONS)
    def test_basis_sums_to_one_on_random_geometries(self, photons):
        geometry = nested_geometry(photons)
        spec = PixelSpec.from_geometry(geometry)
        xs = np.linspace(0.0, spec.period, 301)
        basis = pixel_basis(geometry, range(1, spec.pixel_count + 1), xs)
        assert np.abs(basis.sum(axis=0) - 1.0).max() <= 1e-9

    @RANDOMIZED
    @given(PAIR_PHOTONS)
    def test_basis_at_centers_is_identity(self, photons):
        geometry = nested_geometry(photons)
        spec = PixelSpec.from_geometry(geometry)
        pixels = range(1, spec.pixel_count + 1)
        basis = pixel_basis(geometry, pixels, [pixel_center(spec, p) for p in pixels])
        assert np.abs(basis - np.eye(spec.pixel_count)).max() <= 1e-12

    @RANDOMIZED
    @given(PAIR_PHOTONS, st.data())
    def test_plan_and_negative_add_to_one(self, photons, data):
        geometry = nested_geometry(photons)
        spec = PixelSpec.from_geometry(geometry)
        pixels = st.integers(1, spec.pixel_count)
        targets = data.draw(st.sets(pixels, min_size=1, max_size=spec.pixel_count - 1))
        plan = plan_pattern(geometry, sorted(targets))
        grid = SamplingGrid(0.0, spec.period, 257)
        total = plan_profile(plan, grid, "pixel_sum_unity").values
        total += plan_profile(negative_plan(plan), grid, "pixel_sum_unity").values
        assert np.abs(total - 1.0).max() <= 1e-9
