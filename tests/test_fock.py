import math

import numpy as np
import pytest

from qlitho.fock import (
    Geometry,
    MixedState,
    ModePair,
    PureState,
    apply_absorption,
    apply_pair_phase,
    norm_sq,
    propagate,
    reciprocal_binomial,
    relative_wavevector,
    tensor,
)


def random_state(rng, geometry, occupations):
    """Random normalized superposition on the given occupation vectors."""
    raw = rng.normal(size=len(occupations)) + 1j * rng.normal(size=len(occupations))
    raw /= np.linalg.norm(raw)
    return PureState(geometry, dict(zip(occupations, raw)))


class TestReciprocalBinomial:
    def test_vacuum(self):
        state = reciprocal_binomial(0)
        assert state.amplitudes == {(0, 0): 1.0 + 0j}

    def test_one_photon(self):
        state = reciprocal_binomial(1)
        # 0!1! = 1!0! = 1 and the normalization sum is 2
        expected = 1.0 / math.sqrt(2.0)
        assert state.amplitudes[(1, 0)] == pytest.approx(expected)
        assert state.amplitudes[(0, 1)] == pytest.approx(expected)

    def test_two_photons(self):
        state = reciprocal_binomial(2)
        # n!(2-n)! = 2, 1, 2 and the normalization sum is 5
        assert state.amplitudes[(0, 2)] == pytest.approx(math.sqrt(2.0 / 5.0))
        assert state.amplitudes[(1, 1)] == pytest.approx(math.sqrt(1.0 / 5.0))
        assert state.amplitudes[(2, 0)] == pytest.approx(math.sqrt(2.0 / 5.0))

    @pytest.mark.parametrize("photons", range(7))
    def test_normalized_and_photon_conserving(self, photons):
        state = reciprocal_binomial(photons)
        assert norm_sq(state) == pytest.approx(1.0, abs=1e-12)
        assert all(sum(occ) == photons for occ in state.amplitudes)

    def test_negative_photons_rejected(self):
        with pytest.raises(ValueError):
            reciprocal_binomial(-1)


class TestPropagate:
    def test_x_zero_is_identity(self):
        state = reciprocal_binomial(3)
        assert propagate(state, 0.0).amplitudes == state.amplitudes

    def test_quarter_wavelength_single_photon(self):
        state = propagate(reciprocal_binomial(1), 0.25)
        # phase 2 pi * 0.25 * (n+ - n-) = +-pi/2
        root2 = math.sqrt(2.0)
        assert state.amplitudes[(1, 0)] == pytest.approx(1j / root2)
        assert state.amplitudes[(0, 1)] == pytest.approx(-1j / root2)

    @pytest.mark.parametrize("scaling", [1.0, 0.5, 0.25])
    def test_periodic_in_one_over_scaling(self, rng, scaling):
        geometry = Geometry((ModePair(1, 3, scaling),))
        occs = [(n, 3 - n) for n in range(4)]
        state = random_state(rng, geometry, occs)
        shifted = propagate(state, 0.37 + 1.0 / scaling)
        base = propagate(state, 0.37)
        for occ in occs:
            assert shifted.amplitudes[occ] == pytest.approx(base.amplitudes[occ], abs=1e-12)

    def test_norm_preserved_on_random_states(self, rng):
        geometry = Geometry((ModePair(1, 2, 1.0), ModePair(2, 2, 0.25)))
        occs = [(a, 2 - a, b, 2 - b) for a in range(3) for b in range(3)]
        for _ in range(20):
            state = random_state(rng, geometry, occs)
            out = propagate(state, rng.uniform(-3, 3))
            assert norm_sq(out) == pytest.approx(1.0, abs=1e-12)


class TestPairPhase:
    def test_zero_phase_identity(self):
        state = reciprocal_binomial(2)
        assert apply_pair_phase(state, 1, 0.0).amplitudes == state.amplitudes

    def test_full_turn_identity(self, rng):
        geometry = Geometry((ModePair(1, 3, 1.0),))
        occs = [(n, 3 - n) for n in range(4)]
        state = random_state(rng, geometry, occs)
        out = apply_pair_phase(state, 1, 2.0 * math.pi)
        for occ in occs:
            assert out.amplitudes[occ] == pytest.approx(state.amplitudes[occ], abs=1e-12)

    def test_pi_phase_alternates_sign(self):
        state = apply_pair_phase(reciprocal_binomial(3), 1, math.pi)
        reference = reciprocal_binomial(3)
        for (n, m), amp in state.amplitudes.items():
            assert amp == pytest.approx((-1) ** n * reference.amplitudes[(n, m)], abs=1e-12)

    def test_unknown_pair_rejected(self):
        with pytest.raises(ValueError, match="unknown pair"):
            apply_pair_phase(reciprocal_binomial(1), 2, 0.1)

    def test_commutes_with_propagation(self, rng):
        geometry = Geometry((ModePair(1, 2, 1.0), ModePair(2, 1, 0.5)))
        occs = [(a, 2 - a, b, 1 - b) for a in range(3) for b in range(2)]
        state = random_state(rng, geometry, occs)
        one = apply_pair_phase(propagate(state, 0.63), 2, 1.7)
        two = propagate(apply_pair_phase(state, 2, 1.7), 0.63)
        for occ in occs:
            assert one.amplitudes[occ] == pytest.approx(two.amplitudes[occ], abs=1e-14)


class TestTensor:
    def test_vacuum_pair_extends_geometry(self):
        state = reciprocal_binomial(2)
        vac = reciprocal_binomial(0, pair_index=2)
        out = tensor(state, vac)
        assert out.geometry.mode_count == 4
        for (n, m), amp in state.amplitudes.items():
            assert out.amplitudes[(n, m, 0, 0)] == amp

    def test_two_single_photon_pairs(self):
        out = tensor(reciprocal_binomial(1), reciprocal_binomial(1, 0.5, pair_index=2))
        assert len(out.amplitudes) == 4
        assert all(amp == pytest.approx(0.5) for amp in out.amplitudes.values())

    def test_norm_multiplies_for_unnormalized_inputs(self, rng):
        geometry = Geometry((ModePair(1, 2, 1.0),))
        occs = [(n, 2 - n) for n in range(3)]
        for _ in range(5):
            a = random_state(rng, geometry, occs)
            b = random_state(rng, Geometry((ModePair(2, 1, 0.5),)), [(0, 1), (1, 0)])
            a = PureState(geometry, {k: 2.3 * v for k, v in a.amplitudes.items()}, normalized=False)
            b = PureState(b.geometry, {k: 0.4 * v for k, v in b.amplitudes.items()}, normalized=False)
            assert norm_sq(tensor(a, b)) == pytest.approx(norm_sq(a) * norm_sq(b), rel=1e-12)

    def test_overlapping_pair_indices_rejected(self):
        with pytest.raises(ValueError, match="overlapping"):
            tensor(reciprocal_binomial(1), reciprocal_binomial(2))

    def test_support_size_is_product_of_pair_dimensions(self):
        state = tensor(
            tensor(reciprocal_binomial(3), reciprocal_binomial(2, 0.25, pair_index=2)),
            reciprocal_binomial(1, 0.125, pair_index=3),
        )
        assert len(state.amplitudes) == 4 * 3 * 2
        # diagonal operations never grow the support
        assert len(propagate(state, 0.7).amplitudes) == 24
        assert len(apply_pair_phase(state, 2, 0.9).amplitudes) == 24


class TestAbsorption:
    def test_single_annihilation(self):
        geometry = Geometry((ModePair(1, 1, 1.0),))
        state = PureState(geometry, {(1, 0): 1.0 + 0j})
        out = apply_absorption(state, 1)
        assert not out.normalized
        assert out.amplitudes == {(0, 0): pytest.approx(1.0 / math.sqrt(2.0))}

    def test_order_above_total_photons_gives_zero_state(self):
        out = apply_absorption(reciprocal_binomial(2), 3)
        assert out.amplitudes == {}
        assert norm_sq(out) == 0.0

    def test_full_order_matches_hand_expanded_three_term_sum(self):
        # independent oracle: expand e^2 on the three basis vectors by hand
        state = reciprocal_binomial(2)
        c = state.amplitudes
        vacuum_amp = (
            c[(0, 2)] * math.sqrt(2.0) + c[(1, 1)] * 2.0 + c[(2, 0)] * math.sqrt(2.0)
        ) / 2.0
        out = apply_absorption(state, 2)
        assert norm_sq(out) == pytest.approx(abs(vacuum_amp) ** 2, rel=1e-14)
        assert norm_sq(out) == pytest.approx(9.0 / 5.0, rel=1e-12)

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            apply_absorption(reciprocal_binomial(1), 0)

    def test_linearity_on_random_superpositions(self, rng):
        geometry = Geometry((ModePair(1, 3, 1.0),))
        occs = [(n, 3 - n) for n in range(4)]
        for _ in range(10):
            a = random_state(rng, geometry, occs)
            b = random_state(rng, geometry, occs)
            alpha = complex(rng.normal(), rng.normal())
            beta = complex(rng.normal(), rng.normal())
            combo = PureState(
                geometry,
                {occ: alpha * a.amplitudes[occ] + beta * b.amplitudes[occ] for occ in occs},
                normalized=False,
            )
            lhs = apply_absorption(combo, 2)
            ra = apply_absorption(a, 2)
            rb = apply_absorption(b, 2)
            for occ in lhs.amplitudes:
                expected = alpha * ra.amplitudes.get(occ, 0j) + beta * rb.amplitudes.get(occ, 0j)
                assert lhs.amplitudes[occ] == pytest.approx(expected, abs=1e-12)

    def test_per_pair_totals_preserved_by_phases(self, rng):
        state = tensor(reciprocal_binomial(2), reciprocal_binomial(3, 0.25, pair_index=2))
        out = apply_pair_phase(propagate(state, 0.41), 2, 0.3)
        for occ in out.amplitudes:
            assert occ[0] + occ[1] == 2
            assert occ[2] + occ[3] == 3


class TestStateValidation:
    def test_norm_violation_rejected_at_construction(self):
        geometry = Geometry((ModePair(1, 1, 1.0),))
        with pytest.raises(ValueError, match="normalized"):
            PureState(geometry, {(1, 0): 0.9 + 0j})

    def test_unnormalized_flag_accepts_any_norm(self):
        geometry = Geometry((ModePair(1, 1, 1.0),))
        state = PureState(geometry, {(1, 0): 0.9 + 0j}, normalized=False)
        assert norm_sq(state) == pytest.approx(0.81)

    def test_negative_occupation_rejected(self):
        geometry = Geometry((ModePair(1, 1, 1.0),))
        with pytest.raises(ValueError):
            PureState(geometry, {(-1, 2): 1.0 + 0j})

    def test_mode_pair_invariants(self):
        with pytest.raises(ValueError):
            ModePair(1, 2, 0.0)
        with pytest.raises(ValueError):
            ModePair(1, 2, 1.5)
        with pytest.raises(ValueError):
            ModePair(0, 2, 1.0)

    def test_duplicate_pair_indices_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Geometry((ModePair(1, 1, 1.0), ModePair(1, 2, 0.5)))

    def test_mixture_weights_must_sum_to_one(self):
        state = reciprocal_binomial(1)
        with pytest.raises(ValueError):
            MixedState(((0.5, state), (0.6, state)))
        mix = MixedState(((0.5, state), (0.5, state)))
        assert len(mix.components) == 2


def test_relative_wavevector():
    geometry = Geometry((ModePair(1, 3, 1.0), ModePair(2, 1, 0.25)))
    assert relative_wavevector(geometry, (3, 0, 0, 1)) == pytest.approx(3.0 - 0.25)
    assert relative_wavevector(geometry, (1, 1, 1, 0)) == pytest.approx(0.25)


def test_states_transfer_between_workers():
    # states must survive pickling for use across process pools
    import pickle

    state = propagate(tensor(reciprocal_binomial(2), reciprocal_binomial(1, 0.5, pair_index=2)), 0.3)
    copy = pickle.loads(pickle.dumps(state))
    assert copy == state
    mix = MixedState(((0.4, state), (0.6, propagate(state, 0.125))))
    again = pickle.loads(pickle.dumps(mix))
    assert again == mix
