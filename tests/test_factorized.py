"""The per-pair factorized Fock engine against the generic sparse engine.

``plan_fock_values`` must reproduce ``verify.generic_plan_values`` (whole
plan mixture, per-component loss channel, brute-force rate) to roundoff
on any nested geometry, order and transmission, and must be exactly zero
wherever the generic engine is.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import nested_geometry
from qlitho.imperfections import LossModel, plan_fock_values
from qlitho.planner import ExposurePlan, PixelAddress, PixelSpec, PlanEntry, plan_pattern, plan_rate_values
from qlitho.verify import FACTORIZED_TOL, generic_plan_values

# Cost caps on the generic engine, not on the factorized one: its loss
# channel enumerates prod_p (N_p + 1)^2 loss patterns over prod_p (N_p + 1)
# basis states, and its lossless transfer build grows with prod_p (N_p + 1).
LOSSLESS_SUPPORT_CAP = 64
LOSSY_SUPPORT_CAP = 16


def positions(geometry, samples=65):
    return np.linspace(0.0, PixelSpec.from_geometry(geometry).period, samples)


def assert_engines_agree(plan, order, xs, loss):
    generic = generic_plan_values(plan, order, xs, loss)
    factorized = plan_fock_values(plan, order, xs, loss)
    peak = generic.max()
    if peak == 0.0:
        assert np.all(factorized == 0.0)
    else:
        assert np.abs(factorized - generic).max() <= FACTORIZED_TOL * peak
    return factorized


class TestAgreement:
    def test_weighted_plan_with_intermediate_under_loss(self):
        geometry = nested_geometry((2, 1, 1))
        plan = plan_pattern(geometry, [3, PixelAddress(8, intermediate=True)], [2.0, 1.0])
        loss = LossModel(0.8)
        for order in (1, 2, 4):
            assert_engines_agree(plan, order, positions(geometry), loss)

    def test_unaddressed_phase_entries(self):
        geometry = nested_geometry((3, 2))
        plan = ExposurePlan(geometry, (PlanEntry(0.25, (0.3, 1.9)), PlanEntry(0.75, (2.2, 0.0))))
        assert_engines_agree(plan, 4, positions(geometry), LossModel(0.85))
        assert_engines_agree(plan, 5, positions(geometry), None)

    def test_order_above_photon_number_is_exactly_zero(self):
        geometry = nested_geometry((2, 1))
        plan = plan_pattern(geometry, [2])
        values = plan_fock_values(plan, 10**6, positions(geometry))
        assert values.shape == (65,) and np.all(values == 0.0)

    def test_order_validated(self):
        geometry = nested_geometry((2,))
        with pytest.raises(ValueError, match="order"):
            plan_fock_values(plan_pattern(geometry, [1]), 0, positions(geometry))

    def test_long_chain_is_polynomial(self):
        # 27 pairs holding 30 photons: the generic engine would need
        # 5 * 2**26 basis states per entry, the factorized one 27 small pairs.
        geometry = nested_geometry((4,) + (1,) * 26)
        plan = plan_pattern(geometry, [1])
        center = 0.5 * PixelSpec.from_geometry(geometry).pixel_width
        values = plan_fock_values(plan, geometry.total_photons, [center, 0.1, 0.3, 0.5])
        closed = plan_rate_values(plan, [center, 0.1, 0.3, 0.5])
        assert closed[0] == pytest.approx(1.0)
        assert np.abs(values / values[0] - closed).max() <= 1e-9


@st.composite
def plan_cases(draw):
    """A nested geometry of 1-4 pairs with 1-3 photons each, 1-3 targets
    (intermediates included), an order in 1..N+1 and eta in {1, 0} or [0.5, 1)."""
    eta = draw(st.one_of(st.just(1.0), st.just(0.0), st.floats(0.5, 1.0, exclude_max=True)))
    photons = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    cap = LOSSLESS_SUPPORT_CAP if eta == 1.0 else LOSSY_SUPPORT_CAP
    while math.prod(n + 1 for n in photons) > cap:
        photons.pop()
    geometry = nested_geometry(photons)
    count = PixelSpec.from_geometry(geometry).pixel_count
    cells = draw(st.lists(st.tuples(st.integers(1, count), st.booleans()), min_size=1, max_size=3))
    targets = [PixelAddress(index, intermediate=inter) for index, inter in cells]
    order = draw(st.integers(1, geometry.total_photons + 1))
    return plan_pattern(geometry, targets), order, eta


@settings(max_examples=60, derandomize=True, deadline=None)
@given(plan_cases())
def test_factorized_matches_generic_engine(case):
    plan, order, eta = case
    geometry = plan.geometry
    xs = positions(geometry)
    loss = LossModel(eta) if eta != 1.0 else None
    factorized = assert_engines_agree(plan, order, xs, loss)
    if order > geometry.total_photons or eta == 0.0:
        assert np.all(factorized == 0.0)
    if order == geometry.total_photons and eta == 1.0:
        closed = plan_rate_values(plan, xs)
        assert np.abs(factorized / factorized.max() - closed / closed.max()).max() <= 1e-9
