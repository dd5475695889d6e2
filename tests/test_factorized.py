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
from qlitho import imperfections
from qlitho.deposition import closed_form_values
from qlitho.imperfections import LossModel, plan_fock_values
from qlitho.planner import (
    ExposurePlan,
    PixelAddress,
    PixelSpec,
    PlanEntry,
    chain_geometry,
    fold_plan,
    negative_plan,
    pixel_center,
    plan_pattern,
    plan_rate_values,
)
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
        # At order 120 on chain(1,120) the merge must form no 120! either.
        for geometry in (nested_geometry((4,) + (1,) * 26), chain_geometry(1, 120)):
            plan = plan_pattern(geometry, [1])
            center = 0.5 * PixelSpec.from_geometry(geometry).pixel_width
            values = plan_fock_values(plan, geometry.total_photons, [center, 0.1, 0.3, 0.5])
            closed = plan_rate_values(plan, [center, 0.1, 0.3, 0.5])
            assert closed[0] == pytest.approx(1.0)
            assert np.abs(values / values[0] - closed).max() <= 1e-9

    @pytest.mark.parametrize("order, eta", [(20, 1.0), (19, 0.9), pytest.param(None, 1.0, id="closed")])
    def test_periodic_over_whole_pattern_periods(self, order, eta):
        # chain(4,20) has period 2**15; far from the origin 4 pi s x loses
        # digits unless x is first reduced modulo each pair's own period.
        geometry = chain_geometry(4, 20)
        plan = plan_pattern(geometry, [1, 5])
        period = PixelSpec.from_geometry(geometry).period
        xs = np.arange(1024) / 1024
        far = np.concatenate([xs, xs + period, xs + 3 * period])
        loss = LossModel(eta) if eta != 1.0 else None
        values = plan_rate_values(plan, far) if order is None else plan_fock_values(plan, order, far, loss)
        base, *shifted = values.reshape(3, xs.size)
        for far in shifted:
            assert np.abs(far - base).max() <= 1e-14 * base.max()

    def test_loss_mixture_built_once_per_pair_photon_count(self, monkeypatch):
        original = imperfections.lossy_mixture
        calls = []

        def counted(state, loss):
            calls.append(state.geometry.total_photons)
            return original(state, loss)

        monkeypatch.setattr(imperfections, "lossy_mixture", counted)
        imperfections.pair_rate_tables.cache_clear()
        geometry = chain_geometry(3, 6)
        plan_fock_values(plan_pattern(geometry, range(1, 21)), 5, positions(geometry, 17), LossModel(0.9))
        assert sorted(calls) == [1, 3]


class TestFold:
    def test_one_step_per_distinct_phase_prefix(self):
        # 763 entries x 9 pairs, but pair j's phase takes only 3 * 2**(j-1)
        # residues: 3 + 6 + ... + 384 + 763 distinct prefixes.
        plan = negative_plan(plan_pattern(chain_geometry(2, 10), [1, 2, 3, 5, 8]))
        calls = []
        xs = np.linspace(0.0, 1.0, 5)
        fold_plan(plan, xs, np.ones_like(xs), lambda j, theta, acc: calls.append(j) or acc)
        assert len(calls) == 1528
        assert [calls.count(j) for j in range(9)] == [3, 6, 12, 24, 48, 96, 192, 384, 763]

    def test_closed_form_matches_factorized_on_dense_plan(self):
        # 600 of chain(4,12)'s 1280 pixels; the factorized rate of one pixel
        # at its center scales the Fock rate to the closed form's.
        geometry = chain_geometry(4, 12)
        spec = PixelSpec.from_geometry(geometry)
        targets = np.random.default_rng(0).choice(spec.pixel_count, 600, replace=False) + 1
        xs = np.linspace(0.0, spec.period, 512)
        scale = plan_fock_values(plan_pattern(geometry, [1]), 12, [pixel_center(spec, 1)])[0]
        plan = plan_pattern(geometry, targets)
        closed = plan_rate_values(plan, xs)
        assert np.abs(plan_fock_values(plan, 12, xs) / scale - closed).max() <= 1e-12 * closed.max()


@st.composite
def plan_cases(draw):
    """A nested geometry of 1-4 pairs with 1-3 photons each, 1-6 targets
    (intermediates included), an order in 1..N+1 and eta in {1, 0} or [0.5, 1)."""
    eta = draw(st.one_of(st.just(1.0), st.just(0.0), st.floats(0.5, 1.0, exclude_max=True)))
    photons = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    cap = LOSSLESS_SUPPORT_CAP if eta == 1.0 else LOSSY_SUPPORT_CAP
    while math.prod(n + 1 for n in photons) > cap:
        photons.pop()
    geometry = nested_geometry(photons)
    count = PixelSpec.from_geometry(geometry).pixel_count
    cells = draw(st.lists(st.tuples(st.integers(1, count), st.booleans()), min_size=1, max_size=6))
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
    assert factorized.min() >= 0.0
    if order > geometry.total_photons or eta == 0.0:
        assert np.all(factorized == 0.0)
    if order == geometry.total_photons and eta == 1.0:
        closed = plan_rate_values(plan, xs)
        assert np.abs(factorized / factorized.max() - closed / closed.max()).max() <= 1e-9
        # The fold against the entry-by-entry sum it replaced.
        per_entry = sum(e.weight * closed_form_values(geometry, e.phases, xs) for e in plan.entries)
        assert np.abs(closed - per_entry).max() <= 1e-14 * closed.max()
