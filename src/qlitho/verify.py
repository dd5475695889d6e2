"""Named self-check suites: the package's key identities run as one command.

Each suite returns a machine-readable record with the worst deviation it
observed, so the CLI can print one pass/fail line per invariant and tests
can reuse the same implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import deposition, imperfections, planner
from .fock import Geometry, MixedState, ModePair

ORACLE_TOL = 1e-9
FACTORIZED_TOL = 1e-12
SUM_TOL = 1e-9
CENTER_TOL = 1e-12
_PAIR33 = Geometry((ModePair(1, 3, 1.0), ModePair(2, 3, 0.25)))


@dataclass(frozen=True)
class VerifyResult:
    suite: str
    case: str
    passed: bool
    deviation: float
    tolerance: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.suite} {self.case} "
            f"max_dev={self.deviation:.3e} tol={self.tolerance:.1e}"
        )


def figure_configurations() -> dict[str, tuple[Geometry, tuple[float, ...], float]]:
    """Named (geometry, phases, period) benchmark settings.

    Two equal three-photon pairs plain and steered to pixel six, the
    uneven (2, 4) split, and the four-pair chain; periods are one full
    pattern repeat.
    """
    pair24 = Geometry((ModePair(1, 2, 1.0), ModePair(2, 4, 0.2)))
    chain47 = planner.chain_geometry(4, 7)
    zero = lambda g: (0.0,) * len(g.pairs)
    return {
        "two-pair-3-3": (_PAIR33, zero(_PAIR33), 2.0),
        "two-pair-3-3-pixel-6": (_PAIR33, planner.phases_for_pixel(_PAIR33, 6), 2.0),
        "two-pair-2-4": (pair24, zero(pair24), 2.5),
        "chain-4-7": (chain47, zero(chain47), 4.0),
    }


def suite_oracle(samples: int = 2048) -> list[VerifyResult]:
    """Peak-normalized brute-force vs closed-form rate on every benchmark."""
    results = []
    for name, (geometry, phases, period) in figure_configurations().items():
        grid = deposition.SamplingGrid(0.0, period, samples)
        closed = deposition.profile_closed(geometry, phases, grid, "peak_unity")
        state = planner.entry_state(geometry, phases)
        brute = deposition.profile_brute(state, geometry.total_photons, grid, "peak_unity")
        deviation = float(np.abs(closed.values - brute.values).max())
        results.append(VerifyResult("oracle", name, deviation < ORACLE_TOL, deviation, ORACLE_TOL))
    return results


def generic_plan_values(plan: planner.ExposurePlan, order: int, xs,
                        loss: imperfections.LossModel | None = None) -> np.ndarray:
    """Plan rate from the generic sparse engine, the oracle for ``plan_fock_values``.

    Builds the whole-geometry ``plan_mixture``, passes each component
    through ``lossy_mixture`` and sums ``brute_force_values`` over the
    result; the cost grows exponentially with the pair count.
    """
    source = planner.plan_mixture(plan)
    if loss is not None:
        source = MixedState(tuple(
            (w * lw, lossy)
            for w, component in source.components
            for lw, lossy in imperfections.lossy_mixture(component, loss).components
        ))
    return deposition.brute_force_values(source, order, xs)


def suite_factorized(samples: int = 512) -> list[VerifyResult]:
    """Per-pair factorized plan rates against the generic engine, relative to the peak.

    The cases cover lower-order absorption, loss, multi-entry plans and an
    intermediate address.
    """
    cases = {
        "two-pair-3-3-order-5": (_PAIR33, ("6", "11"), 5, 1.0),
        "two-pair-3-3-5i-eta-0.9": (_PAIR33, ("5i",), 6, 0.9),
        "chain-2-4-order-3-eta-0.85": (planner.chain_geometry(2, 4), ("2", "7", "11"), 3, 0.85),
    }
    results = []
    for name, (geometry, targets, order, eta) in cases.items():
        plan = planner.plan_pattern(geometry, [planner.parse_address(t) for t in targets])
        xs = np.linspace(0.0, planner.PixelSpec.from_geometry(geometry).period, samples)
        loss = imperfections.LossModel(eta) if eta != 1.0 else None
        generic = generic_plan_values(plan, order, xs, loss)
        factorized = imperfections.plan_fock_values(plan, order, xs, loss)
        deviation = float(np.abs(factorized - generic).max() / generic.max())
        results.append(VerifyResult("factorized", name, deviation < FACTORIZED_TOL, deviation, FACTORIZED_TOL))
    return results


def _sum_to_one_case(name: str, geometry: Geometry, period: float, samples: int) -> VerifyResult:
    grid = deposition.SamplingGrid(0.0, period, samples)
    pixels = range(1, planner.PixelSpec.from_geometry(geometry).pixel_count + 1)
    total = planner.pixel_basis(geometry, pixels, grid.points()).sum(axis=0)
    deviation = float(np.abs(total - 1.0).max())
    return VerifyResult("sum-to-one", name, deviation < SUM_TOL, deviation, SUM_TOL)


def suite_sum_to_one(samples: int = 1024) -> list[VerifyResult]:
    """The family of all single-pixel rates sums to one everywhere."""
    return [
        _sum_to_one_case("two-pair-3-3-16px", _PAIR33, 2.0, samples),
        _sum_to_one_case("chain-4-7-40px", planner.chain_geometry(4, 7), 4.0, samples),
        _sum_to_one_case("chain-3-6-32px", planner.chain_geometry(3, 6), 4.0, samples),
    ]


def suite_zero_at_centers() -> list[VerifyResult]:
    """Single-pixel rates vanish at the centers of all other pixels."""
    results = []
    seen = set()
    for name, (geometry, _, _) in figure_configurations().items():
        if geometry in seen:
            continue
        seen.add(geometry)
        spec = planner.PixelSpec.from_geometry(geometry)
        pixels = range(1, spec.pixel_count + 1)
        centers = [planner.pixel_center(spec, p) for p in pixels]
        rates = planner.pixel_basis(geometry, pixels, centers)
        np.fill_diagonal(rates, 0.0)
        worst = float(rates.max())
        results.append(
            VerifyResult("zero-at-centers", name, worst < CENTER_TOL, worst, CENTER_TOL)
        )
    return results


def suite_table_one(max_half_photons: int = 5) -> list[VerifyResult]:
    """Partition table rows match their closed formulas exactly."""
    results = []
    for n in range(1, max_half_photons + 1):
        ok = True
        for row in planner.partition_table(n):
            k = row.photons_1
            ok &= row.photons_2 == 2 * n - k
            ok &= row.pixels == (k + 1) * (2 * n - k + 1)
            ok &= row.feature_size == Fraction(1, 2 * (k + 1))
            ok &= row.period == Fraction(2 * n - k + 1, 2)
            ok &= row.pixels * row.feature_size == row.period
        results.append(VerifyResult("table-one", f"half-photons-{n}", bool(ok), 0.0 if ok else 1.0, 0.5))
    return results


SUITES = {
    "oracle": suite_oracle,
    "factorized": suite_factorized,
    "sum-to-one": suite_sum_to_one,
    "zero-at-centers": suite_zero_at_centers,
    "table-one": suite_table_one,
}


def run_suites(names) -> list[VerifyResult]:
    results = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown verify suite {name!r}; choose from {sorted(SUITES)}")
        results.extend(SUITES[name]())
    return results
