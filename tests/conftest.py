import numpy as np
import pytest

from qlitho import Geometry, ModePair, chain_geometry


def nested_geometry(photons) -> Geometry:
    """Each pair scales by 1/(photons + 1) of its predecessor."""
    scaling = 1.0
    pairs = []
    for i, n in enumerate(photons):
        if i:
            scaling /= n + 1
        pairs.append(ModePair(i + 1, n, scaling))
    return Geometry(tuple(pairs))


@pytest.fixture
def two_pair_33():
    """Two equal three-photon pairs, the second nested at quarter scaling."""
    return Geometry((ModePair(1, 3, 1.0), ModePair(2, 3, 0.25)))


@pytest.fixture
def two_pair_24():
    """Uneven split: two photons grazing, four photons at fifth scaling."""
    return Geometry((ModePair(1, 2, 1.0), ModePair(2, 4, 0.2)))


@pytest.fixture
def chain_47():
    return chain_geometry(4, 7)


@pytest.fixture
def chain_36():
    return chain_geometry(3, 6)


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
