import os

import numpy as np
import pytest

from darwinlab.kgrid import KGrid
from darwinlab.state import ModeSpec, synthesize


@pytest.fixture()
def forks(monkeypatch):
    """Counts the os.fork calls made in this process."""
    calls = []
    original = os.fork

    def counted():
        calls.append(1)
        return original()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@pytest.fixture(scope="session")
def g16():
    return KGrid(16, 1.0)


@pytest.fixture(scope="session")
def g32():
    return KGrid(32, 1.0)


@pytest.fixture(scope="session")
def helicity_state(g32):
    """Moderately narrow circular state about +z; workhorse positive-energy state."""
    return synthesize([ModeSpec(kind="gaussian", k0=(0, 0, 8), sigma_k=1.2, helicity=1)], g32)


@pytest.fixture(scope="session")
def two_direction_state(g32):
    """Orthogonal-beam superposition with opposite helicities.

    Opposite helicities make the upper- and lower-block interference patterns
    differ, which is what the density-candidate comparisons need; same-helicity
    beams would have f_l = -i f_u globally and identical candidates.
    """
    return synthesize(
        [
            ModeSpec(kind="gaussian", k0=(0, 0, 8), sigma_k=1.5, helicity=1),
            ModeSpec(kind="gaussian", k0=(8, 0, 0), sigma_k=1.5, helicity=-1),
        ],
        g32,
    )


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


def random_wavevector(rng, lo=0.3, hi=3.0):
    k = rng.normal(size=3)
    k /= np.linalg.norm(k)
    return k * rng.uniform(lo, hi)
