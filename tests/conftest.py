import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make `oracles` importable
sys.path.insert(0, str(Path(__file__).parent.parent / "benchmark"))  # make `workloads` and `checks` importable

# Hypothesis mixes the numeric literals of every loaded local module into its
# draws, so every module any test loads is imported before the first test runs:
# the examples of a test then do not depend on which tests ran before it.
import defect_forge.cli  # noqa: E402, F401
import workloads  # noqa: E402, F401
from defect_forge import CrystalCell, Site  # noqa: E402


@pytest.fixture
def cubic_cell():
    """5 A simple-cubic cell, vacuum dielectric, no sites."""
    return CrystalCell(np.eye(3) * 5.0)


@pytest.fixture
def si_motif():
    """Two-atom Si motif on an fcc lattice (a = 5.43 A)."""
    a = 5.43
    lattice = 0.5 * a * np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    sites = (Site("Si", (0.0, 0.0, 0.0)), Site("Si", (0.25, 0.25, 0.25)))
    return CrystalCell(lattice, sites)


@pytest.fixture
def skewed_cell():
    lattice = np.array([[6.0, 0.0, 0.0], [1.2, 5.5, 0.0], [0.4, 0.8, 7.1]])
    return CrystalCell(lattice, (Site("X", (0.1, 0.2, 0.3)),))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
