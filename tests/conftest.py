import numpy as np
import pytest
from scipy.linalg import solveh_banded

import barenheat as bh


def _reference_solve_1d(ops, diagonal, shift, rhs, rtol=None):
    """The former per-call 1D shifted solve: build the two-row band,
    refactor and solve with ``solveh_banded`` on every call.  ``rtol`` is
    accepted and ignored so that it can stand in for ``solve_shifted``."""
    band = np.zeros((2, ops.node_count))
    band[1] = diagonal + shift * ops.stiffness.diagonal()
    band[0, 1:] = shift * ops.stiffness.diagonal(1)
    return solveh_banded(band, rhs)


@pytest.fixture(scope="session")
def reference_solve_1d():
    """Refactoring 1D solve that the cached ``solve_shifted`` must match bit for bit."""
    return _reference_solve_1d


@pytest.fixture(scope="session")
def ops65():
    """1D unit-interval mesh with 65 nodes, the standard test mesh."""
    return bh.build_operators(1, 64, 1.0)


@pytest.fixture(scope="session")
def ops_small():
    """Cheap 1D mesh for statistics-heavy tests."""
    return bh.build_operators(1, 8, 1.0)


@pytest.fixture(scope="session")
def unit_nl():
    return bh.linear(1.0)


@pytest.fixture(scope="session")
def cos_field(ops65):
    return bh.evaluate_on_mesh("cos(pi*x)", ops65)
