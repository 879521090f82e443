"""Shared fixtures: canonical chains, tables, and memory kernels.

Session-scoped because construction (Volterra marches, PV tables) is the
expensive part; every object is immutable after construction.
"""

import pytest

from phonon_scatter import (DispersionRelation, MemoryKernel, build_table,
                            nn_pinned, nn_unpinned)


@pytest.fixture(scope="session")
def disp_unpinned():
    return DispersionRelation(nn_unpinned())


@pytest.fixture(scope="session")
def disp_pinned():
    return DispersionRelation(nn_pinned(1.0))


@pytest.fixture(scope="session")
def mk_unpinned_g1(disp_unpinned):
    """gamma=1 kernel on [0, 5] at the default resolution."""
    return MemoryKernel(disp_unpinned, gamma=1.0, dt=1e-3, horizon=5.0)


@pytest.fixture(scope="session")
def mk_long_march(disp_unpinned):
    """gamma=1 kernel marched to t=1000 (coarser grid; used for the
    long-time limit of the phase integral)."""
    return MemoryKernel(disp_unpinned, gamma=1.0, dt=1e-2, horizon=1000.0)


@pytest.fixture(scope="session")
def table_unpinned_g1(disp_unpinned):
    return build_table(disp_unpinned, 1.0, n_k=512, delta_excl=0.02)
