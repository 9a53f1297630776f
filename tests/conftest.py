"""Shared fixtures; the eigensolves are session-scoped because they dominate
the suite's wall time."""

import numpy as np
import pytest

from nsstab.constants import ConstantPack
from nsstab.dynamics import build_trilinear_tensor
from nsstab.grid import DomainSpec, build_grid
from nsstab.spectral import assemble_gram, assemble_operators, solve_eigenbasis

OMEGA = (0.6, 0.9, 0.1, 0.4)


def make_setup(nx, ny, m, omega=OMEGA, lx=1.0, ly=1.0):
    grid = build_grid(DomainSpec(lx, ly, nx, ny, omega))
    k1, k2 = assemble_operators(grid)
    basis = solve_eigenbasis(k1, k2, m, grid)
    return grid, k1, k2, basis


def uniform_plan(t_start, span, dt):
    """The one-piece row plan of simulate_batch: n = span / dt steps of dt
    from t_start, ending at t_start + n dt.  Scalars give one plan for every
    row, (B,) arrays (any of the three) one plan per row."""
    if np.ndim(t_start) == np.ndim(span) == np.ndim(dt) == 0:
        n = round(span / dt)
        assert n > 0 and abs(n * dt - span) <= 1e-9 * max(span, dt), (span, dt)
        return [t_start, t_start + n * dt], [n], [dt]
    return [uniform_plan(*row) for row in zip(*np.broadcast_arrays(t_start, span, dt))]


@pytest.fixture(scope="session")
def square32():
    grid, k1, k2, basis = make_setup(32, 32, 24)
    return {
        "grid": grid,
        "k1": k1,
        "k2": k2,
        "basis": basis,
        "gram": assemble_gram(basis, grid),
        "tensor": build_trilinear_tensor(basis, grid),
    }


@pytest.fixture(scope="session")
def square16():
    grid, k1, k2, basis = make_setup(16, 16, 24)
    return {
        "grid": grid,
        "k1": k1,
        "k2": k2,
        "basis": basis,
        "gram": assemble_gram(basis, grid),
        "tensor": build_trilinear_tensor(basis, grid),
    }


@pytest.fixture(scope="session")
def square32_wide():
    """32x32 with 64 modes, the wide-modes size, where the convection contraction dominates a step."""
    grid, _, _, basis = make_setup(32, 32, 64)
    return {
        "basis": basis,
        "gram": assemble_gram(basis, grid),
        "tensor": build_trilinear_tensor(basis, grid),
    }


@pytest.fixture(scope="session")
def square48():
    grid, k1, k2, basis = make_setup(48, 48, 24)
    return {"grid": grid, "basis": basis, "gram": assemble_gram(basis, grid)}


@pytest.fixture(scope="session")
def tiny8():
    grid, k1, k2, basis = make_setup(8, 8, 10)
    return {"grid": grid, "k1": k1, "k2": k2, "basis": basis}


@pytest.fixture(scope="session")
def pack_rapid():
    """Practical constants for the stationary-feedback experiments."""
    return ConstantPack.practical(spectral_constant=0.6, trilinear_constant=1.0)


@pytest.fixture(scope="session")
def pack_schedule():
    """Practical constants for the dyadic-schedule experiments."""
    return ConstantPack.practical(
        spectral_constant=0.02, trilinear_constant=1.0, schedule_constant=4.0
    )
