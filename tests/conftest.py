"""Shared fixtures; the eigensolves are session-scoped because they dominate
the suite's wall time."""

import math

import numpy as np
import pytest

from nsstab import experiments
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


def cut_plans(schedule, t_start, span, dt):
    """Row plans of the schedule's periodic law from each start of t_start (a
    scalar or a sequence) over span, cut at every switch of the law, with
    steps of about dt; one plan per start, each taking the same steps.

    Over whole periods they are experiments._row_plan's, with dt capping every
    piece and each period evened to the most steps any start needs.  Other
    spans take span / dt steps from each start, shared among its pieces in
    proportion to their lengths: at least one each, and the steps left over
    to the largest remainders.  Where dt divides every piece of every start,
    both give the grid of :func:`uniform_plan`.
    """
    starts = np.atleast_1d(np.asarray(t_start, dtype=np.float64))
    period = schedule.period
    periods = round(span / period)
    if periods >= 1 and abs(periods * period - span) <= 1e-12 * span:
        caps = np.full(schedule.n_max + 2, dt)
        per_period = max(experiments._row_plan(schedule, caps, s)[1].sum() for s in starts)
        return [experiments._row_plan(schedule, caps, s, periods, per_period) for s in starts]
    n = round(span / dt)
    assert n > 0 and abs(n * dt - span) <= 1e-9 * max(span, dt), (span, dt)
    plans = []
    for s in starts:
        first = math.floor(s / period)
        marks = np.arange(first, first + math.ceil(span / period) + 1)[:, None] * period
        switches = (marks + schedule.start_times).ravel()
        end = s + n * dt
        cuts = np.concatenate([[s], switches[(switches > s) & (switches < end)], [end]])
        quota = np.diff(cuts) / dt
        counts = np.maximum(np.floor(quota), 1).astype(int)
        assert counts.sum() <= n, (s, span, dt)
        counts[np.argsort(counts - quota, kind="stable")[: n - counts.sum()]] += 1
        plans.append((cuts, counts, np.diff(cuts) / counts))
    return plans


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
