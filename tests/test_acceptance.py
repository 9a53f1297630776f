"""Acceptance gate: one test per criterion, each printing a verdict line.

Quantitative dynamic checks run with practical constant packs; the
certified chain is exercised where it is meaningful (constant inequalities,
bound arithmetic).  The pinned constants, seeds, and tolerances live here
and nowhere else.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

from nsstab.constants import (
    ConstantPack,
    build_schedule,
    estimate_trilinear_constant,
)
from nsstab.dynamics import ControlLaw, raw_trilinear_tensor, simulate_batch
from nsstab.experiments import (
    fit_cost_curve,
    random_low_mode_state,
    run_null_control,
    run_rapid_stab,
    run_small_time,
)
from nsstab.spectral import assemble_gram, count_modes, fit_spectral_constant

from conftest import make_setup, uniform_plan
from oracle import energy_defect, radial_cutoff, truncated


def _verdict(index: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {index} {name}: {status}{suffix}")
    assert ok, f"criterion {index} {name} failed{suffix}"


@pytest.fixture(scope="module")
def schedule_pack():
    return ConstantPack.practical(
        spectral_constant=0.02, trilinear_constant=1.0, schedule_constant=4.0
    )


@pytest.fixture(scope="module")
def null_reports(square32, schedule_pack):
    basis, tensor, gram = square32["basis"], square32["tensor"], square32["gram"]
    return [
        run_null_control(basis, tensor, gram, schedule_pack, [n0], y0_norm=1e-3,
                         n_max=8, eps_zero=1e-6, seed=5)[0]
        for n0 in (1, 2, 3)
    ]


def test_criterion_1_spectral_inequality():
    start = time.perf_counter()
    _, _, _, basis32 = make_setup(32, 32, 24)
    grid32 = basis32.grid
    gram32 = assemble_gram(basis32, grid32)
    lam_grid = basis32.eigenvalues[:20]
    minima = []
    for lam in lam_grid:
        n = count_modes(basis32, float(lam))
        minima.append(scipy.linalg.eigvalsh(gram32[:n, :n])[0])
    positive = all(m > 0 for m in minima)
    fit32 = fit_spectral_constant(basis32, gram32, lam_grid=lam_grid)

    _, _, _, basis48 = make_setup(48, 48, 24)
    gram48 = assemble_gram(basis48, basis48.grid)
    fit48 = fit_spectral_constant(basis48, gram48, lam_grid=basis48.eigenvalues[:20])
    agreement = abs(fit32.value - fit48.value) / fit32.value
    elapsed = time.perf_counter() - start

    ok = positive and agreement <= 0.25 and elapsed < 120.0
    _verdict(
        1, "spectral inequality", ok,
        f"min(J) in [{min(minima):.3e}, {max(minima):.3e}], "
        f"fit32={fit32.value:.6g}, fit48={fit48.value:.6g}, "
        f"agreement={agreement:.2%}, {elapsed:.1f}s",
    )


def test_criterion_2_trilinear_structure(square16, square32):
    tensor = square32["tensor"]
    skew_residual = float(np.abs(tensor + tensor.transpose(0, 2, 1)).max())
    raw16 = raw_trilinear_tensor(truncated(square16["basis"], 8), square16["grid"])
    raw32 = raw_trilinear_tensor(truncated(square32["basis"], 8), square32["grid"])
    res16 = float(np.abs(raw16 + raw16.transpose(0, 2, 1)).max())
    res32 = float(np.abs(raw32 + raw32.transpose(0, 2, 1)).max())
    ratio = res16 / res32
    ok = skew_residual <= 1e-13 and 3.0 <= ratio <= 5.0
    _verdict(
        2, "trilinear structure", ok,
        f"skew residual={skew_residual:.1e}, refinement ratio={ratio:.2f}",
    )


def test_criterion_3_energy_identity(square32):
    basis, tensor, gram = square32["basis"], square32["tensor"], square32["gram"]
    y0 = random_low_mode_state(basis.n_modes, 1e-3, seed=0)
    traj = simulate_batch(y0[None], ControlLaw(), uniform_plan(0.0, 0.1, 1e-4), basis, tensor, gram,
                          sample_stride=10).trajectory(0)
    defect = float(np.abs(energy_defect(traj)).max())
    tol = 1e-6 * float(y0 @ y0)
    ok = defect <= tol
    _verdict(3, "energy identity", ok, f"defect={defect:.2e}, tol={tol:.2e}")


def test_criterion_4_rapid_stabilization(square32, pack_rapid):
    basis, tensor, gram = square32["basis"], square32["tensor"], square32["gram"]
    lam = float(basis.eigenvalues[3])
    start = time.perf_counter()
    linear = run_rapid_stab(basis, tensor, gram, pack_rapid, lam, y0_scale=0.5, seed=7)
    paired = run_rapid_stab(basis, tensor, gram, pack_rapid, lam, y0_scale=0.5,
                            cutoff=True, seed=7)
    elapsed = time.perf_counter() - start
    rate_ok = linear.rate_lyapunov >= 0.95 * lam / 2.0
    ok = (
        rate_ok
        and linear.state_bound_ok
        and linear.lyapunov_decay_ok
        and paired.control_stayed_below_radius
        and paired.cutoff_matches_linear
        and elapsed < 60.0
    )
    _verdict(
        4, "rapid stabilization", ok,
        f"V-rate={linear.rate_lyapunov:.1f} vs {lam / 2:.1f}, "
        f"pointwise bound={linear.state_bound_ok}, "
        f"bitwise cutoff match={paired.cutoff_matches_linear}, {elapsed:.1f}s",
    )


def test_criterion_5_constant_chain(square32):
    basis, gram, tensor = square32["basis"], square32["gram"], square32["tensor"]
    fit = fit_spectral_constant(basis, gram)
    c0 = estimate_trilinear_constant(basis, tensor, samples=200, seed=42)
    pack = ConstantPack.certified(fit.value, c0)
    c1, c2, q = pack.spectral_constant, pack.feedback_constant, pack.schedule_constant

    tau = basis.eigenvalues
    lam = np.geomspace(tau[0], tau[-1] * (1.0 - 1e-9), 64)
    s = np.sqrt(lam)
    rhs = np.log(c2) + c2 * s
    ineq1 = np.all(np.log1p(lam * c1) + c1 * s <= rhs)
    ineq2 = np.all(np.log(8.0 * c1 * c1) + np.log1p(lam) + 2.0 * c1 * s <= rhs)
    ineq3 = np.all(np.log(8.0 * c0) + 3.0 * np.log(c1) + 3.0 * c1 * s <= rhs)
    m = np.arange(1, 65, dtype=np.float64)
    q1 = np.all(np.log(c1) + c1 * q * m <= q * q * m / 64.0)
    q2 = np.all(np.log(c2) + c2 * q * m <= q * q * m / 64.0)
    exact = pack.cost_exponent == q * q / 32.0
    ok = bool(ineq1 and ineq2 and ineq3 and q1 and q2 and exact)
    _verdict(
        5, "constant chain", ok,
        f"c1={c1:.4g}, c0={c0:.4g}, c2={c2:.4g}, q={q:.4g}, "
        f"ineqs=({ineq1},{ineq2},{ineq3}), q-ineqs=({q1},{q2}), c3 exact={exact}",
    )


def test_criterion_6_null_controllability(square32, schedule_pack):
    basis, tensor, gram = square32["basis"], square32["tensor"], square32["gram"]
    start = time.perf_counter()
    report = run_null_control(basis, tensor, gram, schedule_pack, [1], y0_norm=1e-3,
                              n_max=8, eps_zero=1e-6, seed=5)[0]
    rerun = run_null_control(basis, tensor, gram, schedule_pack, [1], y0_norm=1e-3,
                             n_max=8, eps_zero=1e-6, seed=5, dt=report.dt / 4.0)[0]
    elapsed = time.perf_counter() - start
    # the refinement check compares the state norms, which see the grid (the
    # cost is taken at t = 0 and does not), at the sample times the two runs
    # share, before the earlier latch switches the control off
    coarse, fine = report.trajectory, rerun.trajectory
    nearest = np.clip(np.searchsorted(fine.times, coarse.times), 0, len(fine.times) - 1)
    latch = min(r.latch_time if r.null_reached else math.inf for r in (report, rerun))
    shared = (np.abs(fine.times[nearest] - coarse.times) <= 1e-12) & (coarse.times < latch)
    norm_change = np.max(np.abs(fine.norm_h[nearest[shared]] / coarse.norm_h[shared] - 1.0))
    ok = (
        report.final_relative_norm <= 1e-6
        and bool(report.monotone_ok.all())
        and math.isfinite(report.cost)
        and report.cost_bound_ok
        and norm_change < 1e-4
        and elapsed < 300.0
    )
    _verdict(
        6, "null controllability", ok,
        f"final={report.final_relative_norm:.2e}, cost={report.cost:.3e}, "
        f"bound ok={report.cost_bound_ok}, dt/4 norm change={norm_change:.2e} "
        f"over {shared.sum()} shared samples, {elapsed:.1f}s",
    )


def test_criterion_7_cost_scaling(null_reports, schedule_pack):
    slope, _ = fit_cost_curve(null_reports)
    c3 = schedule_pack.cost_exponent
    ok = slope > 0 and c3 / 3.0 <= slope <= 3.0 * c3
    _verdict(7, "cost scaling", ok, f"slope={slope:.3f}, cost exponent={c3:.3f}")


def test_criterion_8_small_time_stabilization(square32, schedule_pack):
    basis, tensor, gram = square32["basis"], square32["tensor"], square32["gram"]
    period = 0.5
    schedule = build_schedule(1, schedule_pack, basis, 8)
    eta_grid = np.array([1e-4, 1e-3, 1e-2]) * schedule.params[0].cutoff_radius
    probe = run_small_time(
        basis, tensor, gram, schedule_pack, 1, 1e-3,
        [0.0, period / 3.0, 0.9 * period],
        eps_zero=1e-6, eta_grid=eta_grid, seed=5,
    )
    nondecreasing = bool(np.all(np.diff(probe.delta_table) >= 0.0))
    ok = probe.two_period_ok and probe.feedback_bound_ok and nondecreasing
    _verdict(
        8, "small-time stabilization", ok,
        f"residuals max={probe.two_period_residuals.max():.2e}, "
        f"feedback bound={probe.feedback_bound_ok}, delta nondecreasing={nondecreasing}",
    )


def test_criterion_9_cutoff_operator():
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(10_000):
        r = rng.uniform(0.01, 0.5)
        f = rng.standard_normal(8) * rng.uniform(0.0, 3.0 * r)
        out = radial_cutoff(f, r)
        norm = float(np.linalg.norm(f))
        if norm <= r and not np.array_equal(out, f):
            violations += 1
        if norm >= 2.0 * r and np.any(out != 0.0):
            violations += 1
        if np.linalg.norm(out) > min(1.0, norm) + 1e-12:
            violations += 1
    _verdict(9, "cutoff operator", violations == 0, f"violations={violations}/10000")
