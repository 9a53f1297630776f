import math

import numpy as np
import pytest

from nsstab.constants import (
    TERMINAL,
    ConstantPack,
    build_schedule,
    cutoff_profile,
    derive_feedback_constant,
    derive_schedule_constants,
    estimate_trilinear_constant,
    feedback_params,
)
from nsstab.dynamics import build_trilinear_tensor, raw_trilinear_tensor
from nsstab.errors import BasisTooSmallError

from conftest import make_setup
from oracle import locate_interval, modal_feedback, radial_cutoff, truncated


# ---------------------------------------------------------------------------
# constant derivations
# ---------------------------------------------------------------------------

def test_feedback_constant_unit_case():
    # for c1 = c0 = 1 the binding constraint is the lam -> 0 limit 8
    assert derive_feedback_constant(1.0, 1.0) == pytest.approx(8.0, rel=1e-6)


def test_feedback_constant_floor_and_monotone():
    rng = np.random.default_rng(0)
    for _ in range(10):
        c1 = rng.uniform(0.05, 2.0)
        c0 = rng.uniform(0.05, 3.0)
        c2 = derive_feedback_constant(c1, c0)
        assert c2 >= 3.0 * c1 - 1e-12
        assert derive_feedback_constant(c1, 2.0 * c0) >= c2 - 1e-12


def test_feedback_constant_inequalities_hold_on_dense_grid():
    c1, c0 = 1.0, 0.0102
    c2 = derive_feedback_constant(c1, c0)
    lam = np.geomspace(1e-8, 1e8, 4001)
    s = np.sqrt(lam)
    rhs = np.log(c2) + c2 * s
    assert np.all(np.log1p(lam * c1) + c1 * s <= rhs)
    assert np.all(np.log(8 * c1**2) + np.log1p(lam) + 2 * c1 * s <= rhs)
    assert np.all(np.log(8 * c0 * c1**3) + 3 * c1 * s <= rhs)


def test_schedule_constants_unit_case():
    q, c3 = derive_schedule_constants(1.0, 1.0)
    assert q == pytest.approx(64.0, rel=1e-9)
    assert c3 == q * q / 32.0  # exact by construction


def test_schedule_constants_match_exhaustive_integer_scan():
    c1, c2 = 1.0, 8.0
    q, _ = derive_schedule_constants(c1, c2)
    closed_form = 32.0 * c2 + math.sqrt((32.0 * c2) ** 2 + 64.0 * math.log(c2))
    assert q == pytest.approx(closed_form, rel=1e-9)
    m = np.arange(1, 1_000_001, dtype=np.float64)
    for c in (c1, c2):
        assert np.all(np.log(c) + c * q * m <= q * q * m / 64.0 + 1e-9)
    # anything 1% smaller must fail for some m
    q_small = 0.99 * q
    violated = False
    for c in (c1, c2):
        violated = violated or np.any(np.log(c) + c * q_small * m > q_small**2 * m / 64.0)
    assert violated


def test_pack_invariants():
    pack = ConstantPack.practical(0.5, 1.0)
    assert pack.cost_exponent == pack.schedule_constant**2 / 32.0
    assert pack.feedback_constant >= 3.0 * pack.spectral_constant
    with pytest.raises(ValueError, match="spectral_constant >= 1"):
        ConstantPack(
            spectral_constant=0.5, trilinear_constant=1.0, feedback_constant=8.0,
            schedule_constant=64.0, cost_exponent=128.0, mode="certified",
        )
    with pytest.raises(ValueError, match="exactly"):
        ConstantPack(
            spectral_constant=1.0, trilinear_constant=1.0, feedback_constant=8.0,
            schedule_constant=64.0, cost_exponent=127.9, mode="certified",
        )
    with pytest.raises(ValueError, match="3 \\* spectral"):
        ConstantPack(
            spectral_constant=4.0, trilinear_constant=1.0, feedback_constant=8.0,
            schedule_constant=64.0, cost_exponent=128.0, mode="certified",
        )


def test_certified_pack_from_unit_constants():
    pack = ConstantPack.certified(1.0, 1.0)
    assert pack.mode == "certified"
    assert pack.feedback_constant == pytest.approx(8.0, rel=1e-6)
    assert pack.cost_exponent == pack.schedule_constant**2 / 32.0


# ---------------------------------------------------------------------------
# per-threshold feedback data
# ---------------------------------------------------------------------------

def _unit_pack():
    return ConstantPack(
        spectral_constant=1.0, trilinear_constant=1.0, feedback_constant=8.0,
        schedule_constant=64.0, cost_exponent=128.0, mode="certified",
    )


def test_feedback_params_closed_forms(square32):
    basis = square32["basis"]
    pack = _unit_pack()
    lam = 4.0
    # lam below tau_1 is allowed: no active modes
    p = feedback_params(lam, pack, basis)
    assert p.n_active == 0
    assert p.gain == pytest.approx(4.0 * math.e**2, rel=1e-14)
    assert p.weight == pytest.approx(math.e**4, rel=1e-14)
    assert p.weight == p.gain**2 / lam**2  # exact identity by construction
    assert p.weight > 1.0
    assert p.cutoff_radius * 8.0 * math.exp(8.0 * 2.0) == pytest.approx(1.0, rel=1e-12)


def test_feedback_params_counts_active_modes(square32):
    basis = square32["basis"]
    pack = _unit_pack()
    lam = float(basis.eigenvalues[3])
    p = feedback_params(lam, pack, basis)
    assert p.n_active == 4
    with pytest.raises(BasisTooSmallError):
        feedback_params(float(basis.eigenvalues[-1]), pack, basis)


def test_modal_feedback_linear_and_bounded(square32):
    basis = square32["basis"]
    pack = _unit_pack()
    p = feedback_params(float(basis.eigenvalues[3]), pack, basis)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(basis.n_modes)
    assert np.all(modal_feedback(np.zeros_like(x), p) == 0.0)
    assert np.allclose(modal_feedback(3.0 * x, p), 3.0 * modal_feedback(x, p), rtol=1e-15)
    assert np.linalg.norm(modal_feedback(x, p)) <= p.gain * np.linalg.norm(x) + 1e-12
    # commutes with truncation to the active modes
    x_trunc = x.copy()
    x_trunc[p.n_active:] = 0.0
    assert np.array_equal(modal_feedback(x, p), modal_feedback(x_trunc, p))


# ---------------------------------------------------------------------------
# cutoff machinery
# ---------------------------------------------------------------------------

def test_cutoff_profile_plateaus_and_midpoint():
    r = 0.25
    assert cutoff_profile(0.0, r) == 1.0
    assert cutoff_profile(r, r) == 1.0
    assert cutoff_profile(2.0 * r, r) == 0.0
    assert cutoff_profile(5.0 * r, r) == 0.0
    assert cutoff_profile(1.5 * r, r) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        cutoff_profile(-0.1, r)
    with pytest.raises(ValueError):
        cutoff_profile(0.1, 0.7)


def test_cutoff_profile_monotone_dense_scan():
    r = 0.3
    s = np.linspace(0.0, 1.0, 1000)
    vals = np.array([cutoff_profile(float(v), r) for v in s])
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_radial_cutoff_exact_clauses():
    rng = np.random.default_rng(9)
    f = rng.standard_normal(12)
    f *= 0.2 / np.linalg.norm(f)
    out = radial_cutoff(f, 0.25)
    assert np.array_equal(out, f)  # identity below the radius, bitwise
    f *= 10.0  # norm 2.0 >= 2r
    assert np.all(radial_cutoff(f, 0.25) == 0.0)


def test_radial_cutoff_norm_bound_random_scan():
    rng = np.random.default_rng(10)
    for _ in range(10_000):
        r = rng.uniform(0.01, 0.5)
        f = rng.standard_normal(6) * rng.uniform(0.0, 3.0 * r)
        out = radial_cutoff(f, r)
        nf = np.linalg.norm(f)
        assert np.linalg.norm(out) <= min(1.0, nf) + 1e-12


def test_radial_cutoff_local_linearity():
    rng = np.random.default_rng(11)
    f = rng.standard_normal(8)
    f *= 0.2 / np.linalg.norm(f)
    alpha = 0.5  # alpha * f stays inside the radius
    assert np.array_equal(radial_cutoff(alpha * f, 0.25), alpha * f)


# ---------------------------------------------------------------------------
# trilinear constant
# ---------------------------------------------------------------------------

def test_trilinear_form_skew_consequences(square32):
    basis, tensor = square32["basis"], square32["tensor"]
    rng = np.random.default_rng(12)
    u, v = rng.standard_normal((2, basis.n_modes))
    # B(u, v, v) = 0 after skew-symmetrization
    bvv = float(np.einsum("ijk,i,j,k->", tensor, u, v, v))
    assert abs(bvv) <= 1e-12 * np.abs(tensor).max() * np.linalg.norm(v) ** 2 * np.linalg.norm(u)
    # u = v gives a finite, well-defined ratio
    buvw = float(np.einsum("ijk,i,j,k->", tensor, u, u, v))
    assert np.isfinite(buvw)


def test_trilinear_tensor_matches_quadruple_loop_oracle():
    # explicit physical-space quadrature, loop form, on a small basis
    grid, _, _, basis = make_setup(10, 10, 4, omega=(0.1, 0.6, 0.1, 0.6))
    raw = raw_trilinear_tensor(basis, grid)
    hx, hy = grid.hx, grid.hy
    nx, ny = grid.nx, grid.ny

    def vel(i, comp, ix, iy):
        if 0 <= ix < nx and 0 <= iy < ny:
            return basis.velocities[i, comp, ix, iy]
        return 0.0

    for (i, j, k) in [(0, 1, 2), (2, 3, 1), (1, 1, 3)]:
        acc = 0.0
        for ix in range(nx):
            for iy in range(ny):
                for b in range(2):
                    dxv = (vel(j, b, ix + 1, iy) - vel(j, b, ix - 1, iy)) / (2 * hx)
                    dyv = (vel(j, b, ix, iy + 1) - vel(j, b, ix, iy - 1)) / (2 * hy)
                    adv = basis.velocities[i, 0, ix, iy] * dxv + basis.velocities[i, 1, ix, iy] * dyv
                    acc += adv * basis.velocities[k, b, ix, iy]
        acc *= hx * hy
        assert raw[i, j, k] == pytest.approx(acc, rel=1e-12, abs=1e-15)


def test_trilinear_constant_fixture():
    # frozen measurement: 32x32 unit square, 16 modes, seed 42, 200 samples; the
    # value is the one the canonicalized dense oracle basis gives (see oracle.py)
    grid, _, _, basis = make_setup(32, 32, 16)
    tensor = build_trilinear_tensor(basis, grid)
    c0 = estimate_trilinear_constant(basis, tensor, samples=200, seed=42)
    assert c0 == pytest.approx(0.015599492574551408, rel=1e-9)


def test_trilinear_constant_validates_inputs(square32):
    basis, tensor = square32["basis"], square32["tensor"]
    with pytest.raises(ValueError):
        estimate_trilinear_constant(basis, tensor, samples=50)
    with pytest.raises(ValueError):
        estimate_trilinear_constant(truncated(basis, 2), tensor[:2, :2, :2])


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_schedule_dyadic_times(square32, pack_schedule):
    sched = build_schedule(1, pack_schedule, square32["basis"], 3)
    assert sched.period == 0.5
    assert np.array_equal(sched.start_times, [0.0, 0.25, 0.375, 0.4375, 0.46875])
    # thresholds quadruple before clamping
    ratios = sched.thresholds_raw[1:] / sched.thresholds_raw[:-1]
    assert np.all(ratios == 4.0)
    # distance to the period end halves per interval
    n = np.arange(5)
    assert np.allclose(sched.period - sched.start_times, 2.0 ** (-(1 + n)), rtol=0, atol=0)


def test_schedule_certified_requires_resolvable_thresholds(square32):
    pack = _unit_pack()  # schedule constant 64 -> thresholds far beyond the basis
    with pytest.raises(BasisTooSmallError):
        build_schedule(1, pack, square32["basis"], 2)


def test_schedule_practical_clamps_with_flag(square32, pack_schedule):
    basis = square32["basis"]
    sched = build_schedule(1, pack_schedule, basis, 8)
    assert sched.clamped.any()
    cap = sched.thresholds[sched.clamped][0]
    assert cap < basis.eigenvalues[-1]
    assert np.all(sched.thresholds <= cap + 1e-12)
    first = int(np.argmax(sched.clamped))
    assert np.all(~sched.clamped[:first])


def test_locate_interval(square32, pack_schedule):
    sched = build_schedule(1, pack_schedule, square32["basis"], 3)
    assert locate_interval(0.0, sched) == 0
    assert locate_interval(0.3, sched) == 1  # 1/4 <= 0.3 < 3/8
    assert locate_interval(0.25, sched) == 1
    assert locate_interval(0.4374, sched) == 2
    assert locate_interval(0.49, sched) == TERMINAL  # past the truncation
    with pytest.raises(ValueError):
        locate_interval(0.5, sched)
    with pytest.raises(ValueError):
        locate_interval(-0.1, sched)


def test_schedule_periodization(square32, pack_schedule):
    from nsstab.dynamics import ControlLaw

    sched = build_schedule(1, pack_schedule, square32["basis"], 4)
    law = ControlLaw.periodic(sched)
    params = law.params + (None,)  # TERMINAL selects the last entry
    for t in (0.0, 0.1, 0.26, 0.45, 0.49999):
        assert params[law.segment_at(t)] == params[law.segment_at(t + sched.period)]
        assert law.segment_at(t) == law.segment_at(t + 7 * sched.period)

