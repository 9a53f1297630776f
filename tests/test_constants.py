import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsstab.constants import (
    TERMINAL,
    ConstantPack,
    Schedule,
    build_schedule,
    cutoff_profile,
    derive_feedback_constant,
    derive_schedule_constant,
    feedback_params,
    trilinear_bracket,
)
from nsstab.dynamics import build_trilinear_tensor, raw_trilinear_tensor
from nsstab.errors import BasisTooSmallError
from nsstab.spectral import StokesBasis

import oracle
from conftest import make_setup
from oracle import locate_interval, modal_feedback, radial_cutoff


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


# lam = 0 stands for the lam -> 0 limit, where the floor of c2 binds
DENSE_LAM = np.concatenate(([0.0], np.geomspace(1e-14, 1e14, 400_001)))


def _feedback_slack(c2, c1, c0):
    """Smallest right-minus-left log slack of the three feedback-constant
    inequalities over DENSE_LAM, in floating point."""
    lam = DENSE_LAM
    s = np.sqrt(lam)
    rhs = np.log(c2) + c2 * s
    return min(
        np.min(rhs - np.log1p(lam * c1) - c1 * s),
        np.min(rhs - np.log(8 * c1 * c1) - np.log1p(lam) - 2 * c1 * s),
        np.min(rhs - np.log(8 * c0 * c1**3) - 3 * c1 * s),
    )


def test_feedback_constant_inequalities_hold_on_dense_grid():
    c1, c0 = 1.0, 0.0102
    assert _feedback_slack(derive_feedback_constant(c1, c0), c1, c0) >= 0.0


def test_schedule_constants_unit_case():
    q = derive_schedule_constant(1.0, 1.0)
    assert q == pytest.approx(64.0, rel=1e-9)


def test_schedule_constants_match_exhaustive_integer_scan():
    c1, c2 = 1.0, 8.0
    q = derive_schedule_constant(c1, c2)
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


# the floor max(3 c1, 1, 8 c1^2, 8 c0 c1^3) is feasible outside about
# [0.24, 0.47]; inside, with c0 <= 1, only bisection finds c2
FLOOR_PAIRS = st.tuples(st.one_of(st.floats(1e-3, 0.23), st.floats(0.48, 10.0)), st.floats(1e-3, 1e3))
BISECTION_PAIRS = st.tuples(st.floats(0.25, 0.46), st.floats(1e-3, 1.0))


@pytest.mark.parametrize("pairs", [FLOOR_PAIRS, BISECTION_PAIRS], ids=["floor", "bisection"])
def test_feedback_constant_is_tight_for_every_lam(pairs):
    """Every inequality holds on lam in {0} and [1e-14, 1e14] (400 001 points),
    and c2 * (1 - 1e-7) fails somewhere; c2 is the floor with its margin
    exactly when the floor is feasible."""

    @settings(max_examples=80, deadline=None)
    @given(pairs)
    def check(pair):
        c1, c0 = pair
        c2 = derive_feedback_constant(c1, c0)
        floor = max(3.0 * c1, 1.0, 8.0 * c1 * c1, 8.0 * c0 * c1**3)
        if pairs is FLOOR_PAIRS:
            assert c2 == pytest.approx(floor * (1.0 + 1e-9), rel=1e-15)
        else:
            assert c2 > floor * (1.0 + 2e-9)
        assert _feedback_slack(c2, c1, c0) >= 0.0
        assert _feedback_slack(c2 * (1.0 - 1e-7), c1, c0) < 0.0

    check()


@pytest.mark.parametrize(("c1", "c0"), [(0.02, 1.0), (0.3, 1.0), (0.45, 0.1), (1.0, 1.0), (2.5, 0.01), (1.3, 5.0)])
def test_feedback_and_schedule_constants_hold_in_50_digits(c1, c0):
    """In 50-digit arithmetic, outside any float grid: the three feedback
    inequalities at lam = 1e-12 and 1e12, and the two schedule inequalities
    (m = 1 and the slope in m) at q but not both at (1 - 1e-12) * q."""
    c2 = derive_feedback_constant(c1, c0)
    q = derive_schedule_constant(c1, c2)
    with mpmath.workdps(50):
        c1m, c0m, c2m, qm = (mpmath.mpf(v) for v in (c1, c0, c2, q))
        for lam in (mpmath.mpf("1e-12"), mpmath.mpf("1e12")):
            s = mpmath.sqrt(lam)
            rhs = c2m * mpmath.exp(c2m * s)
            assert (1 + lam * c1m) * mpmath.exp(c1m * s) <= rhs
            assert 8 * (1 + lam) * c1m**2 * mpmath.exp(2 * c1m * s) <= rhs
            assert 8 * c0m * c1m**3 * mpmath.exp(3 * c1m * s) <= rhs

        def schedule_ok(qq):
            return all(qq * qq / 64 >= c * qq and mpmath.log(c) + c * qq <= qq * qq / 64 for c in (c1m, c2m))

        assert schedule_ok(qm)
        assert not schedule_ok((1 - mpmath.mpf("1e-12")) * qm)


def test_pack_invariants():
    pack = ConstantPack.practical(0.5, 1.0)
    assert pack.cost_exponent == pack.schedule_constant**2 / 32.0
    assert pack.feedback_constant >= 3.0 * pack.spectral_constant
    with pytest.raises(ValueError, match="spectral_constant >= 1"):
        ConstantPack(
            spectral_constant=0.5, trilinear_constant=1.0, feedback_constant=8.0,
            schedule_constant=64.0, mode="certified",
        )
    with pytest.raises(ValueError, match="3 \\* spectral"):
        ConstantPack(
            spectral_constant=4.0, trilinear_constant=1.0, feedback_constant=8.0,
            schedule_constant=64.0, mode="certified",
        )
    # c2 = 8 meets the feedback inequalities at c1 = c0 = 1, but q = 64 < 64 * c2
    with pytest.raises(ValueError, match="schedule inequalities"):
        ConstantPack(
            spectral_constant=1.0, trilinear_constant=1.0, feedback_constant=8.0,
            schedule_constant=64.0, mode="certified",
        )
    # c2 = 7 >= 3 * c1, yet below the lam -> 0 limit 8 * c0 * c1^3 = 8
    q = derive_schedule_constant(1.0, 7.0)
    with pytest.raises(ValueError, match="feedback inequalities"):
        ConstantPack(
            spectral_constant=1.0, trilinear_constant=1.0, feedback_constant=7.0,
            schedule_constant=q, mode="certified",
        )
    # the same constants as a practical pack claim no inequality, and the
    # cost exponent is derived from q alone
    pack = ConstantPack(1.0, 1.0, 7.0, q)
    assert pack.mode == "practical"
    assert pack.cost_exponent == pack.schedule_constant**2 / 32.0


def test_certified_pack_from_unit_constants():
    pack = ConstantPack.certified(1.0, 1.0)
    assert pack.mode == "certified"
    assert pack.feedback_constant == pytest.approx(8.0, rel=1e-6)
    assert pack.cost_exponent == pack.schedule_constant**2 / 32.0


# ---------------------------------------------------------------------------
# per-threshold feedback data
# ---------------------------------------------------------------------------

def _unit_pack():
    """c1 = c0 = 1 and c2 = 8, with q = 64 below the certified chain's 64 * c2."""
    return ConstantPack(
        spectral_constant=1.0, trilinear_constant=1.0, feedback_constant=8.0,
        schedule_constant=64.0,
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


def test_trilinear_bracket_upper_matches_mpmath():
    """The upper end from 50-digit arithmetic on the same float tensor and
    eigenvalues: the weighted tensor, each unfolding times its transpose, and
    the root of the largest eigenvalue, least over the three unfoldings."""
    grid, _, _, basis = make_setup(8, 8, 6)
    tensor = build_trilinear_tensor(basis, grid)
    _, upper = trilinear_bracket(basis, tensor)
    with mpmath.workdps(50):
        quarter = np.array([mpmath.root(mpmath.mpf(float(t)), 4) for t in basis.eigenvalues], dtype=object)
        w = (np.vectorize(mpmath.mpf, otypes=[object])(tensor)
             / (quarter[:, None, None] * quarter[None, :, None] * quarter[None, None, :] ** 2))
        norms = []
        for axis in range(3):
            unfolding = np.moveaxis(w, axis, 0).reshape(basis.n_modes, -1)
            gram = mpmath.matrix((unfolding @ unfolding.T).tolist())
            norms.append(mpmath.sqrt(max(mpmath.eigsy(gram, eigvals_only=True))))
        ref = min(norms)
        assert abs(mpmath.mpf(upper) - ref) <= mpmath.mpf("1e-13") * ref


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_trilinear_constant_matches_the_triple_by_triple_oracle(square16, square32_wide, seed):
    """The oracle's ratio, one triple at a time, reaches the lower end at the
    single-mode triple of the largest |W_ijk| (within 1e-14 relative), and no
    seeded Gaussian triple exceeds the upper end, on the 16x16 M = 24 tensor,
    the 32x32 M = 64 tensor and a seeded random tensor."""
    random = np.random.default_rng(seed).standard_normal((24, 24, 24))
    for basis, tensor in ((square16["basis"], square16["tensor"]), (square32_wide["basis"], square32_wide["tensor"]),
                          (square16["basis"], random)):
        lower, upper = trilinear_bracket(basis, tensor)
        w = tensor * (basis.eigenvalues[:, None, None] * basis.eigenvalues[None, :, None]) ** -0.25 \
            / np.sqrt(basis.eigenvalues)
        unit = np.eye(basis.n_modes)
        i, j, k = np.unravel_index(np.abs(w).argmax(), w.shape)
        assert oracle.trilinear_ratio(basis, tensor, unit[i], unit[j], unit[k]) == pytest.approx(lower, rel=1e-14, abs=0.0)
        for samples in (100, 200):
            assert oracle.estimate_trilinear_constant(basis, tensor, samples=samples, seed=seed) <= upper


def test_trilinear_bracket_lower_is_the_largest_single_mode_ratio(square16):
    """The ratio of the triple (e_i, e_j, e_k), whose norms are 1 and whose
    gradient norms are sqrt(tau_i), sqrt(tau_j), sqrt(tau_k), is largest at
    the lower end."""
    basis, tensor = square16["basis"], square16["tensor"]
    g = np.sqrt(basis.eigenvalues)
    ratios = np.abs(tensor) / (np.sqrt(g[:, None, None] * g[None, :, None]) * g[None, None, :])
    lower, upper = trilinear_bracket(basis, tensor)
    assert lower == pytest.approx(ratios.max(), rel=1e-14, abs=0.0)
    assert lower < upper


@pytest.mark.parametrize("angle", [0.3, 1.0, 2.5])
def test_trilinear_bracket_upper_ignores_rotations_of_a_degenerate_pair(square16, angle):
    """Rotating the degenerate pair tau_2 = tau_3 in all three slots of the
    tensor moves the upper end by at most 1e-12 relative."""
    basis, tensor = square16["basis"], square16["tensor"]
    assert basis.eigenvalues[1] == basis.eigenvalues[2]
    q = np.eye(basis.n_modes)
    q[1:3, 1:3] = [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
    rotated = np.einsum("abc,ai,bj,ck->ijk", tensor, q, q, q)
    assert not np.allclose(rotated, tensor)
    _, upper = trilinear_bracket(basis, tensor)
    assert trilinear_bracket(basis, rotated)[1] == pytest.approx(upper, rel=1e-12, abs=0.0)


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
    pack = ConstantPack.certified(1.0, 1.0)  # q > 512 -> thresholds far beyond the basis
    with pytest.raises(BasisTooSmallError):
        build_schedule(1, pack, square32["basis"], 2)


@pytest.mark.parametrize(("make", "message"), [
    pytest.param(lambda: ConstantPack(1.0, 1.0, 8.0, 600.0, mode="exact"), "unknown constant mode 'exact'",
                 id="mode"),
    pytest.param(lambda: ConstantPack(1.0, 0.0, 8.0, 600.0), "trilinear_constant must be positive",
                 id="nonpositive-constant"),
    pytest.param(lambda: derive_feedback_constant(0.0, 1.0), "constants must be positive", id="feedback-c1"),
    pytest.param(lambda: derive_schedule_constant(1.0, -8.0), "constants must be positive", id="schedule-c2"),
    pytest.param(lambda: Schedule.dyadic(0, 600.0, 4), "n0 must be a positive integer", id="n0"),
    pytest.param(lambda: Schedule.dyadic(1, 600.0, -1), "n_max must be nonnegative", id="n_max"),
])
def test_constant_inputs_out_of_range_are_rejected(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def test_certified_schedule_on_a_basis_that_resolves_it_overflows_its_gains():
    """A basis whose tau_M lies above a certified schedule's thresholds (here
    a synthetic one) passes the basis check, and the gain c1 exp(c1 sqrt(lam))
    at lam >= q^2 4 >= 512^2 4 then overflows double precision; a certified
    run is verified in log space for the same reason and never stepped."""
    pack = ConstantPack.certified(1.0, 1.0)
    raw = Schedule.dyadic(1, pack.schedule_constant, 0).thresholds_raw
    basis = StokesBasis(np.array([1.0, 2.0 * raw[-1]]), None, None, None)
    with pytest.raises(OverflowError):
        build_schedule(1, pack, basis, 0)


def test_practical_schedule_needs_a_basis_with_two_distinct_eigenvalues(pack_schedule):
    """The clamp lies strictly below tau_M, so a basis whose eigenvalues are
    all tied at the top leaves nothing to clamp to."""
    basis = StokesBasis(np.full(3, 50.0), None, None, None)
    with pytest.raises(BasisTooSmallError, match="largest retained eigenvalue 50; retain more modes"):
        build_schedule(1, pack_schedule, basis, 2)


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

