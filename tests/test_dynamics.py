import math

import numpy as np
import pytest

from nsstab.constants import ConstantPack, FeedbackParams, build_schedule, feedback_params
from nsstab.dynamics import (
    ControlLaw,
    build_trilinear_tensor,
    raw_trilinear_tensor,
    simulate_batch,
)
from nsstab.errors import BlowUpError
from nsstab.experiments import random_low_mode_state

import oracle
from conftest import make_setup, uniform_plan
from oracle import (
    ModalFeedback,
    SpectralState,
    ZeroFeedback,
    energy_defect,
    final_state,
    inner_l2,
    lyapunov,
    reconstruct_field,
    rhs,
    simulate,
    step,
    truncated,
)

ZERO = ControlLaw()


def run_one(y0, law, t_start, t_end, dt, basis, tensor, gram, **kwargs):
    """One trajectory through the batched stepper."""
    return simulate_batch(np.asarray(y0)[None], law, uniform_plan(t_start, t_end - t_start, dt),
                          basis, tensor, gram, **kwargs).trajectory(0)


def test_tensor_skew_exact(square32):
    tensor = square32["tensor"]
    assert np.abs(tensor + tensor.transpose(0, 2, 1)).max() == 0.0
    diag = np.einsum("ijj->ij", tensor)
    assert np.abs(diag).max() == 0.0


def test_raw_tensor_residual_magnitude(square16):
    raw = raw_trilinear_tensor(truncated(square16["basis"], 8), square16["grid"])
    residual = np.abs(raw + raw.transpose(0, 2, 1)).max()
    assert 0.0 < residual < 1.0  # quadrature-scale, not structural


def test_raw_tensor_chunked_over_i_equals_one_shot_oracle_to_the_bit(square32):
    grid = square32["grid"]
    wide = make_setup(32, 32, 64)[3]
    for basis in (square32["basis"], wide):
        assert np.array_equal(raw_trilinear_tensor(basis, grid), oracle.raw_trilinear_tensor(basis, grid))


def test_rhs_zero_state():
    grid, _, _, basis = make_setup(8, 8, 6, omega=(0.1, 0.6, 0.1, 0.6))
    tensor = build_trilinear_tensor(basis, grid)
    from nsstab.spectral import assemble_gram

    gram = assemble_gram(basis, grid)
    out = rhs(np.zeros(6), np.zeros(6), basis, tensor, gram)
    assert np.all(out == 0.0)


def test_rhs_nonlinear_energy_neutral(square32):
    basis, tensor, gram = square32["basis"], square32["tensor"], square32["gram"]
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(basis.n_modes)
        quad = np.einsum("ijk,i,j->k", tensor, x, x)
        scale = np.abs(tensor).max() * np.linalg.norm(x) ** 3
        assert abs(float(x @ quad)) <= 1e-13 * scale


def test_rhs_single_mode_is_diagonal_decay(square32):
    basis, tensor, gram = square32["basis"], square32["tensor"], square32["gram"]
    x = np.zeros(basis.n_modes)
    x[0] = 0.7
    out = rhs(x, np.zeros_like(x), basis, tensor, gram)
    # the quadratic term at a single mode only involves T[0,0,k] = skew zero
    # contributions T[0,0,k]; those vanish for k=0, others may couple
    assert out[0] == pytest.approx(-basis.eigenvalues[0] * 0.7, rel=1e-14)


def test_rhs_closed_loop_jacobian_matches_structure(square32):
    basis, tensor, gram = square32["basis"], square32["tensor"], square32["gram"]
    pack = ConstantPack.practical(0.1, 1.0)
    lam = float(basis.eigenvalues[3])
    params = feedback_params(lam, pack, basis)
    n, m = params.n_active, basis.n_modes
    analytic = -np.diag(basis.eigenvalues) - params.gain * gram[:, :n] @ np.eye(n, m)
    eps = 2.0**-6
    jac = np.empty((m, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = eps
        fp = rhs(e, ModalFeedback(params).control(0.0, e), basis, tensor, gram)
        fm = rhs(-e, ModalFeedback(params).control(0.0, -e), basis, tensor, gram)
        jac[:, j] = (fp - fm) / (2.0 * eps)
    scale = np.abs(analytic).max()
    assert np.abs(jac - analytic)[:n, :n].max() <= 1e-12 * scale
    assert np.abs(jac - analytic).max() <= 1e-12 * scale


def test_step_pure_linear_is_exact(square32):
    basis, gram = square32["basis"], square32["gram"]
    tensor = np.zeros_like(square32["tensor"])
    rng = np.random.default_rng(1)
    x = rng.standard_normal(basis.n_modes)
    dt = 1e-3
    out = final_state(run_one(x, ZERO, 0.0, dt, dt, basis, tensor, gram))
    exact = np.exp(-basis.eigenvalues * dt) * x
    assert np.allclose(out, exact, rtol=1e-15, atol=0)


def test_step_zero_fixed_point(square32, pack_rapid):
    basis, tensor, gram = square32["basis"], square32["tensor"], square32["gram"]
    params = feedback_params(float(basis.eigenvalues[3]), pack_rapid, basis)
    out = final_state(run_one(np.zeros(basis.n_modes), ControlLaw.stationary(params), 0.0, 1e-4, 1e-4,
                  basis, tensor, gram))
    assert np.all(out == 0.0)


def test_step_matches_simulate_single_step(square32):
    basis, tensor, gram = square32["basis"], square32["tensor"], square32["gram"]
    rng = np.random.default_rng(2)
    x = 0.5 * rng.standard_normal(basis.n_modes)
    dt = 1e-4
    via_step = step(0.0, x, dt, ZeroFeedback(), basis, tensor, gram)
    traj = simulate(x, ZeroFeedback(), 0.0, dt, dt, basis, tensor, gram)
    assert np.array_equal(final_state(traj), via_step)


def test_integrator_global_order_two(square32):
    basis, tensor, gram = square32["basis"], square32["tensor"], square32["gram"]
    rng = np.random.default_rng(3)
    y0 = np.zeros(basis.n_modes)
    y0[:8] = rng.standard_normal(8)
    y0 *= 2.0 / np.linalg.norm(y0)
    horizon = 0.02
    ref = final_state(run_one(y0, ZERO, 0.0, horizon, horizon / 2048, basis, tensor, gram,
                  sample_stride=2048))
    errors = []
    for divisions in (32, 64, 128):
        end = final_state(run_one(y0, ZERO, 0.0, horizon, horizon / divisions, basis,
                      tensor, gram, sample_stride=divisions))
        errors.append(np.abs(end - ref).max())
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.2 <= coarse / fine <= 4.8


def test_periodic_law_with_switches_on_the_grid_is_second_order(square32, pack_schedule):
    """Every switch of a period-1/4 schedule with n_max = 4 is a multiple of
    T/32, so on these grids each step sees one law, and the norms at the
    switches converge at second order.  They are measured relative to each
    norm, since the state falls by orders of magnitude over the period and
    an error made at a late switch is small only in absolute terms: a
    predictor that takes the next interval's law gives orders near 1 here."""
    basis, tensor, gram = square32["basis"], square32["tensor"], square32["gram"]
    schedule = build_schedule(2, pack_schedule, basis, 4)
    law = ControlLaw.periodic(schedule)
    y0 = random_low_mode_state(basis.n_modes, 1e-3, seed=3)
    period = schedule.period
    switches = np.append(schedule.start_times, period)

    def norms(divisions):
        traj = run_one(y0, law, 0.0, period, period / divisions, basis, tensor, gram)
        return traj.norm_h[np.rint(switches / period * divisions).astype(int)]

    ref = norms(2**15)
    errors = np.array([np.max(np.abs(norms(divisions) - ref) / ref) for divisions in (512, 1024, 2048)])
    orders = np.log2(errors[:-1] / errors[1:])
    assert np.all((1.9 <= orders) & (orders <= 2.1)), orders


def test_simulate_zero_initial_state(square32, pack_rapid):
    basis, tensor, gram = square32["basis"], square32["tensor"], square32["gram"]
    params = feedback_params(float(basis.eigenvalues[3]), pack_rapid, basis)
    traj = run_one(np.zeros(basis.n_modes), ControlLaw.stationary(params), 0.0, 0.001, 1e-5,
                   basis, tensor, gram, sample_stride=10)
    assert np.all(traj.states == 0.0)
    assert np.all(traj.control_norm == 0.0)


def test_simulate_semigroup_property(square32):
    basis, tensor, gram = square32["basis"], square32["tensor"], square32["gram"]
    rng = np.random.default_rng(4)
    y0 = rng.standard_normal(basis.n_modes) * 0.3
    dt = 1e-4
    full = run_one(y0, ZERO, 0.0, 0.02, dt, basis, tensor, gram, sample_stride=100)
    first = run_one(y0, ZERO, 0.0, 0.01, dt, basis, tensor, gram, sample_stride=100)
    second = run_one(final_state(first), ZERO, 0.01, 0.02, dt, basis, tensor,
                     gram, sample_stride=100)
    assert np.abs(final_state(second) - final_state(full)).max() <= 1e-12


def test_free_decay_dominated_by_first_eigenvalue(square32):
    basis, tensor, gram = square32["basis"], square32["tensor"], square32["gram"]
    y0 = np.zeros(basis.n_modes)
    rng = np.random.default_rng(5)
    y0[:8] = rng.standard_normal(8)
    y0 *= 1e-2 / np.linalg.norm(y0)
    traj = run_one(y0, ZERO, 0.0, 0.05, 1e-4, basis, tensor, gram, sample_stride=10)
    bound = np.exp(-basis.eigenvalues[0] * traj.times) * traj.norm_h[0]
    assert np.all(traj.norm_h <= bound * (1.0 + 1e-9))


def test_energy_identity_with_control(square32, pack_rapid):
    # energy law holds along the integrator to O(dt^2) per unit time: the
    # defect shrinks by ~4 per dt halving and sits at the (gain*dt)^2 scale
    basis, tensor, gram = square32["basis"], square32["tensor"], square32["gram"]
    params = feedback_params(float(basis.eigenvalues[1]), pack_rapid, basis)
    y0 = np.zeros(basis.n_modes)
    rng = np.random.default_rng(6)
    y0[:8] = rng.standard_normal(8)
    y0 *= 1e-3 / np.linalg.norm(y0)
    defects = []
    for dt in (1e-5, 5e-6):
        traj = run_one(y0, ControlLaw.stationary(params), 0.0, 0.01, dt, basis, tensor, gram,
                       sample_stride=int(round(1e-4 / dt)))
        defects.append(np.abs(energy_defect(traj)).max())
        assert defects[-1] <= 0.05 * (params.gain * dt) ** 2 * traj.norm_h[0] ** 2
    assert 3.0 <= defects[0] / defects[1] <= 5.0


def test_blowup_guard_raises():
    grid, _, _, basis = make_setup(8, 8, 6, omega=(0.1, 0.6, 0.1, 0.6))
    tensor = build_trilinear_tensor(basis, grid)
    from nsstab.spectral import assemble_gram

    gram = assemble_gram(basis, grid)

    # a negative gain on every mode: the control starts at 1e9 per coefficient
    exploder = FeedbackParams(threshold=1.0, n_active=6, gain=-1e9, weight=1.0, cutoff_radius=0.5)
    with pytest.raises(BlowUpError) as info:
        run_one(np.ones(6), ControlLaw.stationary(exploder), 0.0, 1.0, 0.25, basis, tensor, gram)
    assert info.value.time > 0.0
    with pytest.raises(BlowUpError) as reference:
        simulate(np.ones(6), ModalFeedback(exploder), 0.0, 1.0, 0.25, basis, tensor, gram)
    assert info.value.time == reference.value.time
    assert info.value.max_abs == reference.value.max_abs


def test_lyapunov_weighting(square32, pack_rapid):
    basis = square32["basis"]
    rng = np.random.default_rng(7)
    x = rng.standard_normal(basis.n_modes)
    assert lyapunov(x) == pytest.approx(float(x @ x), rel=1e-15)
    params = feedback_params(float(basis.eigenvalues[3]), pack_rapid, basis)
    v = lyapunov(x, params)
    assert v >= float(x @ x)  # weight > 1 for this pack
    assert v <= params.weight * float(x @ x)  # V(y0) <= weight * ||y0||^2
    n = params.n_active
    expected = params.weight * float(x[:n] @ x[:n]) + float(x[n:] @ x[n:])
    assert v == pytest.approx(expected, rel=1e-15)


def test_parseval_between_coefficients_and_field(square32):
    basis, grid = square32["basis"], square32["grid"]
    rng = np.random.default_rng(8)
    x = rng.standard_normal(basis.n_modes)
    field = reconstruct_field(x, basis)
    assert math.sqrt(inner_l2(field, field, grid)) == pytest.approx(
        float(np.linalg.norm(x)), abs=1e-10 * np.linalg.norm(x)
    )


def test_simulate_validates_spans(square32):
    basis, tensor, gram = square32["basis"], square32["tensor"], square32["gram"]
    y0 = np.zeros(basis.n_modes)
    with pytest.raises(ValueError):  # 10 steps of 1e-3 miss the end 0.0105
        simulate_batch(y0[None], ZERO, ([0.0, 0.0105], [10], [1e-3]), basis, tensor, gram)
    with pytest.raises(ValueError):
        run_one(y0, ZERO, 0.0, 0.01, 1e-3, basis, tensor, gram, sample_stride=3)
    with pytest.raises(ValueError):
        simulate_batch(y0, ZERO, uniform_plan(0.0, 0.01, 1e-3), basis, tensor, gram)  # not a (B, M) batch


def test_spectral_state_wrapper(square32):
    basis, tensor, gram = square32["basis"], square32["tensor"], square32["gram"]
    rng = np.random.default_rng(9)
    state = SpectralState(0.0, rng.standard_normal(basis.n_modes) * 0.1)
    assert state.norm == pytest.approx(float(np.linalg.norm(state.coeffs)), rel=1e-15)
    advanced = state.advanced(1e-4, ZeroFeedback(), basis, tensor, gram)
    assert advanced.t == pytest.approx(1e-4)
    direct = step(0.0, state.coeffs, 1e-4, ZeroFeedback(), basis, tensor, gram)
    assert np.array_equal(advanced.coeffs, direct)
