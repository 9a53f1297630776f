import math
import re

import numpy as np
import pytest

from nsstab import dynamics
from nsstab.constants import ConstantPack, FeedbackParams, build_schedule, feedback_params
from nsstab.dynamics import (
    ControlLaw,
    build_trilinear_tensor,
    raw_trilinear_tensor,
    simulate_batch,
)
from nsstab.errors import BlowUpError
from nsstab.experiments import random_low_mode_state
from nsstab.spectral import StokesBasis, reflection_parities

import oracle
from conftest import cut_plans, make_setup, uniform_plan
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
    simulate_closed_loop,
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


@pytest.mark.parametrize("fixture", ["square32", "square32_wide"])
def test_class_tensor_matches_the_one_shot_oracle_inside_the_parity_pattern(fixture, request):
    """The tensor built by class pairs against the one-shot dense quadrature:
    entries whose three x-parities and three y-parities each multiply to -1
    within 1e-13 of the largest entry, every other entry exactly 0, where the
    dense quadrature leaves only rounding (below 1e-15 of the largest)."""
    basis = request.getfixturevalue(fixture)["basis"]
    grid = basis.grid
    raw, ref = raw_trilinear_tensor(basis, grid), oracle.raw_trilinear_tensor(basis, grid)
    sx, sy, _ = reflection_parities(basis.stream_functions)
    allowed = (np.einsum("i,j,k->ijk", sx, sx, sx) == -1) & (np.einsum("i,j,k->ijk", sy, sy, sy) == -1)
    scale = np.abs(ref).max()
    assert np.abs(raw - ref)[allowed].max() <= 1e-13 * scale
    assert np.all(raw[~allowed] == 0.0) and np.all(build_trilinear_tensor(basis, grid)[~allowed] == 0.0)
    assert np.abs(ref[~allowed]).max() <= 1e-15 * scale
    assert 0.24 <= allowed.mean() <= 0.26


def test_tensor_needs_modes_with_exact_parities(square16):
    basis = square16["basis"]
    mixed = basis.stream_functions.copy()
    mixed[[1, 2]] = (mixed[1] + mixed[2]) / np.sqrt(2.0), (mixed[1] - mixed[2]) / np.sqrt(2.0)
    rotated = StokesBasis.from_stream_functions(basis.eigenvalues, mixed, basis.grid)
    with pytest.raises(ValueError, match="parities"):
        raw_trilinear_tensor(rotated, basis.grid)


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
    traj = simulate(x, ZeroFeedback(), uniform_plan(0.0, dt, dt), basis, tensor, gram)
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
        plans = cut_plans(schedule, 0.0, period, period / divisions)
        traj = simulate_batch(y0[None], law, plans, basis, tensor, gram).trajectory(0)
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
    # the closed loop's linear part is in the exponential and its energy
    # integrals are the exact moments, so the defect is the explicit
    # convection's: it shrinks by ~4 per dt halving, and it sits at the scale
    # of (gain dt) (rate dt), one factor of gain now the convection's rate
    # 2 max|T| ||y0||; measured at about 1/25 of the bound below
    basis, tensor, gram = square32["basis"], square32["tensor"], square32["gram"]
    params = feedback_params(float(basis.eigenvalues[1]), pack_rapid, basis)
    y0 = np.zeros(basis.n_modes)
    rng = np.random.default_rng(6)
    y0[:8] = rng.standard_normal(8)
    y0 *= 1e-3 / np.linalg.norm(y0)
    rate = 2.0 * np.abs(tensor).max() * np.linalg.norm(y0)
    defects = []
    for dt in (1e-5, 5e-6):
        traj = run_one(y0, ControlLaw.stationary(params), 0.0, 0.01, dt, basis, tensor, gram,
                       sample_stride=int(round(1e-4 / dt)))
        defects.append(np.abs(energy_defect(traj)).max())
        assert defects[-1] <= 0.05 * (params.gain * dt) * (rate * dt) * traj.norm_h[0] ** 2
    assert 3.0 <= defects[0] / defects[1] <= 5.0
    # without the convection the step is the exact linear flow and its moments
    linear = run_one(y0, ControlLaw.stationary(params), 0.0, 0.01, 1e-5, basis, np.zeros_like(tensor), gram,
                     sample_stride=10)
    assert np.abs(energy_defect(linear)).max() <= 1e-12 * linear.norm_h[0] ** 2


def test_blowup_guard_raises():
    grid, _, _, basis = make_setup(8, 8, 6, omega=(0.1, 0.6, 0.1, 0.6))
    tensor = build_trilinear_tensor(basis, grid)
    from nsstab.spectral import assemble_gram

    gram = assemble_gram(basis, grid)

    # a negative gain on every mode: the closed loop grows by e^{0.25 (200 g - tau_1)},
    # g = 0.906 the Gram matrix's top eigenvalue, past the guard in the first step
    exploder = FeedbackParams(threshold=1.0, n_active=6, gain=-200.0, weight=1.0, cutoff_radius=0.5)
    with pytest.raises(BlowUpError) as info:
        run_one(np.ones(6), ControlLaw.stationary(exploder), 0.0, 1.0, 0.25, basis, tensor, gram)
    assert info.value.time == 0.25
    with pytest.raises(BlowUpError) as reference:
        simulate_closed_loop(np.ones(6), ModalFeedback(exploder), uniform_plan(0.0, 1.0, 0.25), basis, tensor, gram)
    assert info.value.time == reference.value.time
    assert info.value.max_abs == pytest.approx(reference.value.max_abs, rel=1e-13)
    # at a gain of -1e9 the step's exponential overflows, and the guard reports it
    exploder = FeedbackParams(threshold=1.0, n_active=6, gain=-1e9, weight=1.0, cutoff_radius=0.5)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as info:
        run_one(np.ones(6), ControlLaw.stationary(exploder), 0.0, 1.0, 0.25, basis, tensor, gram)
    assert info.value.time == 0.25


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


def closed_loop_generator(basis, gram, params):
    """L = -diag(tau) + G K of a stationary law's closed loop."""
    gain = np.zeros(basis.n_modes)
    gain[: params.n_active] = -params.gain
    return gram * gain - np.diag(basis.eigenvalues)


def test_expm_matches_scipy(square16, square32_wide, pack_rapid):
    """The numpy Pade-13 exponential against scipy.linalg.expm, within 1e-13
    of the largest entry: random matrices, the wide-modes simulate step h L
    (32x32, M = 64, lambda = tau_4, h = 2^-15), and a certified-gain step with
    ||h L||_1 near 2e3 (c1 = 1, lambda = tau_4, the default h = (16 / lambda) / 1024)."""
    import scipy.linalg

    def assert_close(a):
        reference = scipy.linalg.expm(a)
        assert np.abs(dynamics.expm(a) - reference).max() <= 1e-13 * np.abs(reference).max()

    rng = np.random.default_rng(12)
    for n, scale in ((1, 3.0), (5, 0.01), (12, 0.5), (24, 3.0), (64, 1.0), (64, 20.0)):
        assert_close(scale * rng.standard_normal((n, n)) / math.sqrt(n))
    wide = square32_wide["basis"]
    params = feedback_params(float(wide.eigenvalues[3]), pack_rapid, wide)
    assert_close(2.0**-15 * closed_loop_generator(wide, square32_wide["gram"], params))
    basis = square16["basis"]
    lam = float(basis.eigenvalues[3])
    certified = feedback_params(lam, ConstantPack.certified(1.0, 1.0), basis)
    step = (16.0 / lam) / 1024 * closed_loop_generator(basis, square16["gram"], certified)
    assert 1e3 <= np.abs(step).sum(axis=0).max() <= 4e3
    assert_close(step)


def test_closed_loop_scheme_converges_to_the_diagonal_oracle(square32, pack_rapid):
    """A stationary law stepped at dt = 1e-4, 7.3 times the old default
    0.25 / gain, against the diagonal integrating-factor oracle, which treats
    G K x explicitly, at dt = 1e-5, 5e-6 and 2.5e-6: the oracle's states
    converge to the closed-loop run at second order (measured ratios 4.06
    and 4.03), and their Richardson extrapolation from the two finest steps
    lies within 1e-6 relative of it (measured 8.4e-8; the finest oracle run
    alone errs by 7.8e-6)."""
    basis, tensor, gram = square32["basis"], square32["tensor"], square32["gram"]
    params = feedback_params(float(basis.eigenvalues[1]), pack_rapid, basis)
    y0 = np.zeros(basis.n_modes)
    y0[:8] = np.random.default_rng(6).standard_normal(8)
    y0 *= 1e-3 / np.linalg.norm(y0)  # where the convection moves the state
    closed = run_one(y0, ControlLaw.stationary(params), 0.0, 0.01, 1e-4, basis, tensor, gram, sample_stride=2)
    refs = [simulate(y0, ModalFeedback(params), uniform_plan(0.0, 0.01, dt), basis, tensor, gram,
                     sample_stride=int(round(2e-4 / dt))).states for dt in (1e-5, 5e-6, 2.5e-6)]

    def error(ref):
        return np.max(np.linalg.norm(closed.states - ref, axis=1) / np.linalg.norm(ref, axis=1))

    errors = [error(ref) for ref in refs]
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios
    assert error((4.0 * refs[2] - refs[1]) / 3.0) <= 1e-6


def built_tables(monkeypatch, basis, gram, laws, plans):
    """The closed-loop tables that simulate_batch builds for rows from zero
    with these laws and row plans, in the order it builds them."""
    made = []
    real_table = dynamics.ClosedLoopTable

    def table(**fields):
        made.append(real_table(**fields))
        return made[-1]

    m = basis.n_modes
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "ClosedLoopTable", table)
        simulate_batch(np.zeros((len(plans), m)), laws, plans, basis, np.zeros((m, m, m)), gram)
    return made


def one_step_pieces(steps):
    """The row plan whose pieces take one step each, of the sizes steps in order."""
    return np.concatenate([[0.0], np.cumsum(steps)]), np.ones(len(steps), dtype=int), np.array(steps)


def test_closed_loop_tables_match_the_dense_moments_in_any_order(square16, pack_schedule, monkeypatch):
    """The tables that simulate_batch builds for the clamped gain of a
    null-control schedule (16.2 on 22 active modes) at 2^-12 2^j, j = 5, 0
    and 3 in that order: bit for bit those of the steps in the order 0, 3,
    5 and those of a row of each step alone, and within 1e-13 of each
    table's largest entry those of scipy's expm and of the oracle's
    composite Gauss-Legendre moments.  L is the oracle's generator bit for
    bit."""
    import scipy.linalg

    basis, gram = square16["basis"], square16["gram"]
    tau = basis.eigenvalues
    params = build_schedule(1, pack_schedule, basis, 4).params[-1]
    law = ControlLaw.stationary(params)
    gain = law.tables(basis.n_modes)[0][0]
    lin = closed_loop_generator(basis, gram, params)
    assert np.array_equal(dynamics.closed_loop_matrix(tau, gram, gain), lin)
    k_matrix = np.diag(gain)
    h0 = 2.0**-12
    first = built_tables(monkeypatch, basis, gram, law, [one_step_pieces([h0 * 2**j for j in (5, 0, 3)])])
    again = built_tables(monkeypatch, basis, gram, law, [one_step_pieces([h0 * 2**j for j in (0, 3, 5)])])
    assert len(first) == len(again) == 3
    for table, earlier, j in zip(again, (first[1], first[2], first[0]), (0, 3, 5)):
        h = h0 * 2**j
        [alone] = built_tables(monkeypatch, basis, gram, law, [one_step_pieces([h])])
        for name in ("gain", "prop_t", "quad_x", "quad_r"):
            assert np.array_equal(getattr(table, name), getattr(earlier, name)), (j, name)
            assert np.array_equal(getattr(alone, name), getattr(earlier, name)), (j, name)
        w_diss, m_diss = oracle.dense_moments(lin, h, np.diag(tau))
        w_work, m_work = oracle.dense_moments(lin, h, 0.5 * (gram @ k_matrix + k_matrix @ gram))
        dense = {"prop_t": scipy.linalg.expm(h * lin).T, "quad_x": np.hstack([w_diss, w_work]),
                 "quad_r": 2.0 * np.hstack([m_diss, m_work])}
        for name, expected in dense.items():
            got = getattr(table, name)
            assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max(), (j, name)


def test_a_table_does_not_depend_on_its_companion_rows(square16, pack_rapid, pack_schedule, monkeypatch):
    """The table of one (gain, step) built for a row alone, and built in a
    batch whose other rows come first and take the same gain at a 64th of
    the step, below the step's own sub-step, and another gain at the step:
    bit for bit the same."""
    basis, gram = square16["basis"], square16["gram"]
    law = ControlLaw.stationary(build_schedule(1, pack_schedule, basis, 4).params[-1])
    other = ControlLaw.stationary(feedback_params(float(basis.eigenvalues[1]), pack_rapid, basis))
    h = 2.0**-8
    [alone] = built_tables(monkeypatch, basis, gram, law, [uniform_plan(0.0, 4 * h, h)])
    batch = built_tables(monkeypatch, basis, gram, [law, other, law],
                         uniform_plan(0.0, np.array([h / 16, 4 * h, 4 * h]), np.array([h / 64, h, h])))
    assert len(batch) == 3 and batch[-1] is not alone
    for name in ("gain", "prop_t", "quad_x", "quad_r"):
        assert np.array_equal(getattr(batch[-1], name), getattr(alone, name)), name
    assert not np.array_equal(batch[0].quad_x, alone.quad_x)


def test_closed_loop_moments_of_any_symmetric_q_match_the_dense_moments(square16, pack_rapid):
    """The moments take any symmetric Q, here the control energy c^T G c of
    the stationary law at lambda = tau_2 (gain 2.0e4 on 3 modes),
    Q = diag(gain) G diag(gain).  At 2^-10, where ||h L||_1 is 13, the
    sub-step is 2^-14; the moments at both steps lie within 1e-13 of the
    largest entry of the oracle's composite Gauss-Legendre moments."""
    basis, gram = square16["basis"], square16["gram"]
    params = feedback_params(float(basis.eigenvalues[1]), pack_rapid, basis)
    gain = ControlLaw.stationary(params).tables(basis.n_modes)[0][0]
    lin = dynamics.closed_loop_matrix(basis.eigenvalues, gram, gain)
    energy = gain[:, None] * gram * gain
    assert 8.0 < np.abs(2.0**-10 * lin).sum(axis=0).max() <= 16.0
    for h in (2.0**-14, 2.0**-10):
        [got] = dynamics.closed_loop_moments(lin, (energy,), h)
        for moment, expected in zip(got, oracle.dense_moments(lin, h, energy)):
            assert np.abs(moment - expected).max() <= 1e-13 * np.abs(expected).max(), h


@pytest.mark.parametrize("h, stiff", [(2.0**-10, True), (2.0**-17, False)])
def test_sub_step_flows_match_the_pade_exponential(square32, pack_rapid, h, stiff):
    """The Taylor flows at the 12 Gauss nodes of the sub-step and at its end,
    for the stationary law of the acceptance-4 pack at lambda = tau_4 on 32x32
    with M = 24: within 1e-14 of the largest entry of expm(s L), both at a
    stiff step (2^-10, which halves at least 6 times) and at a soft one
    (2^-17, the step itself)."""
    basis, gram = square32["basis"], square32["gram"]
    gain = ControlLaw.stationary(feedback_params(float(basis.eigenvalues[3]), pack_rapid, basis)).tables(
        basis.n_modes)[0][0]
    lin = dynamics.closed_loop_matrix(basis.eigenvalues, gram, gain)
    norm = float(np.abs(h * lin).sum(axis=0).max())
    halvings = max(0, math.ceil(math.log2(norm))) if norm > 1.0 else 0
    assert halvings >= 6 if stiff else halvings == 0
    sub = h / 2.0**halvings
    flows = dynamics._sub_step_flows(sub * lin)
    fractions = np.append(0.5 * (dynamics._GAUSS_NODES + 1.0), 1.0)
    assert flows.shape == (13, basis.n_modes, basis.n_modes)
    for flow, fraction in zip(flows, fractions):
        expected = dynamics.expm(fraction * sub * lin)
        assert np.abs(flow - expected).max() <= 1e-14 * np.abs(expected).max(), fraction


def test_gauss_rule_is_the_twelve_point_legendre_rule():
    """The moment rule's nodes and half weights: within 2 ulps of a fresh
    Golub-Welsch eigensolve, and the rule integrates x^k over [-1, 1]
    exactly up to k = 23, to rounding."""
    k = np.arange(1.0, 12)
    roots, vectors = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), 1), UPLO="U")
    assert np.all(np.abs(dynamics._GAUSS_NODES - roots) <= 2 * np.spacing(np.abs(roots)))
    assert np.allclose(dynamics._GAUSS_HALF_WEIGHTS, vectors[0] ** 2, rtol=1e-14, atol=0.0)
    for power in range(24):
        exact = 0.0 if power % 2 else 1.0 / (power + 1)  # half the integral over [-1, 1]
        assert abs(dynamics._GAUSS_HALF_WEIGHTS @ dynamics._GAUSS_NODES**power - exact) <= 1e-15, power


def _radius_params(radius):
    return FeedbackParams(threshold=1.0, n_active=2, gain=1.0, weight=1.0, cutoff_radius=radius)


@pytest.mark.parametrize(("make", "message"), [
    pytest.param(lambda s: dynamics.packed_convection(s["tensor"], 2)(np.zeros((3, 24))),
                 "expected a (2, 24) batch, got (3, 24)", id="convection-batch-shape"),
    pytest.param(lambda s: dynamics.expm(np.array([[0.0, np.nan], [0.0, 0.0]])),
                 "matrix exponential of a matrix with non-finite entries", id="expm-nan"),
    pytest.param(lambda s: dynamics.expm(np.array([[np.inf]])),
                 "matrix exponential of a matrix with non-finite entries", id="expm-inf"),
    pytest.param(lambda s: ControlLaw.stationary(_radius_params(0.6), cutoff=True),
                 "radius must lie in (0, 1/2]", id="cutoff-radius-above"),
    pytest.param(lambda s: ControlLaw.stationary(_radius_params(0.0), cutoff=True),
                 "radius must lie in (0, 1/2]", id="cutoff-radius-zero"),
    pytest.param(lambda s: simulate_batch(np.zeros((1, 24)), ZERO, uniform_plan(0.0, 0.01, 1e-3), s["basis"],
                                          s["tensor"], s["gram"], sample_stride=0),
                 "sample_stride must be >= 1", id="sample-stride"),
])
def test_dynamics_inputs_out_of_range_are_rejected(square16, make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make(square16)
