import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsstab import experiments
from nsstab.constants import ConstantPack, FeedbackParams, Schedule, build_schedule
from nsstab.dynamics import ControlLaw, simulate_batch, step_times
from nsstab.errors import BlowUpError, BoundViolatedError
from nsstab.experiments import (
    fit_cost_curve,
    random_low_mode_state,
    run_null_control,
    run_rapid_stab,
    run_small_time,
)

from conftest import uniform_plan


@pytest.fixture(scope="module")
def small_setup(square16, pack_schedule):
    s = dict(square16)
    s["pack"] = pack_schedule
    return s


def test_random_state_is_low_mode_and_normalized():
    x = random_low_mode_state(24, 0.5, seed=3)
    assert np.linalg.norm(x) == pytest.approx(0.5, rel=1e-12)
    assert np.all(x[8:] == 0.0)
    assert np.array_equal(x, random_low_mode_state(24, 0.5, seed=3))
    assert np.all(random_low_mode_state(24, 0.0, seed=3) == 0.0)


def test_rapid_stab_zero_state_flagged(square16, pack_schedule):
    report = run_rapid_stab(
        square16["basis"], square16["tensor"], square16["gram"], pack_schedule,
        float(square16["basis"].eigenvalues[3]), y0_scale=0.0, seed=0,
    )
    assert report.trivial
    assert math.isnan(report.rate_lyapunov) and math.isnan(report.rate_norm)


def test_rapid_stab_cutoff_comparison(square16, pack_rapid):
    basis = square16["basis"]
    report = run_rapid_stab(
        basis, square16["tensor"], square16["gram"], pack_rapid,
        float(basis.eigenvalues[3]), y0_scale=0.5, cutoff=True, seed=1,
    )
    assert report.control_stayed_below_radius
    assert report.cutoff_matches_linear
    assert report.basin == report.params.cutoff_radius**2


def test_null_control_zero_state(small_setup):
    report = run_null_control(
        small_setup["basis"], small_setup["tensor"], small_setup["gram"],
        small_setup["pack"], [1], y0_norm=0.0, n_max=4, seed=0,
    )[0]
    assert report.cost == 0.0
    assert report.null_reached and report.latch_time == 0.0
    assert report.final_relative_norm == 0.0


def test_null_control_requires_norm_in_practical_mode(small_setup):
    with pytest.raises(ValueError, match="practical"):
        run_null_control(
            small_setup["basis"], small_setup["tensor"], small_setup["gram"],
            small_setup["pack"], [1], n_max=4,
        )


def test_null_control_sampling_covers_intervals(small_setup):
    report = run_null_control(
        small_setup["basis"], small_setup["tensor"], small_setup["gram"],
        small_setup["pack"], [1], y0_norm=1e-3, n_max=4, seed=2,
    )[0]
    sched = report.schedule
    # the steps of each piece, counted on the run's own sample times
    counts = np.diff(np.searchsorted(report.trajectory.times, report.interval_times))
    assert counts.sum() == len(report.trajectory.times) - 1
    assert np.all(counts >= 64)
    assert np.array_equal(report.trajectory.times[np.cumsum(np.append(0, counts))], report.interval_times)
    assert len(report.interval_norms) == sched.n_max + 3


def test_null_control_restart_reproduces_tail(small_setup):
    basis, tensor, gram = small_setup["basis"], small_setup["tensor"], small_setup["gram"]
    pack = small_setup["pack"]
    sched = build_schedule(1, pack, basis, 4)
    dt = 2.0**-11
    y0 = random_low_mode_state(basis.n_modes, 1e-3, seed=4)
    law = ControlLaw.periodic(sched)
    full = simulate_batch(y0[None], law, uniform_plan(0.0, sched.period, dt), basis, tensor, gram).trajectory(0)
    t1 = float(sched.start_times[1])
    idx = int(round(t1 / dt))
    resumed = simulate_batch(full.states[idx][None], law, uniform_plan(t1, sched.period - t1, dt),
                             basis, tensor, gram).trajectory(0)
    assert np.abs(resumed.states - full.states[idx:]).max() <= 1e-10


# the default grid gives every horizon 64 steps per schedule piece, (n_max + 2) * 64
# in all, and one batch; one shared dt gives each horizon its own step count
@pytest.mark.parametrize(("dt", "batch_rows_expected", "steps"), [(None, [3], [6 * 64] * 3),
                                                                  (2.0**-10, [1, 1, 1], [512, 256, 128])],
                         ids=["default-dt", "shared-dt"])
def test_null_control_horizons_match_single_runs(small_setup, monkeypatch, dt, batch_rows_expected, steps):
    basis, tensor, gram, pack = (small_setup[k] for k in ("basis", "tensor", "gram", "pack"))
    singles = [run_null_control(basis, tensor, gram, pack, [n0], y0_norm=1e-3, n_max=4, dt=dt, seed=2)[0]
               for n0 in (1, 2, 3)]
    batch_rows = []
    real = experiments.simulate_batch

    def counted(y0, *args, **kwargs):
        batch_rows.append(len(y0))
        return real(y0, *args, **kwargs)

    monkeypatch.setattr(experiments, "simulate_batch", counted)
    reports = run_null_control(basis, tensor, gram, pack, [1, 2, 3], y0_norm=1e-3, n_max=4, dt=dt, seed=2)
    assert batch_rows == batch_rows_expected
    for batched, single, n_steps in zip(reports, singles, steps):
        assert batched.n0 == single.n0 and batched.dt == single.dt
        for name in ("interval_norms", "interval_control_sup"):
            expected = getattr(single, name)
            np.testing.assert_allclose(getattr(batched, name), expected, rtol=1e-13,
                                       atol=1e-13 * np.abs(expected).max(), err_msg=f"n0={single.n0} {name}")
        assert batched.cost == pytest.approx(single.cost, rel=1e-13)
        assert batched.null_reached == single.null_reached
        assert batched.latch_time == single.latch_time
        assert batched.health["steps"] == single.health["steps"] == n_steps
        assert batched.health["max_energy_defect"] == pytest.approx(single.health["max_energy_defect"], rel=1e-6,
                                                                    abs=1e-20)
    assert reports[0].null_reached


def test_null_control_cost_is_the_first_gain_times_the_active_part(small_setup, monkeypatch):
    """The cost is the largest control norm, which every run takes at t = 0:
    interval 0's gain times the norm of y0 on its active modes."""
    basis, tensor, gram, pack = (small_setup[k] for k in ("basis", "tensor", "gram", "pack"))
    reports = run_null_control(basis, tensor, gram, pack, [1, 2, 3], y0_norm=1e-3, n_max=4, seed=2)
    y0 = random_low_mode_state(basis.n_modes, 1e-3, seed=2)
    for report in reports:
        first = report.schedule.params[0]
        assert report.cost == pytest.approx(first.gain * np.linalg.norm(y0[: first.n_active]), rel=1e-12)
    # a start inside the active modes: the cost is the gain times its norm, exactly
    monkeypatch.setattr(experiments, "random_low_mode_state", lambda m, norm, seed: norm * np.eye(m)[0])
    for report in run_null_control(basis, tensor, gram, pack, [1, 2, 3], y0_norm=1e-3, n_max=4, seed=2):
        assert report.cost == report.schedule.params[0].gain * 1e-3


def test_default_piece_grid_matches_a_fine_uniform_run(square32, pack_schedule):
    """At 32x32, M = 24, with the acceptance-8 pack and no latch, the interval
    norms of the default grid (64 steps per piece) are within 1e-4 relative of
    a uniform run 2**(n_max + 8) steps fine, for each horizon."""
    basis, tensor, gram = square32["basis"], square32["tensor"], square32["gram"]
    reports = run_null_control(basis, tensor, gram, pack_schedule, [1, 2, 3], y0_norm=1e-3, n_max=8,
                               eps_zero=0.0, seed=5)
    assert [r.health["steps"] for r in reports] == [10 * 64] * 3
    fine_dt = np.array([2.0 ** -(r.n0 + 8 + 8) for r in reports])
    stride = 128  # samples every T/512, which holds every schedule time
    y0 = np.array([random_low_mode_state(basis.n_modes, 1e-3, seed=5)] * 3)
    fine = simulate_batch(y0, [ControlLaw.periodic(r.schedule) for r in reports],
                          uniform_plan(0.0, [r.period for r in reports], fine_dt), basis, tensor, gram,
                          sample_stride=stride)
    for row, report in enumerate(reports):
        idx = np.rint(report.interval_times / (stride * fine_dt[row])).astype(int)
        assert np.array_equal(fine.times[idx, row], report.interval_times)
        expected = fine.norm_h[idx, row]
        error = np.abs(report.interval_norms - expected) / expected
        assert error.max() <= 1e-4, (report.n0, error.max())


def test_null_control_blowup_names_its_run(small_setup):
    basis, tensor, gram, pack = (small_setup[k] for k in ("basis", "tensor", "gram", "pack"))
    # at this norm the closed loop of T = 1/2 runs away but that of T = 1/8
    # does not, so only the second row of the batch trips the guard
    [alone] = run_null_control(basis, tensor, gram, pack, [3], y0_norm=200.0, n_max=4)
    assert alone.final_relative_norm < 1.0
    with pytest.raises(BlowUpError, match=r"in the run n0=1 \(T=0\.5\) at t=") as info:
        run_null_control(basis, tensor, gram, pack, [3, 1], y0_norm=200.0, n_max=4)
    assert info.value.row == 1
    with pytest.raises(BlowUpError) as single:
        run_null_control(basis, tensor, gram, pack, [1], y0_norm=200.0, n_max=4)
    assert single.value.time == info.value.time


def test_null_control_cutoff_respects_feedback_norm_constraint(small_setup):
    report = run_null_control(
        small_setup["basis"], small_setup["tensor"], small_setup["gram"],
        small_setup["pack"], [1], y0_norm=1e-3, n_max=4, cutoff=True, seed=5,
    )[0]
    traj = report.trajectory
    limit = np.minimum(1.0, np.sqrt(2.0 * traj.norm_h))
    assert np.all(traj.control_norm <= limit + 1e-12)


def test_null_control_certified_arithmetic_path(square16):
    pack = ConstantPack.certified(1.0, 1.0)
    for cutoff in (False, True):
        report = run_null_control(
            square16["basis"], square16["tensor"], square16["gram"], pack, [1],
            n_max=6, cutoff=cutoff,
        )[0]
        assert report.basin_below_precision
        assert report.trajectory is None
        assert report.state_bound_ok is not None and report.state_bound_ok.all()
        assert math.isnan(report.cost)
    # the cutoff basin is the square of the linear one (in logs: doubled)
    linear = run_null_control(square16["basis"], square16["tensor"], square16["gram"],
                              pack, [1], n_max=6)[0]
    squared = run_null_control(square16["basis"], square16["tensor"], square16["gram"],
                               pack, [1], n_max=6, cutoff=True)[0]
    assert squared.log_basin == pytest.approx(2.0 * linear.log_basin, rel=1e-14)


def certified_pack(q: float) -> ConstantPack:
    """A certified pack with a small schedule constant, so its basin exp(-c3/T) is representable."""
    return ConstantPack(spectral_constant=1.0, trilinear_constant=1.0, feedback_constant=3.0,
                        schedule_constant=q, cost_exponent=q * q / 32.0, mode="certified")


def doctored_schedule(n0: int, q: float, gains, n_active: int) -> Schedule:
    """The dyadic times of period 2**-n0 with one given gain per interval."""
    dyadic = Schedule.dyadic(n0, q, len(gains) - 1)
    params = tuple(FeedbackParams(threshold=float(t), n_active=n_active, gain=gain, weight=1.0, cutoff_radius=0.5)
                   for t, gain in zip(dyadic.thresholds, gains))
    return replace(dyadic, params=params)


@pytest.mark.parametrize("q, n0, gains, interval, kind", [
    # no feedback: the state decays only viscously, far slower than the
    # envelope exp(-(7 q^2/64) 2^n0 (2^n - 1)) = exp(-56) at interval 1
    (16.0, 1, (0.0, 0.0, 0.0), 1, "interval norm"),
    # every norm bound holds with room, but a gain of 100 on interval 1 makes
    # its control exceed the control envelope exp(-(5 q^2/64) 2^n0)
    (0.5, 4, (0.0, 100.0, 0.0), 1, "interval control"),
])
def test_certified_run_raises_on_a_violated_interval_bound(square16, monkeypatch, q, n0, gains, interval, kind):
    basis, tensor, gram = square16["basis"], square16["tensor"], square16["gram"]
    pack = certified_pack(q)
    schedule = doctored_schedule(n0, q, gains, basis.n_modes)
    # a certified schedule's raw thresholds q^2 4^(n0+n) would overrun a
    # 24-mode basis; the run takes the doctored one instead
    monkeypatch.setattr(experiments, "build_schedule", lambda *args: schedule)
    with pytest.raises(BoundViolatedError) as caught:
        run_null_control(basis, tensor, gram, pack, [n0], n_max=len(gains) - 1, seed=1)
    error = caught.value
    assert (error.interval, error.bound_name) == (interval, kind)
    y0_norm = math.exp(-pack.cost_exponent * 2.0**n0)
    if kind == "interval norm":
        envelope = -(7.0 * q * q / 64.0) * 2.0**n0 * (2.0**interval - 1.0)
    else:
        envelope = -(5.0 * q * q / 64.0) * 2.0 ** (n0 + interval - 1)
    assert error.bound == pytest.approx(y0_norm * math.exp(envelope), rel=1e-12)
    assert error.measured > error.bound


def test_latched_feedback_shuts_off(small_setup):
    basis, tensor, gram = small_setup["basis"], small_setup["tensor"], small_setup["gram"]
    sched = build_schedule(1, small_setup["pack"], basis, 4)
    y0 = random_low_mode_state(basis.n_modes, 1e-3, seed=6)
    run = simulate_batch(y0[None], ControlLaw.periodic(sched), uniform_plan(0.0, sched.period, 2.0**-11),
                         basis, tensor, gram, latch_norm=0.5e-3)
    traj = run.trajectory(0)
    latch_time = run.latch_time[0]
    assert not np.isnan(latch_time)
    after = traj.times >= latch_time
    assert np.all(traj.control_norm[after] == 0.0)


def test_small_time_probe(small_setup):
    period = 0.5
    probe = run_small_time(
        small_setup["basis"], small_setup["tensor"], small_setup["gram"],
        small_setup["pack"], 1, 1e-3, [0.0, period / 3.0], n_max=4, seed=7,
    )
    assert probe.two_period_ok
    assert probe.feedback_bound_ok
    assert np.all(np.diff(probe.delta_table) >= 0.0)
    assert len(probe.trajectories) == 2


#: offsets, as fractions of T, of the piece-grid tests: the three of acceptance 8 and one seeded random one
GRID_OFFSETS = (0.0, 1.0 / 3.0, 0.9, float(np.random.default_rng(12).uniform(-1.0, 2.0)))


@pytest.fixture(scope="module")
def piece_grid_probe(small_setup):
    """A three-period probe on the default piece grid, n0 = 1, n_max = 4."""
    period = 0.5
    return run_small_time(small_setup["basis"], small_setup["tensor"], small_setup["gram"], small_setup["pack"],
                          1, 1e-3, [f * period for f in GRID_OFFSETS], periods=3, n_max=4,
                          eta_grid=np.array([]), seed=7)


def test_small_time_rows_take_the_same_steps_in_every_period(piece_grid_probe):
    probe = piece_grid_probe
    counts = [np.diff(np.searchsorted(traj.times, s + np.arange(4) * probe.period))
              for s, traj in zip(probe.offsets, probe.trajectories)]
    # 6 pieces of 64 steps, plus one for the piece an offset splits
    assert np.array_equal(counts, np.full((len(GRID_OFFSETS), 3), 6 * 64 + 1))
    assert probe.dt == 3 * probe.period / (3 * (6 * 64 + 1))


def test_small_time_grid_steps_on_every_switch_and_period_start(piece_grid_probe):
    probe = piece_grid_probe
    period, starts = probe.period, probe.schedule.start_times
    for s, traj in zip(probe.offsets, probe.trajectories):
        m = np.arange(math.floor(s / period), math.floor(s / period) + 4)
        switches = (m[:, None] * period + starts).ravel()
        cuts = np.append(switches[(switches >= s) & (switches <= s + 3 * period)], s + np.arange(4) * period)
        assert np.isin(cuts, traj.times).all(), s
        assert traj.times[0] == s and traj.times[-1] == s + 3 * period


def test_small_time_steps_stay_within_their_interval_dt(piece_grid_probe):
    probe = piece_grid_probe
    limit = experiments._interval_dt(probe.schedule)
    for s, traj in zip(probe.offsets, probe.trajectories):
        cuts, counts, sizes = experiments._row_plan(probe.schedule, limit, s, 3, 6 * 64 + 1)
        assert np.all(np.repeat(sizes, counts) <= limit[traj.interval[:-1]]), s
        assert np.isin(cuts, traj.times).all()
        assert np.all(np.diff(traj.times) <= limit[traj.interval[:-1]] * (1 + 1e-12)), s


def test_small_time_two_period_index_lands_on_two_periods(piece_grid_probe):
    probe = piece_grid_probe
    index = round(2 * probe.period / probe.dt)
    for s, traj, residual in zip(probe.offsets, probe.trajectories, probe.two_period_residuals):
        assert traj.times[index] == s + 2 * probe.period
        assert residual == traj.norm_h[index] / 1e-3


@settings(max_examples=60, deadline=None)
@given(start=st.floats(-3.0, 3.0, allow_nan=False), periods=st.integers(1, 3), n0=st.integers(1, 3))
def test_row_plan_cuts_every_switch_and_evens_its_periods(small_setup, start, periods, n0):
    """For any start: the steps run from start to start + periods T through
    every schedule switch and every start + j T exactly, no step exceeds its
    interval's dt, and each period, evened to one step more than the
    longest natural period can need, takes exactly that many."""
    schedule = build_schedule(n0, small_setup["pack"], small_setup["basis"], 4)
    period, limit = schedule.period, experiments._interval_dt(schedule)
    per_period = round(period / limit[:-1].min()) + 12  # more than any natural period, whatever the start
    cuts, counts, sizes = experiments._row_plan(schedule, limit, start, periods, per_period)
    times = step_times([(cuts, counts, sizes)])[0][:, 0]
    marks = start + np.arange(periods + 1) * period
    assert np.array_equal(np.diff(np.searchsorted(times, marks)), np.full(periods, per_period))
    m = np.arange(math.floor(start / period), math.floor(start / period) + periods + 2)
    switches = (m[:, None] * period + schedule.start_times).ravel()
    cuts = np.append(switches[(switches >= start) & (switches <= marks[-1])], marks)
    assert np.isin(cuts, times).all()
    assert np.all(np.repeat(sizes, counts) <= limit[ControlLaw.periodic(schedule).segment_at(times[:-1])])


def test_small_time_configured_dt_caps_every_piece(small_setup):
    """A configured dt caps each piece of the piece grid: every switch and
    every s + j T is still a step time, and no step exceeds dt."""
    dt = 2.0**-10
    probe = run_small_time(small_setup["basis"], small_setup["tensor"], small_setup["gram"], small_setup["pack"],
                           1, 1e-3, [0.0, 0.5 / 3.0], n_max=4, eta_grid=np.array([]), dt=dt, seed=7)
    period, starts = probe.period, probe.schedule.start_times
    for s, traj in zip(probe.offsets, probe.trajectories):
        switches = (np.arange(3)[:, None] * period + starts).ravel()
        cuts = np.append(switches[(switches >= s) & (switches <= s + 2 * period)], s + np.arange(3) * period)
        assert np.isin(cuts, traj.times).all(), s
        assert np.all(np.diff(traj.times) <= dt), s
    # the offset T/3 splits interval 0, which takes one step more than its 256
    assert probe.dt == period / (512 + 1)


def test_small_time_piece_grid_is_second_order(small_setup):
    """Halving every piece's cap cuts the error of the norms at s + T by four
    on the piece grid, from each of acceptance 8's offsets, with the cutoff
    law (orders measured from 1.84 to 2.13 against 2**-6 of the caps)."""
    basis, tensor, gram = small_setup["basis"], small_setup["tensor"], small_setup["gram"]
    schedule = build_schedule(1, small_setup["pack"], basis, 4)
    period = schedule.period
    offsets = np.array([0.0, period / 3.0, 0.9 * period])
    y0 = np.tile(random_low_mode_state(basis.n_modes, 1e-3, seed=7), (3, 1))

    def end_norms(k):
        caps = experiments._interval_dt(schedule) / 2**k
        per_period = max(experiments._row_plan(schedule, caps, s)[1].sum() for s in offsets)
        plans = [experiments._row_plan(schedule, caps, s, 1, per_period) for s in offsets]
        run = simulate_batch(y0, ControlLaw.periodic(schedule, cutoff=True), plans, basis, tensor, gram)
        assert np.array_equal(run.times[-1], offsets + period)
        return run.norm_h[-1]

    ref = end_norms(6)
    errors = np.array([np.abs(end_norms(k) / ref - 1.0) for k in range(4)])
    orders = np.log2(errors[:-1] / errors[1:])
    assert np.all((1.7 <= orders) & (orders <= 2.3)), orders


def test_small_time_piece_grid_matches_a_fine_uniform_run(square32, pack_schedule):
    """At 32x32, M = 24, with the acceptance-8 pack (n_max = 8, 641 steps per
    period), the norms over the first period are within 1e-3 relative of a
    uniform run of dt = 2**-16, interpolated log-linearly at the piece grid's
    times.  Measured: 1.4e-4 (seed 7, offset T/3); a 2**-18 reference gives
    the same 1.4e-4 and differs from the 2**-16 one by at most 7.7e-6, at four
    times the cost."""
    basis, tensor, gram = square32["basis"], square32["tensor"], square32["gram"]
    period = 0.5
    offsets = np.array([0.0, period / 3.0, 0.9 * period])
    probe = run_small_time(basis, tensor, gram, pack_schedule, 1, 1e-3, offsets, eps_zero=1e-8,
                           eta_grid=np.array([]), seed=7)
    assert probe.health["steps"] == 3 * 2 * 641
    y0 = np.array([random_low_mode_state(basis.n_modes, 1e-3, seed=7)] * 3)
    fine = simulate_batch(y0, ControlLaw.periodic(probe.schedule, cutoff=True), uniform_plan(offsets, period, 2.0**-16),
                          basis, tensor, gram, sample_stride=16)
    for row, traj in enumerate(probe.trajectories):
        first = traj.times <= offsets[row] + period
        expected = np.exp(np.interp(traj.times[first], fine.times[:, row], np.log(fine.norm_h[:, row])))
        error = np.abs(traj.norm_h[first] / expected - 1.0).max()
        assert error <= 1e-3, (offsets[row], error)


def test_small_time_zero_state_stays_zero(small_setup):
    probe = run_small_time(
        small_setup["basis"], small_setup["tensor"], small_setup["gram"],
        small_setup["pack"], 1, 0.0, [0.0], n_max=4, eta_grid=np.array([]), seed=0,
    )
    assert probe.two_period_ok
    assert np.all(probe.trajectories[0].states == 0.0)


def test_rapid_stab_bound_check_is_scale_covariant(square16, pack_rapid):
    # both sides of the pointwise envelope scale linearly in the initial
    # norm, so shrinking the start inside the basin never flips the verdict
    basis = square16["basis"]
    lam = float(basis.eigenvalues[3])
    for scale in (0.5, 0.05):
        report = run_rapid_stab(
            basis, square16["tensor"], square16["gram"], pack_rapid,
            lam, y0_scale=scale, seed=1,
        )
        assert report.state_bound_ok and report.control_bound_ok


def test_small_time_rejects_single_period(small_setup):
    with pytest.raises(ValueError):
        run_small_time(
            small_setup["basis"], small_setup["tensor"], small_setup["gram"],
            small_setup["pack"], 1, 1e-3, [0.0], periods=1, n_max=4,
        )


def test_small_time_rejects_no_offsets(small_setup):
    with pytest.raises(ValueError, match="at least one start offset"):
        run_small_time(small_setup["basis"], small_setup["tensor"], small_setup["gram"], small_setup["pack"],
                       1, 1e-3, [], n_max=4)


def test_fit_cost_curve_trivial_oracles():
    def fake(period, cost):
        return SimpleNamespace(period=period, cost=cost, y0_norm=1.0)

    constant = [fake(0.5, 2.0), fake(0.25, 2.0), fake(0.125, 2.0)]
    slope, intercept = fit_cost_curve(constant)
    assert slope == pytest.approx(0.0, abs=1e-12)
    assert intercept == pytest.approx(math.log(2.0), rel=1e-12)

    a = 0.7
    synthetic = [fake(T, math.exp(a / T)) for T in (0.5, 0.25, 0.125)]
    slope, intercept = fit_cost_curve(synthetic)
    assert slope == pytest.approx(a, abs=1e-10)
    assert intercept == pytest.approx(0.0, abs=1e-10)

    with pytest.raises(ValueError):
        fit_cost_curve(constant[:2])
