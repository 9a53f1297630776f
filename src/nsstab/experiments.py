"""Closed-loop experiments with measurable pass/fail bounds.

Three experiments mirror the three guarantees of the control design:

* rapid stabilization -- stationary modal feedback at a fixed threshold;
  measures the decay rate of the weighted energy and checks the pointwise
  exponential envelopes,
* null control -- the dyadic piecewise schedule over one period; measures
  per-interval norms, the control cost, and the cost bound exp(c3/T),
* small-time stabilization -- the periodic cutoff law over two periods from
  arbitrary start offsets, plus a uniform-stability probe.

The schedule runs are stepped on piece grids (:func:`_row_plan`): each row
is cut at every schedule switch and, for a start offset s, at s + j T, and
each piece takes equal steps of at most its cap: the step of its schedule
interval (:func:`_interval_dt`), or the configured dt.  So every switch is
a step time and each smooth piece is stepped at second order.

Certified constant packs put the admissible initial data below double
precision (the basin scales like exp(-c3/T) with an astronomically large
c3); for those runs the null-control experiment degenerates by design to a
bound-arithmetic verification carried out in log space, and says so in the
report.  Practical packs produce observable dynamics.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import ConstantPack, FeedbackParams, Schedule, build_schedule, feedback_params
from .dynamics import ControlLaw, Trajectory, simulate_batch
from .errors import BlowUpError, BoundViolatedError, ConfigError, TwoPeriodFailedError
from .spectral import StokesBasis

logger = logging.getLogger(__name__)

#: initial data are spread isotropically over this many low modes
ACTIVE_INIT_MODES = 8

#: below this log-threshold a basin is unrepresentable in float64
LOG_PRECISION_FLOOR = math.log(1e-290)

#: most closed-loop steps a row may plan (certified gains ask for millions)
MAX_STEPS = 2**20

#: fewest steps per schedule piece without a configured dt
_PIECE_STEPS = 64


def random_low_mode_state(n_modes: int, norm: float, seed: int) -> np.ndarray:
    """Seeded isotropic state on the first min(8, M) modes, given norm."""
    x = np.zeros(n_modes)
    if norm == 0.0:
        return x
    rng = np.random.default_rng(seed)
    active = min(ACTIVE_INIT_MODES, n_modes)
    g = rng.standard_normal(active)
    x[:active] = g * (norm / np.linalg.norm(g))
    return x


def default_dt(max_gain: float, tau_max: float) -> float:
    """Step-size heuristic: the control term is the remaining explicit stiffness."""
    return min(0.25 / max_gain, 0.1 / math.sqrt(tau_max))


def _dyadic_dt(max_gain: float, k_floor: int) -> float:
    """Largest power of two below the gain heuristic and 2**-k_floor."""
    k = max(k_floor, math.ceil(math.log2(max(max_gain, 1e-12) / 0.25)))
    return 2.0 ** (-k)


def _interval_dt(schedule: Schedule) -> np.ndarray:
    """Default step of each schedule piece: intervals 0..n_max, then the terminal piece.

    Piece n of length L_n steps by min(L_n / _PIECE_STEPS, the largest power
    of two <= 0.25 / gain_n), the terminal piece (no gain) by L / _PIECE_STEPS.
    Every length is a power of two, so each piece is a whole number of steps
    and every switch falls on a step boundary.
    """
    lengths = np.diff(np.append(schedule.start_times, schedule.period))
    gains = [p.gain for p in schedule.params] + [0.0]
    return np.array([_dyadic_dt(gain, round(-math.log2(length / _PIECE_STEPS))) for gain, length in zip(gains, lengths)])


def _row_plan(schedule: Schedule, caps: np.ndarray, start: float = 0.0, periods: int = 1,
              per_period: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row plan of a row that runs the periodic law from start for periods periods.

    The row is cut at every schedule switch and at start + j T, j = 0..periods.
    A piece of length L inside schedule piece n takes ceil(L / caps[n]) equal
    steps, so no step exceeds caps[n]; a cap that divides L to within
    simulate_batch's 1e-9 tolerance takes exactly L / caps[n] of them.  With
    per_period, the longest piece of each period takes the steps that bring
    the period up to per_period.  Raises ConfigError on dt, before any step
    array is built, when the row would take more than MAX_STEPS steps.
    Returns the row plan of :func:`simulate_batch`: the cuts (start, then
    each piece's end), each piece's step count, and its step size
    (its length over its count); every cut is a step time exactly.
    """
    period = schedule.period
    segment_at = ControlLaw.periodic(schedule).segment_at
    ends, counts = [], []
    for j in range(periods):
        lo, hi = start + j * period, start + (j + 1) * period
        base = math.floor(lo / period) * period
        switches = np.concatenate([base + schedule.start_times, base + period + schedule.start_times])
        cuts = np.concatenate([[lo], switches[(switches > lo) & (switches < hi)], [hi]])
        length = np.diff(cuts)
        quotient = length / caps[segment_at(cuts[:-1])]
        n = np.maximum(np.ceil(quotient - 1e-9 * np.maximum(quotient, 1.0)), 1.0).astype(int)
        if per_period is not None:
            if n.sum() > per_period:
                raise ValueError(f"the period from t = {lo:g} needs {n.sum()} steps, more than {per_period}")
            n[np.argmax(length)] += per_period - n.sum()
        ends.append(cuts[1:])
        counts.append(n)
    ends, counts = np.concatenate(ends), np.concatenate(counts)
    if counts.sum() > MAX_STEPS:
        raise ConfigError("dt", f"the row from t = {start:g} over {periods} period(s) of T = {period:g} needs "
                                f"{counts.sum()} steps, more than the budget of {MAX_STEPS}")
    cuts = np.append(start, ends)
    return cuts, counts, np.diff(cuts) / counts


def _log_slope(times: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of log(values) vs time, skipping the first 5% (the initial transient)."""
    start = int(math.ceil(0.05 * len(times)))
    t = times[start:]
    v = values[start:]
    if len(t) < 2 or np.any(v <= 0):
        return float("nan")
    return float(np.polyfit(t, np.log(v), 1)[0])


@dataclass
class RapidStabReport:
    """Outcome of a stationary-feedback stabilization run."""

    params: FeedbackParams
    y0_norm: float
    basin: float
    cutoff: bool
    dt: float
    horizon: float
    rate_lyapunov: float  # fitted decay rate of the weighted energy
    rate_norm: float  # fitted decay rate of the state norm
    state_bound_ok: bool  # ||y(t)|| <= c1 e^{c1 sqrt(lam)} e^{-lam t/4} ||y0||
    control_bound_ok: bool  # ||F y(t)|| <= c2 e^{c2 sqrt(lam)} e^{-lam t/4} ||y0||
    lyapunov_decay_ok: bool  # sampled dV/dt <= -(lam/2) V within tolerance
    trivial: bool
    trajectory: Trajectory
    cutoff_trajectory: Trajectory | None = None
    cutoff_matches_linear: bool | None = None
    control_stayed_below_radius: bool | None = None
    health: dict = field(default_factory=dict)  # BatchRun.health of both runs, and dt


def run_rapid_stab(
    basis: StokesBasis,
    tensor: np.ndarray,
    gram: np.ndarray,
    pack: ConstantPack,
    lam: float,
    y0_scale: float = 0.5,
    cutoff: bool = False,
    horizon: float | None = None,
    dt: float | None = None,
    seed: int = 0,
    nu: float = 1.0,
) -> RapidStabReport:
    """Close the loop with the stationary modal feedback at threshold lam.

    The initial norm is y0_scale times the cutoff radius (linear law) or its
    square (cutoff law).  With cutoff=True the law with and without the
    cutoff are rows 1 and 0 of one batch from the same state, and the
    trajectories are compared bitwise; they must coincide whenever the raw
    feedback never exceeds the radius.
    """
    params = feedback_params(lam, pack, basis)
    basin = params.cutoff_radius**2 if cutoff else params.cutoff_radius
    y0_norm = y0_scale * basin
    y0 = random_low_mode_state(basis.n_modes, y0_norm, seed)
    if dt is None:
        dt = default_dt(params.gain, float(basis.eigenvalues[-1]))
        logger.info("dt defaulted to %.3e (gain %.3e)", dt, params.gain)
    if horizon is None:
        horizon = 16.0 / lam
    planned = math.ceil(horizon / dt)
    if planned > MAX_STEPS:
        raise ConfigError("dt", f"dt = {dt:.3e} over the horizon {horizon:.3e} needs {planned} steps, "
                                f"more than the budget of {MAX_STEPS}")
    n_steps = max(1, int(round(horizon / dt)))
    stride = max(1, n_steps // 1024)
    n_steps = ((n_steps + stride - 1) // stride) * stride
    horizon = n_steps * dt

    laws = [ControlLaw.stationary(params)]
    if cutoff:
        laws.append(ControlLaw.stationary(params, cutoff=True))
    # one batch: every row goes through the same products, so the two arms
    # take identical arithmetic wherever the cutoff leaves the control alone
    run = simulate_batch(
        np.tile(y0, (len(laws), 1)), laws, ([0.0, horizon], [n_steps], [dt]),
        basis, tensor, gram, nu=nu, sample_stride=stride,
    )
    traj = run.trajectory(0)
    trivial = y0_norm == 0.0

    rate_v = -_log_slope(traj.times, traj.lyapunov)
    rate_n = -_log_slope(traj.times, traj.norm_h)

    c1 = pack.spectral_constant
    c2 = pack.feedback_constant
    sqrt_lam = math.sqrt(lam)
    envelope = np.exp(-0.25 * lam * traj.times) * y0_norm
    state_bound_ok = bool(np.all(traj.norm_h <= c1 * math.exp(c1 * sqrt_lam) * envelope + 1e-300))
    n = params.n_active
    raw_control = params.gain * np.linalg.norm(traj.states[:, :n], axis=1)
    control_bound_ok = bool(np.all(raw_control <= c2 * math.exp(c2 * sqrt_lam) * envelope + 1e-300))

    # sampled Lyapunov decay: secant slope between samples, 5% slack
    dv = np.diff(traj.lyapunov) / np.diff(traj.times)
    lyap_ok = bool(np.all(dv <= -0.5 * lam * 0.95 * traj.lyapunov[:-1] + 1e-300))

    report = RapidStabReport(
        params=params,
        y0_norm=y0_norm,
        basin=basin,
        cutoff=cutoff,
        dt=dt,
        horizon=horizon,
        rate_lyapunov=rate_v,
        rate_norm=rate_n,
        state_bound_ok=state_bound_ok,
        control_bound_ok=control_bound_ok,
        lyapunov_decay_ok=lyap_ok,
        trivial=trivial,
        trajectory=traj,
    )
    if trivial:
        report.rate_lyapunov = float("nan")
        report.rate_norm = float("nan")
    if cutoff:
        traj_cut = run.trajectory(1)
        report.cutoff_trajectory = traj_cut
        report.cutoff_matches_linear = bool(np.array_equal(traj.states, traj_cut.states))
        report.control_stayed_below_radius = bool(np.all(raw_control <= params.cutoff_radius))
    report.health = {**run.health(), "dt": dt}
    return report


@dataclass
class NullControlReport:
    """Outcome of one dyadic-schedule null-control run.

    When the admissible basin of a certified pack underflows double
    precision, basin_below_precision is set, the dynamic fields are empty,
    and only the log-space bound arithmetic is reported.
    """

    n0: int
    period: float
    n_max: int
    mode: str
    cutoff: bool
    y0_norm: float
    log_basin: float  # ln of the admissible initial norm for this law
    basin_below_precision: bool
    schedule: Schedule
    dt: float = float("nan")  # T / steps taken: the mean step
    interval_dt: np.ndarray | None = None  # step of each piece: intervals 0..n_max, then the terminal piece
    # sup_t ||c(t)||_2 of the control's coefficients c (at t = 0 without the
    # cutoff), not ||f||_{L2(omega)} = sqrt(c^T G c)
    cost: float = float("nan")
    cost_bound_ok: bool = True  # ln cost <= c3/T + ln ||y0||
    final_relative_norm: float = float("nan")
    null_reached: bool = False
    latch_time: float | None = None
    interval_times: np.ndarray | None = None  # T_0 .. T_{n_max+1}, then T
    interval_norms: np.ndarray | None = None  # ||y|| at those times
    interval_control_sup: np.ndarray | None = None  # sup ||f|| per interval
    state_bound_ok: np.ndarray | None = None  # per-interval norm bound table
    control_bound_ok: np.ndarray | None = None  # per-interval control bound table
    monotone_ok: np.ndarray | None = None  # ||y(T_{n+1})|| <= ||y(T_n)||, n >= 1
    trajectory: Trajectory | None = None
    health: dict = field(default_factory=dict)  # BatchRun.health of this run's row, and dt


def _interval_norm_log_bounds(schedule: Schedule, q: float) -> np.ndarray:
    """ln of the per-interval norm envelope exp(-(7 q^2/64) 2^n0 (2^n - 1))."""
    n = np.arange(schedule.n_max + 2)
    return -(7.0 * q * q / 64.0) * 2.0**schedule.n0 * (2.0**n - 1.0)


def _interval_control_log_bounds(schedule: Schedule, q: float) -> np.ndarray:
    """ln of the control envelope exp(-(5 q^2/64) 2^(n0+n-1)) for n >= 1."""
    n = np.arange(1, schedule.n_max + 1)
    return -(5.0 * q * q / 64.0) * 2.0 ** (schedule.n0 + n - 1)


def run_null_control(
    basis: StokesBasis,
    tensor: np.ndarray,
    gram: np.ndarray,
    pack: ConstantPack,
    n0_list,
    y0_norm: float | None = None,
    n_max: int = 8,
    eps_zero: float = 1e-6,
    cutoff: bool = False,
    dt: float | None = None,
    seed: int = 0,
    nu: float = 1.0,
) -> list[NullControlReport]:
    """Steer the state toward zero over one period of the dyadic schedule,
    for each period 2**-n0 of n0_list.

    Certified packs fix the initial norm from the admissible basin
    exp(-c3/T) (exp(-2 c3/T) for the cutoff variant); practical packs take
    the caller's y0_norm.  The state is declared numerically null once its
    norm falls below eps_zero times the initial norm, after which the
    control is latched to zero.  For certified packs a violated
    per-interval bound raises BoundViolatedError.

    Each schedule piece (intervals 0..n_max and the terminal piece) is
    stepped on its own grid (:func:`_row_plan`), so every switch falls on a
    step boundary.  Its step is capped by dt if given, and otherwise by
    :func:`_interval_dt`, which gives each piece at least _PIECE_STEPS
    steps: while no gain asks for a smaller step, every n0 then takes
    _PIECE_STEPS * (n_max + 2) steps.  Every plan is made, and checked
    against MAX_STEPS, before any run is stepped.  The runs that take the
    same number of steps are stepped as the rows of one batch, and each
    report is filled from its own row and plan.  A blow-up names its run.
    """
    reports = [_plan_null_control(basis, pack, n0, y0_norm, n_max, cutoff) for n0 in n0_list]
    plans = {i: _row_plan(r.schedule, _interval_dt(r.schedule) if dt is None else np.full(n_max + 2, dt))
             for i, r in enumerate(reports) if not r.basin_below_precision}
    batches: dict[int, list[int]] = {}
    for i, (_, counts, _) in plans.items():
        batches.setdefault(counts.sum(), []).append(i)
    rows = {}
    for batch in batches.values():
        runs = [reports[i] for i in batch]
        y0 = np.array([random_low_mode_state(basis.n_modes, r.y0_norm, seed) for r in runs])
        try:
            run = simulate_batch(
                y0, [ControlLaw.periodic(r.schedule, cutoff=cutoff) for r in runs], [plans[i] for i in batch],
                basis, tensor, gram, nu=nu, latch_norm=[eps_zero * r.y0_norm for r in runs],
            )
        except BlowUpError as exc:
            failed = runs[exc.row]
            raise BlowUpError(exc.time, exc.max_abs, exc.row,
                              f"the run n0={failed.n0} (T={failed.period:g})") from exc
        rows.update({i: (run, row) for row, i in enumerate(batch)})
    for i, report in enumerate(reports):
        if i in rows:
            _fill_null_control(report, pack, *rows[i], plans[i])
    return reports


def _plan_null_control(basis, pack, n0, y0_norm, n_max, cutoff) -> NullControlReport:
    """The report of one run before stepping: schedule and initial norm.

    A certified basin below float precision is verified in log space here,
    and its report is final.
    """
    period = 2.0 ** (-n0)
    q = pack.schedule_constant
    c3 = pack.cost_exponent
    log_basin = (-2.0 if cutoff else -1.0) * c3 / period
    certified = pack.mode == "certified"
    below = certified and log_basin < LOG_PRECISION_FLOOR
    schedule = Schedule.dyadic(n0, q, n_max) if below else build_schedule(n0, pack, basis, n_max)
    if y0_norm is None:
        if not certified:
            raise ValueError("practical mode requires an explicit initial norm")
        y0_norm = 0.0 if below else math.exp(log_basin)
    report = NullControlReport(
        n0=n0,
        period=schedule.period,
        n_max=n_max,
        mode=pack.mode,
        cutoff=cutoff,
        y0_norm=y0_norm,
        log_basin=log_basin,
        basin_below_precision=below,
        schedule=schedule,
        interval_times=np.append(schedule.start_times, schedule.period),
    )
    if below:
        _verify_bound_arithmetic(report, pack)
        logger.info(
            "certified basin exp(%.4g) below float precision; "
            "bound arithmetic verified in log space, dynamics skipped",
            log_basin,
        )
    return report


def _fill_null_control(report: NullControlReport, pack: ConstantPack, run, row: int,
                       plan: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
    """Fill a planned report from its row of the stepped batch and the row
    plan it took, and check its bounds."""
    schedule = report.schedule
    q = pack.schedule_constant
    y0_norm = report.y0_norm
    traj = run.trajectory(row)
    report.trajectory = traj
    report.null_reached = not math.isnan(run.latch_time[row])
    report.latch_time = float(run.latch_time[row]) if report.null_reached else None
    _, counts, sizes = plan
    # the plan's pieces are the schedule pieces: piece n starts at step
    # idx[n], and idx[-1] is the step count
    idx = np.append(0, np.cumsum(counts))
    report.interval_dt = sizes
    report.dt = schedule.period / idx[-1]
    logger.info("n0=%d: step of each schedule piece %s", report.n0, report.interval_dt)
    report.health = {**run.health(row), "dt": report.dt}

    report.interval_norms = traj.norm_h[idx]
    sup = np.empty(schedule.n_max + 1)
    for n in range(schedule.n_max + 1):
        sup[n] = traj.control_norm[idx[n] : idx[n + 1] + 1].max()
    report.interval_control_sup = sup
    report.cost = float(traj.control_norm.max())
    report.final_relative_norm = float(traj.norm_h[-1] / y0_norm) if y0_norm else 0.0

    with np.errstate(divide="ignore"):
        log_rel_norms = np.log(report.interval_norms[: schedule.n_max + 2]) - math.log(y0_norm) if y0_norm else np.full(schedule.n_max + 2, -np.inf)
    report.state_bound_ok = log_rel_norms <= _interval_norm_log_bounds(schedule, q) + 1e-12
    ctrl_bounds = _interval_control_log_bounds(schedule, q)
    with np.errstate(divide="ignore"):
        log_rel_ctrl = np.log(sup[1:]) - math.log(y0_norm) if y0_norm else np.full(schedule.n_max, -np.inf)
    report.control_bound_ok = log_rel_ctrl <= ctrl_bounds + 1e-12
    report.monotone_ok = report.interval_norms[2 : schedule.n_max + 2] <= report.interval_norms[1 : schedule.n_max + 1]
    log_cost = math.log(report.cost) if report.cost > 0 else -math.inf
    log_y0 = math.log(y0_norm) if y0_norm else -math.inf
    report.cost_bound_ok = bool(log_cost <= pack.cost_exponent / schedule.period + log_y0 + 1e-12)

    if report.mode == "certified":
        for n in range(schedule.n_max + 2):
            if not report.state_bound_ok[n]:
                raise BoundViolatedError(
                    n, "interval norm", float(report.interval_norms[n]),
                    y0_norm * math.exp(_interval_norm_log_bounds(schedule, q)[n]),
                )
        for i, ok in enumerate(report.control_bound_ok):
            if not ok:
                raise BoundViolatedError(
                    i + 1, "interval control", float(sup[i + 1]),
                    y0_norm * math.exp(ctrl_bounds[i]),
                )


def _verify_bound_arithmetic(report: NullControlReport, pack: ConstantPack) -> None:
    """Log-space check of the bootstrap chain for an unrepresentable basin.

    Verifies that the admissible envelope stays inside the cutoff radii:

        ln(R_T) - (7 q^2/64) 2^n0 (2^n - 1) <= -q^2 2^(n0+n)/64 <= ln r_n

    for the linear law; the cutoff variant squares the radius and doubles
    both the basin exponent and the middle term.
    """
    schedule = report.schedule
    q = pack.schedule_constant
    c2 = pack.feedback_constant
    n = np.arange(schedule.n_max + 1)
    lhs = report.log_basin + _interval_norm_log_bounds(schedule, q)[:-1]
    mid_scale = 32.0 if report.cutoff else 64.0
    mid = -(q * q / mid_scale) * 2.0 ** (schedule.n0 + n)
    log_radius = -(np.log(c2) + c2 * np.sqrt(schedule.thresholds_raw))
    if report.cutoff:
        log_radius = 2.0 * log_radius
    ok = (lhs <= mid + 1e-12) & (mid <= log_radius + 1e-12)
    report.state_bound_ok = ok
    report.control_bound_ok = np.ones(schedule.n_max, dtype=bool)
    if not np.all(ok):
        first = int(np.argmin(ok))
        raise BoundViolatedError(first, "bootstrap envelope", float(lhs[first]), float(log_radius[first]))


@dataclass
class StabilityProbe:
    """Outcome of the periodic small-time stabilization experiment."""

    n0: int
    period: float
    y0_norm: float
    offsets: np.ndarray
    two_period_residuals: np.ndarray  # ||state(s + 2T)|| / ||y0|| per offset
    two_period_ok: bool
    feedback_bound_ok: bool  # ||U|| <= min(1, sqrt(2 ||y||)) at every sample
    eta_grid: np.ndarray
    delta_table: np.ndarray  # sup-over-time norm per eta (max over offsets)
    dt: float
    schedule: Schedule
    trajectories: list[Trajectory] = field(default_factory=list)
    health: dict = field(default_factory=dict)  # BatchRun.health of all runs, eta runs included, and dt


def run_small_time(
    basis: StokesBasis,
    tensor: np.ndarray,
    gram: np.ndarray,
    pack: ConstantPack,
    n0: int,
    y0_norm: float,
    s_offsets,
    periods: int = 2,
    eps_zero: float = 1e-6,
    eta_grid: np.ndarray | None = None,
    n_max: int = 8,
    dt: float | None = None,
    seed: int = 0,
    nu: float = 1.0,
) -> StabilityProbe:
    """Run the periodic cutoff law from several start offsets.

    Checks the two-period null property ||state(s + 2T)|| <= eps_zero *
    max(||y0||, eps_zero) for every offset (raising TwoPeriodFailedError
    otherwise), the feedback norm constraint at every sample, and fills the
    uniform-stability table delta(eta) = sup-over-time norm for initial
    norms eta.  eta defaults to {1e-4, 1e-3, 1e-2} times the first cutoff
    radius of the schedule.

    Each offset s steps its own piece grid (see :func:`_row_plan`): cut at
    every schedule switch and at s + j T, each piece with steps capped by
    dt if given and otherwise by its interval's step of
    :func:`_interval_dt`, and each period evened to the most steps any
    offset needs in one period, so every switch and every s + j T is a step
    time and every row takes the same steps per period.  The probe's dt is
    the mean step periods * T / steps.
    """
    if periods < 2:
        raise ValueError("need at least two periods for the null check")
    offsets = np.asarray(list(s_offsets), dtype=float)
    if not offsets.size:
        raise ValueError("need at least one start offset")
    schedule = build_schedule(n0, pack, basis, n_max)
    if eta_grid is None:
        eta_grid = np.array([1e-4, 1e-3, 1e-2]) * schedule.params[0].cutoff_radius
    eta_grid = np.asarray(eta_grid, dtype=float)
    if eta_grid.size and np.any(np.diff(eta_grid) < 0):
        raise ValueError("eta grid must be ascending")
    # one batch: y0_norm from every offset, then each eta from every offset;
    # only the y0_norm rows keep their state history
    n_off = len(offsets)
    norms = [y0_norm] + [float(eta) for eta in eta_grid]
    caps = _interval_dt(schedule) if dt is None else np.full(n_max + 2, dt)
    per_period = max(_row_plan(schedule, caps, s)[1].sum() for s in offsets)
    plans = [_row_plan(schedule, caps, s, periods, per_period) for s in offsets]
    dt = schedule.period / per_period  # the mean step, periods * T / steps
    logger.info("%d steps per period on the schedule-piece grid, mean dt %.3e", per_period, dt)

    y0 = np.array([random_low_mode_state(basis.n_modes, norm, seed) for norm in norms for _ in offsets])
    run = simulate_batch(
        y0, ControlLaw.periodic(schedule, cutoff=True), plans * len(norms), basis, tensor, gram,
        nu=nu, state_rows=n_off,
    )
    # every period takes the same number of steps
    two_period_index = 2 * (len(run.times) - 1) // periods
    residuals = run.norm_h[two_period_index, :n_off] / max(y0_norm, eps_zero)
    two_period_ok = bool(np.all(residuals <= eps_zero))
    feedback_ok = all(
        bool(np.all(control <= np.minimum(1.0, np.sqrt(2.0 * norm)) + 1e-12))
        for norm, control in zip(run.norm_h.T, run.control_norm.T)
    )
    delta = run.norm_h[:, n_off:].max(axis=0).reshape(len(eta_grid), n_off).max(axis=1)
    # reduced before the trajectory copies below exist, which lowers peak memory
    health = {**run.health(), "dt": dt}

    probe = StabilityProbe(
        n0=n0,
        period=schedule.period,
        y0_norm=y0_norm,
        offsets=offsets,
        two_period_residuals=residuals,
        two_period_ok=two_period_ok,
        feedback_bound_ok=feedback_ok,
        eta_grid=np.asarray(eta_grid, dtype=float),
        delta_table=delta,
        dt=dt,
        schedule=schedule,
        trajectories=[run.trajectory(i) for i in range(n_off)],
        health=health,
    )
    if not two_period_ok:
        worst = int(np.argmax(residuals))
        raise TwoPeriodFailedError(float(offsets[worst]), float(residuals[worst]))
    return probe


def fit_cost_curve(reports) -> tuple[float, float]:
    """Least-squares fit of ln(cost / ||y0||) against 1/T over a run set.

    Returns (slope, intercept); the slope is the empirical cost exponent.
    """
    reports = list(reports)
    periods = {r.period for r in reports}
    if len(periods) < 3:
        raise ValueError("need reports for at least 3 distinct horizons")
    x = np.array([1.0 / r.period for r in reports])
    y = []
    for r in reports:
        if not (r.cost > 0 and r.y0_norm > 0):
            cause = ": the radial cutoff zeroed its control" if r.cutoff and r.cost == 0 else ""
            raise ValueError(f"cost-curve fit needs positive costs and initial norms; the run n0={r.n0} "
                             f"(T={r.period:g}) has cost {r.cost:g} and initial norm {r.y0_norm:g}{cause}")
        y.append(math.log(r.cost / r.y0_norm))
    slope, intercept = np.polyfit(x, np.array(y), 1)
    return float(slope), float(intercept)
