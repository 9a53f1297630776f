"""Reference implementations that nsstab replaced with faster ones.

* The single-trajectory closed-loop stepper and the stateful control-law
  classes that nsstab shipped before the batched stepper.  Tests compare
  :func:`nsstab.dynamics.simulate_batch` against them; the scheme is the
  same integrating-factor Heun step, written one trajectory and one law
  evaluation at a time.
* The dense operator assembly and the dense generalized ``eigh`` that the
  sparse shift-invert solve replaced, run through the same canonicalizer.
* The one-shot convection tensor, with its (M, M, 2, N) intermediate.
* Helpers only the tests call: the single-vector modal feedback and radial
  cutoff (the reference for ``radial_cutoff_rows``), the scalar interval
  lookup, the weighted energy of one state, the physical-field
  reconstruction, the discrete L2 inner product, the truncated basis, and
  a trajectory's final state and energy-identity residual.
* The per-value CSV formatting that the one-format-per-row writers of
  ``nsstab.cli`` replaced.

Kept as they were; do not optimize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from nsstab.constants import TERMINAL, FeedbackParams, Schedule, cutoff_profile
from nsstab.dynamics import BLOWUP_GUARD, Trajectory
from nsstab.errors import BlowUpError
from nsstab.grid import Grid
from nsstab.spectral import EXTRA_MODES, StokesBasis, canonical_basis


def modal_feedback(coeffs: np.ndarray, params: FeedbackParams) -> np.ndarray:
    """Control coefficients -gain * (first n_active coefficients), rest zero."""
    out = np.zeros_like(coeffs)
    n = params.n_active
    out[:n] = -params.gain * coeffs[:n]
    return out


def radial_cutoff(coeffs: np.ndarray, r: float) -> np.ndarray:
    """Scale a coefficient vector by the cutoff profile of its norm.

    Identity inside radius r, zero outside radius 2r; the result's norm is
    at most min(1, input norm) because 2r <= 1.
    """
    nrm = float(np.linalg.norm(coeffs))
    scale = cutoff_profile(nrm, r)
    if scale == 1.0:
        return coeffs.copy()
    return coeffs * scale


def lyapunov(coeffs: np.ndarray, params: FeedbackParams | None = None) -> float:
    """Weighted energy: weight * ||low modes||^2 + ||high modes||^2.

    Without params this is the plain squared norm.
    """
    if params is None:
        return float(coeffs @ coeffs)
    n = params.n_active
    low = float(coeffs[:n] @ coeffs[:n])
    high = float(coeffs[n:] @ coeffs[n:])
    return params.weight * low + high


def locate_interval(t: float, schedule: Schedule) -> int:
    """Interval index of a time in [0, period); TERMINAL past the truncation."""
    if not 0.0 <= t < schedule.period:
        raise ValueError(f"time {t!r} outside [0, {schedule.period!r})")
    idx = int(np.searchsorted(schedule.start_times, t, side="right")) - 1
    if idx > schedule.n_max:
        return TERMINAL
    return idx


def reconstruct_field(coeffs: np.ndarray, basis: StokesBasis) -> np.ndarray:
    """Physical velocity field sum_k X_k e_k (mostly for demos and checks)."""
    return np.tensordot(coeffs, basis.velocities, axes=(0, 0))


def inner_l2(u: np.ndarray, v: np.ndarray, grid: Grid, mask: np.ndarray | None = None) -> float:
    """Discrete L2 inner product, optionally localized by a node mask.

    Accepts scalar fields (nx, ny) or velocity fields (2, nx, ny); the two
    arguments must have the same shape.  Quadrature is node value times cell
    area, which keeps Gram matrices exactly symmetric.
    """
    if u.shape != v.shape:
        raise ValueError(f"field shapes {u.shape} and {v.shape} differ")
    if u.shape[-2:] != (grid.nx, grid.ny):
        raise ValueError(f"field shape {u.shape} does not match grid")
    prod = u * v
    if prod.ndim == 3:
        prod = prod.sum(axis=0)
    if mask is not None:
        if mask.shape != (grid.nx, grid.ny):
            raise ValueError(f"mask shape {mask.shape} does not match grid")
        prod = prod * mask
    return float(prod.sum() * grid.cell_area)


def truncated(basis: StokesBasis, m: int) -> StokesBasis:
    """The first m modes of a basis."""
    if not 1 <= m <= basis.n_modes:
        raise ValueError(f"cannot truncate basis of {basis.n_modes} modes to {m}")
    return StokesBasis(
        eigenvalues=basis.eigenvalues[:m],
        stream_functions=basis.stream_functions[:m],
        velocities=basis.velocities[:m],
        grid=basis.grid,
    )


def final_state(traj: Trajectory) -> np.ndarray:
    return traj.states[-1]


def energy_defect(traj: Trajectory) -> np.ndarray:
    """Residual of the energy identity at each sample (zero for exact flow)."""
    e0 = 0.5 * traj.norm_h[0] ** 2
    return 0.5 * traj.norm_h**2 + traj.nu * traj.dissipation - traj.control_work - e0


def _central_difference_1d(n: int, h: float) -> np.ndarray:
    """Matrix of the central difference at interior nodes, zero ghosts."""
    d = np.zeros((n, n))
    idx = np.arange(n - 1)
    d[idx, idx + 1] = 1.0 / (2.0 * h)
    d[idx + 1, idx] = -1.0 / (2.0 * h)
    return d


def _second_difference_1d(n: int, h: float) -> np.ndarray:
    """Standard three-point second difference with Dirichlet boundary."""
    s = np.zeros((n, n))
    np.fill_diagonal(s, -2.0 / h**2)
    idx = np.arange(n - 1)
    s[idx, idx + 1] = 1.0 / h**2
    s[idx + 1, idx] = 1.0 / h**2
    return s


def _fourth_difference_1d(n: int, h: float) -> np.ndarray:
    """Five-point fourth difference with clamped mirror ghosts.

    Ghost values one node beyond the wall mirror the first interior node,
    which adds 1/h^4 to the two wall-adjacent diagonal entries.
    """
    f = np.zeros((n, n))
    np.fill_diagonal(f, 6.0)
    idx = np.arange(n - 1)
    f[idx, idx + 1] = -4.0
    f[idx + 1, idx] = -4.0
    idx = np.arange(n - 2)
    f[idx, idx + 2] = 1.0
    f[idx + 2, idx] = 1.0
    f[0, 0] += 1.0
    f[n - 1, n - 1] += 1.0
    return f / h**4


def dense_operators(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Dense (K1, K2): central-gradient stiffness and clamped biharmonic."""
    nx, ny = grid.nx, grid.ny
    dx = _central_difference_1d(nx, grid.hx)
    dy = _central_difference_1d(ny, grid.hy)
    ix = np.eye(nx)
    iy = np.eye(ny)
    k1 = np.kron(dx.T @ dx, iy) + np.kron(ix, dy.T @ dy)

    sx = _second_difference_1d(nx, grid.hx)
    sy = _second_difference_1d(ny, grid.hy)
    fx = _fourth_difference_1d(nx, grid.hx)
    fy = _fourth_difference_1d(ny, grid.hy)
    k2 = np.kron(fx, iy) + np.kron(ix, fy) + 2.0 * np.kron(sx, sy)
    return k1, k2


def dense_eigenbasis(grid: Grid, m: int) -> StokesBasis:
    """The m smallest eigenpairs by dense generalized eigh, canonicalized."""
    k1, k2 = dense_operators(grid)
    top = min(m + EXTRA_MODES, grid.n_interior) - 1
    tau, vecs = scipy.linalg.eigh(k2, k1, subset_by_index=(0, top))
    return canonical_basis(tau, vecs, k1, m, grid)


def raw_trilinear_tensor(basis: StokesBasis, grid: Grid) -> np.ndarray:
    """Convection tensor entries B(e_i, e_j, e_k), contracted in one shot."""
    m = basis.n_modes
    nx, ny = grid.nx, grid.ny
    vel = basis.velocities  # (m, 2, nx, ny)
    grads = np.empty((m, 2, 2, nx, ny))
    for j in range(m):
        for comp in range(2):
            padded_x = np.pad(vel[j, comp], ((1, 1), (0, 0)))
            padded_y = np.pad(vel[j, comp], ((0, 0), (1, 1)))
            grads[j, 0, comp] = (padded_x[2:, :] - padded_x[:-2, :]) / (2.0 * grid.hx)
            grads[j, 1, comp] = (padded_y[:, 2:] - padded_y[:, :-2]) / (2.0 * grid.hy)
    e_flat = vel.reshape(m, 2, -1)
    g_flat = grads.reshape(m, 2, 2, -1)
    # advected[i, j, b, :] = sum_a e_i[a] * d_a e_j[b]
    advected = np.einsum("ian,jabn->ijbn", e_flat, g_flat)
    tensor = np.einsum("ijbn,kbn->ijk", advected, e_flat) * grid.cell_area
    return tensor


@dataclass(frozen=True)
class SpectralState:
    """A time and a coefficient vector in the Stokes basis.

    Parseval holds exactly in the discrete basis: the state's L2 norm is the
    coefficient 2-norm.  The stepper and simulator work on the unpacked
    fields; this wrapper is the convenient unit for user code.
    """

    t: float
    coeffs: np.ndarray

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def advanced(self, dt: float, controller: "Feedback", basis: StokesBasis,
                 tensor: np.ndarray, gram: np.ndarray, nu: float = 1.0) -> "SpectralState":
        new = step(self.t, self.coeffs, dt, controller, basis, tensor, gram, nu=nu)
        return SpectralState(self.t + dt, new)


def rhs(
    coeffs: np.ndarray,
    control: np.ndarray,
    basis: StokesBasis,
    tensor: np.ndarray,
    gram: np.ndarray,
    nu: float = 1.0,
) -> np.ndarray:
    """Time derivative of the coefficient vector for a given control."""
    quad = np.einsum("ijk,i,j->k", tensor, coeffs, coeffs)
    return -nu * basis.eigenvalues * coeffs - quad + gram @ control


class Feedback:
    """Base control law: maps (t, coefficient vector) to control coefficients.

    params_at/interval_at/threshold_at drive the logging columns of a
    trajectory; the defaults mean "no schedule".
    """

    def control(self, t: float, coeffs: np.ndarray, law_time: float | None = None) -> np.ndarray:
        """The control at time t; a scheduled law takes its interval at law_time (default t)."""
        raise NotImplementedError

    def __call__(self, t: float, coeffs: np.ndarray) -> np.ndarray:
        return self.control(t, coeffs)

    def params_at(self, t: float) -> FeedbackParams | None:
        return None

    def interval_at(self, t: float) -> int:
        return TERMINAL

    def threshold_at(self, t: float) -> float:
        return float("nan")


class ZeroFeedback(Feedback):
    def control(self, t: float, coeffs: np.ndarray, law_time: float | None = None) -> np.ndarray:
        return np.zeros_like(coeffs)


class ModalFeedback(Feedback):
    """Stationary law: -gain times the active-mode projection, optionally cut off."""

    def __init__(self, params: FeedbackParams, cutoff: bool = False):
        self.params = params
        self.cutoff = cutoff

    def control(self, t: float, coeffs: np.ndarray, law_time: float | None = None) -> np.ndarray:
        c = modal_feedback(coeffs, self.params)
        if self.cutoff:
            c = radial_cutoff(c, self.params.cutoff_radius)
        return c

    def params_at(self, t: float) -> FeedbackParams:
        return self.params

    def interval_at(self, t: float) -> int:
        return 0

    def threshold_at(self, t: float) -> float:
        return self.params.threshold


class ScheduledFeedback(Feedback):
    """Periodic piecewise law following a dyadic schedule.

    Times are reduced modulo the period, so the same object serves the
    periodic stabilization runs; the terminal regime applies zero control.
    A positive tail extends the period beyond the dyadic part with zero
    feedback, which is how horizons that are not powers of two are covered
    (see :func:`nsstab.constants.dyadic_horizon`).
    """

    def __init__(self, schedule: Schedule, cutoff: bool = False, tail: float = 0.0):
        if tail < 0.0:
            raise ValueError("tail must be nonnegative")
        self.schedule = schedule
        self.cutoff = cutoff
        self.tail = tail
        self.full_period = schedule.period + tail

    def _reduce(self, t: float) -> float:
        tp = t % self.full_period
        if tp >= self.full_period:  # guard the floating-point edge
            tp = 0.0
        return tp

    def interval_at(self, t: float) -> int:
        tp = self._reduce(t)
        if tp >= self.schedule.period:
            return TERMINAL
        return locate_interval(tp, self.schedule)

    def params_at(self, t: float) -> FeedbackParams | None:
        n = self.interval_at(t)
        if n == TERMINAL:
            return None
        return self.schedule.params[n]

    def threshold_at(self, t: float) -> float:
        n = self.interval_at(t)
        if n == TERMINAL:
            return float("nan")
        return self.schedule.params[n].threshold

    def control(self, t: float, coeffs: np.ndarray, law_time: float | None = None) -> np.ndarray:
        n = self.interval_at(t if law_time is None else law_time)
        if n == TERMINAL:
            return np.zeros_like(coeffs)
        params = self.schedule.params[n]
        c = modal_feedback(coeffs, params)
        if self.cutoff:
            c = radial_cutoff(c, params.cutoff_radius)
        return c


class LatchedFeedback(Feedback):
    """Wrapper that permanently switches to zero once the state is numerically null.

    The latch compares ||X|| against threshold_norm at every control
    evaluation; once tripped it stays off.
    """

    def __init__(self, inner: Feedback, threshold_norm: float):
        self.inner = inner
        self.threshold_norm = threshold_norm
        self.latched = False
        self.latch_time: float | None = None

    def control(self, t: float, coeffs: np.ndarray, law_time: float | None = None) -> np.ndarray:
        if not self.latched and float(np.linalg.norm(coeffs)) <= self.threshold_norm:
            self.latched = True
            self.latch_time = t
        if self.latched:
            return np.zeros_like(coeffs)
        return self.inner.control(t, coeffs, law_time)

    def params_at(self, t: float):
        return self.inner.params_at(t)

    def interval_at(self, t: float) -> int:
        return self.inner.interval_at(t)

    def threshold_at(self, t: float) -> float:
        return self.inner.threshold_at(t)


def step(
    t: float,
    coeffs: np.ndarray,
    dt: float,
    controller: Feedback,
    basis: StokesBasis,
    tensor: np.ndarray,
    gram: np.ndarray,
    nu: float = 1.0,
) -> np.ndarray:
    """One integrating-factor Heun step; exact for the pure diagonal part.

    Both stages take the law at t, the step's start.  The guard is relative
    to the norm of coeffs, the run's initial norm for a run of one step.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    decay = np.exp(-nu * basis.eigenvalues * dt)
    tensor2 = tensor.reshape(-1, basis.n_modes)

    def forcing(tt: float, x: np.ndarray) -> np.ndarray:
        c = controller.control(tt, x, law_time=t)
        return -(np.outer(x, x).ravel() @ tensor2) + gram @ c

    k1 = forcing(t, coeffs)
    predictor = decay * (coeffs + dt * k1)
    k2 = forcing(t + dt, predictor)
    result = decay * (coeffs + 0.5 * dt * k1) + 0.5 * dt * k2
    if not np.all(np.isfinite(result)) or np.abs(result).max() > BLOWUP_GUARD * np.linalg.norm(coeffs):
        finite = result[np.isfinite(result)]
        worst = float(np.abs(finite).max()) if finite.size else float("inf")
        raise BlowUpError(t + dt, worst)
    return result


def simulate(
    y0: np.ndarray,
    controller: Feedback,
    t_start: float,
    t_end: float,
    dt: float,
    basis: StokesBasis,
    tensor: np.ndarray,
    gram: np.ndarray,
    nu: float = 1.0,
    sample_stride: int = 1,
) -> Trajectory:
    """Integrate the closed loop and sample every sample_stride steps.

    The span must be an integer number of steps and a whole number of
    samples.  Both stages of a step take the law of the interval the step
    starts in; the predictor is evaluated, and a latch trips, at t + dt.
    Raises BlowUpError (with the blow-up time) once a coefficient exceeds
    BLOWUP_GUARD times the initial norm.
    """
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.ndim != 1 or len(y0) != basis.n_modes:
        raise ValueError("initial coefficients must match the basis size")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    span = t_end - t_start
    n_steps = int(round(span / dt))
    if n_steps <= 0 or abs(n_steps * dt - span) > 1e-9 * max(span, dt):
        raise ValueError("t_end - t_start must be an integer number of steps")
    if n_steps % sample_stride != 0:
        raise ValueError("step count must be a whole number of samples")

    m = basis.n_modes
    tau = basis.eigenvalues
    decay = np.exp(-nu * tau * dt)
    decay_sq = decay * decay
    # exponentially weighted trapezoid weights for int X_k(s)^2 ds over a step;
    # modes whose memory dies within one step fall back to the start-point rule
    diss_w = (1.0 - decay_sq) / (2.0 * nu * tau)
    endpoint_ok = decay_sq > 1e-12
    decay_sq_safe = np.maximum(decay_sq, 1e-300)
    tensor2 = tensor.reshape(-1, m)

    n_samples = n_steps // sample_stride + 1
    times = np.empty(n_samples)
    states = np.empty((n_samples, m))
    norm_h = np.empty(n_samples)
    lyap = np.empty(n_samples)
    control_norm = np.empty(n_samples)
    interval = np.empty(n_samples, dtype=np.int64)
    threshold = np.empty(n_samples)
    dissipation = np.empty(n_samples)
    control_work = np.empty(n_samples)

    def record(idx: int, t: float, x: np.ndarray, diss: float, work: float) -> None:
        times[idx] = t
        states[idx] = x
        norm_h[idx] = np.linalg.norm(x)
        lyap[idx] = lyapunov(x, controller.params_at(t))
        control_norm[idx] = np.linalg.norm(controller.control(t, x))
        interval[idx] = controller.interval_at(t)
        threshold[idx] = controller.threshold_at(t)
        dissipation[idx] = diss
        control_work[idx] = work

    guard = BLOWUP_GUARD * np.linalg.norm(y0)
    x = y0.copy()
    diss = 0.0
    work = 0.0
    record(0, t_start, x, diss, work)
    sample = 1
    for k in range(n_steps):
        t = t_start + k * dt
        c1 = controller.control(t, x)
        f1 = -(np.outer(x, x).ravel() @ tensor2) + gram @ c1
        predictor = decay * (x + dt * f1)
        c2 = controller.control(t + dt, predictor, law_time=t)
        f2 = -(np.outer(predictor, predictor).ravel() @ tensor2) + gram @ c2
        x_new = decay * (x + 0.5 * dt * f1) + 0.5 * dt * f2
        if not np.all(np.isfinite(x_new)) or np.abs(x_new).max() > guard:
            finite = x_new[np.isfinite(x_new)]
            worst = float(np.abs(finite).max()) if finite.size else float("inf")
            raise BlowUpError(t + dt, worst)
        # energy bookkeeping: trapezoid in the integrating-factor variable
        z_sq_end = np.where(endpoint_ok, x_new * x_new / decay_sq_safe, x * x)
        diss += float(tau @ (diss_w * 0.5 * (x * x + z_sq_end)))
        work += 0.5 * dt * (float(x @ (gram @ c1)) + float(x_new @ (gram @ c2)))
        x = x_new
        if (k + 1) % sample_stride == 0:
            record(sample, t_start + (k + 1) * dt, x, diss, work)
            sample += 1

    return Trajectory(
        times=times,
        states=states,
        norm_h=norm_h,
        lyapunov=lyap,
        control_norm=control_norm,
        interval=interval,
        threshold=threshold,
        dissipation=dissipation,
        control_work=control_work,
        nu=nu,
    )


def _fmt(value) -> str:
    """Ints as written, floats with 17 significant digits (they re-parse bit for bit)."""
    return str(value) if isinstance(value, int) else f"{value:.17g}"


def csv_row(row) -> str:
    """One CSV row, each value formatted on its own."""
    return ",".join(map(_fmt, row))
