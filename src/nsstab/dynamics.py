"""Galerkin dynamics of the controlled flow in the Stokes eigenbasis.

With y = sum_k X_k e_k and a control f = sum_i c_i e_i applied through the
indicator of the control window, the coefficients satisfy

    dX_k/dt = -nu tau_k X_k - sum_ij T[i,j,k] X_i X_j + (G c)_k

where T[i,j,k] is the convection tensor B(e_i, e_j, e_k) skew-symmetrized in
(j, k) and G is the full Gram matrix over the window.  Skew-symmetrization
makes the discrete nonlinearity exactly energy-neutral, so the energy law

    d/dt (1/2 ||X||^2) = -nu sum tau_k X_k^2 + X . (G c)

holds at the ODE level.  Time stepping is an integrating-factor Heun
scheme (an exponential RK2, Cox & Matthews, J. Comput. Phys. 2002): the
stiff diagonal part is integrated exactly, the nonlinearity and control
explicitly at second order.  The dissipation and control-work integrals are
accumulated with exponentially weighted trapezoids (exact for pure decay),
so the energy identity can be checked to O(dt^2) per unit time along a run.

Every control law here is piecewise-constant linear feedback with an
optional radial cutoff and norm latch (:class:`ControlLaw`).  A run steps a
(B, M) batch of trajectories together, and each row may have its own law
and step plan, as long as every row takes the same number of steps.  A
row's plan is its list of pieces: the cut times (the start, then each
piece's end), and each piece's step count and step size.  Step j of piece
p starts at cut_p + j h_p, and the next piece starts at cut_{p+1}
(:func:`step_times`), so a piece that starts between switches still ends
on the next one exactly.  A step takes the law of the segment it starts
in for both of its evaluations, so the Heun step sees one law per step and
stays second order across a switch that falls on a step boundary; a switch
inside a step leaves an O(dt) local error there, so a run with such
switches is first order.  The run compiles each row's law once into the
segment active at the start of each step, and into its own table of gains,
weights and radii, padded with zero-law rows to the size every row shares;
row r's segment s sits at r*size + s % size of the stacked tables, so
TERMINAL (-1) finds a zero-law row.  The decay factors, trapezoid weights
and step sizes are tabled the same way, once per piece of a row.  The
convection term of a half step is one (B, M(M+1)/2) @ (M(M+1)/2, M)
product over the pairs i <= j of the tensor symmetrized in (i, j)
(:func:`packed_convection`), shared by all the rows.

The per-step loop of :func:`simulate_batch` keeps only what the next state
depends on: the two convection terms, the two law evaluations (cutoff and
latch included), the two Gram products, the Heun update and the blow-up
guard, which is relative to each row's initial norm.  It writes each step's
state, control and Gram products into block buffers.  Once per block of
``_BLOCK`` steps, and at the last step, one vectorized pass turns them into
the samples, the Lyapunov column and the energy integrals; the law tables
and the step tables are gathered for the block's steps at its start.  The
pass uses the same row dot products as a per-step loop would, and its
cumulative sums add left to right like a running total, so no result
depends on the block length.  The call times itself with
time.perf_counter, and :meth:`BatchRun.health` reports the steps, the
largest energy-identity residual and that time, for one row or for all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .constants import TERMINAL, FeedbackParams, Schedule, radial_cutoff_rows, row_dot
from .errors import BlowUpError
from .grid import Grid, central_dx, central_dy
from .spectral import StokesBasis

#: abort once a coefficient exceeds this multiple of its row's initial norm
BLOWUP_GUARD = 1e6

#: steps per block of the deferred sampling and energy bookkeeping; results do not depend on it
_BLOCK = 64


def raw_trilinear_tensor(basis: StokesBasis, grid: Grid) -> np.ndarray:
    """Convection tensor entries B(e_i, e_j, e_k) by physical-space quadrature.

    Gradients use the grid's central stencils (:func:`nsstab.grid.central_dx`
    and :func:`nsstab.grid.central_dy`), with zero values outside the
    interior.  The raw entries are skew in (j, k) only up to the O(h^2)
    quadrature residual.
    """
    m = basis.n_modes
    vel = basis.velocities  # (m, 2, nx, ny)
    grads = np.empty((m, 2, 2, grid.nx, grid.ny))
    for j in range(m):
        for comp in range(2):
            grads[j, 0, comp] = central_dx(vel[j, comp], grid.hx)
            grads[j, 1, comp] = central_dy(vel[j, comp], grid.hy)
    e_flat = vel.reshape(m, 2, -1)
    g_flat = grads.reshape(m, 2, 2, -1)
    tensor = np.empty((m, m, m))
    for i in range(m):
        # advected[j, b, :] = sum_a e_i[a] * d_a e_j[b], one (M, 2, N) slice at a time
        advected = np.einsum("an,jabn->jbn", e_flat[i], g_flat)
        tensor[i] = np.einsum("jbn,kbn->jk", advected, e_flat)
    return tensor * grid.cell_area


def build_trilinear_tensor(basis: StokesBasis, grid: Grid) -> np.ndarray:
    """Skew-symmetrized convection tensor: T[i,j,k] = -T[i,k,j] exactly."""
    raw = raw_trilinear_tensor(basis, grid)
    return 0.5 * (raw - raw.transpose(0, 2, 1))


def packed_convection(tensor: np.ndarray, rows: int):
    """The convection term x -> sum_ij T[i,j,k] x_i x_j of each row of a (rows, M) batch.

    Since x_i x_j = x_j x_i, the tensor is symmetrized in (i, j) and packed
    once over the M(M+1)/2 pairs i <= j, so each call is one
    (rows, M(M+1)/2) @ (M(M+1)/2, M) product instead of (rows, M^2) @ (M^2, M).
    The pair factors are gathered from the flattened batch by precomputed
    flat indices r*M + i, so the batch size is fixed here.
    """
    m = tensor.shape[0]
    iu, ju = np.triu_indices(m)
    packed = (tensor + tensor.transpose(1, 0, 2))[iu, ju]
    packed[iu == ju] *= 0.5  # the diagonal pairs were doubled; 2T * 0.5 = T exactly
    row_start = m * np.arange(rows)[:, None]
    flat_i, flat_j = row_start + iu, row_start + ju

    def convection(x: np.ndarray) -> np.ndarray:
        if x.shape != (rows, m):
            raise ValueError(f"expected a ({rows}, {m}) batch, got {x.shape}")
        flat = x.ravel()
        # indices are in range by construction; "clip" skips the bounds check, and
        # the method skips the Python wrapper of np.take
        return (flat.take(flat_i, mode="clip") * flat.take(flat_j, mode="clip")) @ packed

    return convection


@dataclass(frozen=True)
class ControlLaw:
    """Piecewise-constant linear feedback with an optional radial cutoff.

    On segment n the control is -params[n].gain times the first
    params[n].n_active coefficients, scaled by the radial cutoff profile of
    its norm at params[n].cutoff_radius when cutoff is set; segment TERMINAL
    is the zero control.  A periodic law follows a dyadic schedule: a time t is reduced
    to t mod period, and its segment is the schedule interval that contains
    it, TERMINAL in the terminal regime.  Without a schedule the law is
    stationary: segment 0 at every time, or TERMINAL for the zero law (no
    params).
    """

    params: tuple[FeedbackParams, ...] = ()
    schedule: Schedule | None = None
    cutoff: bool = False

    def __post_init__(self):
        if self.cutoff and not all(0 < p.cutoff_radius <= 0.5 for p in self.params):
            raise ValueError("radius must lie in (0, 1/2]")

    @classmethod
    def stationary(cls, params: FeedbackParams, cutoff: bool = False) -> "ControlLaw":
        return cls((params,), cutoff=cutoff)

    @classmethod
    def periodic(cls, schedule: Schedule, cutoff: bool = False) -> "ControlLaw":
        return cls(schedule.params, schedule, cutoff)

    def segment_at(self, t) -> np.ndarray:
        """Segment index of each time in t (an array of any shape)."""
        t = np.asarray(t, dtype=np.float64)
        if self.schedule is None:
            return np.full(t.shape, 0 if self.params else TERMINAL)
        period = self.schedule.period
        tp = np.remainder(t, period)
        tp = np.where(tp >= period, 0.0, tp)  # guard the floating-point edge
        seg = np.searchsorted(self.schedule.start_times, tp, side="right") - 1
        return np.where(seg > self.schedule.n_max, TERMINAL, seg)

    def tables(self, m: int, size: int):
        """Per-segment arrays for an M-mode basis, padded to size rows.

        Returns the control gains (-gain on the active modes), the Lyapunov
        weights (weight on the active modes, 1 elsewhere), the cutoff radii
        (inf without cutoff, so the cutoff never acts) and the thresholds,
        each indexed by segment.  The rows past the law's segments are the
        zero law: no gain, unit weights, radius inf, threshold nan.  size
        exceeds the segment count, so TERMINAL (-1) indexes the last of them.
        """
        gains = np.zeros((size, m))
        weights = np.ones_like(gains)
        radii = np.full(size, np.inf)
        thresholds = np.full(size, np.nan)
        for i, p in enumerate(self.params):
            gains[i, : p.n_active] = -p.gain
            weights[i, : p.n_active] = p.weight
            if self.cutoff:
                radii[i] = p.cutoff_radius
            thresholds[i] = p.threshold
        return gains, weights, radii, thresholds


def step_times(plans) -> tuple[np.ndarray, np.ndarray]:
    """Start time of every step of every row, then each row's end time, and
    the piece of every step.

    plans holds one row plan (cuts, counts, sizes) per row: piece p runs
    from cuts[p] to cuts[p + 1] in counts[p] steps of sizes[p], and its j-th
    step starts at cuts[p] + j sizes[p]; so a piece whose start or step is
    not dyadic still ends exactly on its cut (a schedule switch, say).
    Counts and sizes must be positive, every row must take the same number
    of steps, and each cut must lie within 1e-9 relative of its piece's sum
    cuts[p] + counts[p] sizes[p].  Returns the (n_steps + 1, B) times and the
    (n_steps, B) piece of each step, in the smallest integer type that holds
    every piece index.
    """
    times, pieces = [], []
    for r, (cuts, counts, sizes) in enumerate(plans):
        cuts, counts, sizes = np.asarray(cuts, dtype=float), np.asarray(counts), np.asarray(sizes, dtype=float)
        if cuts.ndim != 1 or len(cuts) < 2 or counts.shape != (len(cuts) - 1,) or sizes.shape != counts.shape:
            raise ValueError(f"row {r}: expected P + 1 cuts and P step counts and sizes, got "
                             f"{cuts.shape}, {counts.shape}, {sizes.shape}")
        if np.any(counts < 1) or np.any(sizes <= 0):
            raise ValueError(f"row {r}: step counts and sizes must be positive")
        summed = cuts[:-1] + counts * sizes
        if np.any(np.abs(cuts[1:] - summed) > 1e-9 * np.maximum(np.abs(cuts[1:]), sizes)):
            raise ValueError(f"row {r}: a piece end is not where its steps end")
        piece = np.repeat(np.arange(len(counts)), counts)
        first = np.cumsum(counts) - counts
        times.append(np.append(cuts[piece] + (np.arange(len(piece)) - first[piece]) * sizes[piece], cuts[-1]))
        pieces.append(piece)
    totals = sorted({len(piece) for piece in pieces})
    if len(totals) > 1:
        raise ValueError(f"every row must take the same number of steps, got {totals}")
    index_type = np.min_scalar_type(max(piece[-1] for piece in pieces))
    return np.stack(times, axis=1), np.stack(pieces, axis=1).astype(index_type)


def segment_plan(laws, times: np.ndarray) -> np.ndarray:
    """Segment of each row's law at each time of a (n_steps + 1, B) plan.

    Step k of row r takes segment [k, r], the one it starts in, for both of
    its evaluations; the last entry is the segment of the end time, which
    only the last sample reads.  Returns law-local segments in the smallest
    integer type that holds every segment index.
    """
    index_type = np.min_scalar_type(-max(len(law.params) for law in laws) - 1)
    seg = np.empty(times.shape, dtype=index_type)
    for r, law in enumerate(laws):
        seg[:, r] = law.segment_at(times[:, r])
    return seg


@dataclass
class Trajectory:
    """Sampled closed-loop run.

    norm_h is the state norm (Parseval: the coefficient 2-norm), lyapunov the
    weighted energy under the feedback law active at the sample time,
    control_norm the coefficient norm of the control, interval the active
    schedule interval (TERMINAL when none), threshold the active spectral
    threshold (nan when none).  dissipation and control_work are cumulative
    integrals of ||grad y||^2 and of the control power, accumulated inside
    the stepping; together with norm_h they express the energy identity.
    """

    times: np.ndarray
    states: np.ndarray  # (samples, M)
    norm_h: np.ndarray
    lyapunov: np.ndarray
    control_norm: np.ndarray
    interval: np.ndarray  # int
    threshold: np.ndarray
    dissipation: np.ndarray
    control_work: np.ndarray
    nu: float = 1.0


@dataclass
class BatchRun:
    """Sampled columns of B closed-loop runs stepped together.

    Per-sample columns are (samples, B) arrays with the meaning of the
    Trajectory fields; times holds each row's sample times from its step
    plan, segments each row's segment of its own law at each sample, and
    thresholds[r] the threshold of each segment of row r's law (nan at
    TERMINAL).  states (K, samples, M) and lyapunov (samples, K) are kept for
    the first K rows only.  latch_time is the time each row's latch tripped,
    nan where it never did.  seconds is the time (time.perf_counter) the
    simulate_batch call took.
    """

    thresholds: np.ndarray  # (B, segments per row)
    nu: float
    sample_stride: int
    times: np.ndarray
    segments: np.ndarray
    norm_h: np.ndarray
    control_norm: np.ndarray
    dissipation: np.ndarray
    control_work: np.ndarray
    states: np.ndarray
    lyapunov: np.ndarray
    latch_time: np.ndarray
    seconds: float

    def health(self, row: int | None = None) -> dict:
        """Closed-loop steps and largest |energy-identity residual| of one row,
        or of all rows, with the stepping time.

        The residual at a sample is 1/2 ||X||^2 + nu * dissipation - control
        work - 1/2 ||X(0)||^2.  stepping_s is the time of the whole call and
        us_per_step that time per trajectory step of the call, whichever rows
        are asked for.
        """
        batch = self.norm_h.shape[1]
        rows = range(batch) if row is None else (row,)
        row_steps = (len(self.norm_h) - 1) * self.sample_stride

        def row_defect(r):  # row by row, so the temporaries stay one column long
            norm, e0 = self.norm_h[:, r], 0.5 * self.norm_h[0, r] ** 2
            return float(np.abs(0.5 * norm**2 + self.nu * self.dissipation[:, r] - self.control_work[:, r] - e0).max())

        defect = max(row_defect(r) for r in rows)
        return {"steps": row_steps * len(rows), "max_energy_defect": defect, "stepping_s": self.seconds,
                "us_per_step": self.seconds / (row_steps * batch) * 1e6}

    def trajectory(self, row: int) -> Trajectory:
        """The run of one row whose states were kept, with its own copies of the columns."""
        seg = self.segments[:, row]
        return Trajectory(
            times=self.times[:, row].copy(),
            states=self.states[row],
            norm_h=self.norm_h[:, row].copy(),
            lyapunov=self.lyapunov[:, row].copy(),
            control_norm=self.control_norm[:, row].copy(),
            interval=seg.astype(np.int64),
            threshold=self.thresholds[row][seg],
            dissipation=self.dissipation[:, row].copy(),
            control_work=self.control_work[:, row].copy(),
            nu=self.nu,
        )


def simulate_batch(
    y0: np.ndarray,
    law,
    plan,
    basis: StokesBasis,
    tensor: np.ndarray,
    gram: np.ndarray,
    nu: float = 1.0,
    sample_stride: int = 1,
    latch_norm=None,
    state_rows: int | None = None,
) -> BatchRun:
    """Integrate B closed-loop runs side by side, sampling every
    sample_stride steps.

    y0 is (B, M).  law is one ControlLaw for every row or a sequence of B
    laws, and plan likewise one row plan (cuts, counts, sizes) for every row
    or a sequence of B of them: the row starts at cuts[0], and piece p ends
    at cuts[p + 1] after counts[p] steps of sizes[p] (see
    :func:`step_times`).  Every row takes the same number of steps, a whole
    number of samples.  With latch_norm, row r's control switches off for
    good at the first law evaluation whose state norm is <= latch_norm[r].
    States are kept for the first state_rows rows (default: all).  Raises
    BlowUpError at the first step where a coefficient of a row exceeds
    BLOWUP_GUARD times the row's initial norm, with the first such row and
    its time.
    """
    start = time.perf_counter()
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.ndim != 2 or len(y0) == 0 or y0.shape[1] != basis.n_modes:
        raise ValueError("initial coefficients must be a nonempty (B, M) batch matching the basis size")
    b, m = y0.shape
    laws = (law,) * b if isinstance(law, ControlLaw) else tuple(law)
    if len(laws) != b:
        raise ValueError(f"got {len(laws)} laws for {b} rows")
    plans = (plan,) * b if np.ndim(plan[0][0]) == 0 else tuple(plan)  # one plan starts with its first cut
    if len(plans) != b:
        raise ValueError(f"got {len(plans)} step plans for {b} rows")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    times, piece = step_times(plans)
    n_steps = len(piece)
    if n_steps % sample_stride != 0:
        raise ValueError("step count must be a whole number of samples")

    kept = b if state_rows is None else state_rows
    seg = segment_plan(laws, times)
    # one table per row, padded with zero-law rows to a shared size; row r's
    # segment s, TERMINAL included, is row r*size + s % size of the stack
    size = max(len(law.params) for law in laws) + 1
    gains, weights, radii, thresholds = (np.stack(table) for table in zip(*(law.tables(m, size) for law in laws)))
    gains, weights, radii = gains.reshape(b * size, m), weights.reshape(b * size, m), radii.ravel()
    row_start = size * np.arange(b)
    index = (seg.astype(np.intp) % size + row_start).astype(np.min_scalar_type(b * size))
    # the step sizes of every row's pieces, row after row, and each step's
    # entry among them in dt_index
    dt_values = np.concatenate([np.asarray(sizes, dtype=np.float64) for _, _, sizes in plans])
    first_piece = np.cumsum([0] + [len(sizes) for _, _, sizes in plans[:-1]])
    dt_index = (piece + first_piece).astype(np.min_scalar_type(len(dt_values)))
    latch = None if latch_norm is None else np.broadcast_to(np.asarray(latch_norm, dtype=np.float64), (b,))
    latched = np.zeros(b, dtype=bool)
    latch_time = np.full(b, np.nan)
    guard = BLOWUP_GUARD * np.sqrt(row_dot(y0, y0))
    guard_col, guard_all = guard[:, None], guard.min()

    tau = basis.eigenvalues
    dt_col = dt_values[:, None]
    decay_table = np.exp(-nu * tau * dt_col)
    decay_sq = decay_table * decay_table
    # exponentially weighted trapezoid weights for int X_k(s)^2 ds over a step;
    # modes whose memory dies within one step fall back to the start-point rule
    diss_half_table = (1.0 - decay_sq) / (2.0 * nu * tau) * 0.5
    endpoint_ok_table = decay_sq > 1e-12
    decay_sq_safe_table = np.maximum(decay_sq, 1e-300)
    half_dt_table = 0.5 * dt_col
    convection = packed_convection(tensor, b)
    gram_t = gram.T
    # rows without cutoff have radius inf; a batch with no finite radius skips
    # the row norms, which cost about 5 us per law evaluation
    any_cutoff = bool(np.isfinite(radii).any())

    def control(x, gain, radius, k, shift):
        """Law with this step's gains and radii at time times[k] + shift
        (shift is 0, or the step's sizes at the predictor)."""
        c = x * gain
        if any_cutoff:
            c = radial_cutoff_rows(c, radius)
        if latch is not None:
            trip = ~latched & (np.sqrt(row_dot(x, x)) <= latch)
            if trip.any():
                latch_time[trip] = (times[k] + shift)[trip]
                latched[trip] = True
            if latched.any():
                c = np.where(latched[:, None], 0.0, c)
        return c

    n_samples = n_steps // sample_stride + 1
    norm_h, control_norm, dissipation, control_work = np.empty((4, n_samples, b))
    states = np.empty((kept, n_samples, m))
    lyap = np.empty((n_samples, kept))

    # a block's states, controls and Gram products; slot 0 holds the state and
    # control that the previous block ended on
    block = min(_BLOCK, n_steps)
    xs, c1s, g1s, g2s = np.empty((4, block + 1, b, m))
    # row_dot against one copy of tau per row, where a (B, M) @ (M,) product
    # would sum rows in different orders by their position in the batch
    tau_rows = np.tile(tau, (block * b, 1))
    carry = np.zeros((2, b))  # dissipation and control work at the block's first step

    def stacked_dot(u, v):
        """row_dot over the rows of (n, B, M) stacks, as an (n, B) array."""
        return row_dot(u.reshape(-1, m), v.reshape(-1, m)).reshape(len(u), b)

    def record(k0, n, last):
        """Samples and energy integrals of steps k0 .. k0 + n from the block buffers.

        The integrals run on from the carry with a cumulative sum, which
        adds left to right like a running total.  The block's end state is
        sampled here only when it is the run's last step; otherwise it opens
        the next block.
        """
        x = xs[: n + 1]
        x2 = x * x
        steps = dt_index[k0 : k0 + n]
        # energy bookkeeping: trapezoid in the integrating-factor variable
        z_sq_end = np.where(endpoint_ok_table[steps], x2[1:] / decay_sq_safe_table[steps], x2[:-1])
        diss = np.cumsum(np.concatenate(
            [carry[:1], stacked_dot(diss_half_table[steps] * (x2[:-1] + z_sq_end), tau_rows[: n * b])]), axis=0)
        work = np.cumsum(np.concatenate(
            [carry[1:], half_dt_table[steps, 0] * (stacked_dot(x[:-1], g1s[:n]) + stacked_dot(x[1:], g2s[:n]))]),
            axis=0)
        carry[:] = diss[n], work[n]
        first = -k0 % sample_stride
        chosen = slice(first, n + 1 if last else n, sample_stride)
        x_s = x[chosen]
        if not len(x_s):
            return
        i0 = (k0 + first) // sample_stride
        i = slice(i0, i0 + len(x_s))
        c_s = c1s[chosen]
        norm_h[i] = np.sqrt(stacked_dot(x_s, x_s))
        control_norm[i] = np.sqrt(stacked_dot(c_s, c_s))
        dissipation[i] = diss[chosen]
        control_work[i] = work[chosen]
        states[:, i] = x_s[:, :kept].swapaxes(0, 1)
        lyap[i] = (x2[chosen, :kept] * weights[index[k0 : k0 + n + 1][chosen, :kept]]).sum(axis=2)

    xs[0] = y0
    for k0 in range(0, n_steps, block):
        n = min(block, n_steps - k0)
        # the law's gains and radii at the start of every step of the block and
        # at its end, and the decay and step sizes of its steps
        gain, radius = gains[index[k0 : k0 + n + 1]], radii[index[k0 : k0 + n + 1]]
        steps = dt_index[k0 : k0 + n]
        decays, dts, half_dts = decay_table[steps], dt_col[steps], half_dt_table[steps]
        if k0 == 0:
            c1s[0] = control(xs[0], gain[0], radius[0], 0, 0.0)
        for j in range(n):
            k = k0 + j
            x, x_new = xs[j], xs[j + 1]
            decay, half_dt = decays[j], half_dts[j]
            g1 = np.matmul(c1s[j], gram_t, out=g1s[j])
            f1 = g1 - convection(x)
            predictor = decay * (x + dts[j] * f1)
            g2 = np.matmul(control(predictor, gain[j], radius[j], k, dts[j, :, 0]), gram_t, out=g2s[j])
            np.add(decay * (x + half_dt * f1), half_dt * (g2 - convection(predictor)), out=x_new)
            if not np.abs(x_new).max() <= guard_all:
                over = ~np.all(np.abs(x_new) <= guard_col, axis=1)
                if over.any():
                    row = int(np.argmax(over))
                    finite = x_new[row][np.isfinite(x_new[row])]
                    worst = float(np.abs(finite).max()) if finite.size else float("inf")
                    raise BlowUpError(float(times[k, row] + dts[j, row, 0]), worst, row)
            c1s[j + 1] = control(x_new, gain[j + 1], radius[j + 1], k + 1, 0.0)
        record(k0, n, k0 + n == n_steps)
        xs[0], c1s[0] = xs[n], c1s[n]

    return BatchRun(
        thresholds=thresholds,
        nu=nu,
        sample_stride=sample_stride,
        times=np.ascontiguousarray(times[::sample_stride]),
        segments=seg[::sample_stride],
        norm_h=norm_h,
        control_norm=control_norm,
        dissipation=dissipation,
        control_work=control_work,
        states=states,
        lyapunov=lyap,
        latch_time=latch_time,
        seconds=time.perf_counter() - start,
    )
