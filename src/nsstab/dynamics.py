"""Galerkin dynamics of the controlled flow in the Stokes eigenbasis.

With y = sum_k X_k e_k and a control f = sum_i c_i e_i applied through the
indicator of the control window, the coefficients satisfy, at unit
viscosity (a viscosity v > 0 maps onto it on the same domain by
y(x, t) = v w(x, v t), f(x, t) = v^2 g(x, v t)),

    dX_k/dt = -tau_k X_k - sum_ij T[i,j,k] X_i X_j + (G c)_k

where T[i,j,k] is the convection tensor B(e_i, e_j, e_k) skew-symmetrized in
(j, k) and G is the full Gram matrix over the window.  Skew-symmetrization
makes the discrete nonlinearity exactly energy-neutral, so the energy law

    d/dt (1/2 ||X||^2) = -sum tau_k X_k^2 + X . (G c)

holds at the ODE level.  Time stepping is an exponential RK2 in Lawson's
form (Lawson, SIAM J. Numer. Anal. 4, 1967; Hochbruck & Ostermann, Acta
Numerica 19, 2010): a linear part L is integrated exactly by its
propagator E = e^{hL}, and the remainder r explicitly at second order,

    p = E (x + h r(x)),   x' = E (x + h/2 r(x)) + h/2 r(p).

Which L a row takes is fixed by its law and the piece:

* a piece with a gain of a stationary law (:meth:`ControlLaw.stationary`),
  or of a periodic law without cutoff (the one rule,
  :attr:`ControlLaw.closed_loop`), steps that segment's closed loop,
  L = -diag(tau) + G K (:func:`closed_loop_matrix`) with K x = -gain times
  the active modes, and r(x) = G (c(x) - K x) - N(x).  While the cutoff
  does not act, c(x) = K x exactly, so r is the convection alone and the
  step takes no limit from the gain.  E = expm(h L) and the energy moments
  are tabled once per distinct (gain row, step size)
  (:class:`ClosedLoopTable`), each table's moments from its own gain and
  step (:func:`closed_loop_moments`, the moments of e^{L s} for any
  symmetric Q), and a step's
  dissipation and linear control work are x^T W0 x + 2 h x^T W1 r(x),
  exact for the linear flow, plus the trapezoid of x . G (c - K x).  When
  the cutoff does act, at either evaluation, that moment and that
  trapezoid are large and cancel, so the step's control work is the
  trapezoid of x . G c alone, as on the diagonal factor.  The explicit
  correction G (c - K x) also cancels a stiff term in the state: the
  step stays stable but loses accuracy, which only steps below
  0.25 / gain restore (a start whose raw control is 3 times the radius,
  at 32x32 with M = 24 and gain 7.2e4: 50% of the norm at 1024 steps, 4%
  at dt = 0.25 / gain and 0.5% at a quarter of that).  So a periodic law
  with a cutoff, whose cutoff acts wherever a start exceeds its radius,
  keeps the diagonal factor below;
* the zero law, the terminal piece of a periodic law, every piece of a
  periodic law with a cutoff, and every step of a row after its latch
  trips take the integrating factor of the diagonal alone (Cox &
  Matthews, J. Comput. Phys. 176, 2002), E = diag(e^{-tau h}), with
  r = G c - N explicit, and exponentially weighted trapezoids (exact for
  pure decay) for the energy integrals.  A batch of such rows only runs the
  per-step arithmetic of that scheme.

So the energy identity can be checked along a run: to roundoff for a
linear closed loop, and to O(dt^2) per unit time otherwise.

A table is built when an unlatched row first reaches a piece that takes
it, and dropped once no unlatched row can reach such a piece again;
:meth:`BatchRun.health` counts the tables and the time they took.

Every control law here is piecewise-constant linear feedback with an
optional radial cutoff and norm latch (:class:`ControlLaw`).  A run steps a
(B, M) batch of trajectories together, and each row may have its own law
and step plan, as long as every row takes the same number of steps.  A
row's plan is its list of pieces: the cut times (the start, then each
piece's end), and each piece's step count and step size.  Step j of piece
p starts at cut_p + j h_p, and the next piece starts at cut_{p+1}
(:func:`step_times`), so a piece that starts between switches still ends
on the next one exactly.  Each piece lies in one segment of its row's law,
so every switch is a cut, and the Heun step, whose two evaluations take
its piece's law, stays second order across it; a piece whose last step
starts in another segment than its first, or as far from its first as its
segment is long, is rejected.  Every per-step table is gathered through
one index, the piece of each step numbered over the batch (row r's
pieces, then an entry for its end time): the gains, Lyapunov weights,
cutoff radii and thresholds of the segment looked up at the piece's cut,
and its decay factors, trapezoid weights, step size and closed-loop
table.  The convection term of a half step is one
(B, M(M+1)/2) @ (M(M+1)/2, M) product over the pairs i <= j of the tensor
symmetrized in (i, j) (:func:`packed_convection`), shared by all the rows.
Every mode has exact reflection parities, so the tensor is exactly 0
outside its parity pattern (:func:`raw_trilinear_tensor`), three quarters
of its entries; the product still runs over all of them.

The per-step loop of :func:`simulate_batch` keeps only what the next state
depends on: the two convection terms, the two law evaluations (cutoff and
latch included), the Gram products of the control remainders, the two
propagations, and the blow-up guard, which is relative to each row's
initial norm.  While every row steps a closed loop, an evaluation that
leaves every row's control at its linear value K x (no cutoff acts, no row
is latched) has the remainder c - K x = 0 exactly, so its Gram product is
skipped and its slot of the block buffer holds zeros.  On a closed-loop
row whose cutoff acted at either evaluation of a step, the loop then
overwrites that step's Gram products with G c, for the trapezoid of the
control work.  The loop
writes each step's state, control, Gram products and remainder r(x) into
block buffers.  The energy-moment products x @ quad_x + r @ quad_r of the
closed-loop rows run once per stretch of steps whose grouping of rows into
tables does not change (a block, or its part between regroups): one
stacked (n, rows, M) @ (M, 2M) product per table, which numpy computes
as one product per step.  Once per block of ``_BLOCK`` steps, and at the
last step, one vectorized pass turns the buffers into the samples, the
Lyapunov column and the energy integrals; the per-piece tables are
gathered for the block's steps at its start.  The pass uses the same row
dot products as a per-step loop would, and its cumulative sums add left
to right like a running total, so no result depends on the block length.
The call times itself with time.perf_counter, and :meth:`BatchRun.health` reports the
steps, the largest energy-identity residual, that time and the tables'
count and time, for one row or for all.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .constants import TERMINAL, FeedbackParams, Schedule, radial_cutoff_rows, row_dot
from .errors import BlowUpError
from .grid import Grid, central_dx, central_dy
from .spectral import CLASSES, StokesBasis, reflection_parities

#: abort once a coefficient exceeds this multiple of its row's initial norm
BLOWUP_GUARD = 1e6

#: steps per block of the deferred sampling and energy bookkeeping; results do not depend on it
_BLOCK = 64

#: coefficients b_0..b_13 of the degree-13 Pade approximant to exp, and the 1-norm up
#: to which it meets double precision unscaled (Higham 2005, Table 2.3 and eq. (10.40))
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0, 129060195264000.0,
           10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152

#: the 12-point Gauss-Legendre rule of the moment integrals over one sub-step, on
#: [-1, 1]: its nodes, the eigenvalues of the Jacobi matrix of the Legendre
#: recurrence, and half its weights, the squared first components of the
#: eigenvectors (Golub & Welsch, Math. Comp. 23, 1969), as numpy's eigh gives
#: them; kept as numbers, since a process's first symmetric eigensolve costs it
#: 0.7 MB of resident memory
_GAUSS_NODES = np.array([
    -0.9815606342467195, -0.9041172563704749, -0.7699026741943048, -0.5873179542866177, -0.36783149899817996,
    -0.12523340851146894, 0.12523340851146886, 0.36783149899818024, 0.5873179542866174, 0.7699026741943049,
    0.904117256370475, 0.9815606342467191])
_GAUSS_HALF_WEIGHTS = np.array([
    0.02358766819325577, 0.053469662997659366, 0.08003916427167304, 0.1015837133615329, 0.1167462682691773,
    0.12457352290670178, 0.1245735229067015, 0.11674626826917689, 0.10158371336153302, 0.08003916427167301,
    0.05346966299765929, 0.023587668193255765])

#: degree of the Taylor sums of the sub-step flows in :func:`closed_loop_moments`
_TAYLOR_DEGREE = 18


def raw_trilinear_tensor(basis: StokesBasis, grid: Grid) -> np.ndarray:
    """Convection tensor entries B(e_i, e_j, e_k) by physical-space quadrature.

    Gradients use the grid's central stencils (:func:`nsstab.grid.central_dx`
    and :func:`nsstab.grid.central_dy`), with zero values outside the
    interior.  The raw entries are skew in (j, k) only up to the O(h^2)
    quadrature residual.

    Every mode has exact reflection parities (sx, sy)
    (:func:`nsstab.spectral.reflection_parities`), and a stream function is a
    pseudo-scalar, so B(e_i, e_j, e_k) vanishes unless the three x-parities
    and the three y-parities each multiply to -1.  Only those entries are
    computed, one product per pair of classes (i, j), which fixes the class
    of k: about a quarter of the tensor.  The others are stored as exact
    zeros.  The integrand of an allowed entry is even in x and in y, node for
    node, so the quadrature runs over the quarter of the nodes up to the
    middle lines, weighted 4, 2 on a middle line and 1 at the centre.
    """
    sx, sy, residual = reflection_parities(basis.stream_functions)
    if residual != 0.0:
        raise ValueError(f"basis modes lack exact reflection parities (residual {residual:.2e})")
    m = basis.n_modes
    qx, qy = -(-grid.nx // 2), -(-grid.ny // 2)
    quarter = (..., slice(qx), slice(qy))
    vel = basis.velocities[quarter].reshape(m, 2, -1)  # (m, 2, N / 4)
    grads = np.stack([central_dx(basis.velocities, grid.hx), central_dy(basis.velocities, grid.hy)],
                     axis=1)[quarter].reshape(m, 2, 2, -1)  # d_a of component b
    weights = [np.full(q, 2.0) for q in (qx, qy)]
    for w, n in zip(weights, (grid.nx, grid.ny)):
        w[-1] = 2.0 - n % 2
    weighted = vel * np.outer(*weights).ravel()
    members = {c: np.flatnonzero((sx == c[0]) & (sy == c[1])) for c in CLASSES}
    tensor = np.zeros((m, m, m))
    for (ax, ay), i in members.items():
        for (bx, by), j in members.items():
            k = members[(-ax * bx, -ay * by)]
            if len(i) and len(j) and len(k):
                # advected[i, j, b, :] = sum_a e_i[a] * d_a e_j[b]
                advected = vel[i, 0][:, None, None] * grads[j, 0] + vel[i, 1][:, None, None] * grads[j, 1]
                block = advected.reshape(len(i) * len(j), -1) @ weighted[k].reshape(len(k), -1).T
                tensor[np.ix_(i, j, k)] = block.reshape(len(i), len(j), len(k))
    return tensor * grid.cell_area


def build_trilinear_tensor(basis: StokesBasis, grid: Grid) -> np.ndarray:
    """Skew-symmetrized convection tensor: T[i,j,k] = -T[i,k,j] exactly, and
    exactly 0 outside the parity pattern of :func:`raw_trilinear_tensor`."""
    raw = raw_trilinear_tensor(basis, grid)
    return 0.5 * (raw - raw.transpose(0, 2, 1))


def packed_convection(tensor: np.ndarray, rows: int):
    """The convection term x -> sum_ij T[i,j,k] x_i x_j of each row of a (rows, M) batch.

    Since x_i x_j = x_j x_i, the tensor is symmetrized in (i, j) and packed
    once over the M(M+1)/2 pairs i <= j, so each call is one
    (rows, M(M+1)/2) @ (M(M+1)/2, M) product instead of (rows, M^2) @ (M^2, M).
    The pair factors are gathered from the flattened batch by precomputed
    flat indices r*M + i, so the batch size is fixed here.  A 3-row batch
    runs its product on 4 rows, the last a zero pad: OpenBLAS on one thread
    takes about 37 us for 3 rows at M = 64 and 25 us for 4, and each row
    comes out bit for bit as in the 3-row product.  The pair factors and the result live
    in buffers made here, so the array returned is overwritten by the next
    call.
    """
    m = tensor.shape[0]
    iu, ju = np.triu_indices(m)
    # gathered pair by pair, with no M^3 temporary of the symmetrized tensor
    packed = tensor[iu, ju]
    packed += tensor[ju, iu]
    packed[iu == ju] *= 0.5  # the diagonal pairs were doubled; 2T * 0.5 = T exactly
    row_start = m * np.arange(rows)[:, None]
    flat_i, flat_j = row_start + iu, row_start + ju
    pairs = np.zeros((4 if rows == 3 else rows, len(iu)))
    head, factor, out = pairs[:rows], np.empty((rows, len(iu))), np.empty((len(pairs), m))

    def convection(x: np.ndarray) -> np.ndarray:
        if x.shape != (rows, m):
            raise ValueError(f"expected a ({rows}, {m}) batch, got {x.shape}")
        flat = x.ravel()
        # indices are in range by construction; "clip" skips the bounds check, and
        # the method skips the Python wrapper of np.take
        flat.take(flat_i, out=head, mode="clip")
        np.multiply(head, flat.take(flat_j, out=factor, mode="clip"), out=head)
        return np.matmul(pairs, packed, out=out)[:rows]

    return convection


def convection_lipschitz(tensor: np.ndarray) -> float:
    """Frobenius norm of the tensor symmetrized in (i, j), S = T + T^(ij).

    The convection's Jacobian at x is sum_i x_i S[i], so its norm is at most
    this scale times ||x||.  Summed as ||S||^2 = 2 ||T||^2 + 2 sum_ijk
    T[i,j,k] T[j,i,k], with no M^3 temporary.
    """
    flat = tensor.ravel()
    return math.sqrt(2.0 * (float(flat @ flat) + float(np.einsum("ijk,jik->", tensor, tensor))))


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by the degree-13 Pade approximant with scaling and
    squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005).

    a is scaled by a power of two to a 1-norm of at most _THETA13, where the
    approximant is accurate to double precision, and the result is squared
    back.  numpy only, so that stepping never imports scipy.
    """
    a = np.asarray(a, dtype=np.float64)
    norm = float(np.abs(a).sum(axis=0).max())
    if not math.isfinite(norm):
        raise ValueError("matrix exponential of a matrix with non-finite entries")
    squarings = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > _THETA13 else 0
    a = a / 2.0**squarings
    b = _PADE13
    ident = np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    # (V - U)^-1 (V + U) as I + 2 (V - U)^-1 U, which keeps the rounding of the
    # identity out of the small terms
    r = np.linalg.solve(v - u, 2.0 * u)
    r[np.diag_indices_from(r)] += 1.0
    for _ in range(squarings):
        r = r @ r
    return r


@dataclass(frozen=True)
class ClosedLoopTable:
    """Stepping tables of a closed loop at one step size h.

    L = :func:`closed_loop_matrix` of gain, the control gains of one law
    segment (-gain on the active modes).  prop_t is e^{h L} transposed, so
    a (B, M) batch steps as x @ prop_t.  The energy integrals of a step
    from x with explicit remainder r are x . (x @ quad_x + r @ quad_r),
    columns :M the dissipation and M: the linear control work: quad_x holds
    W0 of Q = diag(tau) and of Q = sym(G diag(gain)), quad_r twice their
    first moments M1, so that the sums are x^T W0 x + 2 h x^T W1 r with
    W1 = M1 / h (all symmetric).  :func:`simulate_batch` assembles each
    table from :func:`closed_loop_moments` of its gain's L at h.
    """

    gain: np.ndarray
    prop_t: np.ndarray
    quad_x: np.ndarray
    quad_r: np.ndarray


def closed_loop_matrix(tau: np.ndarray, gram: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """L = -diag(tau) + G diag(gain), the linear part of the closed loop of
    one law segment with control gains gain (-gain on the active modes)."""
    return gram * gain - np.diag(tau)


def _sub_step_flows(step: np.ndarray) -> np.ndarray:
    """e^{t step} at the 12 Gauss-Legendre fractions t of the step, then at
    t = 1, as a (13, M, M) stack.

    Each is a degree-18 Taylor sum over one table of the powers
    step^i / i!; at ||step||_1 <= 1 its remainder is below e / 19! < 3e-17,
    so the 13 flows cost one coefficient product after the 18 powers.
    """
    m = len(step)
    powers = np.empty((_TAYLOR_DEGREE + 1, m, m))
    powers[0] = np.eye(m)
    for i in range(1, _TAYLOR_DEGREE + 1):
        np.matmul(powers[i - 1], step, out=powers[i])
        powers[i] /= i
    fractions = np.append(0.5 * (_GAUSS_NODES + 1.0), 1.0)
    coefficients = fractions[:, None] ** np.arange(_TAYLOR_DEGREE + 1)
    return (coefficients @ powers.reshape(_TAYLOR_DEGREE + 1, -1)).reshape(-1, m, m)


def closed_loop_moments(lin: np.ndarray, quads, h: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """The symmetrized moments of the linear flow e^{L s} over one step h.

    For each symmetric Q of quads they are W0 = int_0^h e^{L^T s} Q e^{L s} ds
    and M1 = int_0^h s e^{L^T s} Q e^{L s} ds (Van Loan, IEEE Trans. Automat.
    Control 23, 1978, with doubling in place of one block exponential, whose
    e^{+L s} blocks overflow on stiff steps).  Over the sub-step
    d = h / 2^k, the largest with ||L d||_1 <= 1, they are 12-point
    Gauss-Legendre sums, whose flows, and E(d) = e^{L d}, come from
    :func:`_sub_step_flows`.  The moments at h double those k times,

        W0(2s) = W0(s) + E(s)^T W0(s) E(s)
        M1(2s) = M1(s) + E(s)^T (M1(s) + s W0(s)) E(s),

    so they depend on L, Q and h only.
    """
    m = len(lin)
    norm = float(np.abs(h * lin).sum(axis=0).max())
    doublings = max(0, math.ceil(math.log2(norm))) if norm > 1.0 else 0
    s = h / 2.0**doublings
    flows = _sub_step_flows(s * lin)
    e_sub, flows = flows[-1], flows[:-1]
    weights = s * _GAUSS_HALF_WEIGHTS
    rule = np.stack([weights, 0.5 * s * (_GAUSS_NODES + 1.0) * weights])  # the node weights of W0 and M1
    moments = []
    for q in quads:
        terms = flows.transpose(0, 2, 1) @ (q @ flows)
        w0, m1 = (rule @ terms.reshape(len(terms), -1)).reshape(2, m, m)
        moments.append((w0, m1))
    for j in range(doublings):
        if j:
            e_sub, s = e_sub @ e_sub, 2.0 * s
        moments = [(w0 + e_sub.T @ w0 @ e_sub, m1 + e_sub.T @ (m1 + s * w0) @ e_sub) for w0, m1 in moments]
    return [(0.5 * (w0 + w0.T), 0.5 * (m1 + m1.T)) for w0, m1 in moments]


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

    @property
    def closed_loop(self) -> bool:
        """Whether the pieces with a gain step their closed loop: those of a
        stationary law, and of a periodic law without cutoff."""
        return bool(self.params) and (self.schedule is None or not self.cutoff)

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

    def tables(self, m: int):
        """Per-segment arrays for an M-mode basis, then the zero law's row.

        Returns the control gains (-gain on the active modes), the Lyapunov
        weights (weight on the active modes, 1 elsewhere), the cutoff radii
        (inf without cutoff, so the cutoff never acts) and the thresholds,
        each with len(params) + 1 rows.  The last row is the zero law: no
        gain, unit weights, radius inf, threshold nan; TERMINAL (-1) indexes it.
        """
        gains = np.zeros((len(self.params) + 1, m))
        weights = np.ones_like(gains)
        radii = np.full(len(gains), np.inf)
        thresholds = np.full(len(gains), np.nan)
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
    not dyadic still ends exactly on its cut, the switch of the law where
    :func:`simulate_batch` looks up the next piece's segment.
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


@dataclass
class BatchRun:
    """Sampled columns of B closed-loop runs stepped together.

    Per-sample columns are (samples, B) arrays with the meaning of the
    Trajectory fields; times holds each row's sample times from its step
    plan, and pieces each sample's piece, numbered over the batch (row r's
    pieces, then an entry for its end time); piece_segments and
    piece_thresholds hold each entry's segment of its row's law and its
    threshold (nan at TERMINAL).  states (K, samples, M) and lyapunov
    (samples, K) are kept for the first K rows only.  latch_time is the time
    each row's latch tripped, nan where it never did.  seconds is the time
    (time.perf_counter) the simulate_batch call took, tables the number of
    closed-loop tables it built and tables_s the part of seconds spent
    building them.
    """

    piece_segments: np.ndarray
    piece_thresholds: np.ndarray
    sample_stride: int
    times: np.ndarray
    pieces: np.ndarray
    norm_h: np.ndarray
    control_norm: np.ndarray
    dissipation: np.ndarray
    control_work: np.ndarray
    states: np.ndarray
    lyapunov: np.ndarray
    latch_time: np.ndarray
    seconds: float
    tables: int
    tables_s: float

    def health(self, row: int | None = None) -> dict:
        """Closed-loop steps and largest |energy-identity residual| of one row,
        or of all rows, with the stepping time.

        The residual at a sample is 1/2 ||X||^2 + dissipation - control
        work - 1/2 ||X(0)||^2.  stepping_s is the time of the whole call and
        us_per_step that time per trajectory step of the call, tables and
        tables_s the closed-loop tables the call built and the time that took,
        whichever rows are asked for.
        """
        batch = self.norm_h.shape[1]
        rows = range(batch) if row is None else (row,)
        row_steps = (len(self.norm_h) - 1) * self.sample_stride

        def row_defect(r):  # row by row, so the temporaries stay one column long
            norm, e0 = self.norm_h[:, r], 0.5 * self.norm_h[0, r] ** 2
            return float(np.abs(0.5 * norm**2 + self.dissipation[:, r] - self.control_work[:, r] - e0).max())

        defect = max(row_defect(r) for r in rows)
        return {"steps": row_steps * len(rows), "max_energy_defect": defect, "stepping_s": self.seconds,
                "us_per_step": self.seconds / (row_steps * batch) * 1e6, "tables": self.tables,
                "tables_s": self.tables_s}

    def trajectory(self, row: int) -> Trajectory:
        """The run of one row whose states were kept, with its own copies of the columns."""
        piece = self.pieces[:, row]
        return Trajectory(
            times=self.times[:, row].copy(),
            states=self.states[row],
            norm_h=self.norm_h[:, row].copy(),
            lyapunov=self.lyapunov[:, row].copy(),
            control_norm=self.control_norm[:, row].copy(),
            interval=self.piece_segments[piece].astype(np.int64),
            threshold=self.piece_thresholds[piece],
            dissipation=self.dissipation[:, row].copy(),
            control_work=self.control_work[:, row].copy(),
        )


def simulate_batch(
    y0: np.ndarray,
    law,
    plan,
    basis: StokesBasis,
    tensor: np.ndarray,
    gram: np.ndarray,
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
    number of samples, and each piece lies in one segment of its row's law:
    a ValueError names the row and the piece whose last step starts in
    another segment than its first, or as far from it as its segment is
    long.  With latch_norm, row r's control switches off for good at the
    first law evaluation whose state norm is <= latch_norm[r].  States are kept for the first state_rows rows
    (default: all).  Raises BlowUpError at the first step where a
    coefficient of a row exceeds BLOWUP_GUARD times the row's initial norm,
    with the first such row and its time.  A piece with a gain of a
    stationary law or of a periodic law without cutoff steps its closed loop
    in the exponential, and every other step the diagonal integrating factor
    (see the module docstring).
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
    # the batch's pieces, row after row: row r's pieces, then an entry for its
    # end time, each with its segment of the row's law, that segment's law,
    # and its step size (nan at the end entry, which takes no step)
    entries = []
    for r, ((cuts, counts, sizes), row_law) in enumerate(zip(plans, laws)):
        last = times[np.cumsum(counts) - 1, r]  # the start of each piece's last step
        seg, last_seg = np.split(row_law.segment_at(np.append(cuts, last)), [len(last) + 1])
        # a piece that leaves its segment and comes back to it spans at least
        # the rest of the period, which is no shorter than the segment
        span = last - np.asarray(cuts, dtype=np.float64)[:-1]
        # a stationary or zero law never switches
        length = np.inf if row_law.schedule is None else row_law.schedule.lengths[seg[:-1]]
        bad = (seg[:-1] != last_seg) | (span >= length)
        if bad.any():
            p = np.argmax(bad)
            raise ValueError(f"row {r}: piece {p} starts in segment {seg[p]} of its law and its last step in "
                             f"segment {last_seg[p]}, {span[p]:.6g} later, in a segment {length[p]:.6g} long; "
                             "a plan must cut every switch of its law")
        entries.append((seg, *(table[seg] for table in row_law.tables(m)), np.append(sizes, np.nan)))
    seg, gains, weights, radii, thresholds, dt_values = (np.concatenate(column) for column in zip(*entries))
    # index[k, r] is the entry of row r's step k, and index[-1, r] its end entry
    lengths = np.array([len(entry[0]) for entry in entries])
    end = np.cumsum(lengths) - 1
    index = np.vstack([piece + (end + 1 - lengths), end]).astype(np.min_scalar_type(end[-1]))
    latch = None if latch_norm is None else np.broadcast_to(np.asarray(latch_norm, dtype=np.float64), (b,))
    latched = np.zeros(b, dtype=bool)
    latch_time = np.full(b, np.nan)
    guard = BLOWUP_GUARD * np.sqrt(row_dot(y0, y0))
    guard_col, guard_all = guard[:, None], guard.min()

    tau = basis.eigenvalues
    # built before any table, so that its transients come first
    convection = packed_convection(tensor, b)
    # a piece with a gain of a law that steps its closed loop steps it
    # exactly: one table per distinct (gain row, step size),
    # and table_index[k, r] the table of row r's step k, -1 where the row
    # takes the diagonal factor
    closed_loop = np.repeat([law.closed_loop for law in laws], lengths) & (seg != TERMINAL)
    closed_loop[end] = False
    keys = {}
    piece_tables = [keys.setdefault((gain.tobytes(), float(h)), len(keys)) if closed else -1
                    for gain, h, closed in zip(gains, dt_values, closed_loop)]
    specs = [(np.frombuffer(gain), h) for gain, h in keys]
    n_tables = len(specs)
    # a table is built when an unlatched row first takes it, and dropped when
    # no unlatched row's column of table_index holds it from the current step on
    tables = [None] * n_tables
    built, tables_s = 0, 0.0

    def table(t):
        """Table t, built on first use."""
        nonlocal built, tables_s
        if tables[t] is None:
            begin = time.perf_counter()
            gain, h = specs[t]
            lin, control = closed_loop_matrix(tau, gram, gain), gram * gain  # L and G diag(gain)
            # each the dissipation's, then the work's
            w0, m1 = zip(*closed_loop_moments(lin, (np.diag(tau), 0.5 * (control + control.T)), h))
            tables[t] = ClosedLoopTable(gain=gain, prop_t=np.ascontiguousarray(expm(h * lin).T),
                                        quad_x=np.hstack(w0), quad_r=2.0 * np.hstack(m1))
            built += 1
            tables_s += time.perf_counter() - begin
        return tables[t]

    def drop(k):
        """Drop the tables that no unlatched row takes from step k on."""
        taken = table_index[k:, ~latched]
        for t in np.flatnonzero(np.bincount(taken[taken >= 0], minlength=n_tables) == 0):
            tables[t] = None

    table_index = np.asarray(piece_tables)[index[:-1]] if n_tables else None
    # the steps where the tables of some row change; a latch trip adds the next step
    regroup_steps = set() if not n_tables else {0, *(np.flatnonzero(np.any(np.diff(table_index, axis=0), axis=1)) + 1)}

    dt_col = dt_values[:, None]
    decay_table = np.exp(-tau * dt_col)
    decay_sq = decay_table * decay_table
    # exponentially weighted trapezoid weights for int X_k(s)^2 ds over a step;
    # modes whose memory dies within one step fall back to the start-point rule
    diss_half_table = (1.0 - decay_sq) / (2.0 * tau) * 0.5
    endpoint_ok_table = decay_sq > 1e-12
    decay_sq_safe_table = np.maximum(decay_sq, 1e-300)
    half_dt_table = 0.5 * dt_col
    gram_t = gram.T
    # rows without cutoff have radius inf; a batch with no finite radius skips
    # the row norms, which cost about 5 us per law evaluation
    any_cutoff = bool(np.isfinite(radii).any())
    # the closed-loop rows of the current step, as (table, rows) pairs, whether
    # one table covers the whole batch, and whether every row is in a group
    groups, whole, every = [], False, False

    def control(x, gain, radius, k, shift):
        """Law with this step's gains and radii at time times[k] + shift
        (shift is 0, or the step's sizes at the predictor), whether it is
        x * gain itself: no cutoff acted and no row is latched, and, in a
        batch with closed-loop tables, the rows whose control the cutoff
        changed (None when it changed none)."""
        linear = c = x * gain
        cut = None
        if any_cutoff:
            c = radial_cutoff_rows(c, radius)
            if c is not linear and n_tables:
                cut = np.any(c != linear, axis=1)
        if latch is not None:
            trip = ~latched & (np.sqrt(row_dot(x, x)) <= latch)
            if trip.any():
                latch_time[trip] = (times[k] + shift)[trip]
                latched[trip] = True
                if n_tables:  # the next step to start regroups
                    regroup_steps.update((k, k + 1))
            if latched.any():
                c = np.where(latched[:, None], 0.0, c)
        return c, c is linear, cut

    def regroup(k):
        """The closed-loop groups of step k; a latched row takes the zero law's diagonal factor."""
        nonlocal groups, whole, every
        current = np.where(latched, -1, table_index[k])
        # not np.unique, whose first call imports numpy.ma (13 ms of a warm
        # simulate process, python -X importtime)
        ids = sorted(set(current[current >= 0].tolist()))
        whole = len(ids) == 1 and bool(np.all(current == ids[0]))
        every = bool(np.all(current >= 0))
        drop(k)
        groups = [(table(t), slice(None) if whole else np.flatnonzero(current == t)) for t in ids]
        return current >= 0

    def remainder_gram(c, x, linear, out):
        """G (c - K x) on the closed-loop rows and G c on the others, into out.

        While every row steps its closed loop, a linear evaluation has c = K x
        exactly, so the product is exact zeros and is skipped.
        """
        if linear and every:
            out.fill(0.0)
            return out
        if whole:
            u = c - x * groups[0][0].gain
        elif not groups:
            u = c
        else:
            u = c.copy()
            for table, rows in groups:
                u[rows] = c[rows] - x[rows] * table.gain
        return np.matmul(u, gram_t, out=out)

    def propagate(v, decay):
        """v e^{hL}^T on the closed-loop rows, decay * v on the others."""
        if whole:
            return v @ groups[0][0].prop_t
        out = decay * v
        for table, rows in groups:
            out[rows] = v[rows] @ table.prop_t
        return out

    n_samples = n_steps // sample_stride + 1
    norm_h, control_norm, dissipation, control_work = np.empty((4, n_samples, b))
    states = np.empty((kept, n_samples, m))
    lyap = np.empty((n_samples, kept))

    # a block's states, controls, Gram products and remainders r(x); slot 0
    # holds the state and control that the previous block ended on
    block = min(_BLOCK, n_steps)
    xs, c1s, g1s, g2s, f1s = np.empty((5, block + 1, b, m))
    if n_tables:
        # each step's closed-loop rows, and x @ quad_x + r @ quad_r on them
        closed, quads = np.zeros((block, b), dtype=bool), np.zeros((block, b, 2 * m))
        # each step's closed-loop rows whose cutoff acted at either evaluation:
        # their g1s and g2s hold G c, and their work is its trapezoid alone
        cut_steps = np.zeros((block, b), dtype=bool)

    def moments(j0, j1):
        """x @ quad_x + r @ quad_r of the block's steps j0 .. j1 - 1, which
        share the current groups: one stacked product per group, which numpy
        runs as one product per step, so each step's sums are those of its
        own (rows, M) @ (M, 2M) product."""
        closed[j0:j1] = closed_rows
        for table, rows in groups:
            quads[j0:j1, rows] = xs[j0:j1, rows] @ table.quad_x + f1s[j0:j1, rows] @ table.quad_r

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
        steps = index[k0 : k0 + n]
        # energy bookkeeping: trapezoid in the integrating-factor variable
        z_sq_end = np.where(endpoint_ok_table[steps], x2[1:] / decay_sq_safe_table[steps], x2[:-1])
        diss_steps = stacked_dot(diss_half_table[steps] * (x2[:-1] + z_sq_end), tau_rows[: n * b])
        work_steps = half_dt_table[steps, 0] * (stacked_dot(x[:-1], g1s[:n]) + stacked_dot(x[1:], g2s[:n]))
        if n_tables:
            # closed-loop steps: the moments of the linear flow, and the
            # trapezoid of the explicit control remainder x . G (c - K x)
            dense = closed[:n]
            diss_steps = np.where(dense, stacked_dot(x[:-1], quads[:n, :, :m]), diss_steps)
            work_steps = work_steps + np.where(dense & ~cut_steps[:n], stacked_dot(x[:-1], quads[:n, :, m:]), 0.0)
        diss = np.cumsum(np.concatenate([carry[:1], diss_steps]), axis=0)
        work = np.cumsum(np.concatenate([carry[1:], work_steps]), axis=0)
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
        entry = index[k0 : k0 + n + 1]
        gain, radius, steps = gains[entry], radii[entry], entry[:-1]
        decays, dts, half_dts = decay_table[steps], dt_col[steps], half_dt_table[steps]
        if k0 == 0:
            c1s[0], linear1, cut1 = control(xs[0], gain[0], radius[0], 0, 0.0)
        if n_tables:
            cut_steps[:n] = False
        run_start = 0  # the first step of the block since the groups last changed
        for j in range(n):
            k = k0 + j
            x, x_new = xs[j], xs[j + 1]
            decay, half_dt = decays[j], half_dts[j]
            if k in regroup_steps:
                if j > run_start:
                    moments(run_start, j)
                closed_rows, run_start = regroup(k), j
            g1 = remainder_gram(c1s[j], x, linear1, g1s[j])
            f1 = np.subtract(g1, convection(x), out=f1s[j])
            predictor = propagate(x + dts[j] * f1, decay)
            c2, linear2, cut2 = control(predictor, gain[j], radius[j], k, dts[j, :, 0])
            g2 = remainder_gram(c2, predictor, linear2, g2s[j])
            np.add(propagate(x + half_dt * f1, decay), half_dt * (g2 - convection(predictor)), out=x_new)
            if not np.abs(x_new).max() <= guard_all:
                over = ~np.all(np.abs(x_new) <= guard_col, axis=1)
                if over.any():
                    row = int(np.argmax(over))
                    finite = x_new[row][np.isfinite(x_new[row])]
                    worst = float(np.abs(finite).max()) if finite.size else float("inf")
                    raise BlowUpError(float(times[k, row] + dts[j, row, 0]), worst, row)
            if cut1 is not None or cut2 is not None:
                # where the cutoff acted, G (c - K x) and the moment of K x
                # are large and cancel; the trapezoid of x . G c has no such terms
                acted = closed_rows & (cut2 if cut1 is None else cut1 if cut2 is None else cut1 | cut2)
                if acted.any():
                    g1s[j, acted] = c1s[j, acted] @ gram_t
                    g2s[j, acted] = c2[acted] @ gram_t
                    cut_steps[j] = acted
            c1s[j + 1], linear1, cut1 = control(x_new, gain[j + 1], radius[j + 1], k + 1, 0.0)
        if n_tables:
            moments(run_start, n)
        record(k0, n, k0 + n == n_steps)
        xs[0], c1s[0] = xs[n], c1s[n]

    return BatchRun(
        piece_segments=seg,
        piece_thresholds=thresholds,
        sample_stride=sample_stride,
        times=np.ascontiguousarray(times[::sample_stride]),
        pieces=index[::sample_stride],
        norm_h=norm_h,
        control_norm=control_norm,
        dissipation=dissipation,
        control_work=control_work,
        states=states,
        lyapunov=lyap,
        latch_time=latch_time,
        seconds=time.perf_counter() - start,
        tables=built,
        tables_s=tables_s,
    )
