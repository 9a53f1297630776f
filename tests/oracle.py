"""Reference implementations that nsstab replaced with faster ones.

* The single-trajectory closed-loop stepper and the stateful control-law
  classes that nsstab shipped before the batched stepper.  Tests compare
  :func:`nsstab.dynamics.simulate_batch` against them; the scheme is the
  same integrating-factor Heun step, written one trajectory and one law
  evaluation at a time.  It stays the reference of the zero-law rows and
  the periodic rows with a cutoff, and, at fine steps, of the others.
* The closed-loop exponential step of a stationary law, or of each
  segment of a periodic law (:func:`simulate_closed_loop`), one trajectory
  at a time, with scipy's ``expm`` for the propagator and a composite
  Gauss-Legendre rule with an ``expm`` at every node for the energy moments
  (:func:`dense_moments`), where nsstab takes Taylor flows on one sub-step
  and doubles its moments up to the step.
* The general canonicalizer (:func:`canonical_basis`, with its adjoint
  of the class mirroring, :func:`class_coordinates`), which splits each
  cluster of any solver's pairs by the reflections on the grid and orients
  each class's part; nsstab's class solve replaced it by orienting each
  class's pairs of a cluster in class coordinates, and
  :func:`classwise_eigenbasis` runs that solve's Lanczos pairs through it.
* The dense operator assembly and the dense generalized ``eigh``, run
  through the general canonicalizer, the sparse assembly and shift-invert
  ``eigsh`` (ARPACK) that nsstab's block Lanczos replaced, and one block
  Lanczos on the whole pencil (:func:`unsplit_eigenbasis`), which the
  solve by reflection class replaced.
* The one-shot convection tensor over every entry and every node, with its
  (M, M, 2, N) intermediate, where nsstab computes the parity pattern by
  class pairs on a quarter of the nodes, and the convection term as the
  full M^2 contraction of a state's outer product (:func:`convection`),
  where nsstab packs the pairs i <= j.
* The sampled trilinear constant one triple at a time
  (:func:`estimate_trilinear_constant`), a lower bound that nsstab replaced
  with the closed-form bracket of :func:`nsstab.constants.trilinear_bracket`,
  whose upper end no sampled triple may exceed.
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

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from nsstab.constants import TERMINAL, FeedbackParams, Schedule, cutoff_profile
from nsstab.dynamics import BLOWUP_GUARD, Trajectory, step_times
from nsstab.errors import BlowUpError
from nsstab.grid import Grid
from nsstab.spectral import (
    CLASSES,
    CLUSTER_RTOL,
    EXTRA_MODES,
    EXTRA_RESIDUAL_RTOL,
    RESIDUAL_RTOL,
    START_SEED,
    BandedCholesky,
    BlockLanczos,
    KroneckerSum,
    StokesBasis,
    assemble_operators,
    canonical_eigenspace,
    class_fields,
    cluster_starts,
)


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
    return 0.5 * traj.norm_h**2 + traj.dissipation - traj.control_work - e0


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


def sparse_eigenvalues(grid: Grid, k: int) -> np.ndarray:
    """The k smallest eigenvalues of the pencil by scipy's shift-invert
    ``eigsh`` at sigma = 0 on the sparse Kronecker assembly of the 1D
    stencils, from the seeded start vector nsstab's Lanczos uses."""
    import scipy.sparse as sp
    import scipy.sparse.linalg

    nx, ny = grid.nx, grid.ny
    dx = sp.csr_matrix(_central_difference_1d(nx, grid.hx))
    dy = sp.csr_matrix(_central_difference_1d(ny, grid.hy))
    ix, iy = sp.identity(nx), sp.identity(ny)
    k1 = sp.kron(dx.T @ dx, iy) + sp.kron(ix, dy.T @ dy)
    k2 = (sp.kron(sp.csr_matrix(_fourth_difference_1d(nx, grid.hx)), iy)
          + sp.kron(ix, sp.csr_matrix(_fourth_difference_1d(ny, grid.hy)))
          + 2.0 * sp.kron(sp.csr_matrix(_second_difference_1d(nx, grid.hx)),
                          sp.csr_matrix(_second_difference_1d(ny, grid.hy))))
    v0 = np.random.default_rng(START_SEED).standard_normal(grid.n_interior)
    tau = scipy.sparse.linalg.eigsh(k2.tocsc(), k, M=k1.tocsc(), sigma=0.0, v0=v0, return_eigenvectors=False)
    return np.sort(tau)


def dense_eigenbasis(grid: Grid, m: int) -> StokesBasis:
    """The m smallest eigenpairs by dense generalized eigh, canonicalized by
    :func:`canonical_basis`, the class rule of nsstab's solve for pairs that
    mix the classes."""
    k1, k2 = dense_operators(grid)
    top = min(m + EXTRA_MODES, grid.n_interior) - 1
    tau, vecs = scipy.linalg.eigh(k2, k1, subset_by_index=(0, top))
    return canonical_basis(tau, vecs, assemble_operators(grid)[0], m, grid)


def unsplit_eigenbasis(k1: KroneckerSum, k2: KroneckerSum, m: int, grid: Grid) -> tuple[StokesBasis, list[int]]:
    """The m smallest eigenpairs by one block Lanczos on the whole pencil,
    the solve nsstab ran before it split the pencil by reflection class, and
    the pair counts it solved: m + EXTRA_MODES, doubled until the last lies
    beyond the cluster of tau_m.  The first m pairs and the cluster of the
    m-th stop at RESIDUAL_RTOL, the others at EXTRA_RESIDUAL_RTOL."""
    n = grid.n_interior
    factor = BandedCholesky(k2)
    k, solved = min(m + EXTRA_MODES, n - 1), []
    while True:
        solved.append(k)
        run = BlockLanczos(lambda x: factor.solve_l(k1 @ factor.solve_lt(x)), n, k)
        while True:
            if run.theta is not None:
                tight = (np.arange(k) < m) | (run.theta >= run.theta[m - 1] * (1.0 - CLUSTER_RTOL))
                if np.all(run.residual <= np.where(tight, RESIDUAL_RTOL, EXTRA_RESIDUAL_RTOL)):
                    break
            run.step()
        theta, y = run.pairs()
        tau = 1.0 / theta
        if cluster_starts(tau)[-1] >= m:
            return canonical_basis(tau, factor.solve_lt(y), k1, m, grid), solved
        k = min(2 * k, n - 1)


def class_coordinates(psi: np.ndarray, sx: int, sy: int) -> np.ndarray:
    """The class coordinates of the (sx, sy) part of (..., nx, ny) fields, the
    adjoint of :func:`nsstab.spectral.class_fields`; a field of another class
    gives exact zeros, since each pair is summed before it is scaled."""
    for s in (sy, sx):
        h = psi.shape[-1] // 2
        low = (psi[..., :h] + s * psi[..., : -h - 1 : -1]) * math.sqrt(0.5)
        odd_middle = psi.shape[-1] % 2 and s == 1
        psi = (np.concatenate([low, psi[..., h : h + 1]], axis=-1) if odd_middle else low).swapaxes(-1, -2)
    return psi


def canonical_basis(tau: np.ndarray, vecs: np.ndarray, k1: KroneckerSum, m: int, grid: Grid) -> StokesBasis:
    """The basis of the m smallest eigenpairs of a pencil solve whose pairs
    may mix the reflection classes.

    tau (ascending) and the columns of vecs hold the solver's lowest
    eigenpairs; they must reach past the cluster of tau_m, so that every
    cluster the basis touches is whole.  Each cluster gets its mean as the
    shared eigenvalue, and its span is split by the reflections: projected
    onto a class of CLASSES (:func:`class_coordinates`), a K1-orthonormal
    basis of the span has a K1-Gram matrix with eigenvalues 1 on the class's
    part of the span and 0 elsewhere, so the eigenvectors of the eigenvalues
    above 1/2 give that part.  The probe rule
    (:func:`nsstab.spectral.canonical_eigenspace`) orients each part in its
    class coordinates alone, and :func:`nsstab.spectral.class_fields` maps it
    back, so every mode has exact parities.  A cluster's modes come class by
    class in the order of CLASSES; when m cuts a cluster, its first modes
    are kept.  Stream functions are scaled to unit velocity norm
    (cell_area * psi.T K1 psi = 1).
    """
    starts = cluster_starts(tau)
    if starts[-1] < m:
        raise ValueError(f"eigenpairs end inside the cluster of tau_{m}; solve more of them")
    if tau[0] <= 0:
        raise RuntimeError(f"smallest eigenvalue {tau[0]:g} <= 0: broken assembly")
    bounds = starts[: np.searchsorted(starts, m) + 1]  # through the first cluster past tau_m
    nx, ny = grid.nx, grid.ny
    fields = vecs[:, : bounds[-1]].T.reshape(-1, nx, ny)
    classes = [(sx, sy, k1.restricted(sx, sy), class_coordinates(fields, sx, sy).reshape(len(fields), -1).T)
               for sx, sy in CLASSES]
    shared = np.empty(bounds[-1])
    psi = np.empty((bounds[-1], nx, ny))
    for lo, hi in zip(bounds, bounds[1:]):
        shared[lo:hi] = np.mean(tau[lo:hi])
        projected, total = [], 0.0
        for sx, sy, op, coordinates in classes:
            phi = coordinates[:, lo:hi]
            if phi.any():  # a solver's class pairs project to exact zeros elsewhere
                projected.append((sx, sy, op, phi, phi.T @ (op @ phi)))
                total = total + projected[-1][-1]
        # K1 commutes with the reflections: the span's K1-Gram matrix is the sum of the classes'
        chol = np.linalg.cholesky(total)
        parts = []
        for sx, sy, op, phi, gram in projected:
            weight, rotation = np.linalg.eigh(np.linalg.solve(chol, np.linalg.solve(chol, gram).T))
            part = phi @ np.linalg.solve(chol.T, rotation[:, weight > 0.5])
            if part.shape[1]:
                parts.append(class_fields(canonical_eigenspace(part, op).T.reshape(-1, op.nx, op.ny), sx, sy, nx, ny))
        if sum(map(len, parts)) != hi - lo:
            raise RuntimeError(f"the cluster of tau_{lo + 1} does not split by the reflections")
        psi[lo:hi] = np.concatenate(parts)
    psi = psi[:m] / np.sqrt(grid.cell_area)
    return StokesBasis.from_stream_functions(shared[:m], psi, grid)


def classwise_eigenbasis(k1: KroneckerSum, k2: KroneckerSum, m: int, grid: Grid) -> StokesBasis:
    """The m smallest eigenpairs by nsstab's solve by reflection class, up to
    its Lanczos pairs, then mapped to the grid and canonicalized by
    :func:`canonical_basis`: the solve before it oriented each class's modes
    itself.  The runs are those of :func:`nsstab.spectral.solve_eigenbasis`:
    ceil(m / 4) + EXTRA_MODES pairs per class, stepped in turn until the
    merged pairs at or below the cluster of tau_m reach RESIDUAL_RTOL and
    the others EXTRA_RESIDUAL_RTOL, and a class whose last pair falls at or
    before that cluster doubles its pairs and starts again."""
    ops = [(k1.restricted(sx, sy), BandedCholesky(k2.restricted(sx, sy))) for sx, sy in CLASSES]
    sizes = [op.nx * op.ny for op, _ in ops]
    want = [min(size, -(-m // len(CLASSES)) + EXTRA_MODES) for size in sizes]
    runs, short = [None] * len(CLASSES), range(len(CLASSES))
    while True:
        for c in short:
            op, factor = ops[c]
            runs[c] = BlockLanczos(lambda x, op=op, factor=factor: factor.solve_l(op @ factor.solve_lt(x)),
                                   sizes[c], want[c])
        while True:
            ready = [run.theta is not None for run in runs]
            tau = np.concatenate([np.empty(0)] + [1.0 / run.theta for run, r in zip(runs, ready) if r])
            order = np.argsort(tau, kind="stable")
            starts = cluster_starts(tau[order])
            past = starts[starts >= m]
            bound = tau[order][past[0] - 1] if len(past) else np.inf
            waiting = [run for run, r in zip(runs, ready) if not r or np.any(
                run.residual > np.where(1.0 / run.theta <= bound, RESIDUAL_RTOL, EXTRA_RESIDUAL_RTOL))]
            if not waiting:
                break
            for run in waiting:
                run.step()
        first = np.empty(len(tau), dtype=np.int64)
        first[order] = starts[np.searchsorted(starts, np.arange(len(tau)), side="right") - 1]
        short = [c for c, last in enumerate(np.cumsum(want) - 1) if want[c] < sizes[c] and first[last] < m]
        if not short:
            break
        for c in short:
            want[c] = min(2 * want[c], sizes[c])
    vecs = []
    for (op, factor), run, (sx, sy) in zip(ops, runs, CLASSES):
        y = factor.solve_lt(run.pairs()[1])
        vecs.append(class_fields(y.T.reshape(run.k, op.nx, op.ny), sx, sy, grid.nx, grid.ny).reshape(run.k, -1).T)
    return canonical_basis(tau[order], np.concatenate(vecs, axis=1)[:, order], k1, m, grid)


def trilinear_ratio(basis: StokesBasis, tensor: np.ndarray, a: np.ndarray, b: np.ndarray,
                    c: np.ndarray) -> float:
    """|B(u, v, w)| / (||u||^1/2 ||v||^1/2 ||grad u||^1/2 ||grad v||^1/2 ||grad w||)
    for one triple of coefficient vectors, the form as a full einsum; 0 for a
    zero denominator."""
    tau = basis.eigenvalues
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    ga = math.sqrt(float(tau @ (a * a)))
    gb = math.sqrt(float(tau @ (b * b)))
    gc = math.sqrt(float(tau @ (c * c)))
    den = math.sqrt(na * nb) * math.sqrt(ga * gb) * gc
    if den == 0.0:
        return 0.0
    return abs(float(np.einsum("ijk,i,j,k->", tensor, a, b, c))) / den


def estimate_trilinear_constant(basis: StokesBasis, tensor: np.ndarray, samples: int = 200,
                                seed: int = 42) -> float:
    """The largest ratio of the convection form over seeded Gaussian triples,
    drawn (3, M) per sample, one triple at a time."""
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(samples):
        a, b, c = rng.standard_normal((3, basis.n_modes))
        best = max(best, trilinear_ratio(basis, tensor, a, b, c))
    return best


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
                 tensor: np.ndarray, gram: np.ndarray) -> "SpectralState":
        new = step(self.t, self.coeffs, dt, controller, basis, tensor, gram)
        return SpectralState(self.t + dt, new)


def convection(x: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """The convection term sum_ij T[i,j,k] x_i x_j of one state, as the full
    (M^2,) @ (M^2, M) contraction of its outer product."""
    return np.outer(x, x).ravel() @ tensor.reshape(len(x) ** 2, len(x))


def rhs(
    coeffs: np.ndarray,
    control: np.ndarray,
    basis: StokesBasis,
    tensor: np.ndarray,
    gram: np.ndarray,
) -> np.ndarray:
    """Time derivative of the coefficient vector for a given control."""
    quad = np.einsum("ijk,i,j->k", tensor, coeffs, coeffs)
    return -basis.eigenvalues * coeffs - quad + gram @ control


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
) -> np.ndarray:
    """One integrating-factor Heun step; exact for the pure diagonal part.

    Both stages take the law at t, the step's start.  The guard is relative
    to the norm of coeffs, the run's initial norm for a run of one step.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    decay = np.exp(-basis.eigenvalues * dt)

    def forcing(tt: float, x: np.ndarray) -> np.ndarray:
        c = controller.control(tt, x, law_time=t)
        return -convection(x, tensor) + gram @ c

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
    plan,
    basis: StokesBasis,
    tensor: np.ndarray,
    gram: np.ndarray,
    sample_stride: int = 1,
) -> Trajectory:
    """Integrate the closed loop on a row plan's steps and sample every
    sample_stride steps.

    plan is a row plan (cuts, counts, sizes) of simulate_batch: step k
    starts at the k-th time of :func:`nsstab.dynamics.step_times` and takes
    the size of its piece.  The law is looked up by time: both stages of a
    step take the law of the interval the step starts in; the predictor is
    evaluated, and a latch trips, at t + dt.  The step count must be a whole
    number of samples.  Raises BlowUpError (with the blow-up time) once a
    coefficient exceeds BLOWUP_GUARD times the initial norm.
    """
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.ndim != 1 or len(y0) != basis.n_modes:
        raise ValueError("initial coefficients must match the basis size")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    step_start, piece = step_times([plan])
    step_start, step_size = step_start[:, 0].tolist(), np.asarray(plan[2], dtype=np.float64)[piece[:, 0]].tolist()
    n_steps = len(step_size)
    if n_steps % sample_stride != 0:
        raise ValueError("step count must be a whole number of samples")

    m = basis.n_modes
    tau = basis.eigenvalues

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
    record(0, step_start[0], x, diss, work)
    sample = 1
    for k in range(n_steps):
        t, dt = step_start[k], step_size[k]
        decay = np.exp(-tau * dt)
        decay_sq = decay * decay
        # exponentially weighted trapezoid weights for int X_k(s)^2 ds over a step;
        # modes whose memory dies within one step fall back to the start-point rule
        diss_w = (1.0 - decay_sq) / (2.0 * tau)
        c1 = controller.control(t, x)
        f1 = -convection(x, tensor) + gram @ c1
        predictor = decay * (x + dt * f1)
        c2 = controller.control(t + dt, predictor, law_time=t)
        f2 = -convection(predictor, tensor) + gram @ c2
        x_new = decay * (x + 0.5 * dt * f1) + 0.5 * dt * f2
        if not np.all(np.isfinite(x_new)) or np.abs(x_new).max() > guard:
            finite = x_new[np.isfinite(x_new)]
            worst = float(np.abs(finite).max()) if finite.size else float("inf")
            raise BlowUpError(t + dt, worst)
        # energy bookkeeping: trapezoid in the integrating-factor variable
        z_sq_end = np.where(decay_sq > 1e-12, x_new * x_new / np.maximum(decay_sq, 1e-300), x * x)
        diss += float(tau @ (diss_w * 0.5 * (x * x + z_sq_end)))
        work += 0.5 * dt * (float(x @ (gram @ c1)) + float(x_new @ (gram @ c2)))
        x = x_new
        if (k + 1) % sample_stride == 0:
            record(sample, step_start[k + 1], x, diss, work)
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
    )


def dense_moments(lin: np.ndarray, h: float, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """W0 = int_0^h e^{L^T s} Q e^{L s} ds and M1 = int_0^h s e^{L^T s} Q e^{L s} ds by a
    composite 12-point Gauss-Legendre rule, with scipy's expm at every node:
    2 ||h L||_1 + 1 panels, so ||L|| times a panel's width stays at most 1/2."""
    panels = int(2.0 * np.abs(h * lin).sum(axis=0).max()) + 1
    nodes, weights = np.polynomial.legendre.leggauss(12)
    width = h / panels
    w0, m1 = np.zeros_like(lin), np.zeros_like(lin)
    for p in range(panels):
        for node, weight in zip(nodes, weights):
            s = width * (p + 0.5 * (node + 1.0))
            flow = scipy.linalg.expm(s * lin)
            term = 0.5 * width * weight * (flow.T @ q @ flow)
            w0 += term
            m1 += s * term
    return w0, m1


def simulate_closed_loop(
    y0: np.ndarray,
    controller: Feedback,
    plan,
    basis: StokesBasis,
    tensor: np.ndarray,
    gram: np.ndarray,
    sample_stride: int = 1,
) -> Trajectory:
    """A law's run with the closed loop of each step's segment in the
    exponential (a Lawson RK2 step), one trajectory at a time.

    controller is a ModalFeedback, a ScheduledFeedback, or a LatchedFeedback
    around one; plan is a row plan (cuts, counts, sizes), stepped as
    :func:`simulate` steps it.  A step takes the law of the segment its start
    lies in.  With K that segment's linear gain and L = -diag(tau) + G K,
    a step from x is

        p = E (x + dt r(x)),  x' = E (x + dt/2 r(x)) + dt/2 r(p)

    with E = scipy.linalg.expm(dt L) and r(x) = G (c(x) - K x) - N(x).  The
    energy integrals of a step are x^T W0 x + 2 x^T M1 r(x) for Q = diag(tau)
    (dissipation) and Q = sym(G K) (control work), with the moments of
    :func:`dense_moments`, plus the trapezoid of x . G (c - K x); on a step
    where the cutoff acted at either evaluation, the control work is the
    trapezoid of x . G c alone.  A step in
    the terminal regime (no gain), and every step from the one whose start
    evaluation finds the latch tripped on, takes the zero law's step of
    :func:`simulate`.
    """
    y0 = np.asarray(y0, dtype=np.float64)
    step_start, piece = step_times([plan])
    step_start, step_size = step_start[:, 0].tolist(), np.asarray(plan[2], dtype=np.float64)[piece[:, 0]].tolist()
    n_steps = len(step_size)
    if n_steps % sample_stride != 0:
        raise ValueError("step count must be a whole number of samples")
    m = basis.n_modes
    tau = basis.eigenvalues
    cache = {}

    def closed_loop(params: FeedbackParams, dt: float):
        """K's diagonal, E and the moments of the segment's closed loop at dt."""
        key = (params.gain, params.n_active, dt)
        if key not in cache:
            gain = np.zeros(m)
            gain[: params.n_active] = -params.gain
            k_matrix = np.diag(gain)
            lin = gram @ k_matrix - np.diag(tau)
            cache[key] = (gain, scipy.linalg.expm(dt * lin), *dense_moments(lin, dt, np.diag(tau)),
                          *dense_moments(lin, dt, 0.5 * (gram @ k_matrix + k_matrix @ gram)))
        return cache[key]

    n_samples = n_steps // sample_stride + 1
    columns = {name: np.empty(n_samples) for name in ("times", "norm_h", "lyapunov", "control_norm", "threshold",
                                                      "dissipation", "control_work")}
    states = np.empty((n_samples, m))
    interval = np.empty(n_samples, dtype=np.int64)

    def record(idx, t, x, diss, work):
        states[idx] = x
        interval[idx] = controller.interval_at(t)
        for name, value in (("times", t), ("norm_h", np.linalg.norm(x)),
                            ("lyapunov", lyapunov(x, controller.params_at(t))),
                            ("control_norm", np.linalg.norm(controller.control(t, x))),
                            ("threshold", controller.threshold_at(t)), ("dissipation", diss),
                            ("control_work", work)):
            columns[name][idx] = value

    guard = BLOWUP_GUARD * np.linalg.norm(y0)
    x, diss, work = y0.copy(), 0.0, 0.0
    record(0, step_start[0], x, diss, work)
    for k in range(n_steps):
        t, dt = step_start[k], step_size[k]
        params = controller.params_at(t)
        c1 = controller.control(t, x)
        if params is None or getattr(controller, "latched", False):
            decay = np.exp(-tau * dt)
            decay_sq = decay * decay
            diss_w = (1.0 - decay_sq) / (2.0 * tau)
            f1 = gram @ c1 - convection(x, tensor)
            predictor = decay * (x + dt * f1)
            c2 = controller.control(t + dt, predictor, law_time=t)
            x_new = decay * (x + 0.5 * dt * f1) + 0.5 * dt * (gram @ c2 - convection(predictor, tensor))
            z_sq_end = np.where(decay_sq > 1e-12, x_new * x_new / np.maximum(decay_sq, 1e-300), x * x)
            diss_step = float(tau @ (diss_w * 0.5 * (x * x + z_sq_end)))
            work_step = 0.5 * dt * (float(x @ (gram @ c1)) + float(x_new @ (gram @ c2)))
        else:
            gain, prop, w_diss, m_diss, w_work, m_work = closed_loop(params, dt)
            u1 = gram @ (c1 - gain * x)
            r1 = u1 - convection(x, tensor)
            predictor = prop @ (x + dt * r1)
            c2 = controller.control(t + dt, predictor, law_time=t)
            u2 = gram @ (c2 - gain * predictor)
            x_new = prop @ (x + 0.5 * dt * r1) + 0.5 * dt * (u2 - convection(predictor, tensor))
            diss_step = float(x @ w_diss @ x + 2.0 * x @ m_diss @ r1)
            cut = np.any(c1 != gain * x) or (not getattr(controller, "latched", False)
                                             and np.any(c2 != gain * predictor))
            if cut:
                work_step = 0.5 * dt * (float(x @ (gram @ c1)) + float(x_new @ (gram @ c2)))
            else:
                work_step = (float(x @ w_work @ x + 2.0 * x @ m_work @ r1)
                             + 0.5 * dt * (float(x @ u1) + float(x_new @ u2)))
        if not np.all(np.isfinite(x_new)) or np.abs(x_new).max() > guard:
            finite = x_new[np.isfinite(x_new)]
            raise BlowUpError(t + dt, float(np.abs(finite).max()) if finite.size else float("inf"))
        diss += diss_step
        work += work_step
        x = x_new
        if (k + 1) % sample_stride == 0:
            record((k + 1) // sample_stride, step_start[k + 1], x, diss, work)

    return Trajectory(states=states, interval=interval, **columns)


def _fmt(value) -> str:
    """Ints as written, floats with 17 significant digits (they re-parse bit for bit)."""
    return str(value) if isinstance(value, int) else f"{value:.17g}"


def csv_row(row) -> str:
    """One CSV row, each value formatted on its own."""
    return ",".join(map(_fmt, row))
