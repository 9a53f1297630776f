"""Discrete Stokes eigenbasis via the stream-function formulation.

The Stokes eigenproblem on a simply connected 2D domain reduces to the
plate-buckling problem for the stream function: biharmonic(psi) =
tau * (-laplacian(psi)) with clamped boundary conditions.  We discretize
both sides on the interior nodes as Kronecker sums of 1D stencils, kept as
their 1D factors (:class:`KroneckerSum`), and solve the generalized
eigenproblem K2 psi = tau K1 psi for its smallest eigenvalues with numpy
alone.

Every 1D factor commutes with the flip of its axis, so both operators
commute with the reflections x -> Lx - x and y -> Ly - y (Bossavit, Comput.
Methods Appl. Mech. Engrg. 56, 1986; Fassler & Stiefel, Group Theoretical
Methods and Their Applications, 1992).  The pencil splits into four
reflection classes, even or odd in x times even or odd in y (CLASSES),
each a Kronecker sum of the factors restricted to their even or odd
vectors (:meth:`KroneckerSum.restricted`), on about a quarter of the
unknowns; an odd nx puts the middle line in the even class.  Each class
is solved alone: its K2 is block-banded (blocks of ny' x ny', two below
the diagonal), so its block Cholesky factor K2 = L L^T
(:class:`BandedCholesky`) is cheap, and its smallest tau are the
reciprocals of the largest eigenvalues of the symmetric L^-1 K1 L^-T, with
psi = L^-T y.  A seeded block Lanczos with full reorthogonalization and
thick restarts per class finds them (:class:`BlockLanczos`; the restarted
Lanczos of ARPACK, Lehoucq, Sorensen & Yang, 1998, in the thick-restart
form of Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 2000).  The restarts
keep the projected matrix at most about 3k + 1 wide for k wanted pairs,
which also keeps its eigh, and so the basis, independent of the BLAS
thread count.  The classes map back to the grid by mirroring
(:func:`class_fields`), so every mode has exact parities, bit for bit.

K1 is assembled as D.T @ D from the same central-difference gradients that
:func:`nsstab.grid.stream_to_velocity` uses, so

    cell_area * psi.T @ K1 @ psi == ||velocity of psi||_{L2}^2

holds to rounding.  Eigenvectors of the generalized solve are K1-orthogonal,
which makes the velocity fields L2-orthonormal after scaling, and Parseval
holds to solver precision.  The price: D.T @ D couples nodes two apart, so
on grids with nx and ny both odd it has a checkerboard kernel; such grids
are rejected.

K2 is the 13-point clamped biharmonic: 1D fourth differences with mirror
ghost values (psi(-h) = psi(h), encoding zero normal derivative) plus the
mixed term from the tensor product of 1D second differences.  Mirror
elimination only touches diagonal entries, so K2 is symmetric by
construction.

Eigenvalues within a relative CLUSTER_RTOL of each other are one cluster:
a degenerate eigenspace (the square's symmetries make many, most of them
pairs of classes that swapping x and y exchanges) that a solver splits by
rounding.  Every member of a cluster gets one shared eigenvalue, so ties
are bit-equal, also across classes.  Every pair the solve finds lies in one
class, so a cluster's span comes split by the reflections, and
:func:`canonical_eigenspace` picks one basis of each class's part, in
class coordinates, that does not depend on the solver, its start vector or
the BLAS thread count: the basis whose inner products with fixed seeded
probe fields form a lower-triangular matrix with a positive diagonal.  So
the probe rule only acts on degeneracies within one class.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BasisTooSmallError, SpectralDegeneracyError
from .grid import Grid, stream_to_velocity

logger = logging.getLogger(__name__)

#: eigenvalues closer than this (relative) are one degenerate cluster; solver
#: splits of true ties are below 1e-12, the smallest real gap near 1e-4
CLUSTER_RTOL = 1e-8

#: eigenpairs solved beyond the M retained, to see where tau_M's cluster ends
EXTRA_MODES = 4

#: seeds of the Lanczos start block and of the orientation probe fields
START_SEED = 20240531
PROBE_SEED = 7

#: columns of a Lanczos block
LANCZOS_BLOCK = 4
#: a Ritz pair has converged when its Lanczos residual is below this times
#: its Ritz value; the first m pairs and the cluster of the m-th take the
#: first, the extra pairs, which only place tau_m's cluster, the second
RESIDUAL_RTOL = 1e-14
EXTRA_RESIDUAL_RTOL = 1e-10
#: thick restarts after which a solve that has not converged fails
MAX_RESTARTS = 200

#: the reflection classes (sx, sy): the modes whose stream function is sx times
#: its mirror image in x (x -> Lx - x) and sy times its mirror image in y
CLASSES = ((1, 1), (1, -1), (-1, 1), (-1, -1))
#: the names of the classes in reports
CLASS_NAMES = ("even-even", "even-odd", "odd-even", "odd-odd")

_HALF = math.sqrt(0.5)


class KroneckerSum:
    """The operator sum_t kron(A_t, B_t) on fields flattened C-order (x index
    major), kept as its dense 1D factors; a factor None is the identity."""

    def __init__(self, terms: tuple, nx: int, ny: int):
        self.terms = terms  # ((A_t or None, B_t or None), ...), A_t (nx, nx), B_t (ny, ny)
        self.nx, self.ny = nx, ny

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """The operator times one field (n,) or a column per field (n, c)."""
        x = v.reshape(self.nx, self.ny, -1)
        out = None
        for a, b in self.terms:
            y = x if b is None else np.matmul(b, x)
            if a is not None:
                y = (a @ y.reshape(self.nx, -1)).reshape(x.shape)
            out = y if out is None else out + y
        return out.reshape(v.shape)

    @property
    def bandwidth(self) -> int:
        """The number of nonzero block diagonals below the main one."""
        rows, cols = np.nonzero(sum(np.abs(a) for a, _ in self.terms if a is not None))
        return int((rows - cols).max())

    def block(self, i: int, j: int) -> np.ndarray:
        """The (ny, ny) block coupling x index i to x index j."""
        out = np.zeros((self.ny, self.ny))
        for a, b in self.terms:
            weight = float(i == j) if a is None else a[i, j]
            if weight != 0.0:
                out += weight * (np.eye(self.ny) if b is None else b)
        return out

    def restricted(self, sx: int, sy: int) -> "KroneckerSum":
        """The operator on the fields of reflection class (sx, sy), in the
        class coordinates that :func:`class_fields` maps to the grid; every
        factor must commute with the flip of its axis."""
        return KroneckerSum(tuple((_fold(a, sx), _fold(b, sy)) for a, b in self.terms),
                            _half(self.nx, sx), _half(self.ny, sy))


def _half(n: int, s: int) -> int:
    """The dimension of the s-parity vectors of R^n."""
    return n // 2 + (n % 2 if s == 1 else 0)


def _fold(a: np.ndarray | None, s: int) -> np.ndarray | None:
    """The centrosymmetric a restricted to its s-parity vectors, in the
    orthonormal basis (e_i + s e_{n-1-i}) / sqrt(2), i < n // 2, then e_{n//2}
    for odd n and s = 1; the entries are a_ij + s a_{i,n-1-j}, and sqrt(2)
    a_{i,n//2} on the middle line, so the band and the bitwise symmetry are
    kept.  None, the identity, stays itself."""
    if a is None:
        return None
    h = len(a) // 2
    out = a[:h, :h] + s * a[:h, : -h - 1 : -1]
    if len(a) % 2 and s == 1:
        edge = math.sqrt(2.0) * a[:h, h : h + 1]
        out = np.block([[out, edge], [edge.T, a[h : h + 1, h : h + 1]]])
    return out


def class_fields(phi: np.ndarray, sx: int, sy: int, nx: int, ny: int) -> np.ndarray:
    """The (..., nx, ny) fields of reflection class (sx, sy) with the class
    coordinates phi (..., nx', ny') in the bases of :func:`_fold`: along each
    axis the second half is s times the first reversed, bit for bit."""
    for s, n in ((sy, ny), (sx, nx)):  # y, then x, each as the last axis
        low = phi[..., : n // 2] * _HALF
        middle = phi[..., n // 2 :] if n % 2 and s == 1 else np.zeros((*phi.shape[:-1], n % 2))
        phi = np.concatenate([low, middle, s * low[..., ::-1]], axis=-1).swapaxes(-1, -2)
    return phi


def reflection_parities(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(sx, sy, residual) of (M, nx, ny) stream functions: each mode's parity
    under x -> Lx - x and under y -> Ly - y, and the largest |psi o R - s psi|
    over the modes and both reflections, 0.0 for a basis of
    :func:`solve_eigenbasis`."""
    mirrors = (psi[:, ::-1, :], psi[:, :, ::-1])
    signs = [np.where(np.einsum("mij,mij->m", psi, mirror) < 0.0, -1, 1) for mirror in mirrors]
    residual = max((float(np.abs(mirror - s[:, None, None] * psi).max(initial=0.0))
                    for mirror, s in zip(mirrors, signs)))
    return signs[0], signs[1], residual


def assemble_operators(grid: Grid) -> tuple[KroneckerSum, KroneckerSum]:
    """(K1, K2): central-gradient stiffness and clamped biharmonic, as the
    Kronecker sums of their 1D stencils.

    Both are unscaled operators (no cell-area factor); quadratic forms pick
    up the factor explicitly.  Fields are flattened C-order, x index major.
    """
    nx, ny = grid.nx, grid.ny
    if nx % 2 == 1 and ny % 2 == 1:
        raise ValueError(
            "nx and ny cannot both be odd: the central-difference stiffness "
            "has a checkerboard kernel on odd-by-odd grids"
        )

    def band(n, values):  # values[d] on the diagonal d - (len(values) - 1) / 2
        half = len(values) // 2
        return sum(np.diag(np.broadcast_to(value, n - abs(d - half)), d - half)
                   for d, value in enumerate(values) if abs(d - half) < n)

    def central(n, h):  # zero ghosts
        return band(n, [-1.0 / (2.0 * h), 0.0, 1.0 / (2.0 * h)])

    def second(n, h):  # three-point, Dirichlet
        return band(n, [1.0 / h**2, -2.0 / h**2, 1.0 / h**2])

    def fourth(n, h):  # five-point; the clamped mirror ghosts add 1 to both wall diagonals
        diagonal = np.full(n, 6.0)
        diagonal[[0, -1]] += 1.0
        return band(n, [1.0 / h**4, -4.0 / h**4, diagonal / h**4, -4.0 / h**4, 1.0 / h**4])

    dx, dy = central(nx, grid.hx), central(ny, grid.hy)
    k1 = KroneckerSum(((dx.T @ dx, None), (None, dy.T @ dy)), nx, ny)
    k2 = KroneckerSum(((fourth(nx, grid.hx), None), (None, fourth(ny, grid.hy)),
                       (2.0 * second(nx, grid.hx), second(ny, grid.hy))), nx, ny)
    return k1, k2


class BandedCholesky:
    """K = L L^T for a symmetric positive definite Kronecker sum whose blocks
    of ny x ny are banded, p = K.bandwidth block diagonals below the main one.

    L is block lower-triangular with the same band.  Each diagonal block is
    kept as its explicit inverse D_i = L_ii^-1, and the off-diagonal blocks
    of a block row premultiplied by it, so that a block row of either
    triangular solve is one (ny, p ny) @ (p ny, c) product:

        L^-1:  y_i = D_i x_i - D_i [L_{i,i-p} .. L_{i,i-1}] [y_{i-p}; ..; y_{i-1}]
        L^-T:  z_i = D_i^T x_i - D_i^T [L_{i+1,i}^T .. L_{i+p,i}^T] [z_{i+1}; ..; z_{i+p}]
    """

    def __init__(self, op: KroneckerSum):
        nx, ny, p = op.nx, op.ny, op.bandwidth
        self.nx, self.ny, self.p = nx, ny, p
        lower = np.zeros((nx, ny, p * ny))  # [L_{i,i-p} .. L_{i,i-1}], zero before row 0
        self.inverse = np.empty((nx, ny, ny))
        for i in range(nx):
            row = lower[i].reshape(ny, p, ny)
            for j in range(max(0, i - p), i):
                s = op.block(i, j)
                for k in range(max(0, i - p), j):  # blocks k of both rows i and j
                    s -= row[:, k - i + p] @ lower[j].reshape(ny, p, ny)[:, k - j + p].T
                row[:, j - i + p] = s @ self.inverse[j].T
            flat = lower[i]
            self.inverse[i] = np.linalg.inv(np.linalg.cholesky(op.block(i, i) - flat @ flat.T))
        self.forward = np.matmul(self.inverse, lower)
        self.backward = np.zeros((nx, ny, p * ny))
        for d in range(1, p + 1):  # L_{i+d,i} is block p - d of row i + d
            self.backward[: nx - d, :, (d - 1) * ny : d * ny] = np.matmul(
                self.inverse[: nx - d].transpose(0, 2, 1), lower[d:, :, (p - d) * ny : (p - d + 1) * ny].transpose(0, 2, 1))

    def solve_l(self, x: np.ndarray) -> np.ndarray:
        """L^-1 x for a column per field, x (n, c)."""
        c = x.shape[1]
        y = np.zeros((self.nx + self.p, self.ny, c))  # p zero block rows ahead
        np.matmul(self.inverse, x.reshape(self.nx, self.ny, c), out=y[self.p :])
        for i in range(self.nx):
            y[i + self.p] -= self.forward[i] @ y[i : i + self.p].reshape(-1, c)
        return y[self.p :].reshape(x.shape)

    def solve_lt(self, x: np.ndarray) -> np.ndarray:
        """L^-T x for a column per field, x (n, c)."""
        c = x.shape[1]
        z = np.zeros((self.nx + self.p, self.ny, c))  # p zero block rows behind
        np.matmul(self.inverse.transpose(0, 2, 1), x.reshape(self.nx, self.ny, c), out=z[: self.nx])
        for i in range(self.nx - 1, -1, -1):
            z[i] -= self.backward[i] @ z[i + 1 : i + 1 + self.p].reshape(-1, c)
        return z[: self.nx].reshape(x.shape)


@dataclass(frozen=True)
class StokesBasis:
    """Retained eigenpairs of the discrete Stokes operator.

    eigenvalues are ascending and positive, bit-equal within a degenerate
    cluster; velocity fields are L2-orthonormal in the discrete inner product.
    """

    eigenvalues: np.ndarray  # (M,)
    stream_functions: np.ndarray = field(repr=False)  # (M, nx, ny)
    velocities: np.ndarray = field(repr=False)  # (M, 2, nx, ny)
    grid: Grid = field(repr=False)
    #: the health of the solve that produced the basis (solve_eigenbasis); None when it was not solved here
    solve: dict | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_stream_functions(cls, eigenvalues: np.ndarray, stream_functions: np.ndarray,
                              grid: Grid) -> "StokesBasis":
        """The basis whose velocities are the grid's curls of the stream functions."""
        return cls(eigenvalues, stream_functions, stream_to_velocity(stream_functions, grid), grid)

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)


def cluster_starts(tau: np.ndarray) -> np.ndarray:
    """First index of each cluster of an ascending eigenvalue array."""
    tau = np.asarray(tau)
    split = np.diff(tau) > CLUSTER_RTOL * np.abs(tau[1:])
    return np.flatnonzero(np.concatenate(([True], split)))


def canonical_eigenspace(vecs: np.ndarray, k1) -> np.ndarray:
    """The canonical K1-orthonormal basis of the span of vecs' columns.

    :func:`solve_eigenbasis` passes one class's pairs of one cluster, in
    that class's coordinates with k1 its class operator.  The columns need
    only span the space: they are K1-orthonormalized, then rotated so that
    their inner products with the first c probe fields (rows of a fixed
    seeded Gaussian array) form a lower-triangular c x c matrix with a
    positive diagonal.  That basis is unique, so the result depends only on
    the span; for one column it is the sign rule <probe, v> > 0.
    """
    n, c = vecs.shape
    chol = np.linalg.cholesky(vecs.T @ (k1 @ vecs))  # reads the lower triangle only
    ortho = np.linalg.solve(chol, vecs.T).T
    probes = np.random.default_rng(PROBE_SEED).standard_normal((c, n))
    q, r = np.linalg.qr((probes @ ortho).T)
    return ortho @ (q * np.where(np.diag(r) < 0.0, -1.0, 1.0))


class BlockLanczos:
    """The k largest eigenpairs of a symmetric operator on R^n, descending.

    apply maps an (n, c) array to the operator times it.  A block Lanczos
    from a seeded start block of LANCZOS_BLOCK columns, with full
    reorthogonalization (two Gram-Schmidt passes against the whole basis)
    and the projected matrix formed block by block as V^T (apply V).  The
    basis is preallocated for at most 3k + 1 columns, rounded up to whole
    blocks; when it is full, a thick restart (Wu & Simon, SIAM J. Matrix
    Anal. Appl. 22, 2000) keeps the Ritz vectors of the k + k // 4 largest
    Ritz values and goes on from the last residual block.  Where the basis
    would reach n - LANCZOS_BLOCK columns, the whole space is projected
    instead.

    The caller decides when to stop: once the basis holds k columns, theta
    (the k largest Ritz values) and residual (their Lanczos residuals
    ||R U_i|| / theta_i) are current, and each :meth:`step` applies the
    operator to one more block.  blocks, restarts and largest count the
    solve.
    """

    def __init__(self, apply, n: int, k: int):
        b = LANCZOS_BLOCK
        self.apply, self.k, self.keep = apply, k, k + k // 4
        self.cap = self.keep + b * -(-(3 * k + 1 - self.keep) // b)
        self.theta = self.residual = self.vectors = None
        if self.cap >= n - b:
            theta, u = np.linalg.eigh(apply(np.eye(n)))
            self.theta, self.residual, self.vectors = theta[::-1][:k], np.zeros(k), u[:, ::-1][:, :k]
            self.blocks, self.restarts, self.largest = 1, 0, n
            return
        self.v = np.empty((n, self.cap))
        self.t = np.zeros((self.cap, self.cap))
        self.v[:, :b] = np.linalg.qr(np.random.default_rng(START_SEED).standard_normal((n, b)))[0]
        self.s, self.blocks, self.restarts, self.largest = b, 0, 0, 0
        self._apply_last_block()

    def _apply_last_block(self) -> None:
        s, b, t = self.s, LANCZOS_BLOCK, self.t
        active = slice(s - b, s)
        w = self.apply(self.v[:, active])
        self.blocks += 1
        basis = self.v[:, :s]
        h = basis.T @ w
        t[:s, active] = h
        t[active, :s] = h.T
        w -= basis @ h
        w -= basis @ (basis.T @ w)
        self.q, r = np.linalg.qr(w)
        self.largest = max(self.largest, s)
        if s >= self.k:
            theta, u = np.linalg.eigh(t[:s, :s])
            self.ritz, self.u = theta[::-1], u[:, ::-1]
            self.theta = self.ritz[: self.k]
            self.residual = np.linalg.norm(r @ self.u[active, : self.k], axis=0) / self.theta

    def step(self) -> None:
        """Extend the basis by the last residual block, restarting when it is full."""
        s, b, keep = self.s, LANCZOS_BLOCK, self.keep
        if s + b <= self.cap:
            self.v[:, s : s + b] = self.q
            self.s += b
        elif self.restarts == MAX_RESTARTS:
            raise RuntimeError(f"Lanczos did not converge in {MAX_RESTARTS} restarts "
                               f"(largest residual {self.residual.max():.2e})")
        else:
            self.v[:, :keep] = self.v[:, :s] @ self.u[:, :keep]
            self.t.fill(0.0)
            self.t[:keep, :keep] = np.diag(self.ritz[:keep])
            self.v[:, keep : keep + b] = self.q
            self.s, self.restarts = keep + b, self.restarts + 1
        self._apply_last_block()

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The current Ritz values theta and their Ritz vectors, (n, k)."""
        if self.vectors is not None:  # the whole space was projected
            return self.theta, self.vectors
        return self.theta, self.v[:, : self.s] @ self.u[:, : self.k]


def solve_eigenbasis(k1: KroneckerSum, k2: KroneckerSum, m: int, grid: Grid) -> StokesBasis:
    """Solve K2 psi = tau K1 psi for the m smallest eigenvalues, one
    reflection class at a time.

    Both operators commute with the reflections x -> Lx - x and y -> Ly - y,
    so the pencil splits into the four classes of CLASSES, each a Kronecker
    sum on about n/4 class coordinates (:meth:`KroneckerSum.restricted`).
    Per class, with K2 = L L^T (:class:`BandedCholesky`), the largest
    eigenvalues 1 / tau of L^-1 K1 L^-T, by :class:`BlockLanczos`, give its
    smallest tau and psi = L^-T y.  Each class starts with ceil(m / 4) +
    EXTRA_MODES pairs, and the four runs step in turn until every pair that
    the merged spectrum puts at or below the cluster of tau_m has a residual
    below RESIDUAL_RTOL, and the others below EXTRA_RESIDUAL_RTOL; at the
    end, those are exactly the pairs the basis keeps.  A class whose last
    pair does not lie beyond that cluster, and that has pairs left, then
    doubles its pairs and starts again.  Each cluster of the merged
    spectrum, through the one of tau_m, gets its mean as the shared
    eigenvalue; each class's pairs in it, in class coordinates, go to
    :func:`canonical_eigenspace` with the class's K1, and
    :func:`class_fields` mirrors the result onto the grid.  A cluster's
    modes come class by class in the order of CLASSES; when m cuts a
    cluster, its first modes are kept.  Stream functions are scaled to unit
    velocity norm (cell_area * psi.T K1 psi = 1).  Needs m <= n - 2 for n
    interior nodes, so that one pair beyond tau_m exists.  The basis records
    the solve's health: its time; the pairs solved, Lanczos blocks and restarts
    of each class; their totals and the largest projected dimension; the
    largest relative residual ||K2 psi - tau K1 psi|| / (tau ||K1 psi||) of
    the retained pairs; the orthonormality residual
    max |cell_area Psi^T K1 Psi - I|; and the parity residual of
    :func:`reflection_parities`, which is 0.0.
    """
    n = grid.n_interior
    if not 1 <= m <= n - 2:
        raise ValueError(f"mode count {m} outside [1, {n - 2}]")
    begin = time.perf_counter()
    ops = [(k1.restricted(sx, sy), BandedCholesky(k2.restricted(sx, sy))) for sx, sy in CLASSES]
    sizes = [op.nx * op.ny for op, _ in ops]
    want = [min(size, -(-m // len(CLASSES)) + EXTRA_MODES) for size in sizes]
    runs, started, short = [None] * len(CLASSES), [], range(len(CLASSES))
    while True:
        for c in short:
            op, factor = ops[c]
            runs[c] = BlockLanczos(lambda x, op=op, factor=factor: factor.solve_l(op @ factor.solve_lt(x)),
                                   sizes[c], want[c])
            started.append((c, runs[c]))
        while True:  # the runs step in turn
            ready = [run.theta is not None for run in runs]
            tau = np.concatenate([np.empty(0)] + [1.0 / run.theta for run, r in zip(runs, ready) if r])
            order = np.argsort(tau, kind="stable")
            starts = cluster_starts(tau[order])
            past = starts[starts >= m]
            bound = tau[order][past[0] - 1] if len(past) else np.inf  # the end of tau_m's cluster
            waiting = [run for run, r in zip(runs, ready) if not r or np.any(
                run.residual > np.where(1.0 / run.theta <= bound, RESIDUAL_RTOL, EXTRA_RESIDUAL_RTOL))]
            if not waiting:
                break
            for run in waiting:
                run.step()
        # the start of each pair's merged cluster, at each class's last pair
        first = np.empty(len(tau), dtype=np.int64)
        first[order] = starts[np.searchsorted(starts, np.arange(len(tau)), side="right") - 1]
        short = [c for c, last in enumerate(np.cumsum(want) - 1) if want[c] < sizes[c] and first[last] < m]
        if not short:
            break
        for c in short:
            want[c] = min(2 * want[c], sizes[c])
    if starts[-1] < m:
        raise ValueError(f"the cluster of tau_{m} reaches the top of the spectrum")
    if tau[order[0]] <= 0:
        raise RuntimeError(f"smallest eigenvalue {tau[order[0]]:g} <= 0: broken assembly")
    classes = {name: {"pairs": k, "lanczos_blocks": 0, "restarts": 0} for name, k in zip(CLASS_NAMES, want)}
    for c, run in started:
        classes[CLASS_NAMES[c]]["lanczos_blocks"] += run.blocks
        classes[CLASS_NAMES[c]]["restarts"] += run.restarts
    vecs = [factor.solve_lt(run.pairs()[1]) for (_, factor), run in zip(ops, runs)]
    owner = np.repeat(np.arange(len(CLASSES)), want)[order]  # the class of each merged pair
    column = order - np.cumsum([0, *want])[owner]  # and its column in that class's run
    bounds = starts[: np.searchsorted(starts, m) + 1]  # through the first cluster past tau_m
    shared, modes = np.empty(bounds[-1]), []
    for lo, hi in zip(bounds, bounds[1:]):
        shared[lo:hi] = np.mean(tau[order[lo:hi]])
        for c, ((op, _), (sx, sy)) in enumerate(zip(ops, CLASSES)):
            mine = column[lo:hi][owner[lo:hi] == c]
            if len(mine):
                part = canonical_eigenspace(vecs[c][:, mine], op).T.reshape(-1, op.nx, op.ny)
                modes.append(class_fields(part, sx, sy, grid.nx, grid.ny))
    basis = StokesBasis.from_stream_functions(shared[:m], np.concatenate(modes)[:m] / np.sqrt(grid.cell_area), grid)
    psi = basis.stream_functions.reshape(m, n).T
    k1_psi = k1 @ psi
    residual = np.linalg.norm(k2 @ psi - basis.eigenvalues * k1_psi, axis=0) / (
        basis.eigenvalues * np.linalg.norm(k1_psi, axis=0))
    ortho = np.abs(grid.cell_area * (psi.T @ k1_psi) - np.eye(m)).max()
    return replace(basis, solve={
        "solve_s": time.perf_counter() - begin,
        "lanczos_blocks": sum(run.blocks for _, run in started),
        "restarts": sum(run.restarts for _, run in started),
        "max_projected_dim": max(run.largest for _, run in started),
        "max_relative_residual": float(residual.max()),
        "orthonormality_residual": float(ortho),
        "parity_residual": reflection_parities(basis.stream_functions)[2],
        "classes": classes,
    })


def assemble_gram(basis: StokesBasis, grid: Grid) -> np.ndarray:
    """Gram matrix of the basis velocities over the grid's control window.

    Entry (i, j) is the discrete L2(omega) inner product of velocities i and
    j; a grid whose window is the whole rectangle gives the full-domain
    Gram.  The result is symmetrized by averaging to kill rounding asymmetry.
    """
    m = basis.n_modes
    weighted = basis.velocities * grid.omega_mask[None, None, :, :]
    flat = basis.velocities.reshape(m, -1)
    flat_w = weighted.reshape(m, -1)
    gram = (flat_w @ flat.T) * grid.cell_area
    return 0.5 * (gram + gram.T)


def count_modes(basis: StokesBasis, threshold: float) -> int:
    """Number of eigenvalues <= threshold; errors if the basis is exhausted."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    tau = basis.eigenvalues
    if threshold >= tau[-1]:
        raise BasisTooSmallError(threshold, float(tau[-1]))
    return int(np.searchsorted(tau, threshold, side="right"))


def _invert_gain_curve(target: float, sqrt_lam: float) -> float:
    """The root c > 0 of c * exp(c * sqrt_lam) = target, to an ulp or two,
    with log c + c * sqrt_lam >= log target in floating point.

    The root of c * exp(c * s) = t is W(t * s) / s, with W the principal
    Lambert W (Corless et al., Adv. Comput. Math. 5, 1996).  W(x) is the
    root of the increasing concave w + ln w - ln x, so Newton's step
    w <- w / (1 + w) * (1 + ln(x / w)) (Iacono & Boyd, Adv. Comput. Math.
    43, 2017) lands below it from any w in (0, e*x) and then rises to it;
    the start is log1p(x) <= x.  ln(x / w) rather than ln x - ln w keeps
    small roots to an ulp or two.  The quotient is raised by ulps until the
    inequality holds in floating point.
    """
    x = target * sqrt_lam

    def newton(w: float) -> float:
        return w / (1.0 + w) * (1.0 + math.log(x / w))

    w, w_next = 0.0, newton(math.log1p(x))
    while w_next > w:
        w, w_next = w_next, newton(w_next)
    root = w / sqrt_lam
    log_target = math.log(target)
    while math.log(root) + root * sqrt_lam < log_target:
        root = math.nextafter(root, math.inf)
    return root


@dataclass(frozen=True)
class SpectralFit:
    """Result of fitting the spectral-inequality constant.

    value is the smallest constant >= 1 (the certified chain needs c1 >= 1)
    such that

        lambda_min(J_N(lam)) >= value^-1 * exp(-value * sqrt(lam))

    holds at every threshold of the grid.  The table records, per threshold:
    (threshold, active mode count, gram min eigenvalue, unclamped root,
    clamped root).  unclamped_value drops the floor 1 and is the working
    constant for practical parameter choices.
    """

    value: float
    table: np.ndarray  # (len(grid), 5)
    unclamped_value: float


def fit_spectral_constant(basis: StokesBasis, gram: np.ndarray) -> SpectralFit:
    """Fit the constant of the localized spectral inequality.

    Per threshold the bound inverts to a scalar root of c*exp(c*sqrt(lam)) =
    1/lambda_min; the fit is the maximum root over the grid of thresholds
    tau_1..tau_{M-4}, the retained eigenvalues (the active mode count only
    changes there).
    """
    if basis.n_modes < 5:
        raise ValueError("basis too small for the threshold grid")
    rows = []
    for lam in basis.eigenvalues[: basis.n_modes - 4]:
        n = count_modes(basis, lam)
        block = gram[:n, :n]
        min_eig = float(np.linalg.eigvalsh(block)[0])
        if min_eig <= 0.0:
            raise SpectralDegeneracyError(float(lam), min_eig)
        target = 1.0 / min_eig
        root = _invert_gain_curve(target, np.sqrt(lam))
        rows.append((float(lam), n, min_eig, root, max(root, 1.0)))
    table = np.array(rows)
    unclamped = float(table[:, 3].max())
    return SpectralFit(value=max(unclamped, 1.0), table=table, unclamped_value=unclamped)
