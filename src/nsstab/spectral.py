"""Discrete Stokes eigenbasis via the stream-function formulation.

The Stokes eigenproblem on a simply connected 2D domain reduces to the
plate-buckling problem for the stream function: biharmonic(psi) =
tau * (-laplacian(psi)) with clamped boundary conditions.  We discretize
both sides on the interior nodes as sparse matrices, Kronecker products of
1D stencils, and solve the generalized eigenproblem K2 psi = tau K1 psi for
its smallest eigenvalues by shift-invert Lanczos at sigma = 0 (ARPACK:
Lehoucq, Sorensen & Yang, 1998) from a fixed seeded start vector.

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
a degenerate eigenspace (the square's symmetries make many) that a solver
splits by rounding.  Every member of a cluster gets one shared eigenvalue,
so ties are bit-equal, and :func:`canonical_eigenspace` picks one basis of
each cluster's span that does not depend on the solver, its start vector
or the BLAS thread count: the basis whose inner products with fixed seeded
probe fields form a lower-triangular matrix with a positive diagonal.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import BasisTooSmallError, SpectralDegeneracyError
from .grid import Grid, stream_to_velocity

logger = logging.getLogger(__name__)

#: eigenvalues closer than this (relative) are one degenerate cluster; solver
#: splits of true ties are below 1e-12, the smallest real gap near 1e-4
CLUSTER_RTOL = 1e-8

#: eigenpairs solved beyond the M retained, to see where tau_M's cluster ends
EXTRA_MODES = 4

#: seeds of the Lanczos start vector and of the orientation probe fields
START_SEED = 20240531
PROBE_SEED = 7


def assemble_operators(grid: Grid):
    """Sparse CSC (K1, K2): central-gradient stiffness and clamped biharmonic.

    Both are unscaled operators (no cell-area factor); quadratic forms pick
    up the factor explicitly.  Fields are flattened C-order, x index major.
    """
    import scipy.sparse as sp

    nx, ny = grid.nx, grid.ny
    if nx % 2 == 1 and ny % 2 == 1:
        raise ValueError(
            "nx and ny cannot both be odd: the central-difference stiffness "
            "has a checkerboard kernel on odd-by-odd grids"
        )

    def central(n, h):  # zero ghosts
        return sp.diags([-1.0 / (2.0 * h), 1.0 / (2.0 * h)], [-1, 1], shape=(n, n))

    def second(n, h):  # three-point, Dirichlet
        return sp.diags([1.0 / h**2, -2.0 / h**2, 1.0 / h**2], [-1, 0, 1], shape=(n, n))

    def fourth(n, h):  # five-point; the clamped mirror ghosts add 1 to both wall diagonals
        diagonal = np.full(n, 6.0)
        diagonal[[0, -1]] += 1.0
        values = [1.0 / h**4, -4.0 / h**4, diagonal / h**4, -4.0 / h**4, 1.0 / h**4]
        return sp.diags(values, [-2, -1, 0, 1, 2], shape=(n, n))

    ix, iy = sp.identity(nx), sp.identity(ny)
    dx, dy = central(nx, grid.hx), central(ny, grid.hy)
    k1 = sp.kron(dx.T @ dx, iy) + sp.kron(ix, dy.T @ dy)
    k2 = (sp.kron(fourth(nx, grid.hx), iy) + sp.kron(ix, fourth(ny, grid.hy))
          + 2.0 * sp.kron(second(nx, grid.hx), second(ny, grid.hy)))
    return k1.tocsc(), k2.tocsc()


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

    The columns are K1-orthonormalized, then rotated so that their inner
    products with the first c probe fields (rows of a fixed seeded Gaussian
    array) form a lower-triangular c x c matrix with a positive diagonal.
    That basis is unique, so the result depends only on the span; for one
    column it is the sign rule <probe, v> > 0.
    """
    import scipy.linalg

    n, c = vecs.shape
    chol = np.linalg.cholesky(vecs.T @ (k1 @ vecs))  # reads the lower triangle only
    ortho = scipy.linalg.solve_triangular(chol, vecs.T, lower=True).T
    probes = np.random.default_rng(PROBE_SEED).standard_normal((c, n))
    q, r = np.linalg.qr((probes @ ortho).T)
    return ortho @ (q * np.where(np.diag(r) < 0.0, -1.0, 1.0))


def canonical_basis(tau: np.ndarray, vecs: np.ndarray, k1, m: int, grid: Grid) -> StokesBasis:
    """The basis of the m smallest eigenpairs of a pencil solve.

    tau (ascending) and the columns of vecs hold the solver's lowest
    eigenpairs; they must reach past the cluster of tau_m, so that every
    cluster the basis touches is whole.  Each cluster gets its mean as the
    shared eigenvalue and the canonical orientation; when m cuts a cluster,
    the whole cluster is canonicalized and its first vectors are kept.
    Stream functions are scaled to unit velocity norm
    (cell_area * psi.T K1 psi = 1).
    """
    starts = cluster_starts(tau)
    if starts[-1] < m:
        raise ValueError(f"eigenpairs end inside the cluster of tau_{m}; solve more of them")
    if tau[0] <= 0:
        raise RuntimeError(f"smallest eigenvalue {tau[0]:g} <= 0: broken assembly")
    bounds = starts[: np.searchsorted(starts, m) + 1]  # through the first cluster past tau_m
    shared = np.empty(bounds[-1])
    psi = np.empty((bounds[-1], vecs.shape[0]))
    for lo, hi in zip(bounds, bounds[1:]):
        shared[lo:hi] = np.mean(tau[lo:hi])
        psi[lo:hi] = canonical_eigenspace(vecs[:, lo:hi], k1).T
    psi = psi[:m].reshape(m, grid.nx, grid.ny) / np.sqrt(grid.cell_area)
    return StokesBasis.from_stream_functions(shared[:m], psi, grid)


def solve_eigenbasis(k1, k2, m: int, grid: Grid) -> StokesBasis:
    """Solve K2 psi = tau K1 psi for the m smallest eigenvalues.

    Shift-invert Lanczos at sigma = 0 for m + EXTRA_MODES eigenpairs, doubled
    until the last one lies beyond the cluster of tau_m; then
    :func:`canonical_basis`.  Needs m <= n - 2 for n interior nodes: the
    solver returns fewer than n eigenpairs, and one beyond tau_m is needed.
    """
    import scipy.sparse.linalg

    n = grid.n_interior
    if not 1 <= m <= n - 2:
        raise ValueError(f"mode count {m} outside [1, {n - 2}]")
    v0 = np.random.default_rng(START_SEED).standard_normal(n)
    k = min(m + EXTRA_MODES, n - 1)
    while True:
        tau, vecs = scipy.sparse.linalg.eigsh(k2, k, M=k1, sigma=0.0, v0=v0)
        order = np.argsort(tau, kind="stable")
        tau, vecs = tau[order], vecs[:, order]
        if cluster_starts(tau)[-1] >= m:
            return canonical_basis(tau, vecs, k1, m, grid)
        if k == n - 1:
            raise ValueError(f"the cluster of tau_{m} reaches the top of the spectrum")
        k = min(2 * k, n - 1)


def assemble_gram(basis: StokesBasis, grid: Grid, mask: np.ndarray | None = None) -> np.ndarray:
    """Gram matrix of the basis velocities over the control window.

    Entry (i, j) is the discrete L2(omega) inner product of velocities i and
    j; pass mask=None for the window stored on the grid.  The result is
    symmetrized by averaging to kill rounding asymmetry.
    """
    if mask is None:
        mask = grid.omega_mask
    m = basis.n_modes
    weighted = basis.velocities * mask[None, None, :, :]
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
    """Smallest c > 0 with c * exp(c * sqrt_lam) >= target, to a relative 1e-6.

    The left side is strictly increasing in c, so this is a scalar root
    bracketed by halving and doubling and refined by bisection.
    """

    def gain(c: float) -> float:
        return np.log(c) + c * sqrt_lam

    log_target = np.log(target)
    lo = min(1.0, target)
    while gain(lo) >= log_target:
        lo /= 2.0
    hi = max(lo, 1.0)
    while gain(hi) < log_target:
        hi *= 2.0
    while hi - lo > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        if gain(mid) >= log_target:
            hi = mid
        else:
            lo = mid
    return hi


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


def fit_spectral_constant(
    basis: StokesBasis,
    gram: np.ndarray,
    lam_grid: np.ndarray | None = None,
) -> SpectralFit:
    """Fit the constant of the localized spectral inequality.

    Per threshold the bound inverts to a scalar root of c*exp(c*sqrt(lam)) =
    1/lambda_min; the fit is the maximum root over the grid.  Defaults to
    the retained eigenvalues tau_1..tau_{M-4} as grid (the active mode count
    only changes there).
    """
    if lam_grid is None:
        if basis.n_modes < 5:
            raise ValueError("basis too small for the default threshold grid")
        lam_grid = basis.eigenvalues[: basis.n_modes - 4].copy()
    lam_grid = np.asarray(lam_grid, dtype=np.float64)
    tau = basis.eigenvalues
    if np.any(lam_grid < tau[0]) or np.any(lam_grid >= tau[-1]):
        raise ValueError("threshold grid must lie in [tau_1, tau_M)")
    rows = []
    for lam in lam_grid:
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
