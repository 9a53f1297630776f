"""Discrete Stokes eigenbasis via the stream-function formulation.

The Stokes eigenproblem on a simply connected 2D domain reduces to the
plate-buckling problem for the stream function: biharmonic(psi) =
tau * (-laplacian(psi)) with clamped boundary conditions.  We discretize
both sides on the interior nodes and solve the dense symmetric-definite
generalized eigenproblem K2 psi = tau K1 psi.

K1 is assembled as D.T @ D from the same central-difference gradients that
:func:`nsstab.grid.stream_to_velocity` uses, so

    cell_area * psi.T @ K1 @ psi == ||velocity of psi||_{L2}^2

holds to rounding.  Eigenvectors of the generalized solve are K1-orthogonal,
which makes the velocity fields exactly L2-orthonormal after scaling --
no re-orthogonalization step is needed, and Parseval holds to solver
precision.  The price: D.T @ D couples nodes two apart, so on grids with
nx and ny both odd it has a checkerboard kernel; such grids are rejected.

K2 is the 13-point clamped biharmonic: 1D fourth differences with mirror
ghost values (psi(-h) = psi(h), encoding zero normal derivative) plus the
mixed term from the tensor product of 1D second differences.  Mirror
elimination only touches diagonal entries, so K2 is symmetric by
construction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import BasisTooSmallError, SpectralDegeneracyError
from .grid import Grid, stream_to_velocity

logger = logging.getLogger(__name__)


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


def assemble_operators(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Dense (K1, K2): central-gradient stiffness and clamped biharmonic.

    Both are unscaled operators (no cell-area factor); quadratic forms pick
    up the factor explicitly.  Fields are flattened C-order, x index major.
    """
    nx, ny = grid.nx, grid.ny
    if nx % 2 == 1 and ny % 2 == 1:
        raise ValueError(
            "nx and ny cannot both be odd: the central-difference stiffness "
            "has a checkerboard kernel on odd-by-odd grids"
        )
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


@dataclass(frozen=True)
class StokesBasis:
    """Retained eigenpairs of the discrete Stokes operator.

    eigenvalues are ascending and positive; velocity fields are exactly
    L2-orthonormal in the discrete inner product.
    """

    eigenvalues: np.ndarray  # (M,)
    stream_functions: np.ndarray = field(repr=False)  # (M, nx, ny)
    velocities: np.ndarray = field(repr=False)  # (M, 2, nx, ny)
    grid: Grid = field(repr=False)

    @classmethod
    def from_stream_functions(cls, eigenvalues: np.ndarray, stream_functions: np.ndarray,
                              grid: Grid) -> "StokesBasis":
        """The basis whose velocities are the grid's curls of the stream functions."""
        velocities = np.stack([stream_to_velocity(psi, grid) for psi in stream_functions])
        return cls(eigenvalues, stream_functions, velocities, grid)

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    def truncated(self, m: int) -> "StokesBasis":
        if not 1 <= m <= self.n_modes:
            raise ValueError(f"cannot truncate basis of {self.n_modes} modes to {m}")
        return StokesBasis(
            eigenvalues=self.eigenvalues[:m],
            stream_functions=self.stream_functions[:m],
            velocities=self.velocities[:m],
            grid=self.grid,
        )


def solve_eigenbasis(k1: np.ndarray, k2: np.ndarray, m: int, grid: Grid) -> StokesBasis:
    """Solve K2 psi = tau K1 psi for the m smallest eigenvalues.

    Stream functions are rescaled so that the associated velocity field has
    unit discrete L2 norm (cell_area * psi.T K1 psi = 1); signs are fixed by
    making the entry of largest magnitude positive.
    """
    n = grid.n_interior
    if not 1 <= m <= n:
        raise ValueError(f"mode count {m} outside [1, {n}]")
    tau, vecs = scipy.linalg.eigh(k2, k1, subset_by_index=(0, m - 1))
    if tau[0] <= 0:
        raise RuntimeError(f"smallest eigenvalue {tau[0]:g} <= 0: broken assembly")
    order = np.argsort(tau, kind="stable")
    tau = tau[order]
    vecs = vecs[:, order]
    # eigh returns K1-orthonormal vectors; fold in the quadrature weight
    psi = vecs.T.reshape(m, grid.nx, grid.ny) / np.sqrt(grid.cell_area)
    for i in range(m):
        flat = psi[i].ravel()
        if flat[np.argmax(np.abs(flat))] < 0:
            psi[i] = -psi[i]
    return StokesBasis.from_stream_functions(tau, psi, grid)


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


def _invert_gain_curve(target: float, sqrt_lam: float, floor: float, rtol: float) -> float:
    """Smallest c >= floor with c * exp(c * sqrt_lam) >= target.

    The left side is strictly increasing in c, so this is a scalar root
    bracketed by doubling and refined by bisection.
    """

    def gain(c: float) -> float:
        return np.log(c) + c * sqrt_lam

    log_target = np.log(target)
    if floor > 0 and gain(floor) >= log_target:
        return floor
    lo = floor if floor > 0 else min(1.0, target)
    while gain(lo) >= log_target:
        lo /= 2.0
    hi = max(lo, 1.0)
    while gain(hi) < log_target:
        hi *= 2.0
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        if gain(mid) >= log_target:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class SpectralFit:
    """Result of fitting the spectral-inequality constant.

    value is the smallest constant >= floor such that

        lambda_min(J_N(lam)) >= value^-1 * exp(-value * sqrt(lam))

    holds at every threshold of the grid.  The table records, per threshold:
    (threshold, active mode count, gram min eigenvalue, unclamped root,
    clamped root).  unclamped_value drops the floor and is the working
    constant for practical parameter choices.
    """

    value: float
    floor: float
    table: np.ndarray  # (len(grid), 5)
    unclamped_value: float


def fit_spectral_constant(
    basis: StokesBasis,
    gram: np.ndarray,
    lam_grid: np.ndarray | None = None,
    floor: float = 1.0,
    rtol: float = 1e-6,
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
        min_eig = float(scipy.linalg.eigvalsh(block)[0])
        if min_eig <= 0.0:
            raise SpectralDegeneracyError(float(lam), min_eig)
        target = 1.0 / min_eig
        root = _invert_gain_curve(target, np.sqrt(lam), 0.0, rtol)
        rows.append((float(lam), n, min_eig, root, max(root, floor)))
    table = np.array(rows)
    unclamped = float(table[:, 3].max())
    value = float(max(unclamped, floor))
    return SpectralFit(value=value, floor=floor, table=table, unclamped_value=unclamped)
