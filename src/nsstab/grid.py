"""Rectangular domain discretization and discrete vector calculus.

All fields live on the interior nodes of a uniform grid over the rectangle
(0, Lx) x (0, Ly).  Scalar fields have shape (nx, ny); velocity fields have
shape (2, nx, ny) with component 0 along x.  Boundary values are implicitly
zero; the clamped extension of a stream function (zero value and zero normal
derivative outside) is what the operator assembly in :mod:`nsstab.spectral`
relies on.

Index convention: node (i, j) sits at x = (i+1)*hx, y = (j+1)*hy, with
hx = Lx/(nx+1), hy = Ly/(ny+1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class DomainSpec:
    """Rectangle Omega = (0, Lx) x (0, Ly) with a control window omega.

    omega is the axis-aligned rectangle [a, b] x [c, d], given as (a, b, c, d).
    It must lie inside the closed domain and have positive area; omega equal
    to the full domain is allowed (full-domain control).  A violated rule
    raises ConfigError (a ValueError) naming the field.
    """

    Lx: float
    Ly: float
    nx: int
    ny: int
    omega: tuple[float, float, float, float]

    def __post_init__(self):
        for key in ("Lx", "Ly"):
            if not getattr(self, key) > 0:
                raise ConfigError(key, "must be positive")
        for key in ("nx", "ny"):
            if getattr(self, key) < 3:
                raise ConfigError(key, "must be at least 3")
        a, b, c, d = self.omega
        if not (b > a and d > c):
            raise ConfigError("omega", "must have positive area")
        if a < 0 or b > self.Lx or c < 0 or d > self.Ly:
            raise ConfigError("omega", "must lie inside the domain rectangle")


@dataclass(frozen=True)
class Grid:
    """Interior-node grid derived from a :class:`DomainSpec`.

    omega_mask is 1.0 at nodes strictly inside the control window, else 0.0.
    """

    spec: DomainSpec
    hx: float
    hy: float
    x: np.ndarray  # (nx,) interior x coordinates
    y: np.ndarray  # (ny,) interior y coordinates
    omega_mask: np.ndarray = field(repr=False)  # (nx, ny)

    @property
    def nx(self) -> int:
        return self.spec.nx

    @property
    def ny(self) -> int:
        return self.spec.ny

    @property
    def n_interior(self) -> int:
        return self.spec.nx * self.spec.ny

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy


def build_grid(spec: DomainSpec) -> Grid:
    """Construct the interior grid and the control-window mask."""
    hx = spec.Lx / (spec.nx + 1)
    hy = spec.Ly / (spec.ny + 1)
    x = hx * np.arange(1, spec.nx + 1)
    y = hy * np.arange(1, spec.ny + 1)
    a, b, c, d = spec.omega
    in_x = (x > a) & (x < b)
    in_y = (y > c) & (y < d)
    mask = np.outer(in_x, in_y).astype(np.float64)
    return Grid(spec=spec, hx=hx, hy=hy, x=x, y=y, omega_mask=mask)


def central_dx(values: np.ndarray, hx: float) -> np.ndarray:
    """Central x-difference of (..., nx, ny) fields with zero ghost values outside the interior.

    The stencil acts on the last two axes, so a stack of fields is
    differenced in one pass, each entry with the same arithmetic as alone.
    """
    padded = np.pad(values, ((0, 0),) * (values.ndim - 2) + ((1, 1), (0, 0)))
    return (padded[..., 2:, :] - padded[..., :-2, :]) / (2.0 * hx)


def central_dy(values: np.ndarray, hy: float) -> np.ndarray:
    """Central y-difference of (..., nx, ny) fields with zero ghost values outside the interior."""
    padded = np.pad(values, ((0, 0),) * (values.ndim - 2) + ((0, 0), (1, 1)))
    return (padded[..., 2:] - padded[..., :-2]) / (2.0 * hy)


def stream_to_velocity(psi: np.ndarray, grid: Grid) -> np.ndarray:
    """Velocity u = (d psi/dy, -d psi/dx) of a (..., nx, ny) stack of stream functions.

    Central second-order differences; neighbors beyond the interior use the
    zero boundary values of the clamped extension.  The resulting field has
    exactly zero discrete divergence wherever both central stencils see only
    interior or boundary nodes.  Returns (..., 2, nx, ny), each field's
    velocity bit for bit as if it were differenced alone.
    """
    if psi.ndim < 2 or psi.shape[-2:] != (grid.nx, grid.ny):
        raise ValueError(f"stream function shape {psi.shape} does not match grid")
    return np.stack([central_dy(psi, grid.hy), -central_dx(psi, grid.hx)], axis=-3)


def discrete_divergence(u: np.ndarray, grid: Grid) -> np.ndarray:
    """Central-difference divergence d(u0)/dx + d(u1)/dy of a (..., 2, nx, ny) stack of velocities."""
    if u.ndim < 3 or u.shape[-3:] != (2, grid.nx, grid.ny):
        raise ValueError(f"velocity shape {u.shape} does not match grid")
    return central_dx(u[..., 0, :, :], grid.hx) + central_dy(u[..., 1, :, :], grid.hy)
