#!/usr/bin/env python3
"""Build the divergence-free eigenbasis on the unit square.

The velocity space is represented through stream functions: a clamped
scalar field psi yields u = (d psi/dy, -d psi/dx), which is exactly
divergence-free on the grid and tangent to the boundary.  The Stokes
eigenproblem then becomes the plate-buckling problem
biharmonic(psi) = tau * (-laplacian(psi)), a sparse symmetric
generalized eigenproblem solved by shift-invert Lanczos, whose eigenvectors
are orthonormal in the velocity inner product.  Degenerate eigenvalues
(the square's symmetries pair many modes) come out bit-equal, each
eigenspace with one fixed orientation.
"""

import numpy as np

from nsstab import (
    DomainSpec,
    assemble_gram,
    assemble_operators,
    build_grid,
    discrete_divergence,
    build_trilinear_tensor,
    solve_eigenbasis,
)

spec = DomainSpec(Lx=1.0, Ly=1.0, nx=32, ny=32, omega=(0.6, 0.9, 0.1, 0.4))
grid = build_grid(spec)
print(f"grid: {grid.nx} x {grid.ny} interior nodes, h = ({grid.hx:.4f}, {grid.hy:.4f})")
print(f"control window catches {int(grid.omega_mask.sum())} nodes")

k1, k2 = assemble_operators(grid)
basis = solve_eigenbasis(k1, k2, m=24, grid=grid)

print("\nsmallest Stokes eigenvalues (continuum value for tau_1 is 52.3447):")
for i, tau in enumerate(basis.eigenvalues[:8], start=1):
    print(f"  tau_{i} = {tau:10.4f}")

# the eigenfields are orthonormal to solver precision
full_mask = np.ones((grid.nx, grid.ny))
gram_full = assemble_gram(basis, grid, mask=full_mask)
print(f"\nmax orthonormality defect: {np.abs(gram_full - np.eye(24)).max():.2e}")

# and exactly divergence-free
div = discrete_divergence(basis.velocities[0], grid)
print(f"max |divergence| of the first eigenfield: {np.abs(div).max():.2e}")

# the convection tensor built on this basis is skew in its last two slots,
# which makes the Galerkin nonlinearity energy-neutral
tensor = build_trilinear_tensor(basis, grid)
x = np.random.default_rng(0).standard_normal(24)
quad = np.einsum("ijk,i,j->k", tensor, x, x)
print(f"energy production of the nonlinearity at a random state: {x @ quad:.2e}")
