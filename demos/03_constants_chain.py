#!/usr/bin/env python3
"""Derive the full constant chain and check its defining inequalities.

From the fitted spectral constant c1 and the trilinear constant c0, the
upper end of a closed-form bracket on the convection tensor, the chain derives

    c2    smallest constant >= 3*c1 dominating three exponential expressions,
    q     smallest constant with c_i * exp(c_i q m) <= exp(q^2 m / 64)
          for both constants and every integer m >= 1,
    c3    = q^2 / 32, the cost exponent: steering to zero in time T costs
          at most exp(c3 / T) in control norm.

The certified chain is astronomically conservative (that is its nature);
practical packs trade the certificates for observable dynamics.
"""

from dataclasses import asdict

import numpy as np

from nsstab import (
    ConstantPack,
    DomainSpec,
    assemble_gram,
    assemble_operators,
    build_grid,
    build_trilinear_tensor,
    fit_spectral_constant,
    solve_eigenbasis,
    trilinear_bracket,
)

spec = DomainSpec(1.0, 1.0, 32, 32, omega=(0.6, 0.9, 0.1, 0.4))
grid = build_grid(spec)
k1, k2 = assemble_operators(grid)
basis = solve_eigenbasis(k1, k2, 24, grid)
gram = assemble_gram(basis, grid)
tensor = build_trilinear_tensor(basis, grid)

fit = fit_spectral_constant(basis, gram)
lower, c0 = trilinear_bracket(basis, tensor)
print(f"fitted spectral constant:  {fit.value}")
print(f"trilinear constant bracket: [{lower:.6f}, {c0:.6f}] "
      "(best single-mode triple, unfolding bound; c0 is the upper end)")

pack = ConstantPack.certified(fit.value, c0)
print("\ncertified chain:")
for key, value in asdict(pack).items():
    if key != "provenance":
        print(f"  {key:24s} {value}")

# show the slack of the three defining inequalities for c2 on a log grid;
# the grid is only for display: the derivation proves them for every lam > 0
c1, c2 = pack.spectral_constant, pack.feedback_constant
lam = np.geomspace(1e-4, 1e6, 9)
print("\nlog-slack of the three feedback-constant inequalities (>= 0 everywhere):")
s = np.sqrt(lam)
rhs = np.log(c2) + c2 * s
for name, lhs in (
    ("(1 + lam c1) e^{c1 s}", np.log1p(lam * c1) + c1 * s),
    ("8 (1+lam) c1^2 e^{2 c1 s}", np.log(8 * c1**2) + np.log1p(lam) + 2 * c1 * s),
    ("8 c0 c1^3 e^{3 c1 s}", np.log(8 * c0 * c1**3) + 3 * c1 * s),
):
    print(f"  {name:28s} min slack = {np.min(rhs - lhs):10.4f}")

print(f"\ncertified admissible norm for steering to zero in T = 1/2: "
      f"exp({-2 * pack.cost_exponent:.0f})  (below float precision, by design)")

practical = ConstantPack.practical(
    spectral_constant=0.02, trilinear_constant=1.0, schedule_constant=4.0
)
print("\npractical pack for desk-scale schedule runs:")
for key, value in asdict(practical).items():
    if key != "provenance":
        print(f"  {key:24s} {value}")
print("  (schedule constant overridden; recorded in provenance as 'user')")
