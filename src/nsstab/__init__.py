"""Spectral Galerkin laboratory for feedback stabilization and null control
of the 2D incompressible Navier-Stokes equations on a rectangle.

The package root exports what the demos use; everything else is imported
from its module (``nsstab.constants``, ``nsstab.dynamics``, ...).
"""

from .constants import ConstantPack, build_schedule, trilinear_bracket
from .dynamics import build_trilinear_tensor
from .experiments import fit_cost_curve, run_null_control, run_rapid_stab, run_small_time
from .grid import DomainSpec, build_grid, discrete_divergence
from .spectral import assemble_gram, assemble_operators, count_modes, fit_spectral_constant, solve_eigenbasis

__all__ = [
    "ConstantPack",
    "build_schedule",
    "trilinear_bracket",
    "build_trilinear_tensor",
    "fit_cost_curve",
    "run_null_control",
    "run_rapid_stab",
    "run_small_time",
    "DomainSpec",
    "build_grid",
    "discrete_divergence",
    "assemble_gram",
    "assemble_operators",
    "count_modes",
    "fit_spectral_constant",
    "solve_eigenbasis",
]

__version__ = "0.1.0"
