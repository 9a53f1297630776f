"""Exception types shared across the package."""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid run configuration; names the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config key '{key}': {message}")


class BasisTooSmallError(ValueError):
    """A spectral threshold reaches or exceeds the largest retained eigenvalue."""

    def __init__(self, threshold: float, tau_max: float):
        self.threshold = threshold
        self.tau_max = tau_max
        super().__init__(
            f"threshold {threshold:g} >= largest retained eigenvalue {tau_max:g}; "
            "retain more modes"
        )


class SpectralDegeneracyError(RuntimeError):
    """Localized Gram matrix lost positivity (control window too small for the mesh)."""

    def __init__(self, threshold: float, min_eig: float):
        self.threshold = threshold
        self.min_eig = min_eig
        super().__init__(
            f"localized Gram matrix has min eigenvalue {min_eig:.3e} <= 0 "
            f"at threshold {threshold:g}"
        )


class BlowUpError(RuntimeError):
    """Simulation produced a non-finite or absurdly large coefficient.

    row is the row that tripped the guard: the row of the batch from
    :func:`nsstab.dynamics.simulate_batch`, the run's index in n0_list from
    :func:`nsstab.experiments.run_null_control`.  run, when given, names
    that run in the message.
    """

    def __init__(self, time: float, max_abs: float, row: int = 0, run: str | None = None):
        self.time = time
        self.max_abs = max_abs
        self.row = row
        self.run = run
        where = f" in {run}" if run else ""
        super().__init__(f"blow-up{where} at t={time:.6g} (max |coefficient| = {max_abs:.3e})")

