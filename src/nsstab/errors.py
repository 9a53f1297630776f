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

    row is the batch row that tripped the guard; run, when given, names the
    run of that row in the message.
    """

    def __init__(self, time: float, max_abs: float, row: int = 0, run: str | None = None):
        self.time = time
        self.max_abs = max_abs
        self.row = row
        self.run = run
        where = f" in {run}" if run else ""
        super().__init__(f"blow-up{where} at t={time:.6g} (max |coefficient| = {max_abs:.3e})")


class BoundViolatedError(RuntimeError):
    """A guaranteed per-interval bound failed during a scheduled run."""

    def __init__(self, interval: int, bound_name: str, measured: float, bound: float):
        self.interval = interval
        self.bound_name = bound_name
        self.measured = measured
        self.bound = bound
        super().__init__(
            f"interval {interval}: {bound_name} bound violated "
            f"({measured:.6e} > {bound:.6e})"
        )


class TwoPeriodFailedError(RuntimeError):
    """The two-period null check of the periodic feedback law failed."""

    def __init__(self, offset: float, residual: float):
        self.offset = offset
        self.residual = residual
        super().__init__(
            f"state after two periods from offset {offset:.6g} has relative norm "
            f"{residual:.3e}"
        )
