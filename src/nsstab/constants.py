"""Constant ledger, feedback laws, and the dyadic feedback schedule.

The chain of constants drives everything downstream:

* spectral constant  c1   -- fitted lower bound for the localized Gram
  spectra (see :func:`nsstab.spectral.fit_spectral_constant`),
* trilinear constant c0   -- sampled bound for the convection form,
* feedback constant  c2   -- smallest constant >= 3*c1 dominating three
  exponential expressions built from (c1, c0),
* schedule constant  q    -- smallest q with c_i * exp(c_i q m) <= exp(q^2 m/64)
  for both constants and every integer m >= 1,
* cost exponent      c3 = q^2 / 32.

Per threshold lam the derived feedback data are

    gain          = c1 * exp(c1 sqrt(lam)) * lam
    weight        = gain^2 / lam^2            (Lyapunov weight, > 1 iff
                                               c1 * exp(c1 sqrt(lam)) > 1)
    cutoff_radius = 1 / (c2 * exp(c2 sqrt(lam)))

In certified mode the constants come from the fit chain and satisfy the
inequalities above on a wide grid.  In practical mode the user supplies a
small c1 (and optionally q), trading the certified inequalities for
dynamics that are observable at desk scale; overridden entries are recorded
in the pack's provenance.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BasisTooSmallError
from .spectral import StokesBasis, count_modes

logger = logging.getLogger(__name__)

#: interval index reported for times past the truncated schedule (zero feedback)
TERMINAL = -1


@dataclass(frozen=True)
class ConstantPack:
    """The constants used by the feedback laws and schedules.

    mode is "certified" (constants from the fit chain, spectral constant
    >= 1) or "practical" (user-supplied small constants).  provenance maps
    each field to how it was obtained ("fitted", "measured", "derived" or
    "user").
    """

    spectral_constant: float
    trilinear_constant: float
    feedback_constant: float
    schedule_constant: float
    cost_exponent: float
    mode: str = "practical"
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.mode not in ("certified", "practical"):
            raise ValueError(f"unknown constant mode {self.mode!r}")
        for name in (
            "spectral_constant",
            "trilinear_constant",
            "feedback_constant",
            "schedule_constant",
            "cost_exponent",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.mode == "certified" and self.spectral_constant < 1.0:
            raise ValueError("certified mode requires spectral_constant >= 1")
        if self.feedback_constant < 3.0 * self.spectral_constant * (1.0 - 1e-12):
            raise ValueError("feedback_constant must be >= 3 * spectral_constant")
        if self.cost_exponent != self.schedule_constant**2 / 32.0:
            raise ValueError("cost_exponent must equal schedule_constant**2 / 32 exactly")

    @classmethod
    def certified(cls, spectral_constant: float, trilinear_constant: float) -> "ConstantPack":
        """Derive the full chain from a fitted spectral constant (>= 1)."""
        c2 = derive_feedback_constant(spectral_constant, trilinear_constant)
        q, c3 = derive_schedule_constants(spectral_constant, c2)
        return cls(
            spectral_constant=spectral_constant,
            trilinear_constant=trilinear_constant,
            feedback_constant=c2,
            schedule_constant=q,
            cost_exponent=c3,
            mode="certified",
            provenance={
                "spectral_constant": "fitted",
                "trilinear_constant": "measured",
                "feedback_constant": "derived",
                "schedule_constant": "derived",
                "cost_exponent": "derived",
            },
        )

    @classmethod
    def practical(
        cls,
        spectral_constant: float,
        trilinear_constant: float = 1.0,
        feedback_constant: float | None = None,
        schedule_constant: float | None = None,
    ) -> "ConstantPack":
        """Build a pack from user constants, deriving whatever is omitted.

        Overriding the schedule constant with a small value keeps the
        dyadic thresholds inside a desk-scale basis but voids the derived
        schedule inequalities; the override is recorded in provenance.
        """
        prov = {"spectral_constant": "user", "trilinear_constant": "user"}
        if feedback_constant is None:
            feedback_constant = derive_feedback_constant(spectral_constant, trilinear_constant)
            prov["feedback_constant"] = "derived"
        else:
            prov["feedback_constant"] = "user"
        if schedule_constant is None:
            schedule_constant, c3 = derive_schedule_constants(spectral_constant, feedback_constant)
            prov["schedule_constant"] = "derived"
        else:
            c3 = schedule_constant**2 / 32.0
            prov["schedule_constant"] = "user"
            logger.info(
                "schedule constant overridden to %g; derived schedule inequalities "
                "are not claimed for this pack",
                schedule_constant,
            )
        prov["cost_exponent"] = "derived"
        return cls(
            spectral_constant=spectral_constant,
            trilinear_constant=trilinear_constant,
            feedback_constant=feedback_constant,
            schedule_constant=schedule_constant,
            cost_exponent=c3,
            mode="practical",
            provenance=prov,
        )


@dataclass(frozen=True)
class FeedbackParams:
    """Per-threshold feedback data; see the module docstring for formulas."""

    threshold: float
    n_active: int
    gain: float
    weight: float
    cutoff_radius: float


def estimate_trilinear_constant(
    basis: StokesBasis,
    tensor: np.ndarray,
    samples: int = 200,
    seed: int = 42,
) -> float:
    """Sampled lower bound for the convection-form constant.

    Draws random coefficient triples (u, v, w), evaluates the trilinear form
    through the tensor, and maximizes

        |B(u, v, w)| / (||u||^1/2 ||v||^1/2 ||grad u||^1/2 ||grad v||^1/2 ||grad w||)

    with the spectral characterizations ||u|| = ||a||_2 and
    ||grad u||^2 = sum tau_i a_i^2.  A measured bound, not a certified one.
    """
    if basis.n_modes < 3:
        raise ValueError("need at least 3 modes")
    if samples < 100:
        raise ValueError("need at least 100 samples")
    m = basis.n_modes
    tau = basis.eigenvalues
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(samples):
        a, b, c = rng.standard_normal((3, m))
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        ga = math.sqrt(float(tau @ (a * a)))
        gb = math.sqrt(float(tau @ (b * b)))
        gc = math.sqrt(float(tau @ (c * c)))
        den = math.sqrt(na * nb) * math.sqrt(ga * gb) * gc
        if den == 0.0:
            continue
        num = abs(float(np.einsum("ijk,i,j,k->", tensor, a, b, c)))
        best = max(best, num / den)
    logger.info("trilinear constant estimate %.6g (seed=%d, samples=%d)", best, seed, samples)
    return best


def _feedback_constraints_ok(c2: float, c1: float, c0: float, lam_grid: np.ndarray) -> bool:
    """All three defining inequalities for the feedback constant, in logs."""
    # lam -> 0 limits of the three left-hand sides: 1, 8*c1^2, 8*c0*c1^3
    if max(1.0, 8.0 * c1 * c1, 8.0 * c0 * c1**3) > c2:
        return False
    s = np.sqrt(lam_grid)
    rhs = np.log(c2) + c2 * s
    lhs1 = np.log1p(lam_grid * c1) + c1 * s
    lhs2 = np.log(8.0 * c1 * c1) + np.log1p(lam_grid) + 2.0 * c1 * s
    lhs3 = np.log(8.0 * c0) + 3.0 * np.log(c1) + 3.0 * c1 * s
    return bool(np.all(lhs1 <= rhs) and np.all(lhs2 <= rhs) and np.all(lhs3 <= rhs))


def derive_feedback_constant(c1: float, c0: float) -> float:
    """Smallest constant >= 3*c1 satisfying the three defining inequalities.

    Checked at the lam -> 0 limit and on a dense log grid; the constraint
    set is monotone in the constant, so bisection finds the minimum to a
    relative 1e-9.  The result is nudged up by a relative 1e-9 and
    re-validated on a shifted, denser grid.
    """
    if c1 <= 0 or c0 <= 0:
        raise ValueError("constants must be positive")
    grid = np.geomspace(1e-6, 1e7, 1500)
    lo = 3.0 * c1
    if _feedback_constraints_ok(lo, c1, c0, grid):
        result = lo
    else:
        hi = max(2.0 * lo, 1.0)
        while not _feedback_constraints_ok(hi, c1, c0, grid):
            hi *= 2.0
        while hi - lo > 1e-9 * hi:
            mid = 0.5 * (lo + hi)
            if _feedback_constraints_ok(mid, c1, c0, grid):
                hi = mid
            else:
                lo = mid
        result = hi
    result *= 1.0 + 1e-9
    check = np.geomspace(1e-7, 1e7, 6001)
    if not _feedback_constraints_ok(result, c1, c0, check):
        # dips between coarse grid points; walk up until the fine grid passes
        while not _feedback_constraints_ok(result, c1, c0, check):
            result *= 1.0 + 1e-6
    return result


def _schedule_constraint_ok(q: float, constants: tuple[float, ...]) -> bool:
    """exp growth test at m = 1 plus nonnegative slope, for each constant."""
    if q <= 0:
        return False
    for c in constants:
        if q * q / 64.0 < c * q:  # slope in m must be nonnegative
            return False
        if math.log(c) + c * q > q * q / 64.0:
            return False
    return True


def derive_schedule_constants(c1: float, c2: float) -> tuple[float, float]:
    """Smallest schedule constant q and the cost exponent q^2/32.

    The constraint is linear in the integer m, so feasibility reduces to
    m = 1 plus a slope condition; the binding constant has the closed form
    32*c + sqrt((32*c)^2 + 64*ln c), refined here by bisection.
    """
    if c1 <= 0 or c2 <= 0:
        raise ValueError("constants must be positive")
    constants = (c1, c2)
    hi = 64.0 * max(constants)
    for c in constants:
        disc = (32.0 * c) ** 2 + 64.0 * math.log(c)
        if disc >= 0:
            hi = max(hi, 32.0 * c + math.sqrt(disc))
    if not _schedule_constraint_ok(hi, constants):
        while not _schedule_constraint_ok(hi, constants):
            hi *= 2.0
    lo = 0.0
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if _schedule_constraint_ok(mid, constants):
            hi = mid
        else:
            lo = mid
    q = hi
    return q, q * q / 32.0


def feedback_params(lam: float, pack: ConstantPack, basis: StokesBasis) -> FeedbackParams:
    """Feedback data at a threshold; the active mode count comes from the basis.

    Thresholds below the first eigenvalue are allowed (no active modes, the
    feedback degenerates to zero); thresholds at or above the last retained
    eigenvalue raise, since the active subspace would be under-resolved.
    """
    n_active = count_modes(basis, lam)
    c1 = pack.spectral_constant
    c2 = pack.feedback_constant
    s = math.sqrt(lam)
    gain = c1 * math.exp(c1 * s) * lam
    weight = gain * gain / (lam * lam)
    cutoff_radius = 1.0 / (c2 * math.exp(c2 * s))
    return FeedbackParams(
        threshold=lam,
        n_active=n_active,
        gain=gain,
        weight=weight,
        cutoff_radius=cutoff_radius,
    )


def cutoff_profile(s: float, r: float) -> float:
    """Monotone C^2 profile: 1 on [0, r], 0 on [2r, inf), quintic in between."""
    if s < 0:
        raise ValueError("argument must be nonnegative")
    if not 0 < r <= 0.5:
        raise ValueError("radius must lie in (0, 1/2]")
    if s <= r:
        return 1.0
    if s >= 2.0 * r:
        return 0.0
    t = (s - r) / r
    return 1.0 - t**3 * (10.0 - 15.0 * t + 6.0 * t * t)


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row pair of two (B, M) arrays.

    A stack of (1, M) @ (M, 1) products sums like np.dot, so row norms from
    it agree bit for bit with np.linalg.norm of each row.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def radial_cutoff_rows(coeffs: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Scale each row of a (B, M) array by the cutoff profile of its norm at its own radius.

    A row is unchanged inside its radius r and zero outside 2r, so its norm
    ends at most min(1, input norm) because 2r <= 1.  Row norms sum like
    np.linalg.norm of the row (see row_dot), and rows past their radius are
    scaled by cutoff_profile itself.  Returns coeffs itself when no row
    exceeds its radius.
    """
    norms = np.sqrt(row_dot(coeffs, coeffs))
    over = norms > radii
    if not over.any():
        return coeffs
    scale = np.ones(len(coeffs))
    for i in np.flatnonzero(over):
        scale[i] = cutoff_profile(float(norms[i]), float(radii[i]))
    return coeffs * scale[:, None]


@dataclass(frozen=True)
class Schedule:
    """Dyadic partition of one period with per-interval feedback data.

    Interval n is [start_times[n], start_times[n+1]); start_times has
    n_max + 2 entries, the last opening the terminal regime (zero feedback)
    that stands in for the untruncated cascade.  thresholds_raw grow by a
    factor 4 per interval; thresholds are the values actually used, clamped
    to the second-largest retained eigenvalue in practical mode.
    """

    n0: int
    period: float
    n_max: int
    start_times: np.ndarray  # (n_max + 2,)
    thresholds_raw: np.ndarray  # (n_max + 1,)
    thresholds: np.ndarray  # (n_max + 1,)
    params: tuple[FeedbackParams, ...]

    @classmethod
    def dyadic(cls, n0: int, q: float, n_max: int) -> "Schedule":
        """Times and raw thresholds q^2 4^(n0+n) of the period 2**-n0, unclamped.

        Carries no feedback data, which needs a basis: enough for the
        log-space bound arithmetic of a certified pack, whose thresholds
        overrun any desk-scale basis.  :func:`build_schedule` extends it.
        """
        if n0 < 1:
            raise ValueError("n0 must be a positive integer")
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        period = 2.0 ** (-n0)
        start_times = period * (1.0 - 0.5 ** np.arange(n_max + 2))
        raw = q * q * 4.0 ** (n0 + np.arange(n_max + 1))
        return cls(n0, period, n_max, start_times, raw, raw.copy(), ())

    @property
    def clamped(self) -> np.ndarray:
        """(n_max + 1,) bool: the intervals whose threshold was clamped."""
        return self.thresholds != self.thresholds_raw


def build_schedule(n0: int, pack: ConstantPack, basis: StokesBasis, n_max: int) -> Schedule:
    """Dyadic schedule for period 2**-n0 with n_max + 1 active intervals."""
    dyadic = Schedule.dyadic(n0, pack.schedule_constant, n_max)
    raw = dyadic.thresholds_raw
    tau = basis.eigenvalues
    if pack.mode == "certified":
        if raw[-1] >= tau[-1]:
            raise BasisTooSmallError(float(raw[-1]), float(tau[-1]))
        applied = dyadic.thresholds
    else:
        # clamp strictly below tau_M; ties at the top force a further step down
        cap_idx = int(np.searchsorted(tau, tau[-1], side="left")) - 1
        if cap_idx < 0:
            raise BasisTooSmallError(float(raw[0]), float(tau[-1]))
        cap = float(tau[cap_idx])
        applied = np.minimum(raw, cap)
        if np.any(applied != raw):
            first = int(np.argmax(applied != raw))
            logger.warning(
                "schedule thresholds clamped to tau_%d = %.6g from interval %d on",
                cap_idx + 1,
                cap,
                first,
            )
    params = tuple(feedback_params(float(lam), pack, basis) for lam in applied)
    return replace(dyadic, thresholds=applied, params=params)
