"""Constant ledger, feedback laws, and the dyadic feedback schedule.

The chain of constants drives everything downstream:

* spectral constant  c1   -- fitted lower bound for the localized Gram
  spectra (see :func:`nsstab.spectral.fit_spectral_constant`),
* trilinear constant c0   -- closed-form upper bound for the convection
  form (see :func:`trilinear_bracket`),
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

In certified mode c1 is fitted, c0 bounded on the convection tensor and the
rest derived, so that the inequalities above hold for every lam > 0; no
step of the chain samples anything.  In practical mode the user supplies a
small c1 and c0 (and optionally q), trading the certified inequalities for
dynamics that are observable at desk scale; c2 and c3 are derived in both
modes, and the pack's provenance records which entries the user gave.
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

    mode is "certified" (constants from the fit chain: spectral constant
    >= 1, feedback and schedule constants that meet their inequalities, so
    q >= 64 * c2 >= 192) or "practical" (the user's c1, c0 and optionally q,
    checked only for positivity and c2 >= 3 * c1).  Both constructors derive
    c2 from (c1, c0); the cost exponent c3 = q^2 / 32 is always derived,
    never passed.  provenance maps each field to how it was obtained
    ("fitted", "bounded", "derived" or "user").
    """

    spectral_constant: float
    trilinear_constant: float
    feedback_constant: float
    schedule_constant: float
    cost_exponent: float = field(init=False)
    mode: str = "practical"
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cost_exponent", self.schedule_constant**2 / 32.0)
        if self.mode not in ("certified", "practical"):
            raise ValueError(f"unknown constant mode {self.mode!r}")
        for name in (
            "spectral_constant",
            "trilinear_constant",
            "feedback_constant",
            "schedule_constant",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.mode == "certified" and self.spectral_constant < 1.0:
            raise ValueError("certified mode requires spectral_constant >= 1")
        if self.feedback_constant < 3.0 * self.spectral_constant:
            raise ValueError("feedback_constant must be >= 3 * spectral_constant")
        c1, c0, c2 = self.spectral_constant, self.trilinear_constant, self.feedback_constant
        if self.mode == "certified" and not _feedback_constraints_ok(c2, c1, c0):
            raise ValueError("certified mode requires a feedback_constant that meets the feedback inequalities")
        if self.mode == "certified" and not _schedule_constraint_ok(self.schedule_constant, (c1, c2)):
            raise ValueError("certified mode requires a schedule_constant that meets the schedule inequalities")

    @classmethod
    def certified(cls, spectral_constant: float, trilinear_constant: float) -> "ConstantPack":
        """Derive the full chain from a fitted spectral constant (>= 1)."""
        c2 = derive_feedback_constant(spectral_constant, trilinear_constant)
        return cls(
            spectral_constant=spectral_constant,
            trilinear_constant=trilinear_constant,
            feedback_constant=c2,
            schedule_constant=derive_schedule_constant(spectral_constant, c2),
            mode="certified",
            provenance={
                "spectral_constant": "fitted",
                "trilinear_constant": "bounded",
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
        schedule_constant: float | None = None,
    ) -> "ConstantPack":
        """Build a pack from user constants, deriving c2 and, when omitted, q.

        Overriding the schedule constant with a small value keeps the
        dyadic thresholds inside a desk-scale basis but voids the derived
        schedule inequalities; the override is recorded in provenance.
        """
        feedback_constant = derive_feedback_constant(spectral_constant, trilinear_constant)
        prov = {"spectral_constant": "user", "trilinear_constant": "user", "feedback_constant": "derived"}
        if schedule_constant is None:
            schedule_constant = derive_schedule_constant(spectral_constant, feedback_constant)
            prov["schedule_constant"] = "derived"
        else:
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


def trilinear_bracket(basis: StokesBasis, tensor: np.ndarray) -> tuple[float, float]:
    """Lower and upper bound of the convection-form constant, the supremum of

        |B(u, v, w)| / (||u||^1/2 ||v||^1/2 ||grad u||^1/2 ||grad v||^1/2 ||grad w||)

    with ||u|| = ||a||_2 and ||grad u||^2 = sum tau_i a_i^2.  By Cauchy-Schwarz
    ||a||^1/2 ||a||_tau^1/2 >= ||tau^1/4 a||, so the ratio is at most the
    spectral norm of W_ijk = T_ijk tau_i^-1/4 tau_j^-1/4 tau_k^-1/2, and that
    at most the smallest 2-norm of W's three unfoldings: the upper end, each
    norm the root of the largest eigenvalue of an unfolding times its
    transpose.  A single-mode triple attains |W_ijk| exactly, so max |W_ijk|
    is the lower end.  The weights are constant on each eigenspace, so the
    upper end does not move when a degenerate eigenspace is rotated.
    """
    tau = basis.eigenvalues
    w = tensor * (tau[:, None, None] * tau[None, :, None]) ** -0.25 / np.sqrt(tau)
    upper = min(
        math.sqrt(np.linalg.eigvalsh(np.tensordot(w, w, axes=(others, others)))[-1])
        for others in ((1, 2), (0, 2), (0, 1))
    )
    return float(np.abs(w).max()), upper


def _log_slack_min(a: float, b: float) -> float:
    """Minimum over u >= 0 of b + a*u - log(1 + u^2), for a > 0.

    The derivative a - 2u/(1 + u^2) never falls below a - 1, so for a >= 1
    the minimum is b at u = 0; otherwise it is b or the value at the larger
    zero of the derivative, u = (1 + sqrt(1 - a^2)) / a.
    """
    if a >= 1.0:
        return b
    u = (1.0 + math.sqrt(1.0 - a * a)) / a
    return min(b, b + a * u - math.log1p(u * u))


def _feedback_constraints_ok(c2: float, c1: float, c0: float) -> bool:
    """All three defining inequalities for the feedback constant c2 >= 3*c1,
    for every lam > 0.

    With s = sqrt(lam), in logs, the first two read b + a*u - log(1 + u^2) >= 0:
    u = sqrt(c1)*s, a = (c2 - c1)/sqrt(c1), b = log c2, and u = s,
    a = c2 - 2*c1, b = log(c2 / (8*c1^2)).  The third,
    log(c2 / (8*c0*c1^3)) + (c2 - 3*c1)*s >= 0, is nondecreasing in s, so
    its lam -> 0 limit decides it.
    """
    return (
        c2 >= 8.0 * c0 * c1**3
        and _log_slack_min((c2 - c1) / math.sqrt(c1), math.log(c2)) >= 0.0
        and _log_slack_min(c2 - 2.0 * c1, math.log(c2 / (8.0 * c1 * c1))) >= 0.0
    )


def derive_feedback_constant(c1: float, c0: float) -> float:
    """Smallest constant >= 3*c1 satisfying the three defining inequalities
    for every lam > 0, raised by a relative 1e-9.

    Feasibility only grows with the constant.  The floor
    max(3*c1, 1, 8*c1^2, 8*c0*c1^3) holds the three lam -> 0 limits and is
    the answer unless the first two inequalities dip below zero at an
    interior lam (c1 in about [0.24, 0.47] when c0 = 1); then the exact
    predicate is bisected to a relative 1e-9.  The margin keeps the
    inequalities true in floating point at lam -> 0.
    """
    if c1 <= 0 or c0 <= 0:
        raise ValueError("constants must be positive")
    lo = hi = max(3.0 * c1, 1.0, 8.0 * c1 * c1, 8.0 * c0 * c1**3)
    while not _feedback_constraints_ok(hi, c1, c0):
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if _feedback_constraints_ok(mid, c1, c0):
            hi = mid
        else:
            lo = mid
    return hi * (1.0 + 1e-9)


def _schedule_constraint_ok(q: float, constants: tuple[float, ...]) -> bool:
    """Nonnegative slope in m, q >= 64*c, and the exp growth test at m = 1,
    q*(q - 64*c) >= 64*ln c, for each constant.

    Both are decided exactly on the floats, the second in integers from
    their ratios n/d with ln c rounded up by an ulp, so that a pass holds in
    exact arithmetic.
    """
    for c in constants:
        if q < 64.0 * c:
            return False
        log_c = math.nextafter(math.log(c), math.inf)
        (nq, dq), (nc, dc), (nl, dl) = (x.as_integer_ratio() for x in (q, c, log_c))
        # both sides times dq^2 * dc * dl > 0
        if nq * (nq * dc - 64 * nc * dq) * dl < 64 * nl * dq * dq * dc:
            return False
    return True


def derive_schedule_constant(c1: float, c2: float) -> float:
    """Smallest schedule constant q.

    The constraint log c + c*q*m <= q^2*m/64 is linear in the integer m, so
    it holds for every m >= 1 iff its slope is nonnegative, q >= 64*c, and
    it holds at m = 1, q >= 32*c + sqrt((32*c)^2 + 64*ln c) (or for every q
    when the root is not real).  q is the largest of these bounds over both
    constants, raised by ulps until the exact check passes.
    """
    if c1 <= 0 or c2 <= 0:
        raise ValueError("constants must be positive")
    constants = (c1, c2)
    q = max(
        max(64.0 * c, 32.0 * c + math.sqrt(max(0.0, (32.0 * c) ** 2 + 64.0 * math.log(c))))
        for c in constants
    )
    while not _schedule_constraint_ok(q, constants):
        q = math.nextafter(q, math.inf)
    return q


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
    def lengths(self) -> np.ndarray:
        """(n_max + 2,): the length of each interval, then of the terminal
        regime, which TERMINAL indexes."""
        return np.diff(np.append(self.start_times, self.period))

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
