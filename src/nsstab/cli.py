"""Configuration, subcommands, artifact formats, and the basis and tensor caches.

One structured JSON config file drives every run; there are no positional
numeric arguments, so every figure is reproducible from the file.  Unknown
keys are rejected.  All numeric output uses full 64-bit precision (17
significant digits in CSV) so artifacts re-parse bit-faithfully.

The convection tensor is a fixed function of the basis, so the first run
that steps (or a certified ``constants``) builds it once and stores it in a
tensor cache beside the basis cache, keyed by the basis cache's digest;
later runs read it back.  ``eigen`` and ``fit-c1`` never build it.

Subcommands:

    eigen        solve (or load) the eigenbasis and refresh the cache
    fit-c1       fit the spectral-inequality constant, write the table
    constants    derive and echo the constant pack
    simulate     closed-loop rapid-stabilization run
    nullcontrol  dyadic-schedule null-control run
    stabilize    periodic small-time stabilization probe
    cost-curve   nullcontrol runs over several horizons plus a slope fit
    report       summarize the artifacts in the output directory
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import math
import os
import struct
import sys
import tempfile
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .constants import ConstantPack, estimate_trilinear_constant
from .dynamics import Trajectory, build_trilinear_tensor
from .errors import ConfigError
from .experiments import fit_cost_curve, run_null_control, run_rapid_stab, run_small_time
from .grid import DomainSpec, Grid, build_grid
from .spectral import StokesBasis, assemble_gram, assemble_operators, fit_spectral_constant, solve_eigenbasis

logger = logging.getLogger(__name__)

CACHE_MAGIC = b"NSSTAB1\x00"
CACHE_VERSION = 3  # 3: modes with exact reflection parities, canonical per class
TENSOR_CACHE_MAGIC = b"NSSTABT\x00"
#: bump whenever the arithmetic of dynamics.raw_trilinear_tensor or
#: build_trilinear_tensor changes: the key names the basis, not that code
TENSOR_CACHE_VERSION = 2

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PracticalConstants:
    spectral_constant: float = 0.5
    trilinear_constant: float = 1.0
    feedback_constant: float | None = None
    schedule_constant: float | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    lambda_index: int = 4  # threshold = tau_k for the simulate subcommand
    y0_scale: float = 0.5  # initial norm as a fraction of the admissible basin
    y0_norm: float = 1e-3  # initial norm for practical schedule runs
    cutoff: bool = False  # simulate, nullcontrol, cost-curve; stabilize always cuts off
    horizon: float | None = None  # simulate run length; None = 16 / threshold
    n0: int = 1
    n_max: int = 8
    n0_list: tuple[int, ...] = (1, 2, 3)
    offsets: tuple[float, ...] = (0.0, 1.0 / 3.0, 0.9)  # fractions of the period
    periods: int = 2


@dataclass(frozen=True)
class RunConfig:
    Lx: float
    Ly: float
    nx: int
    ny: int
    omega: tuple[float, float, float, float]
    M: int = 24
    nu: float = 1.0
    dt: float | None = None
    mode: str = "practical"
    seed: int = 42
    eps_zero: float = 1e-8
    output_dir: str = "out"
    cache_path: str | None = None
    practical: PracticalConstants = field(default_factory=PracticalConstants)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)

    def domain_spec(self) -> DomainSpec:
        return DomainSpec(self.Lx, self.Ly, self.nx, self.ny, self.omega)

    def resolved_cache_path(self) -> Path:
        if self.cache_path is not None:
            return Path(self.cache_path)
        return Path(self.output_dir) / "basis_cache.nsstab"

    def resolved_tensor_cache_path(self) -> Path:
        basis_cache = self.resolved_cache_path()
        return basis_cache.with_name(basis_cache.name + ".tensor")


def _parse_value(hint, value, key: str):
    """A JSON value checked against a field's type hint and converted to it.

    JSON integers are admissible floats, booleans are not numbers, floats
    must be finite (Python's json reads NaN and Infinity), lists become
    tuples, and dataclass fields are parsed as config sections.
    """
    if isinstance(hint, types.UnionType):  # T | None
        if value is None:
            return None
        hint = next(arg for arg in typing.get_args(hint) if arg is not type(None))
    if dataclasses.is_dataclass(hint):
        return _parse_section(hint, value, key + ".")
    if typing.get_origin(hint) is tuple:
        items = typing.get_args(hint)
        fixed = Ellipsis not in items
        if not isinstance(value, list) or (fixed and len(value) != len(items)):
            count = f"{len(items)} " if fixed else ""
            raise ConfigError(key, f"must be a list of {count}{'numbers' if items[0] is float else 'integers'}")
        return tuple(_parse_value(items[0], v, key) for v in value)
    accepted = (int, float) if hint is float else hint
    if isinstance(value, bool) != (hint is bool) or not isinstance(value, accepted):
        raise ConfigError(key, f"type mismatch (got {type(value).__name__})")
    if hint is float and not math.isfinite(value):
        raise ConfigError(key, f"must be finite (got {value})")
    return float(value) if hint is float else value


def _parse_section(cls, data, prefix: str = ""):
    """Build a config dataclass from a JSON object, field by field.

    Keys, types and required entries all come from the dataclass: a field
    without a default is required, and unknown keys are rejected.
    """
    if not isinstance(data, dict):
        raise ConfigError(prefix.rstrip(".") or "<root>", "must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key in data:
        if key not in fields:
            raise ConfigError(prefix + key, "unknown key")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, f in fields.items():
        if name in data:
            kwargs[name] = _parse_value(hints[name], data[name], prefix + name)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(prefix + name, "missing required key")
    return cls(**kwargs)


def _config_from_dict(data: dict) -> RunConfig:
    config = _parse_section(RunConfig, data)
    if config.mode not in ("certified", "practical"):
        raise ConfigError("mode", "must be 'certified' or 'practical'")
    # the spec raises ConfigError naming the offending key; the mask is the
    # control's only route into the flow
    if not build_grid(config.domain_spec()).omega_mask.any():
        raise ConfigError("omega", "holds no interior grid node, so the control cannot act")
    if config.nx % 2 == 1 and config.ny % 2 == 1:
        raise ConfigError("nx", "nx and ny cannot both be odd: the central-difference stiffness "
                                "has a checkerboard kernel on odd-by-odd grids")
    if config.M < 5:
        raise ConfigError("M", "need at least 5 modes")
    if config.M > config.nx * config.ny - 2:
        # the solve needs one eigenpair past tau_M, and it solves at most n - 1
        raise ConfigError("M", "cannot exceed the interior node count minus 2")
    if config.seed < 0:
        raise ConfigError("seed", "must be nonnegative")
    if config.eps_zero <= 0:
        raise ConfigError("eps_zero", "must be positive")
    if config.dt is not None and config.dt <= 0:
        raise ConfigError("dt", "must be positive")
    if config.nu <= 0:
        raise ConfigError("nu", "must be positive")
    p = config.practical
    for key, bad, rule in (
        ("spectral_constant", not p.spectral_constant > 0, "must be positive"),
        ("trilinear_constant", not p.trilinear_constant > 0, "must be positive"),
        ("schedule_constant", p.schedule_constant is not None and not p.schedule_constant > 0, "must be positive"),
        # the tolerance of ConstantPack's own check
        ("feedback_constant", p.feedback_constant is not None
         and not p.feedback_constant >= 3.0 * p.spectral_constant * (1.0 - 1e-12),
         "must be at least 3 * practical.spectral_constant"),
    ):
        if bad:
            raise ConfigError(f"practical.{key}", rule)
    exp = config.experiment
    for key, bad, rule in (
        ("n0", exp.n0 < 1, "must be at least 1"),
        ("n0_list", any(n0 < 1 for n0 in exp.n0_list), "entries must be at least 1"),
        ("offsets", not exp.offsets, "need at least one start offset"),
        ("n_max", exp.n_max < 0, "must be nonnegative"),
        ("periods", exp.periods < 2, "need at least two periods for the null check"),
        ("y0_norm", not exp.y0_norm >= 0, "must be nonnegative"),
        ("y0_scale", not exp.y0_scale >= 0, "must be nonnegative"),
        ("horizon", exp.horizon is not None and not exp.horizon > 0, "must be positive"),
    ):
        if bad:
            raise ConfigError(f"experiment.{key}", rule)
    return config


def parse_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON run configuration."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read config: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON: {exc}") from exc
    return _config_from_dict(data)


# ---------------------------------------------------------------------------
# basis and tensor caches
# ---------------------------------------------------------------------------

def _write_checked(path: Path, body: bytes) -> bytes:
    """Write body and its sha256 digest to path atomically (a temporary file,
    then a rename); return the digest."""
    digest = hashlib.sha256(body).digest()
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(body)
            fh.write(digest)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return digest


def _read_checked(path: Path, magic: bytes, header_size: int, label: str) -> memoryview | None:
    """The bytes of a file written by _write_checked, digest included, as a
    memoryview (so no slice copies the payload); None if the file is absent,
    and None with a warning if it is truncated, of another magic or fails
    its checksum."""
    if not path.exists():
        return None
    blob = memoryview(path.read_bytes())
    if len(blob) < header_size + 32 or blob[: len(magic)] != magic:
        logger.warning("%s %s: bad magic or truncated; ignoring", label, path)
        return None
    if hashlib.sha256(blob[:-32]).digest() != blob[-32:]:
        logger.warning("%s %s: checksum mismatch; ignoring", label, path)
        return None
    return blob


def _digest_tag(*parts) -> str:
    """The "sha256:" tag of the concatenated parts, the form reports record."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return f"sha256:{digest.hexdigest()}"


def write_basis_cache(path: str | Path, basis: StokesBasis) -> bytes:
    """Binary cache: magic, version, grid signature, eigenvalues, stream
    functions (all little-endian float64), and a trailing sha256 of the rest.

    Written atomically via rename.  Returns the sha256 trailer, the key of
    the tensor cache.
    """
    grid = basis.grid
    header = CACHE_MAGIC + struct.pack(
        "<III", CACHE_VERSION, grid.nx, grid.ny
    ) + struct.pack("<ddI", grid.spec.Lx, grid.spec.Ly, basis.n_modes)
    payload = (
        basis.eigenvalues.astype("<f8").tobytes()
        + basis.stream_functions.astype("<f8").tobytes()
    )
    return _write_checked(Path(path), header + payload)


def read_basis_cache(path: str | Path, grid: Grid, m: int) -> tuple[StokesBasis, bytes] | None:
    """A cached basis and its cache's sha256 trailer; None if absent,
    corrupt, or mismatched.  The eigenvalues and stream functions are
    read-only views of the file's bytes."""
    path = Path(path)
    blob = _read_checked(path, CACHE_MAGIC, len(CACHE_MAGIC) + 12 + 20, "cache")
    if blob is None:
        return None
    off = len(CACHE_MAGIC)
    version, nx, ny = struct.unpack_from("<III", blob, off)
    off += 12
    lx, ly, mm = struct.unpack_from("<ddI", blob, off)
    off += 20
    for stale, reason in (
        (version != CACHE_VERSION, f"version {version} != {CACHE_VERSION}"),
        ((nx, ny, mm) != (grid.nx, grid.ny, m) or (lx, ly) != (grid.spec.Lx, grid.spec.Ly), "signature mismatch"),
        (len(blob) - 32 - off != mm * 8 + mm * nx * ny * 8, "payload size mismatch"),
    ):
        if stale:
            logger.warning("cache %s: %s; ignoring", path, reason)
            return None
    tau = np.frombuffer(blob, dtype="<f8", count=mm, offset=off)
    off += mm * 8
    psi = np.frombuffer(blob, dtype="<f8", count=mm * nx * ny, offset=off).reshape(mm, nx, ny)
    return StokesBasis.from_stream_functions(tau, psi, grid), bytes(blob[-32:])


def ensure_basis(config: RunConfig) -> tuple[StokesBasis, bool, bytes]:
    """Return (basis, cache_hit, the cache's sha256 trailer), refreshing the
    cache on a miss."""
    grid = build_grid(config.domain_spec())
    cache_path = config.resolved_cache_path()
    cached = read_basis_cache(cache_path, grid, config.M)
    if cached is not None:
        logger.info("cache hit: %s", cache_path)
        basis, key = cached
        return basis, True, key
    k1, k2 = assemble_operators(grid)
    basis = solve_eigenbasis(k1, k2, config.M, grid)
    key = write_basis_cache(cache_path, basis)
    logger.info("cache written: %s", cache_path)
    return basis, False, key


_TENSOR_HEADER = struct.Struct("<II32s")  # version, M, the basis cache's sha256 trailer


def write_tensor_cache(path: str | Path, tensor: np.ndarray, key: bytes) -> str:
    """Binary cache: magic, version, M, the key (the sha256 trailer of the
    basis cache the tensor was built from), the M^3 tensor entries as
    little-endian float64 in C order, and a trailing sha256 of the rest.

    Written atomically via rename.  Returns the file's "sha256:" digest.
    """
    body = (TENSOR_CACHE_MAGIC + _TENSOR_HEADER.pack(TENSOR_CACHE_VERSION, tensor.shape[0], key)
            + tensor.astype("<f8", copy=False).tobytes())
    return _digest_tag(body, _write_checked(Path(path), body))


def read_tensor_cache(path: str | Path, m: int, key: bytes) -> tuple[np.ndarray, str] | None:
    """The cached (M, M, M) tensor, a read-only view of the file's bytes, and
    the file's "sha256:" digest; None if absent, and None with a warning
    naming the reason if stale or corrupt."""
    path = Path(path)
    off = len(TENSOR_CACHE_MAGIC) + _TENSOR_HEADER.size
    blob = _read_checked(path, TENSOR_CACHE_MAGIC, off, "tensor cache")
    if blob is None:
        return None
    version, mm, cached_key = _TENSOR_HEADER.unpack_from(blob, len(TENSOR_CACHE_MAGIC))
    for stale, reason in (
        (version != TENSOR_CACHE_VERSION, f"version {version} != {TENSOR_CACHE_VERSION}"),
        (mm != m, f"M {mm} != {m}"),
        (cached_key != key, "built from another basis cache"),
        (len(blob) - 32 - off != 8 * mm**3, "payload size mismatch"),
    ):
        if stale:
            logger.warning("tensor cache %s: %s; ignoring", path, reason)
            return None
    tensor = np.frombuffer(blob, dtype="<f8", count=mm**3, offset=off).reshape(mm, mm, mm)
    return tensor, _digest_tag(blob)


def ensure_tensor(config: RunConfig, basis: StokesBasis, key: bytes) -> tuple[np.ndarray, str | None]:
    """Return (convection tensor, "sha256:" digest of its cache file).

    The tensor cache sits beside the basis cache and is keyed by its sha256
    trailer.  On a miss or a stale cache the tensor is built and the cache
    written; if that write fails, the run goes on with the tensor it built,
    and the digest is None.
    """
    path = config.resolved_tensor_cache_path()
    cached = read_tensor_cache(path, basis.n_modes, key)
    if cached is not None:
        logger.info("tensor cache hit: %s", path)
        return cached
    tensor = build_trilinear_tensor(basis, basis.grid)
    try:
        digest = write_tensor_cache(path, tensor, key)
    except OSError as exc:
        logger.warning("tensor cache %s: cannot write (%s); using the tensor built in memory", path, exc)
        return tensor, None
    logger.info("tensor cache written: %s", path)
    return tensor, digest


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _row_format(kinds: str) -> str:
    """One %-format for a CSV row, a letter per column: "f" for a float with
    17 significant digits (it re-parses bit for bit), "d" for an integer."""
    return ",".join("%.17g" if kind == "f" else "%d" for kind in kinds)


def _write_csv(path: str | Path, header: str, row_format: str, rows) -> str:
    """Header line, then each row (a tuple) formatted by row_format; returns
    the file's "sha256:" digest."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    body = ("\n".join([header, *map(row_format.__mod__, rows)]) + "\n").encode()
    path.write_bytes(body)
    return _digest_tag(body)


def write_trajectory_csv(path: str | Path, traj: Trajectory) -> str:
    """Fixed schema: t, norm_H, V, norm_f, interval_n, lambda_n.  Returns the file's "sha256:" digest."""
    columns = (traj.times, traj.norm_h, traj.lyapunov, traj.control_norm, traj.interval, traj.threshold)
    return _write_csv(path, "t,norm_H,V,norm_f,interval_n,lambda_n", _row_format("ffffdf"),
                      zip(*(c.tolist() for c in columns)))


def sha256_file(path: str | Path) -> str:
    return _digest_tag(Path(path).read_bytes())


def _write_json(path: str | Path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _base_report(config: RunConfig, pack: ConstantPack | None = None, **inputs) -> dict:
    """The fields every report shares.  inputs holds the "sha256:" digests of
    the basis cache and of the further caches a run used (tensor_cache, None
    when that cache could not be written)."""
    return {
        "config": dataclasses.asdict(config),
        "constants": dataclasses.asdict(pack) if pack is not None else None,
        "inputs": {"cache": sha256_file(config.resolved_cache_path()), **inputs},
        "seed": config.seed,
    }


def build_pack(config: RunConfig, basis: StokesBasis, tensor: np.ndarray | None,
               gram: np.ndarray | None = None) -> ConstantPack:
    """Constant pack per the config mode.

    Certified: fit the spectral constant on the default threshold grid and
    measure the trilinear constant on the tensor, which this mode needs.
    Practical: take the configured overrides, deriving omitted entries.
    """
    if config.mode == "practical":
        p = config.practical
        return ConstantPack.practical(
            spectral_constant=p.spectral_constant,
            trilinear_constant=p.trilinear_constant,
            feedback_constant=p.feedback_constant,
            schedule_constant=p.schedule_constant,
        )
    if gram is None:
        gram = assemble_gram(basis, basis.grid)
    fit = fit_spectral_constant(basis, gram)
    c0 = estimate_trilinear_constant(basis, tensor, seed=config.seed)
    return ConstantPack.certified(fit.value, c0)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_eigen(config: RunConfig, out: Path) -> None:
    basis, hit, _ = ensure_basis(config)
    _write_json(
        out / "eigen_report.json",
        {
            **_base_report(config),
            "cache_hit": hit,
            "cache_path": config.resolved_cache_path().name,
            "eigenvalues": [float(t) for t in basis.eigenvalues],
            # a cache hit records no solve
            **({} if basis.solve is None else {"solve": basis.solve}),
        },
    )


def _cmd_fit_c1(config: RunConfig, out: Path) -> None:
    basis, _, _ = ensure_basis(config)
    gram = assemble_gram(basis, basis.grid)
    fit = fit_spectral_constant(basis, gram)
    table_path = out / "c1_table.csv"
    _write_csv(
        table_path, "threshold,n_active,gram_min_eig,root_unclamped,root_clamped", _row_format("fdfff"),
        ((lam, int(n), min_eig, root, clamped) for lam, n, min_eig, root, clamped in fit.table.tolist()),
    )
    _write_json(
        out / "fit_c1_report.json",
        {
            **_base_report(config),
            "spectral_constant": fit.value,
            "spectral_constant_unclamped": fit.unclamped_value,
            "table": table_path.name,
        },
    )


def _cmd_constants(config: RunConfig, out: Path) -> None:
    basis, _, key = ensure_basis(config)
    tensor, inputs = None, {}
    if config.mode == "certified":  # the trilinear constant is measured on the tensor
        tensor, inputs["tensor_cache"] = ensure_tensor(config, basis, key)
    pack = build_pack(config, basis, tensor)
    _write_json(out / "constants_report.json", _base_report(config, pack, **inputs))


def _prepare_dynamics(config: RunConfig):
    """(basis, tensor, gram, pack, the inputs _base_report records for the tensor cache)."""
    basis, _, key = ensure_basis(config)
    tensor, tensor_cache = ensure_tensor(config, basis, key)
    gram = assemble_gram(basis, basis.grid)
    pack = build_pack(config, basis, tensor, gram)
    return basis, tensor, gram, pack, {"tensor_cache": tensor_cache}


def _cmd_simulate(config: RunConfig, out: Path) -> None:
    basis, tensor, gram, pack, inputs = _prepare_dynamics(config)
    exp = config.experiment
    tau = basis.eigenvalues
    # thresholds must lie strictly below tau_M, which a degenerate top cluster shares
    top = int(np.searchsorted(tau, tau[-1], side="left"))
    if not 1 <= exp.lambda_index <= top:
        raise ConfigError("experiment.lambda_index",
                          f"must lie in [1, {top}], where tau_k is below the largest retained eigenvalue")
    report = run_rapid_stab(
        basis, tensor, gram, pack, float(tau[exp.lambda_index - 1]),
        y0_scale=exp.y0_scale, cutoff=exp.cutoff, horizon=exp.horizon,
        dt=config.dt, seed=config.seed, nu=config.nu,
    )
    traj_path = out / "simulate_trajectory.csv"
    payload = {
        **_base_report(config, pack, **inputs),
        **dataclasses.asdict(report.params),
        "y0_norm": report.y0_norm,
        "dt": report.dt,
        "horizon": report.horizon,
        "rate_lyapunov": report.rate_lyapunov,
        "rate_norm": report.rate_norm,
        "state_bound_ok": report.state_bound_ok,
        "control_bound_ok": report.control_bound_ok,
        "lyapunov_decay_ok": report.lyapunov_decay_ok,
        "trivial": report.trivial,
        "trajectory": traj_path.name,
        "trajectory_sha256": write_trajectory_csv(traj_path, report.trajectory),
        "health": report.health,
    }
    if report.cutoff_trajectory is not None:
        cut_path = out / "simulate_trajectory_cutoff.csv"
        payload["cutoff_trajectory"] = cut_path.name
        payload["cutoff_trajectory_sha256"] = write_trajectory_csv(cut_path, report.cutoff_trajectory)
        payload["cutoff_matches_linear"] = report.cutoff_matches_linear
        payload["control_stayed_below_radius"] = report.control_stayed_below_radius
    _write_json(out / "simulate_report.json", payload)


def _null_control_options(config: RunConfig) -> dict:
    """Keyword arguments of a null-control run as the config sets it up."""
    exp = config.experiment
    return dict(
        y0_norm=exp.y0_norm if config.mode == "practical" else None,
        n_max=exp.n_max, eps_zero=config.eps_zero, cutoff=exp.cutoff,
        dt=config.dt, seed=config.seed, nu=config.nu,
    )


def _null_control_payload(report) -> dict:
    payload = {
        "n0": report.n0,
        "T": report.period,
        "n_max": report.n_max,
        "cutoff": report.cutoff,
        "y0_norm": report.y0_norm,
        "log_basin": report.log_basin,
        "basin_below_precision": report.basin_below_precision,
        "thresholds_raw": [float(v) for v in report.schedule.thresholds_raw],
        "thresholds": [float(v) for v in report.schedule.thresholds],
        "clamped": [bool(b) for b in report.schedule.clamped],
    }
    if report.basin_below_precision:
        payload["note"] = "basin below float precision; bound arithmetic verified in log space"
        payload["state_bound_ok"] = [bool(b) for b in report.state_bound_ok]
        return payload
    payload.update(
        {
            "dt": report.dt,
            "interval_dt": [float(v) for v in report.interval_dt],
            "cost": report.cost,
            "cost_bound_ok": report.cost_bound_ok,
            "final_relative_norm": report.final_relative_norm,
            "null_reached": report.null_reached,
            "latch_time": report.latch_time,
            "interval_times": [float(v) for v in report.interval_times],
            "interval_norms": [float(v) for v in report.interval_norms],
            "interval_control_sup": [float(v) for v in report.interval_control_sup],
            "state_bound_ok": [bool(b) for b in report.state_bound_ok],
            "control_bound_ok": [bool(b) for b in report.control_bound_ok],
            "monotone_ok": [bool(b) for b in report.monotone_ok],
            "health": report.health,
        }
    )
    return payload


def _cmd_nullcontrol(config: RunConfig, out: Path) -> None:
    basis, tensor, gram, pack, inputs = _prepare_dynamics(config)
    [report] = run_null_control(basis, tensor, gram, pack, [config.experiment.n0], **_null_control_options(config))
    payload = {**_base_report(config, pack, **inputs), **_null_control_payload(report)}
    if report.trajectory is not None:
        traj_path = out / "nullcontrol_trajectory.csv"
        payload["trajectory"] = traj_path.name
        payload["trajectory_sha256"] = write_trajectory_csv(traj_path, report.trajectory)
    _write_json(out / "nullcontrol_report.json", payload)


def _cmd_stabilize(config: RunConfig, out: Path) -> None:
    basis, tensor, gram, pack, inputs = _prepare_dynamics(config)
    exp = config.experiment
    period = 2.0 ** (-exp.n0)
    offsets = [f * period for f in exp.offsets]
    probe = run_small_time(
        basis, tensor, gram, pack, exp.n0, exp.y0_norm, offsets,
        periods=exp.periods, eps_zero=config.eps_zero, n_max=exp.n_max,
        dt=config.dt, seed=config.seed, nu=config.nu,
    )
    traj_names = []
    for i, traj in enumerate(probe.trajectories):
        traj_path = out / f"stabilize_trajectory_{i}.csv"
        traj_names.append({"file": traj_path.name, "sha256": write_trajectory_csv(traj_path, traj)})
    _write_json(
        out / "stabilize_report.json",
        {
            **_base_report(config, pack, **inputs),
            "n0": probe.n0,
            "T": probe.period,
            "dt": probe.dt,
            "y0_norm": probe.y0_norm,
            "offsets": [float(v) for v in probe.offsets],
            "two_period_residuals": [float(v) for v in probe.two_period_residuals],
            "two_period_ok": probe.two_period_ok,
            "feedback_bound_ok": probe.feedback_bound_ok,
            "eta_grid": [float(v) for v in probe.eta_grid],
            "delta_table": [float(v) for v in probe.delta_table],
            "trajectories": traj_names,
            "health": probe.health,
            "clamped": [bool(b) for b in probe.schedule.clamped],
        },
    )


def _cmd_cost_curve(config: RunConfig, out: Path) -> None:
    if len(set(config.experiment.n0_list)) < 3:
        raise ConfigError("experiment.n0_list", "the slope fit needs at least 3 distinct n0")
    basis, tensor, gram, pack, inputs = _prepare_dynamics(config)
    reports = run_null_control(basis, tensor, gram, pack, config.experiment.n0_list,
                               **_null_control_options(config))
    slope, intercept = fit_cost_curve(reports)
    curve_path = out / "cost_curve.csv"
    _write_csv(curve_path, "T,inv_T,cost,y0_norm", _row_format("ffff"),
               ((r.period, 1.0 / r.period, r.cost, r.y0_norm) for r in reports))
    _write_json(
        out / "cost_curve_report.json",
        {
            **_base_report(config, pack, **inputs),
            "n0_list": list(config.experiment.n0_list),
            "slope": slope,
            "intercept": intercept,
            "cost_exponent": pack.cost_exponent,
            "slope_over_cost_exponent": slope / pack.cost_exponent,
            "curve": curve_path.name,
            "runs": [_null_control_payload(r) for r in reports],
        },
    )


def _listed_trajectories(data: dict) -> list[tuple[str, str | None]]:
    """(file, sha256 recorded at the run) of every trajectory CSV a report lists."""
    listed = [(data[key], data.get(f"{key}_sha256")) for key in ("trajectory", "cutoff_trajectory") if key in data]
    return listed + [(entry["file"], entry.get("sha256")) for entry in data.get("trajectories", ())]


def _recorded_caches(data: dict) -> list[tuple[str, Path, str | None]]:
    """(inputs key, path, sha256 recorded at the run) of each cache a report
    used, the paths resolved from the report's own config."""
    config = _parse_section(RunConfig, data["config"])
    paths = {"cache": config.resolved_cache_path(), "tensor_cache": config.resolved_tensor_cache_path()}
    return [(key, paths[key], recorded) for key, recorded in data["inputs"].items()]


def _cmd_report(config: RunConfig, out: Path) -> None:
    lines = []
    plot_source = None
    for name in ("simulate", "nullcontrol", "stabilize", "cost_curve", "constants", "fit_c1", "eigen"):
        report_path = out / f"{name}_report.json"
        if not report_path.exists():
            continue
        data = json.loads(report_path.read_text())
        lines.append(f"[{name}] {report_path.name}")
        for key in ("threshold", "rate_lyapunov", "cost", "final_relative_norm",
                    "slope", "two_period_ok", "spectral_constant", "cache_hit"):
            if key in data:
                lines.append(f"  {key} = {data[key]}")
        health = [data["health"]] if "health" in data else [r["health"] for r in data.get("runs", ()) if "health" in r]
        if health:
            lines.append(f"  steps = {sum(h['steps'] for h in health)}")
            lines.append(f"  max_energy_defect = {max(h['max_energy_defect'] for h in health)}")
            # one value per run; runs of one batch share them
            for key in ("stepping_s", "us_per_step", "tables", "tables_s"):
                values = [str(h[key]) for h in health if key in h]
                if values:
                    lines.append(f"  {key} = {', '.join(values)}")
        for key, value in data.get("solve", {}).items():
            if isinstance(value, dict):  # the counts of each reflection class, one line per class
                lines.extend(f"  {key}.{name} = {', '.join(f'{k} {v}' for k, v in counts.items())}"
                             for name, counts in value.items())
            else:
                lines.append(f"  {key} = {value}")
        for file, recorded in _listed_trajectories(data):
            digest = sha256_file(out / file)
            lines.append(f"  trajectory = {file} ({digest})")
            if recorded != digest:
                lines.append(f"  WARNING: {file} hash differs from the one recorded at the run")
        for key, path, recorded in _recorded_caches(data):
            lines.append(f"  {key} = {path} ({recorded or 'not written'})")
            if recorded is not None and (not path.exists() or sha256_file(path) != recorded):
                lines.append(f"  WARNING: {path} hash differs from the one recorded at the run")
        if "trajectory" in data:
            plot_source = out / data["trajectory"]
        lines.append("")
    if not lines:
        raise FileNotFoundError(f"no report artifacts in {out}")
    (out / "summary.txt").write_text("\n".join(lines))
    if plot_source is not None:
        rows = plot_source.read_text().strip().splitlines()
        header = rows[0].split(",")
        keep = [header.index(c) for c in ("t", "norm_H", "V", "norm_f")]
        plot_lines = ["t,norm_H,V,norm_f"]
        for row in rows[1:]:
            parts = row.split(",")
            plot_lines.append(",".join(parts[i] for i in keep))
        (out / "report_plot.csv").write_text("\n".join(plot_lines) + "\n")


_HANDLERS = {
    "eigen": _cmd_eigen,
    "fit-c1": _cmd_fit_c1,
    "constants": _cmd_constants,
    "simulate": _cmd_simulate,
    "nullcontrol": _cmd_nullcontrol,
    "stabilize": _cmd_stabilize,
    "cost-curve": _cmd_cost_curve,
    "report": _cmd_report,
}

SUBCOMMANDS = tuple(_HANDLERS)


def run_subcommand(name: str, config: RunConfig) -> int:
    """Execute a subcommand against a validated config; returns exit status."""
    if name not in _HANDLERS:
        raise ValueError(f"unknown subcommand {name!r}; expected one of {SUBCOMMANDS}")
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _HANDLERS[name](config, out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nsstab",
        description="Feedback stabilization and null-control experiments "
        "for 2D Navier-Stokes on a rectangle.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    try:
        config = parse_config(args.config)
        return run_subcommand(args.subcommand, config)
    except Exception as exc:  # machine-parsable error channel
        error = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ConfigError):
            error["key"] = exc.key
        print(json.dumps(error), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
