"""Configuration, subcommands, artifact formats, and the basis cache.

One structured JSON config file drives every run; there are no positional
numeric arguments, so every figure is reproducible from the file.  Unknown
and duplicated keys are rejected.  All numeric output uses full 64-bit
precision (17 significant digits in CSV) so artifacts re-parse
bit-faithfully.

Every run that steps, and a certified ``constants``, builds the convection
tensor from the basis; ``eigen``, ``fit-c1`` and a practical ``constants``
never build it.  It is not cached: the build by reflection class takes a
few milliseconds, while a cache needs its own format and a version bumped
by hand whenever the tensor arithmetic changes.  Build times against the
read and write of an M^3 float64 file with its sha256 (medians of 15, one
BLAS thread, pinned CPU):

    grid, modes   build     read      write     file
    64x64, 24     4.76 ms   0.17 ms   0.57 ms   0.11 MB
    32x32, 24     1.55 ms   0.17 ms   0.55 ms   0.11 MB
    32x32, 64     9.04 ms   2.53 ms   4.38 ms   2.10 MB

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

from .constants import ConstantPack, trilinear_bracket
from .dynamics import Trajectory, build_trilinear_tensor
from .errors import ConfigError
from .experiments import fit_cost_curve, run_null_control, run_rapid_stab, run_small_time
from .grid import DomainSpec, Grid, build_grid
from .spectral import StokesBasis, assemble_gram, assemble_operators, fit_spectral_constant, solve_eigenbasis

logger = logging.getLogger(__name__)

CACHE_MAGIC = b"NSSTAB1\x00"
CACHE_VERSION = 4  # 4: each class's pairs of a cluster oriented in class coordinates by the solve
#: magic, version, nx, ny, Lx, Ly, M; the eigenvalues, the stream functions
#: and the sha256 of everything before it follow
_CACHE_HEADER = struct.Struct("<8sIIIddI")

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PracticalConstants:
    spectral_constant: float = 0.5
    trilinear_constant: float = 1.0
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


def _known_keys(cls, data: dict) -> dict:
    """data without the keys that cls, or a config section within it, does
    not have: an older report's config, read back by ``report``."""
    hints = typing.get_type_hints(cls)
    return {key: _known_keys(hints[key], value) if dataclasses.is_dataclass(hints[key]) else value
            for key, value in data.items() if key in hints}


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
    p = config.practical
    for key, bad, rule in (
        ("spectral_constant", not p.spectral_constant > 0, "must be positive"),
        ("trilinear_constant", not p.trilinear_constant > 0, "must be positive"),
        ("schedule_constant", p.schedule_constant is not None and not p.schedule_constant > 0, "must be positive"),
    ):
        if bad:
            raise ConfigError(f"practical.{key}", rule)
    exp = config.experiment
    for key, bad, rule in (
        # the threshold tau_k must lie below tau_M; a degenerate top cluster
        # is checked after the basis solve
        ("lambda_index", not 1 <= exp.lambda_index <= config.M - 1, f"must lie in [1, {config.M - 1}]"),
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


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object from its key-value pairs, refusing a key given twice,
    which json would otherwise resolve silently to its last value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(key, "duplicate key")
        data[key] = value
    return data


def parse_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON run configuration."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read config: {exc}") from exc
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON: {exc}") from exc
    return _config_from_dict(data)


# ---------------------------------------------------------------------------
# basis cache
# ---------------------------------------------------------------------------

def write_basis_cache(path: str | Path, basis: StokesBasis) -> None:
    """Binary cache: magic, version, grid signature, eigenvalues, stream
    functions (all little-endian float64), and a trailing sha256 of the rest.

    Written atomically: a temporary file, then a rename.
    """
    grid = basis.grid
    body = (_CACHE_HEADER.pack(CACHE_MAGIC, CACHE_VERSION, grid.nx, grid.ny, grid.spec.Lx, grid.spec.Ly,
                               basis.n_modes)
            + basis.eigenvalues.astype("<f8").tobytes() + basis.stream_functions.astype("<f8").tobytes())
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(body)
            fh.write(hashlib.sha256(body).digest())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_basis_cache(path: str | Path, grid: Grid, m: int) -> StokesBasis | None:
    """A cached basis whose eigenvalues and stream functions are read-only
    views of the file's bytes; None if the file is absent, and None with a
    warning naming the reason if it is truncated, corrupt, or of another
    version or signature."""
    path = Path(path)
    if not path.exists():
        return None
    blob = memoryview(path.read_bytes())  # so no slice copies the payload
    off = _CACHE_HEADER.size
    if len(blob) < off + 32 or blob[: len(CACHE_MAGIC)] != CACHE_MAGIC:
        reason = "bad magic or truncated"
    elif hashlib.sha256(blob[:-32]).digest() != blob[-32:]:
        reason = "checksum mismatch"
    else:
        _, version, nx, ny, lx, ly, mm = _CACHE_HEADER.unpack_from(blob)
        if version != CACHE_VERSION:
            reason = f"version {version} != {CACHE_VERSION}"
        elif (nx, ny, lx, ly, mm) != (grid.nx, grid.ny, grid.spec.Lx, grid.spec.Ly, m):
            reason = "signature mismatch"
        elif len(blob) - 32 - off != 8 * mm * (1 + nx * ny):
            reason = "payload size mismatch"
        else:
            tau = np.frombuffer(blob, dtype="<f8", count=mm, offset=off)
            psi = np.frombuffer(blob, dtype="<f8", count=mm * nx * ny, offset=off + 8 * mm).reshape(mm, nx, ny)
            return StokesBasis.from_stream_functions(tau, psi, grid)
    logger.warning("cache %s: %s; ignoring", path, reason)
    return None


def ensure_basis(config: RunConfig) -> tuple[StokesBasis, bool]:
    """Return (basis, cache_hit), refreshing the cache on a miss."""
    grid = build_grid(config.domain_spec())
    cache_path = config.resolved_cache_path()
    basis = read_basis_cache(cache_path, grid, config.M)
    if basis is not None:
        logger.info("cache hit: %s", cache_path)
        return basis, True
    k1, k2 = assemble_operators(grid)
    basis = solve_eigenbasis(k1, k2, config.M, grid)
    write_basis_cache(cache_path, basis)
    logger.info("cache written: %s", cache_path)
    return basis, False


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _digest_tag(data: bytes) -> str:
    """The "sha256:" tag of data, the form reports record."""
    return f"sha256:{hashlib.sha256(data).hexdigest()}"


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


def _numpy_to_json(value):
    """json's hook for what it cannot write: a numpy array or scalar becomes
    its Python value, which writes the same text; anything else raises."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _write_json(path: str | Path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_numpy_to_json) + "\n")


def _attributes(report, *names: str) -> dict:
    """The named attributes of a report, keyed by their names."""
    return {name: getattr(report, name) for name in names}


def _base_report(config: RunConfig, pack: ConstantPack | None = None) -> dict:
    """The fields every report shares, the basis cache's "sha256:" digest among them."""
    return {
        "config": dataclasses.asdict(config),
        "constants": dataclasses.asdict(pack) if pack is not None else None,
        "inputs": {"cache": sha256_file(config.resolved_cache_path())},
        "seed": config.seed,
    }


def build_pack(config: RunConfig, basis: StokesBasis, tensor: np.ndarray | None,
               gram: np.ndarray | None = None) -> ConstantPack:
    """Constant pack per the config mode.

    Certified: fit the spectral constant on the default threshold grid and
    take the trilinear constant as the upper end of the tensor's bracket,
    which this mode needs.  Practical: take the configured c1, c0 and
    optional q, deriving the rest.
    """
    if config.mode == "practical":
        return ConstantPack.practical(**dataclasses.asdict(config.practical))
    if gram is None:
        gram = assemble_gram(basis, basis.grid)
    fit = fit_spectral_constant(basis, gram)
    return ConstantPack.certified(fit.value, trilinear_bracket(basis, tensor)[1])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_eigen(config: RunConfig, out: Path) -> None:
    basis, hit = ensure_basis(config)
    _write_json(
        out / "eigen_report.json",
        {
            **_base_report(config),
            "cache_hit": hit,
            "cache_path": config.resolved_cache_path().name,
            "eigenvalues": basis.eigenvalues,
            # a cache hit records no solve
            **({} if basis.solve is None else {"solve": basis.solve}),
        },
    )


def _cmd_fit_c1(config: RunConfig, out: Path) -> None:
    basis, _ = ensure_basis(config)
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
    basis, _ = ensure_basis(config)
    tensor, bracket = None, {}
    if config.mode == "certified":
        # the certified trilinear constant is the upper end of the tensor's
        # bracket; the report records both ends
        tensor = build_trilinear_tensor(basis, basis.grid)
        bracket = {"trilinear_bracket": trilinear_bracket(basis, tensor)}
    _write_json(out / "constants_report.json", {**_base_report(config, build_pack(config, basis, tensor)), **bracket})


def _prepare_dynamics(config: RunConfig):
    """(basis, convection tensor, gram, pack)."""
    basis, _ = ensure_basis(config)
    tensor = build_trilinear_tensor(basis, basis.grid)
    gram = assemble_gram(basis, basis.grid)
    pack = build_pack(config, basis, tensor, gram)
    return basis, tensor, gram, pack


def _cmd_simulate(config: RunConfig, out: Path) -> None:
    basis, tensor, gram, pack = _prepare_dynamics(config)
    exp = config.experiment
    tau = basis.eigenvalues
    # thresholds must lie strictly below tau_M, which a degenerate top cluster shares
    top = int(np.searchsorted(tau, tau[-1], side="left"))
    if exp.lambda_index > top:
        raise ConfigError("experiment.lambda_index",
                          f"must lie in [1, {top}], where tau_k is below the largest retained eigenvalue")
    report = run_rapid_stab(
        basis, tensor, gram, pack, float(tau[exp.lambda_index - 1]),
        y0_scale=exp.y0_scale, cutoff=exp.cutoff, horizon=exp.horizon,
        dt=config.dt, seed=config.seed,
    )
    traj_path = out / "simulate_trajectory.csv"
    payload = {
        **_base_report(config, pack),
        **dataclasses.asdict(report.params),
        **_attributes(report, "y0_norm", "dt", "horizon", "rate_lyapunov", "rate_norm", "state_bound_ok",
                      "control_bound_ok", "lyapunov_decay_ok", "trivial", "health"),
        "trajectory": traj_path.name,
        "trajectory_sha256": write_trajectory_csv(traj_path, report.trajectory),
    }
    if report.cutoff_trajectory is not None:
        cut_path = out / "simulate_trajectory_cutoff.csv"
        payload["cutoff_trajectory"] = cut_path.name
        payload["cutoff_trajectory_sha256"] = write_trajectory_csv(cut_path, report.cutoff_trajectory)
        payload.update(_attributes(report, "cutoff_matches_linear", "control_stayed_below_radius"))
    _write_json(out / "simulate_report.json", payload)


def _null_control_options(config: RunConfig) -> dict:
    """Keyword arguments of a null-control run as the config sets it up."""
    exp = config.experiment
    return dict(
        y0_norm=exp.y0_norm if config.mode == "practical" else None,
        n_max=exp.n_max, eps_zero=config.eps_zero, cutoff=exp.cutoff,
        dt=config.dt, seed=config.seed,
    )


def _null_control_payload(report) -> dict:
    payload = {
        **_attributes(report, "n0", "n_max", "cutoff", "y0_norm", "log_basin", "basin_below_precision",
                      "state_bound_ok"),
        **_attributes(report.schedule, "thresholds_raw", "thresholds", "clamped"),
        "T": report.period,
    }
    if report.basin_below_precision:
        return {**payload, "note": "basin below float precision; bound arithmetic verified in log space"}
    return {**payload, **_attributes(report, "dt", "interval_dt", "cost", "cost_bound_ok", "final_relative_norm",
                                     "null_reached", "latch_time", "interval_times", "interval_norms",
                                     "interval_control_sup", "control_bound_ok", "monotone_ok", "health")}


def _cmd_nullcontrol(config: RunConfig, out: Path) -> None:
    basis, tensor, gram, pack = _prepare_dynamics(config)
    [report] = run_null_control(basis, tensor, gram, pack, [config.experiment.n0], **_null_control_options(config))
    payload = {**_base_report(config, pack), **_null_control_payload(report)}
    if report.trajectory is not None:
        traj_path = out / "nullcontrol_trajectory.csv"
        payload["trajectory"] = traj_path.name
        payload["trajectory_sha256"] = write_trajectory_csv(traj_path, report.trajectory)
    _write_json(out / "nullcontrol_report.json", payload)


def _cmd_stabilize(config: RunConfig, out: Path) -> None:
    basis, tensor, gram, pack = _prepare_dynamics(config)
    exp = config.experiment
    period = 2.0 ** (-exp.n0)
    offsets = [f * period for f in exp.offsets]
    probe = run_small_time(
        basis, tensor, gram, pack, exp.n0, exp.y0_norm, offsets,
        periods=exp.periods, eps_zero=config.eps_zero, n_max=exp.n_max,
        dt=config.dt, seed=config.seed,
    )
    traj_names = []
    for i, traj in enumerate(probe.trajectories):
        traj_path = out / f"stabilize_trajectory_{i}.csv"
        traj_names.append({"file": traj_path.name, "sha256": write_trajectory_csv(traj_path, traj)})
    _write_json(
        out / "stabilize_report.json",
        {
            **_base_report(config, pack),
            **_attributes(probe, "n0", "dt", "y0_norm", "offsets", "two_period_residuals", "two_period_ok",
                          "feedback_bound_ok", "eta_grid", "delta_table", "health"),
            "T": probe.period,
            "trajectories": traj_names,
            "clamped": probe.schedule.clamped,
        },
    )


def _cmd_cost_curve(config: RunConfig, out: Path) -> None:
    if len(set(config.experiment.n0_list)) < 3:
        raise ConfigError("experiment.n0_list", "the slope fit needs at least 3 distinct n0")
    if config.mode == "certified":
        raise ConfigError("mode", "the slope fit needs stepped runs, and certified runs are never stepped")
    basis, tensor, gram, pack = _prepare_dynamics(config)
    reports = run_null_control(basis, tensor, gram, pack, config.experiment.n0_list,
                               **_null_control_options(config))
    slope, intercept = fit_cost_curve(reports)
    curve_path = out / "cost_curve.csv"
    _write_csv(curve_path, "T,inv_T,cost,y0_norm", _row_format("ffff"),
               ((r.period, 1.0 / r.period, r.cost, r.y0_norm) for r in reports))
    _write_json(
        out / "cost_curve_report.json",
        {
            **_base_report(config, pack),
            "n0_list": config.experiment.n0_list,
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
            if not (out / file).exists():
                lines.append(f"  WARNING: {file} is missing")
                continue
            digest = sha256_file(out / file)
            lines.append(f"  trajectory = {file} ({digest})")
            if recorded != digest:
                lines.append(f"  WARNING: {file} hash differs from the one recorded at the run")
        # the basis cache the run used, found from the report's own config
        run = _parse_section(RunConfig, _known_keys(RunConfig, data["config"]))
        path, recorded = run.resolved_cache_path(), data["inputs"]["cache"]
        lines.append(f"  cache = {path} ({recorded})")
        if not path.exists() or sha256_file(path) != recorded:
            lines.append(f"  WARNING: {path} hash differs from the one recorded at the run")
        if "trajectory" in data and (out / data["trajectory"]).exists():
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
