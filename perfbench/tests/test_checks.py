"""Each artifact check passes on real output and fails on a corrupted copy.

The artifacts come from the workloads' own subcommands on shrunken configs
(coarser grids, fewer modes, shorter schedules), so the tests run in seconds:

    python3 -m pytest perfbench/tests
"""

import hashlib
import json
import shutil

import numpy as np
import pytest

import checks
from nsstab.cli import parse_config, run_subcommand
from workloads import COLD_BASIS, SMALL_TIME, WIDE_MODES

SHRINK = {
    COLD_BASIS.name: {"nx": 24, "ny": 24, "M": 12},
    SMALL_TIME.name: {"nx": 16, "ny": 16, "M": 16,
                      "experiment": {"n_max": 4, "offsets": [0.0, 0.9]}},
    WIDE_MODES.name: {"nx": 16, "ny": 16, "M": 16, "experiment": {"n_max": 4}},
}


def produce(workload, root):
    """Run the workload's subcommands once; returns (output dir, configs)."""
    round_dir = root / "round"
    round_dir.mkdir(parents=True)
    cfgs = {}
    for sub, overrides in workload.commands:
        cfgs[sub] = workload.config(5, SHRINK[workload.name], overrides)
        path = round_dir / f"{sub}.config.json"
        path.write_text(json.dumps(cfgs[sub]))
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(round_dir)
            run_subcommand(sub, parse_config(path))
    return round_dir / "out", cfgs


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """Artifacts of each shrunken workload, produced once and checked clean."""
    made = {}

    def get(workload):
        if workload.name not in made:
            root = tmp_path_factory.mktemp(workload.name) / "run"
            out, cfgs = produce(workload, root)
            checks.CHECKS[workload.name](out, cfgs)
            made[workload.name] = (root, cfgs)
        return made[workload.name]

    return get


def copy_of(pristine, workload, tmp_path):
    root, cfgs = pristine(workload)
    shutil.copytree(root, tmp_path / "run")
    return tmp_path / "run" / "round" / "out", cfgs


def edit_json(path, change):
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def edit_csv(path, rows, column, change):
    """Apply change to one column of the given data rows (0 = first after the header)."""
    lines = path.read_text().splitlines()
    for row in rows:
        fields = lines[row + 1].split(",")
        fields[column] = change(fields[column])
        lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def reseal(out, report_name, csv_name):
    """Update the report's sha256 of a trajectory after editing it."""
    tag = checks.sha256_tag(out / csv_name)

    def change(data):
        if data.get("trajectory") == csv_name:
            data["trajectory_sha256"] = tag
        for entry in data.get("trajectories", []):
            if entry["file"] == csv_name:
                entry["sha256"] = tag

    edit_json(out / report_name, change)


def scaled(factor):
    return lambda text: repr(float(text) * factor)


# --- cold-basis -------------------------------------------------------------

def corrupt_eigenvalue(out):
    edit_json(out / "eigen_report.json", lambda d: d["eigenvalues"].__setitem__(3, d["eigenvalues"][3] * (1 + 1e-6)))


def corrupt_cache_digest(out):
    blob = bytearray((out / "basis_cache.nsstab").read_bytes())
    blob[100] ^= 1
    (out / "basis_cache.nsstab").write_bytes(bytes(blob))


def corrupt_cache_basis(out):
    """Scale one stream function and re-seal the digest: only orthonormality can tell."""
    cache = checks.read_cache(out / "basis_cache.nsstab")
    blob = bytearray((out / "basis_cache.nsstab").read_bytes()[:-32])
    m, n = len(cache["tau"]), cache["nx"] * cache["ny"]
    start = 40 + 8 * m
    psi = np.frombuffer(bytes(blob[start:start + 8 * n]), "<f8") * 1.001
    blob[start:start + 8 * n] = psi.astype("<f8").tobytes()
    (out / "basis_cache.nsstab").write_bytes(bytes(blob) + hashlib.sha256(bytes(blob)).digest())


def corrupt_interlacing(out):
    edit_csv(out / "c1_table.csv", [4], 2, scaled(10.0))


def corrupt_root(out):
    edit_csv(out / "c1_table.csv", [0], 3, scaled(1.01))


def corrupt_cost_exponent(out):
    edit_json(out / "constants_report.json",
              lambda d: d["constants"].__setitem__("cost_exponent", d["constants"]["cost_exponent"] * (1 + 1e-15)))


def corrupt_feedback_constant(out):
    edit_json(out / "constants_report.json",
              lambda d: d["constants"].__setitem__("feedback_constant", d["constants"]["spectral_constant"]))


def corrupt_log_space(out):
    edit_json(out / "nullcontrol_report.json", lambda d: d["state_bound_ok"].__setitem__(0, False))


COLD_CORRUPTIONS = {
    "eigenvalue": (corrupt_eigenvalue, "sparse shift-invert"),
    "cache digest": (corrupt_cache_digest, "sha256 trailer"),
    "cache basis": (corrupt_cache_basis, "orthonormal"),
    "interlacing": (corrupt_interlacing, "interlacing"),
    "root": (corrupt_root, "r exp"),
    "cost exponent": (corrupt_cost_exponent, "q\\^2/32"),
    "feedback constant": (corrupt_feedback_constant, "feedback inequality"),
    "log-space envelope": (corrupt_log_space, "envelope"),
}

# --- small-time ---------------------------------------------------------------


def corrupt_norm_f(out):
    edit_csv(out / "stabilize_trajectory_0.csv", [5], 3, lambda _: "1.5")
    reseal(out, "stabilize_report.json", "stabilize_trajectory_0.csv")


def corrupt_interval(out):
    edit_csv(out / "stabilize_trajectory_1.csv", [7], 4, lambda v: str(int(v) + 1))
    reseal(out, "stabilize_report.json", "stabilize_trajectory_1.csv")


def corrupt_residual(out):
    path = out / "stabilize_trajectory_0.csv"
    row = len(path.read_text().splitlines()) - 2  # the last row is t = 2T of a two-period run
    edit_csv(path, [row], 1, lambda _: "1e-3")
    reseal(out, "stabilize_report.json", path.name)


def corrupt_delta(out):
    edit_json(out / "stabilize_report.json", lambda d: d["delta_table"].__setitem__(2, d["delta_table"][0] / 2))


def corrupt_trajectory_hash(out):
    edit_csv(out / "stabilize_trajectory_1.csv", [3], 2, scaled(1.0 + 1e-9))


SMALL_TIME_CORRUPTIONS = {
    "feedback bound": (corrupt_norm_f, "norm_f exceeds"),
    "interval": (corrupt_interval, "dyadic interval"),
    "two-period residual": (corrupt_residual, "at 2T"),
    "delta table": (corrupt_delta, "nondecreasing"),
    "trajectory hash": (corrupt_trajectory_hash, "sha256"),
}

# --- wide-modes ---------------------------------------------------------------


def corrupt_cost(out):
    edit_csv(out / "cost_curve.csv", [2], 2, scaled(1e6))


def corrupt_slope(out):
    edit_json(out / "cost_curve_report.json", lambda d: d.__setitem__("slope", d["slope"] * 1.01))


def corrupt_cost_bound(out):
    edit_json(out / "cost_curve_report.json", lambda d: d["runs"][1].__setitem__("cost_bound_ok", False))


def corrupt_null_reached(out):
    edit_json(out / "cost_curve_report.json", lambda d: d["runs"][0].__setitem__("null_reached", False))


def corrupt_rate(out):
    path = out / "simulate_trajectory.csv"
    rows = len(path.read_text().splitlines()) - 1
    edit_csv(path, range(rows // 2, rows), 2, scaled(1e3))
    reseal(out, "simulate_report.json", path.name)


def corrupt_cutoff_match(out):
    edit_csv(out / "simulate_trajectory_cutoff.csv", [9], 1, lambda v: v[:-1] + ("1" if v[-1] != "1" else "2"))


WIDE_CORRUPTIONS = {
    "cost above bound": (corrupt_cost, "exceeds exp"),
    "cost slope": (corrupt_slope, "slope differs"),
    "cost bound": (corrupt_cost_bound, "bound or monotonicity"),
    "null reached": (corrupt_null_reached, "null not reached"),
    "decay rate": (corrupt_rate, "decays at"),
    "cutoff match": (corrupt_cutoff_match, "norm_H differs"),
}

CASES = [
    (workload, label, *case)
    for workload, table in ((COLD_BASIS, COLD_CORRUPTIONS), (SMALL_TIME, SMALL_TIME_CORRUPTIONS),
                            (WIDE_MODES, WIDE_CORRUPTIONS))
    for label, case in table.items()
]


@pytest.mark.parametrize("workload, label, corrupt, match", CASES,
                         ids=[f"{w.name}-{label.replace(' ', '_')}" for w, label, *_ in CASES])
def test_corruption_is_caught(pristine, tmp_path, workload, label, corrupt, match):
    out, cfgs = copy_of(pristine, workload, tmp_path)
    corrupt(out)
    with pytest.raises(checks.CheckFailed, match=match):
        checks.CHECKS[workload.name](out, cfgs)
