import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsstab.cli import (
    _row_format,
    emit_config,
    main,
    parse_config,
    read_basis_cache,
    run_subcommand,
    sha256_file,
    write_basis_cache,
    write_trajectory_csv,
)
from nsstab.dynamics import Trajectory
from nsstab.errors import ConfigError
from nsstab.experiments import MAX_STEPS
from nsstab.grid import DomainSpec, build_grid

import oracle
from conftest import make_setup

BASE = {
    "Lx": 1.0,
    "Ly": 1.0,
    "nx": 16,
    "ny": 16,
    "omega": [0.6, 0.9, 0.1, 0.4],
    "M": 12,
    "seed": 5,
    "practical": {
        "spectral_constant": 0.02,
        "trilinear_constant": 1.0,
        "schedule_constant": 4.0,
    },
    "experiment": {"lambda_index": 4, "n0": 1, "n_max": 4, "y0_norm": 1e-3},
}


def write_config(tmp_path, overrides=None, **extra):
    data = json.loads(json.dumps(BASE))
    data.update(extra)
    if overrides:
        for key, value in overrides.items():
            section, _, sub = key.partition(".")
            if sub:
                data.setdefault(section, {})[sub] = value
            else:
                data[section] = value
    data.setdefault("output_dir", str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_parse_minimal_config_fills_defaults(tmp_path):
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps({"Lx": 1.0, "Ly": 1.0, "nx": 8, "ny": 8,
                                "omega": [0.1, 0.5, 0.1, 0.5]}))
    config = parse_config(path)
    assert config.dt is None
    assert config.eps_zero == 1e-8
    assert config.seed == 42
    assert config.M == 24
    assert config.mode == "practical"
    assert config.experiment.n0 == 1


def test_parse_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, overrides={"bogus": 1})
    with pytest.raises(ConfigError) as info:
        parse_config(path)
    assert info.value.key == "bogus"
    path = write_config(tmp_path, overrides={"experiment.wrong": 2})
    with pytest.raises(ConfigError) as info:
        parse_config(path)
    assert info.value.key == "experiment.wrong"


@pytest.mark.parametrize(("overrides", "key"), [
    ({"omega": [0.5, 1.2, 0.1, 0.4]}, "omega"),
    ({"Ly": -1}, "Ly"),
    ({"ny": 2}, "ny"),
    ({"nx": 15, "ny": 15}, "nx"),  # odd by odd: the stiffness has a checkerboard kernel
], ids=["omega", "Ly", "ny", "odd-by-odd"])
def test_parse_rejects_bad_domain_naming_key(tmp_path, overrides, key):
    path = write_config(tmp_path, overrides=overrides)
    with pytest.raises(ConfigError) as info:
        parse_config(path)
    assert info.value.key == key


def test_parse_rejects_missing_required_key(tmp_path):
    data = json.loads(json.dumps(BASE))
    del data["Lx"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError) as info:
        parse_config(path)
    assert info.value.key == "Lx"


def test_parse_rejects_type_mismatch(tmp_path):
    path = write_config(tmp_path, overrides={"nx": "many"})
    with pytest.raises(ConfigError) as info:
        parse_config(path)
    assert info.value.key == "nx"


def test_config_round_trip(tmp_path):
    path = write_config(tmp_path, dt=1e-4, cache_path=str(tmp_path / "c.bin"))
    config = parse_config(path)
    (tmp_path / "emitted.json").write_text(emit_config(config))
    assert parse_config(tmp_path / "emitted.json") == config


def test_basis_cache_round_trip(tmp_path):
    grid, _, _, basis = make_setup(8, 8, 6, omega=(0.1, 0.6, 0.1, 0.6))
    path = tmp_path / "cache.bin"
    write_basis_cache(path, basis)
    loaded = read_basis_cache(path, grid, 6)
    assert loaded is not None
    assert np.array_equal(loaded.eigenvalues, basis.eigenvalues)
    assert np.array_equal(loaded.stream_functions, basis.stream_functions)
    assert np.array_equal(loaded.velocities, basis.velocities)


def test_basis_cache_rejects_mismatch_and_corruption(tmp_path):
    grid, _, _, basis = make_setup(8, 8, 6, omega=(0.1, 0.6, 0.1, 0.6))
    path = tmp_path / "cache.bin"
    write_basis_cache(path, basis)
    assert read_basis_cache(path, grid, 5) is None  # mode count mismatch
    other = build_grid(DomainSpec(2.0, 1.0, 8, 8, (0.1, 0.6, 0.1, 0.6)))
    assert read_basis_cache(path, other, 6) is None  # domain mismatch
    blob = bytearray(path.read_bytes())
    blob[60] ^= 0xFF
    path.write_bytes(bytes(blob))
    assert read_basis_cache(path, grid, 6) is None  # checksum mismatch


def test_eigen_cache_hit_and_byte_identity(tmp_path):
    config = parse_config(write_config(tmp_path))
    assert run_subcommand("eigen", config) == 0
    out = tmp_path / "out"
    cache = (out / "basis_cache.nsstab").read_bytes()
    report1 = json.loads((out / "eigen_report.json").read_text())
    assert report1["cache_hit"] is False
    assert run_subcommand("eigen", config) == 0
    assert (out / "basis_cache.nsstab").read_bytes() == cache
    report2 = json.loads((out / "eigen_report.json").read_text())
    assert report2["cache_hit"] is True
    assert report1["eigenvalues"] == report2["eigenvalues"]


def test_trajectory_csv_bit_faithful(tmp_path, square16, pack_schedule):
    from nsstab.experiments import run_null_control

    report = run_null_control(
        square16["basis"], square16["tensor"], square16["gram"], pack_schedule,
        [1], y0_norm=1e-3, n_max=4, seed=5,
    )[0]
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, report.trajectory)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "t,norm_H,V,norm_f,interval_n,lambda_n"
    parsed = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    traj = report.trajectory
    assert np.array_equal(parsed[:, 0], traj.times)
    assert np.array_equal(parsed[:, 1], traj.norm_h)
    assert np.array_equal(parsed[:, 2], traj.lyapunov)
    assert np.array_equal(parsed[:, 3], traj.control_norm)
    assert np.array_equal(parsed[:, 4].astype(int), traj.interval)


def test_simulate_then_report_cites_hash(tmp_path):
    config = parse_config(write_config(tmp_path))
    assert run_subcommand("simulate", config) == 0
    out = tmp_path / "out"
    report = json.loads((out / "simulate_report.json").read_text())
    digest = sha256_file(out / report["trajectory"])
    assert report["trajectory_sha256"] == digest
    assert run_subcommand("report", config) == 0
    summary = (out / "summary.txt").read_text()
    assert digest in summary
    assert "WARNING" not in summary
    assert (out / "report_plot.csv").read_text().startswith("t,norm_H,V,norm_f")


def without_stepping_times(report: bytes) -> bytes:
    """A report with the values of its two wall-clock health fields blanked; every other byte is kept."""
    blanked, count = re.subn(rb'("(?:stepping_s|us_per_step)": )[^,\n]+', rb"\1null", report)
    assert count == 2 * report.count(b'"health"')
    return blanked


def test_outputs_deterministic(tmp_path):
    config = parse_config(write_config(tmp_path))
    run_subcommand("nullcontrol", config)
    out = tmp_path / "out"
    first = (out / "nullcontrol_report.json").read_bytes()
    traj_first = (out / "nullcontrol_trajectory.csv").read_bytes()
    run_subcommand("nullcontrol", config)
    assert without_stepping_times((out / "nullcontrol_report.json").read_bytes()) == without_stepping_times(first)
    assert (out / "nullcontrol_trajectory.csv").read_bytes() == traj_first


def test_report_embeds_config_constants_and_seed(tmp_path):
    config = parse_config(write_config(tmp_path))
    run_subcommand("nullcontrol", config)
    report = json.loads((tmp_path / "out" / "nullcontrol_report.json").read_text())
    assert report["seed"] == 5
    assert report["config"]["nx"] == 16
    assert report["constants"]["mode"] == "practical"
    assert report["constants"]["provenance"]["schedule_constant"] == "user"
    assert report["inputs"]["cache"].startswith("sha256:")


def test_main_error_channel_is_machine_parsable(tmp_path, capsys):
    path = write_config(tmp_path, overrides={"omega": [0.5, 1.2, 0.1, 0.4]})
    status = main(["eigen", "--config", str(path)])
    assert status == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["key"] == "omega"


def test_run_subcommand_rejects_unknown_name(tmp_path):
    config = parse_config(write_config(tmp_path))
    with pytest.raises(ValueError, match="unknown subcommand"):
        run_subcommand("frobnicate", config)


def test_nullcontrol_certified_reports_basin_below_precision(tmp_path):
    config = parse_config(write_config(tmp_path, mode="certified"))
    assert run_subcommand("nullcontrol", config) == 0
    out = tmp_path / "out"
    report = json.loads((out / "nullcontrol_report.json").read_text())
    assert report["basin_below_precision"] is True
    assert "basin below float precision" in report["note"]
    assert all(report["state_bound_ok"])
    assert "trajectory" not in report
    assert report["constants"]["mode"] == "certified"


def test_cost_curve_subcommand(tmp_path):
    config = parse_config(write_config(tmp_path, overrides={"experiment.n0_list": [1, 2, 3]}))
    assert run_subcommand("cost-curve", config) == 0
    out = tmp_path / "out"
    report = json.loads((out / "cost_curve_report.json").read_text())
    assert report["slope"] > 0
    curve = (out / "cost_curve.csv").read_text().strip().splitlines()
    assert curve[0] == "T,inv_T,cost,y0_norm"
    assert len(curve) == 4


def test_cost_curve_honours_configured_dt(tmp_path):
    config = parse_config(write_config(tmp_path, dt=2.0**-12,
                                       overrides={"experiment.n0_list": [1, 2, 3]}))
    assert run_subcommand("cost-curve", config) == 0
    report = json.loads((tmp_path / "out" / "cost_curve_report.json").read_text())
    assert report["config"]["dt"] == 2.0**-12
    assert [run["dt"] for run in report["runs"]] == [2.0**-12] * 3
    assert [run["interval_dt"] for run in report["runs"]] == [[2.0**-12] * 6] * 3


def test_nullcontrol_reports_its_piece_grid(tmp_path):
    """Without dt, each of the n_max + 2 schedule pieces takes 64 steps of its
    own size; dt is T over the steps, and the CSV has one row per step and
    one for the end."""
    config = parse_config(write_config(tmp_path))
    assert run_subcommand("nullcontrol", config) == 0
    out = tmp_path / "out"
    report = json.loads((out / "nullcontrol_report.json").read_text())
    lengths = np.diff(report["interval_times"])
    assert report["interval_dt"] == (lengths / 64).tolist()
    assert report["health"]["steps"] == 6 * 64 and report["dt"] == report["T"] / (6 * 64) == report["health"]["dt"]
    rows = (out / report["trajectory"]).read_text().splitlines()[1:]
    times = [float(row.split(",")[0]) for row in rows]
    assert len(times) == 6 * 64 + 1 and times[::64] == report["interval_times"]


def test_reports_record_run_health(tmp_path):
    config = parse_config(write_config(tmp_path, overrides={"experiment.n0_list": [1, 2, 3]}))
    out = tmp_path / "out"
    for sub in ("simulate", "nullcontrol", "stabilize", "cost-curve"):
        assert run_subcommand(sub, config) == 0

    def load(name):
        return json.loads((out / f"{name}_report.json").read_text())

    sim, null, stab, curve = (load(n) for n in ("simulate", "nullcontrol", "stabilize", "cost_curve"))
    assert sim["health"]["steps"] == round(sim["horizon"] / sim["dt"])
    assert null["health"]["steps"] == round(null["T"] / null["dt"])
    rows = len(stab["offsets"]) * (1 + len(stab["eta_grid"]))
    assert stab["health"]["steps"] == rows * round(2 * stab["T"] / stab["dt"])
    assert [r["health"]["steps"] for r in curve["runs"]] == [round(r["T"] / r["dt"]) for r in curve["runs"]]
    for report, y0_norm in ((sim, sim["y0_norm"]), (null, null["y0_norm"]), (stab, stab["y0_norm"]),
                            *((r, r["y0_norm"]) for r in curve["runs"])):
        # the energy identity holds to O(dt^2): well inside the initial energy
        assert 0.0 <= report["health"]["max_energy_defect"] <= 1e-3 * y0_norm**2
    # dt and the stepping time; the three horizons share one batch, so one time
    for report in (sim, null, stab, *curve["runs"]):
        assert report["health"]["dt"] == report["dt"]
        assert report["health"]["stepping_s"] > 0.0
    for report in (sim, null, stab):
        health = report["health"]
        assert health["us_per_step"] == pytest.approx(health["stepping_s"] / health["steps"] * 1e6, rel=1e-12)
    batch_steps = sum(r["health"]["steps"] for r in curve["runs"])
    for run in curve["runs"]:
        assert run["health"]["stepping_s"] == curve["runs"][0]["health"]["stepping_s"]
        assert run["health"]["us_per_step"] == pytest.approx(run["health"]["stepping_s"] / batch_steps * 1e6,
                                                             rel=1e-12)
    # one health block, with the same keys, in every stepping report
    assert {frozenset(r["health"]) for r in (sim, null, stab, *curve["runs"])} == {frozenset(sim["health"])}
    assert run_subcommand("report", config) == 0
    summary = (out / "summary.txt").read_text()
    assert summary.count("  steps = ") == 4
    assert summary.count("  max_energy_defect = ") == 4
    assert f"  steps = {sum(r['health']['steps'] for r in curve['runs'])}" in summary
    assert summary.count("  stepping_s = ") == 4 and summary.count("  us_per_step = ") == 4
    assert f"  stepping_s = {stab['health']['stepping_s']}\n" in summary
    assert f"  us_per_step = {', '.join(str(r['health']['us_per_step']) for r in curve['runs'])}\n" in summary


def test_stabilize_csvs_identical_across_blas_thread_counts(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import nsstab

    src = str(Path(nsstab.__file__).resolve().parents[1])
    cache = tmp_path / "basis_cache.nsstab"
    assert run_subcommand("eigen", parse_config(write_config(tmp_path, cache_path=str(cache)))) == 0
    outputs = {}
    for threads in ("1", "2"):
        data = json.loads(json.dumps(BASE))
        data.update(output_dir=str(tmp_path / f"out{threads}"), cache_path=str(cache))
        path = tmp_path / f"stabilize{threads}.json"
        path.write_text(json.dumps(data))
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "nsstab.cli", "stabilize", "--config", str(path)],
                       env=env, check=True, timeout=300, capture_output=True)
        outputs[threads] = sorted((tmp_path / f"out{threads}").glob("stabilize_trajectory_*.csv"))
    assert len(outputs["1"]) == 3
    for one, two in zip(outputs["1"], outputs["2"]):
        assert one.name == two.name
        assert one.read_bytes() == two.read_bytes()


def _run_in_children(tmp_path, subcommand, data, env_by_name, timeout=300):
    """Run one subcommand per environment in a child process; returns the CompletedProcess by name."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import nsstab

    src = str(Path(nsstab.__file__).resolve().parents[1])
    done = {}
    for name, env in env_by_name.items():
        path = tmp_path / f"{subcommand}{name}.json"
        path.write_text(json.dumps({**data, "output_dir": str(tmp_path / f"out{name}")}))
        done[name] = subprocess.run([sys.executable, "-m", "nsstab.cli", subcommand, "--config", str(path)],
                                    env={**os.environ, "PYTHONPATH": src, **env},
                                    timeout=timeout, capture_output=True, text=True)
    return done


def test_eigen_cache_identical_across_blas_thread_counts(tmp_path):
    # 32x32 with 24 modes has sign-ambiguous modes and degenerate pairs
    data = {**json.loads(json.dumps(BASE)), "nx": 32, "ny": 32, "M": 24}
    threads = {t: {"OPENBLAS_NUM_THREADS": t, "OMP_NUM_THREADS": t, "MKL_NUM_THREADS": t} for t in ("1", "2")}
    done = _run_in_children(tmp_path, "eigen", data, threads)
    assert all(proc.returncode == 0 for proc in done.values())
    caches = [(tmp_path / f"out{t}" / "basis_cache.nsstab").read_bytes() for t in threads]
    assert caches[0] == caches[1]


def test_version_1_cache_is_ignored_with_a_warning_and_rebuilt(tmp_path, caplog):
    import hashlib
    import struct

    config = parse_config(write_config(tmp_path))
    assert run_subcommand("eigen", config) == 0
    path = tmp_path / "out" / "basis_cache.nsstab"
    current = path.read_bytes()
    body = bytearray(current[:-32])
    struct.pack_into("<I", body, 8, 1)
    path.write_bytes(bytes(body) + hashlib.sha256(bytes(body)).digest())
    assert run_subcommand("eigen", config) == 0
    assert "version 1 != 2; ignoring" in caplog.text
    assert json.loads((tmp_path / "out" / "eigen_report.json").read_text())["cache_hit"] is False
    assert path.read_bytes() == current


def test_cost_curve_names_the_run_whose_control_the_cutoff_zeroed(tmp_path, capsys):
    # n0=3: the raw control is far above twice the cutoff radius, so the cutoff zeroes it
    path = write_config(tmp_path, overrides={"experiment.cutoff": True})
    assert main(["cost-curve", "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "n0=3 (T=0.125) has cost 0" in err["message"]
    assert "the radial cutoff zeroed its control" in err["message"]


@pytest.mark.parametrize(("subcommand", "key", "value"), [
    ("stabilize", "experiment.n0", 0),
    ("cost-curve", "experiment.n0_list", [1, 0, 2]),
    ("nullcontrol", "experiment.n_max", -1),
    ("stabilize", "experiment.periods", 1),
    ("stabilize", "experiment.y0_norm", -1.0),
    ("simulate", "experiment.y0_scale", -0.5),
    ("simulate", "experiment.horizon", -1.0),
    ("simulate", "experiment.horizon", 0.0),
    # Python's json reads NaN and Infinity; no float field takes them
    ("constants", "nu", float("nan")),
    ("simulate", "dt", float("inf")),
    ("stabilize", "eps_zero", float("nan")),
    ("stabilize", "experiment.y0_norm", float("inf")),
    ("eigen", "omega", [0.6, float("nan"), 0.1, 0.4]),
    # the practical constants, checked before the basis solve
    ("nullcontrol", "practical.spectral_constant", -0.02),
    ("simulate", "practical.trilinear_constant", 0.0),
    ("cost-curve", "practical.schedule_constant", -4.0),
    ("stabilize", "practical.feedback_constant", 0.05),
    # checked with the domain, before the basis solve: no start offset, a
    # seed numpy cannot take, a control window with no node of the 16 x 16
    # grid (the nodes sit at k/17, and (0.5, 0.52) falls between 8/17 and 9/17)
    ("stabilize", "experiment.offsets", []),
    ("simulate", "seed", -1),
    ("nullcontrol", "seed", -1),
    ("stabilize", "seed", -1),
    ("nullcontrol", "omega", [0.5, 0.52, 0.5, 0.52]),
    ("stabilize", "omega", [0.5, 0.52, 0.5, 0.52]),
    ("eigen", "omega", [0.1, 0.9, 0.5, 0.52]),
])
def test_out_of_range_experiment_value_names_its_key(tmp_path, capsys, subcommand, key, value):
    path = write_config(tmp_path, overrides={key: value})
    assert main([subcommand, "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["key"] == key
    assert not (tmp_path / "out").exists()


def _csv_times(path):
    return np.array([float(row.split(",")[0]) for row in path.read_text().splitlines()[1:]])


@pytest.mark.parametrize(("subcommand", "dt", "overrides"), [
    # 3e-4 divides neither T_1 = 1/4 nor T = 1/2 of the period 2**-1
    ("nullcontrol", 3e-4, {}),
    ("stabilize", 3e-4, {}),
    ("cost-curve", 3e-4, {"experiment.n0_list": [1, 2, 3]}),
    # 2**-8 divides T = 1/2 and T_7, but not T_8 = 1/2 - 2**-9
    ("nullcontrol", 2.0**-8, {"experiment.n_max": 8}),
], ids=["nullcontrol", "stabilize", "cost-curve", "nullcontrol-T_8"])
def test_dt_off_the_schedule_grid_caps_every_piece(tmp_path, subcommand, dt, overrides):
    """A dt that puts schedule times between its multiples caps the steps of
    each piece: every schedule time, and every s + jT, is a step time, and
    no step exceeds dt."""
    config = parse_config(write_config(tmp_path, dt=dt, overrides=overrides))
    assert run_subcommand(subcommand, config) == 0
    out = tmp_path / "out"
    if subcommand == "stabilize":
        report = json.loads((out / "stabilize_report.json").read_text())
        period = report["T"]
        starts = np.append(0.0, np.cumsum(period / 2.0 ** np.arange(1, config.experiment.n_max + 2)))
        for s, entry in zip(report["offsets"], report["trajectories"]):
            times = _csv_times(out / entry["file"])
            switches = (np.arange(3)[:, None] * period + starts).ravel()
            cuts = np.append(switches[(switches > s) & (switches < s + 2 * period)], s + np.arange(3) * period)
            assert np.isin(cuts, times).all(), s
            assert np.all(np.diff(times) <= dt), s
        return
    name = "cost_curve" if subcommand == "cost-curve" else "nullcontrol"
    report = json.loads((out / f"{name}_report.json").read_text())
    for run in report.get("runs", [report]):
        lengths = np.diff(run["interval_times"])
        assert np.all(np.array(run["interval_dt"]) <= dt)
        assert run["health"]["steps"] == np.ceil(lengths / dt).sum() == round(run["T"] / run["dt"])
    if subcommand != "cost-curve":
        times = _csv_times(out / report["trajectory"])
        assert np.isin(report["interval_times"], times).all()
        assert np.all(np.diff(times) <= dt)


@pytest.mark.parametrize("subcommand", ["nullcontrol", "stabilize", "cost-curve"])
def test_schedule_run_over_the_step_budget_names_dt(tmp_path, capsys, subcommand):
    """dt = 2**-22 caps the period 1/2 at 2**21 steps per row, over the
    budget, which a schedule run refuses before it builds any step array."""
    path = write_config(tmp_path, dt=2.0**-22, overrides={"experiment.n0_list": [1, 2, 3]})
    assert main([subcommand, "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["key"] == "dt"
    assert f"needs {2**21} steps, more than the budget of {MAX_STEPS}" in err["message"]
    assert not list((tmp_path / "out").glob("*_report.json"))


def test_nullcontrol_and_cost_curve_step_through_one_entry_point(tmp_path, monkeypatch):
    """Both subcommands call cli.run_null_control, the one null-control function
    (and the name a tracer wraps), with a list of n0."""
    import nsstab.cli as cli
    from nsstab import experiments

    assert cli.run_null_control is experiments.run_null_control
    assert not hasattr(experiments, "run_null_control_horizons")
    calls = []

    def counted(basis, tensor, gram, pack, n0_list, **options):
        calls.append(list(n0_list))
        return experiments.run_null_control(basis, tensor, gram, pack, n0_list, **options)

    monkeypatch.setattr(cli, "run_null_control", counted)
    config = parse_config(write_config(tmp_path, overrides={"experiment.n0_list": [1, 2, 3]}))
    for sub in ("nullcontrol", "cost-curve"):
        assert run_subcommand(sub, config) == 0
    assert calls == [[1], [1, 2, 3]]


def test_cost_curve_needs_three_distinct_n0_before_any_solve(tmp_path, capsys):
    path = write_config(tmp_path, overrides={"experiment.n0_list": [1, 1, 2]})
    assert main(["cost-curve", "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["key"] == "experiment.n0_list"
    assert list((tmp_path / "out").iterdir()) == []  # no basis cache, no report


def test_reports_record_the_clamped_schedule_intervals(tmp_path, caplog):
    """Each schedule's clamped list turns True at the interval its warning names."""
    config = parse_config(write_config(tmp_path, overrides={"experiment.n0_list": [1, 2, 3]}))
    out = tmp_path / "out"
    with caplog.at_level("WARNING", logger="nsstab.constants"):
        for sub in ("nullcontrol", "stabilize", "cost-curve"):
            assert run_subcommand(sub, config) == 0
    warned = [int(re.search(r"from interval (\d+) on", r.getMessage()).group(1)) for r in caplog.records
              if "thresholds clamped" in r.getMessage()]
    null, stab, curve = (json.loads((out / f"{name}_report.json").read_text())
                         for name in ("nullcontrol", "stabilize", "cost_curve"))
    clamped = [null["clamped"], stab["clamped"], *(run["clamped"] for run in curve["runs"])]
    assert all(len(c) == config.experiment.n_max + 1 for c in clamped)
    assert [c.index(True) for c in clamped if any(c)] == warned
    assert len(warned) >= 3


def test_simulate_rejects_a_run_over_the_step_budget(tmp_path):
    # the certified gain at tau_4 is about 1.4e7, so the default dt is about 1.8e-8
    done = _run_in_children(tmp_path, "simulate", {**json.loads(json.dumps(BASE)), "mode": "certified"},
                            {"": {}}, timeout=60)[""]
    assert done.returncode == 1
    err = json.loads(done.stderr.strip().splitlines()[-1])
    assert err["error"] == "ConfigError"
    assert err["key"] == "dt"
    match = re.search(r"dt = (\S+) over the horizon (\S+) needs (\d+) steps, more than the budget of (\d+)",
                      err["message"])
    dt, horizon, steps, budget = (float(v) for v in match.groups())
    assert dt == pytest.approx(1.8e-8, rel=0.05)
    assert steps == pytest.approx(horizon / dt, rel=1e-3)
    assert steps > budget == MAX_STEPS


def test_simulate_rejects_lambda_index_tied_with_the_top_eigenvalue(tmp_path, capsys):
    # at 32x32 with 24 modes, tau_23 and tau_24 are one degenerate pair
    path = write_config(tmp_path, nx=32, ny=32, M=24, overrides={"experiment.lambda_index": 23})
    config = parse_config(path)
    assert run_subcommand("eigen", config) == 0
    tau = json.loads((tmp_path / "out" / "eigen_report.json").read_text())["eigenvalues"]
    assert tau[22] == tau[23]
    assert main(["simulate", "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["key"] == "experiment.lambda_index"
    assert not (tmp_path / "out" / "simulate_report.json").exists()


def test_report_checks_every_listed_trajectory_hash(tmp_path):
    config = parse_config(write_config(tmp_path, overrides={"experiment.cutoff": True}))
    out = tmp_path / "out"
    for sub in ("simulate", "stabilize", "report"):
        assert run_subcommand(sub, config) == 0
    simulate = json.loads((out / "simulate_report.json").read_text())
    assert simulate["cutoff_trajectory_sha256"] == sha256_file(out / simulate["cutoff_trajectory"])
    summary = (out / "summary.txt").read_text()
    assert "WARNING" not in summary
    for name in ("simulate_trajectory.csv", "simulate_trajectory_cutoff.csv",
                 *(f"stabilize_trajectory_{i}.csv" for i in range(3))):
        assert f"  trajectory = {name} (sha256:" in summary
    corrupted = out / "stabilize_trajectory_1.csv"
    corrupted.write_text(corrupted.read_text().replace("\n0", "\n1", 1))
    assert run_subcommand("report", config) == 0
    warnings = [line for line in (out / "summary.txt").read_text().splitlines() if "WARNING" in line]
    assert warnings == ["  WARNING: stabilize_trajectory_1.csv hash differs from the one recorded at the run"]


WARM_CHILD = """
import json, sys
from nsstab.cli import main
practical, certified = sys.argv[1:]
codes = {name: main([name, "--config", practical]) for name in ("stabilize", "simulate", "cost-curve")}
codes.update({name: main([name, "--config", certified]) for name in ("fit-c1", "constants", "nullcontrol")})
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_warm_runs_load_no_scipy(tmp_path):
    """A warm stabilize, simulate and cost-curve, and a warm certified fit-c1,
    constants and nullcontrol, never call scipy, so they must not import it
    (about 0.3 s and 300 modules per process).  Checked in a child process,
    since this one has scipy loaded by other tests."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import nsstab

    src = str(Path(nsstab.__file__).resolve().parents[1])
    cache = tmp_path / "basis_cache.nsstab"
    practical = write_config(tmp_path, cache_path=str(cache))
    assert run_subcommand("eigen", parse_config(practical)) == 0
    certified = tmp_path / "certified.json"
    certified.write_text(json.dumps({**json.loads(practical.read_text()), "mode": "certified",
                                     "output_dir": str(tmp_path / "certified")}))
    proc = subprocess.run([sys.executable, "-c", WARM_CHILD, str(practical), str(certified)],
                          env={**os.environ, "PYTHONPATH": src}, timeout=300, capture_output=True, text=True,
                          check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == {name: 0 for name in ("stabilize", "simulate", "cost-curve",
                                                    "fit-c1", "constants", "nullcontrol")}
    report = json.loads((tmp_path / "certified" / "nullcontrol_report.json").read_text())
    assert report["constants"]["mode"] == "certified"
    assert result["scipy"] == []


#: the float edge cases of the CSV writers: nan, infinities, signed zeros,
#: the smallest subnormal and normal numbers, and magnitudes near the range ends
EDGE_FLOATS = (float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308)
csv_floats = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
csv_ints = st.integers(-(2**63), 2**63 - 1)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kinds=st.text(alphabet="fd", min_size=1, max_size=8))
def test_row_format_matches_per_value_formatting(data, kinds):
    rows = data.draw(st.lists(st.tuples(*(csv_floats if kind == "f" else csv_ints for kind in kinds)),
                              min_size=1, max_size=5))
    row_format = _row_format(kinds)
    for row in rows:
        assert row_format % row == oracle.csv_row(row)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), n=st.integers(1, 20))
def test_trajectory_csv_matches_per_value_formatting(tmp_path_factory, data, n):
    floats = [np.array(data.draw(st.lists(csv_floats, min_size=n, max_size=n))) for _ in range(5)]
    interval = np.array(data.draw(st.lists(csv_ints, min_size=n, max_size=n)), dtype=np.int64)
    traj = Trajectory(times=floats[0], states=np.zeros((n, 1)), norm_h=floats[1], lyapunov=floats[2],
                      control_norm=floats[3], interval=interval, threshold=floats[4],
                      dissipation=np.zeros(n), control_work=np.zeros(n))
    path = tmp_path_factory.mktemp("csv") / "trajectory.csv"
    write_trajectory_csv(path, traj)
    columns = (traj.times, traj.norm_h, traj.lyapunov, traj.control_norm, traj.interval, traj.threshold)
    expected = ["t,norm_H,V,norm_f,interval_n,lambda_n", *map(oracle.csv_row, zip(*(c.tolist() for c in columns)))]
    assert path.read_text() == "\n".join(expected) + "\n"
