import dataclasses
import hashlib
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsstab.cli as cli
from nsstab.cli import (
    _row_format,
    ensure_basis,
    main,
    parse_config,
    read_basis_cache,
    run_subcommand,
    sha256_file,
    write_basis_cache,
    write_trajectory_csv,
)
from nsstab.constants import Schedule
from nsstab.dynamics import Trajectory, build_trilinear_tensor
from nsstab.errors import ConfigError
from nsstab.experiments import MAX_STEPS
from nsstab.grid import DomainSpec, build_grid
from nsstab.spectral import EXTRA_MODES

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


@pytest.mark.parametrize(("given", "duplicated", "key"), [
    ('"M": 12', '"M": 24, "M": 12', "M"),
    ('"n0": 1', '"n0": 2, "n0": 1', "n0"),  # inside the experiment section
], ids=["top-level", "nested"])
def test_parse_rejects_duplicate_keys(tmp_path, capsys, given, duplicated, key):
    """json keeps the last of two equal keys; the config refuses the file, so
    that it always says what ran."""
    path = write_config(tmp_path)
    text = path.read_text()
    assert text.count(given) == 1
    path.write_text(text.replace(given, duplicated))
    assert main(["eigen", "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["key"]) == ("ConfigError", key)
    assert "duplicate" in err["message"]


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
    (tmp_path / "emitted.json").write_text(json.dumps(dataclasses.asdict(config), sort_keys=True))
    assert parse_config(tmp_path / "emitted.json") == config


def test_basis_cache_round_trip(tmp_path):
    grid, _, _, basis = make_setup(8, 8, 6, omega=(0.1, 0.6, 0.1, 0.6))
    path = tmp_path / "cache.bin"
    write_basis_cache(path, basis)
    loaded = read_basis_cache(path, grid, 6)
    assert not loaded.stream_functions.flags.writeable  # a view of the bytes read
    assert np.array_equal(loaded.eigenvalues, basis.eigenvalues)
    assert np.array_equal(loaded.stream_functions, basis.stream_functions)
    assert np.array_equal(loaded.velocities, basis.velocities)


def test_failed_cache_rename_leaves_no_temporary_file(tmp_path, monkeypatch):
    """The cache is written to a temporary file and renamed into place; when
    the rename fails, the error propagates and the temporary file is gone."""
    _, _, _, basis = make_setup(8, 8, 6, omega=(0.1, 0.6, 0.1, 0.6))

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write_basis_cache(tmp_path / "cache.bin", basis)
    assert list(tmp_path.iterdir()) == []


def test_basis_cache_rejects_mismatch_and_corruption(tmp_path, caplog):
    grid, _, _, basis = make_setup(8, 8, 6, omega=(0.1, 0.6, 0.1, 0.6))
    path = tmp_path / "cache.bin"
    write_basis_cache(path, basis)
    good = path.read_bytes()
    other = build_grid(DomainSpec(2.0, 1.0, 8, 8, (0.1, 0.6, 0.1, 0.6)))
    cases = [
        (good, grid, 5, "signature mismatch"),  # mode count
        (good, other, 6, "signature mismatch"),  # domain
        (_signed(good[:8] + struct.pack("<I", 99) + good[12:-32]), grid, 6, f"version 99 != {cli.CACHE_VERSION}"),
        (_signed(good[:-40]), grid, 6, "payload size mismatch"),
        (good[:60] + bytes([good[60] ^ 0xFF]) + good[61:], grid, 6, "checksum mismatch"),
        (_signed(b"NOTSTAB\x00" + good[8:-32]), grid, 6, "bad magic or truncated"),
        (good[: cli._CACHE_HEADER.size + 31], grid, 6, "bad magic or truncated"),
    ]
    config = cli.RunConfig(Lx=1.0, Ly=1.0, nx=8, ny=8, omega=(0.1, 0.6, 0.1, 0.6), M=6, cache_path=str(path))
    for blob, read_grid, m, reason in cases:
        path.write_bytes(blob)
        caplog.clear()
        with caplog.at_level("WARNING", logger="nsstab.cli"):
            assert read_basis_cache(path, read_grid, m) is None
        assert _cli_warnings(caplog) == [f"cache {path}: {reason}; ignoring"], reason
        if read_grid is grid and m == 6:
            # a cache this config cannot use is solved again and rewritten
            assert ensure_basis(config)[1] is False
            assert path.read_bytes() == good, reason


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


def test_eigen_report_records_the_solve_and_report_prints_it(tmp_path):
    """A cache miss records the solve's health, a hit none; nsstab report
    prints each value of the solve."""
    config = parse_config(write_config(tmp_path))
    out = tmp_path / "out"
    assert run_subcommand("eigen", config) == 0
    solve = json.loads((out / "eigen_report.json").read_text())["solve"]
    assert set(solve) == {"solve_s", "lanczos_blocks", "restarts", "max_projected_dim",
                          "max_relative_residual", "orthonormality_residual", "parity_residual", "classes"}
    assert solve["solve_s"] > 0.0 and solve["lanczos_blocks"] >= 1 and solve["restarts"] >= 0
    assert -(-config.M // 4) + EXTRA_MODES <= solve["max_projected_dim"] <= 8 * 8
    assert solve["max_relative_residual"] <= 1e-10 and solve["orthonormality_residual"] <= 1e-12
    assert solve["parity_residual"] == 0.0
    classes = solve.pop("classes")
    assert list(classes) == ["even-even", "even-odd", "odd-even", "odd-odd"]
    for key in ("lanczos_blocks", "restarts"):
        assert sum(counts[key] for counts in classes.values()) == solve[key]
    assert all(counts["pairs"] >= -(-config.M // 4) + EXTRA_MODES for counts in classes.values())
    assert run_subcommand("report", config) == 0
    summary = (out / "summary.txt").read_text()
    for key, value in solve.items():
        assert f"  {key} = {value}\n" in summary
    for name, counts in classes.items():
        assert f"  classes.{name} = {', '.join(f'{k} {v}' for k, v in counts.items())}\n" in summary
    assert run_subcommand("eigen", config) == 0
    assert "solve" not in json.loads((out / "eigen_report.json").read_text())


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
    """A report with the values of its three wall-clock health fields blanked; every other byte is kept."""
    blanked, count = re.subn(rb'("(?:stepping_s|us_per_step|tables_s)": )[^,\n]+', rb"\1null", report)
    assert count == 3 * report.count(b'"health"')
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


def test_report_on_an_output_directory_without_reports_fails(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["report", "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"
    assert err["message"] == f"no report artifacts in {tmp_path / 'out'}"
    assert not (tmp_path / "out" / "summary.txt").exists()


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


def test_certified_constants_do_not_depend_on_the_seed(tmp_path):
    """Certified constants runs at seeds 7 and 42 write the same constants
    block: the trilinear constant is the upper end of the recorded bracket,
    with provenance "bounded"."""
    reports = []
    for seed in (7, 42):
        out = tmp_path / f"out{seed}"
        assert run_subcommand("constants", parse_config(write_config(tmp_path, mode="certified", seed=seed,
                                                                     output_dir=str(out)))) == 0
        reports.append(json.loads((out / "constants_report.json").read_text()))
    one, two = reports
    assert [one["seed"], two["seed"]] == [7, 42]
    assert one["constants"] == two["constants"] and one["trilinear_bracket"] == two["trilinear_bracket"]
    assert one["constants"]["provenance"]["trilinear_constant"] == "bounded"
    lower, upper = one["trilinear_bracket"]
    assert 0.0 < lower < upper == one["constants"]["trilinear_constant"]


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
    """Without dt, each of the n_max + 2 schedule pieces takes 16 steps of its
    own size (the law has no cutoff, so each piece steps its closed loop
    exactly); dt is T over the steps, and the CSV has one row per step and
    one for the end."""
    config = parse_config(write_config(tmp_path))
    assert run_subcommand("nullcontrol", config) == 0
    out = tmp_path / "out"
    report = json.loads((out / "nullcontrol_report.json").read_text())
    lengths = np.diff(report["interval_times"])
    assert report["interval_dt"] == (lengths / 16).tolist()
    assert report["health"]["steps"] == 6 * 16 and report["dt"] == report["T"] / (6 * 16) == report["health"]["dt"]
    rows = (out / report["trajectory"]).read_text().splitlines()[1:]
    times = [float(row.split(",")[0]) for row in rows]
    assert len(times) == 6 * 16 + 1 and times[::16] == report["interval_times"]


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
    # the energy identity holds to O(dt^2): well inside the initial energy for
    # the cutoff rows, which take the diagonal factor; the null-control rows,
    # without cutoff, step each piece's closed loop and its energy integrals
    # exactly, and leave only the explicit convection's defect (measured: at
    # most 1.1e-7 of y0^2, at n0 = 1)
    assert 0.0 <= stab["health"]["max_energy_defect"] <= 1e-3 * stab["y0_norm"] ** 2
    for report in (null, *curve["runs"]):
        assert 0.0 <= report["health"]["max_energy_defect"] <= 1e-5 * report["y0_norm"] ** 2
    # the stationary law's linear flow and its energy integrals are exact, and
    # at this start the convection is far below them
    assert 0.0 <= sim["health"]["max_energy_defect"] <= 1e-10 * sim["y0_norm"] ** 2
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
    # the closed-loop tables: one for the stationary law, none for the cutoff
    # law, one per distinct gain and step for the null-control pieces, whose
    # runs of one batch share the count and the time
    assert sim["health"]["tables"] == 1 and stab["health"]["tables"] == 0 == stab["health"]["tables_s"]
    assert null["health"]["tables"] >= 1 and curve["runs"][0]["health"]["tables"] >= null["health"]["tables"]
    for report in (sim, null, *curve["runs"]):
        assert 0.0 < report["health"]["tables_s"] < report["health"]["stepping_s"]
    assert len({(r["health"]["tables"], r["health"]["tables_s"]) for r in curve["runs"]}) == 1
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
    assert summary.count("  tables = ") == 4 and summary.count("  tables_s = ") == 4
    assert f"  tables = {sim['health']['tables']}\n" in summary
    assert f"  tables_s = {', '.join(str(r['health']['tables_s']) for r in curve['runs'])}\n" in summary


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


def test_cost_curve_csvs_identical_across_blas_thread_counts(tmp_path):
    """The wide-modes cost curve (32x32, M = 64, n0 = 1, 2, 3, n_max = 8):
    its rows step each schedule piece's closed loop, with propagators and
    moments from 64x64 products, exponentials and solves that BLAS may split
    between threads.  cost_curve.csv and the report's runs, timings aside,
    are identical under 1 and 2 threads."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import nsstab

    src = str(Path(nsstab.__file__).resolve().parents[1])
    data = {**json.loads(json.dumps(BASE)), "nx": 32, "ny": 32, "M": 64, "eps_zero": 1e-8,
            "experiment": {"n0_list": [1, 2, 3], "n_max": 8, "y0_norm": 1e-3}}
    cache = tmp_path / "basis_cache.nsstab"
    path = tmp_path / "eigen.json"
    path.write_text(json.dumps({**data, "cache_path": str(cache), "output_dir": str(tmp_path / "eigen")}))
    assert run_subcommand("eigen", parse_config(path)) == 0
    for threads in ("1", "2"):
        path = tmp_path / f"cost_curve{threads}.json"
        path.write_text(json.dumps({**data, "cache_path": str(cache), "output_dir": str(tmp_path / f"out{threads}")}))
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "nsstab.cli", "cost-curve", "--config", str(path)],
                       env=env, check=True, timeout=300, capture_output=True)
    one, two = (tmp_path / f"out{threads}" for threads in ("1", "2"))
    assert (one / "cost_curve.csv").read_bytes() == (two / "cost_curve.csv").read_bytes()

    def runs(out):
        report = json.loads((out / "cost_curve_report.json").read_text())
        for run in report["runs"]:
            for key in ("stepping_s", "us_per_step", "tables_s"):
                del run["health"][key]
        return report["runs"]

    assert runs(one) == runs(two)
    assert all(run["health"]["tables"] > 0 and run["health"]["steps"] == 10 * 16 for run in runs(one))


SIMULATE_TABLES_CHILD = """
import hashlib, sys
from nsstab import dynamics
from nsstab.cli import main
made, real_table = [], dynamics.ClosedLoopTable
def table(**fields):
    made.append(real_table(**fields))
    return made[-1]
dynamics.ClosedLoopTable = table
assert main(["simulate", "--config", sys.argv[1]]) == 0
assert made
print(hashlib.sha256(b"".join(t.prop_t.tobytes() + t.quad_x.tobytes() + t.quad_r.tobytes() for t in made)).hexdigest())
"""


def test_simulate_csvs_identical_across_blas_thread_counts(tmp_path):
    """The wide-modes simulate (32x32, M = 64, lambda = tau_4, cutoff, T = 1/32):
    the exponential and moment tables that its runs step with, whose 64x64
    products BLAS may split between threads, and both CSVs are
    byte-identical under 1 and 2 threads."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import nsstab

    src = str(Path(nsstab.__file__).resolve().parents[1])
    data = {**json.loads(json.dumps(BASE)), "nx": 32, "ny": 32, "M": 64,
            "practical": {"spectral_constant": 0.6, "trilinear_constant": 1.0},
            "experiment": {"lambda_index": 4, "cutoff": True, "horizon": 1.0 / 32.0}}
    cache = tmp_path / "basis_cache.nsstab"
    path = tmp_path / "eigen.json"
    path.write_text(json.dumps({**data, "cache_path": str(cache), "output_dir": str(tmp_path / "eigen")}))
    assert run_subcommand("eigen", parse_config(path)) == 0
    hashes = {}
    for threads in ("1", "2"):
        path = tmp_path / f"simulate{threads}.json"
        path.write_text(json.dumps({**data, "cache_path": str(cache), "output_dir": str(tmp_path / f"out{threads}")}))
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", SIMULATE_TABLES_CHILD, str(path)], env=env, check=True,
                              timeout=300, capture_output=True, text=True)
        hashes[threads] = proc.stdout.split()[-1]
    assert hashes["1"] == hashes["2"]
    report = json.loads((tmp_path / "out1" / "simulate_report.json").read_text())
    assert report["dt"] == 2.0**-15 and report["health"]["steps"] == 2048
    for name in ("simulate_trajectory.csv", "simulate_trajectory_cutoff.csv"):
        assert (tmp_path / "out1" / name).read_bytes() == (tmp_path / "out2" / name).read_bytes()


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


def test_cold_basis_caches_identical_across_blas_thread_counts(tmp_path):
    """A cold certified eigen + constants run at 64x64 with 24 modes, the
    configuration whose solve runs a block Lanczos per reflection class and
    whose tensor is built by class pairs, writes the same basis cache bytes
    under 1 and 2 threads, and the same constants."""
    data = {"Lx": 1.0, "Ly": 1.0, "nx": 64, "ny": 64, "omega": [0.6, 0.9, 0.1, 0.4], "M": 24,
            "mode": "certified", "eps_zero": 1e-8, "seed": 7}
    threads = {t: {"OPENBLAS_NUM_THREADS": t, "OMP_NUM_THREADS": t, "MKL_NUM_THREADS": t} for t in ("1", "2")}
    for subcommand in ("eigen", "constants"):
        done = _run_in_children(tmp_path, subcommand, data, threads)
        assert all(proc.returncode == 0 for proc in done.values()), [proc.stderr for proc in done.values()]
    one, two = ((tmp_path / f"out{t}" / "basis_cache.nsstab").read_bytes() for t in threads)
    assert one == two
    one, two = (json.loads((tmp_path / f"out{t}" / "constants_report.json").read_text())["constants"] for t in threads)
    assert one == two


TENSOR_CHILD = """
import hashlib, sys
from nsstab.cli import ensure_basis, parse_config
from nsstab.dynamics import build_trilinear_tensor
basis, hit = ensure_basis(parse_config(sys.argv[1]))
assert hit
print(hashlib.sha256(build_trilinear_tensor(basis, basis.grid).tobytes()).hexdigest())
"""


@pytest.mark.parametrize(("n", "m"), [(64, 24), (32, 64)], ids=["64x64-M24", "32x32-M64"])
def test_tensor_bytes_identical_across_blas_thread_counts(tmp_path, n, m):
    """The convection tensor, one BLAS product per pair of reflection
    classes, has the same bytes under 1 and 2 threads at the cold-basis and
    the wide-modes sizes."""
    import os
    import subprocess
    import sys

    import nsstab

    src = str(Path(nsstab.__file__).resolve().parents[1])
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BASE, "nx": n, "ny": n, "M": m, "output_dir": str(tmp_path / "out")}))
    assert run_subcommand("eigen", parse_config(path)) == 0
    hashes = {}
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", TENSOR_CHILD, str(path)], env=env, check=True,
                              timeout=300, capture_output=True, text=True)
        hashes[threads] = proc.stdout.split()[-1]
    assert hashes["1"] == hashes["2"]


def _cache_of_version_is_ignored_with_a_warning_and_rebuilt(tmp_path, caplog, version):
    import hashlib
    import struct

    config = parse_config(write_config(tmp_path))
    assert run_subcommand("eigen", config) == 0
    path = tmp_path / "out" / "basis_cache.nsstab"
    current = path.read_bytes()
    body = bytearray(current[:-32])
    struct.pack_into("<I", body, 8, version)
    path.write_bytes(bytes(body) + hashlib.sha256(bytes(body)).digest())
    assert run_subcommand("eigen", config) == 0
    assert f"version {version} != {cli.CACHE_VERSION}; ignoring" in caplog.text
    assert json.loads((tmp_path / "out" / "eigen_report.json").read_text())["cache_hit"] is False
    assert path.read_bytes() == current


def test_version_1_cache_is_ignored_with_a_warning_and_rebuilt(tmp_path, caplog):
    _cache_of_version_is_ignored_with_a_warning_and_rebuilt(tmp_path, caplog, 1)


def test_version_3_cache_is_ignored_with_a_warning_and_rebuilt(tmp_path, caplog):
    """Version 3 caches came from the solve that split each cluster again on
    the grid, which differs from this one at roundoff."""
    assert cli.CACHE_VERSION == 4
    _cache_of_version_is_ignored_with_a_warning_and_rebuilt(tmp_path, caplog, 3)


def _refuse_to_build(*args):
    raise AssertionError("the convection tensor was built")


def _cli_warnings(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.name == "nsstab.cli" and r.levelname == "WARNING"]


def test_eigen_and_fit_c1_never_build_the_tensor_and_the_basis_cache_keeps_its_layout(tmp_path, monkeypatch):
    config = parse_config(write_config(tmp_path, mode="certified"))
    practical = parse_config(write_config(tmp_path))
    out = tmp_path / "out"
    monkeypatch.setattr(cli, "build_trilinear_tensor", _refuse_to_build)
    for sub in ("eigen", "fit-c1"):
        assert run_subcommand(sub, config) == 0
    assert run_subcommand("constants", practical) == 0  # a practical pack needs no tensor either
    basis_cache = config.resolved_cache_path().read_bytes()
    assert len(basis_cache) == 40 + 8 * config.M * (1 + config.nx * config.ny) + 32
    builds = []

    def counted(*args):
        builds.append(args)
        return build_trilinear_tensor(*args)

    monkeypatch.setattr(cli, "build_trilinear_tensor", counted)
    assert run_subcommand("constants", config) == 0  # a certified pack bounds c0 on the tensor
    assert len(builds) == 1
    assert config.resolved_cache_path().read_bytes() == basis_cache
    # the basis cache is the one file written beside the artifacts, and the one input reports record
    assert sorted(f.name for f in out.iterdir()) == [
        "basis_cache.nsstab", "c1_table.csv", "constants_report.json", "eigen_report.json", "fit_c1_report.json"]
    for name in ("eigen", "fit_c1", "constants"):
        inputs = json.loads((out / f"{name}_report.json").read_text())["inputs"]
        assert inputs == {"cache": sha256_file(config.resolved_cache_path())}, name


#: the suffix of the file beside the basis cache in which earlier versions
#: cached the convection tensor, and the start of the report key they
#: recorded its digest under
OLD_TENSOR_FILE = "tensor"


def test_a_leftover_tensor_file_beside_the_cache_is_neither_read_nor_rewritten(tmp_path, caplog, monkeypatch):
    """An upgrade leaves the old tensor file in place: no run reads it, warns
    about it or writes it, and the artifacts are the same without it."""
    config = parse_config(write_config(tmp_path))
    out, cache = tmp_path / "out", config.resolved_cache_path()

    def artifacts():
        for sub in ("nullcontrol", "stabilize"):
            assert run_subcommand(sub, config) == 0
        return {f.name: f.read_bytes() for f in sorted(out.iterdir()) if f.suffix in (".csv", ".json")}

    without = artifacts()
    leftover = cache.with_name(f"{cache.name}.{OLD_TENSOR_FILE}")
    leftover.write_bytes(b"garbage")
    written = leftover.stat().st_mtime_ns
    opened, real_open = [], Path.open

    def spy(self, *args, **kwargs):
        opened.append(self.name)
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", spy)
    with caplog.at_level("WARNING", logger="nsstab.cli"):
        beside = artifacts()
    monkeypatch.undo()
    assert cache.name in opened and leftover.name not in opened
    assert _cli_warnings(caplog) == []
    assert leftover.read_bytes() == b"garbage" and leftover.stat().st_mtime_ns == written
    assert beside.keys() == without.keys() and len(without) == 6
    for name, data in without.items():
        if name.endswith(".csv"):
            assert beside[name] == data, name
        else:
            assert without_stepping_times(beside[name]) == without_stepping_times(data), name


def _signed(body: bytes) -> bytes:
    return body + hashlib.sha256(body).digest()


def test_report_prints_and_checks_both_cache_digests(tmp_path):
    """The summary prints the basis cache's digest from each report and warns
    once per report whose cache changed or went missing.  A report of an
    earlier version, which also recorded the digest of a tensor cache, and the
    viscosity and a feedback constant in its config, is summarized the same way."""
    config = parse_config(write_config(tmp_path))
    out, cache = tmp_path / "out", config.resolved_cache_path()
    for sub in ("simulate", "report"):
        assert run_subcommand(sub, config) == 0
    summary = (out / "summary.txt").read_text()
    assert summary.count(f"  cache = {cache} ({sha256_file(cache)})\n") == 1
    assert "WARNING" not in summary
    report = out / "simulate_report.json"
    data = json.loads(report.read_text())
    data["inputs"][f"{OLD_TENSOR_FILE}_cache"] = "sha256:" + "0" * 64
    data["config"]["nu"] = 1.0
    data["config"]["practical"]["feedback_constant"] = None
    report.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    assert run_subcommand("report", config) == 0
    assert (out / "summary.txt").read_text() == summary
    good = cache.read_bytes()
    for change in (lambda: cache.write_bytes(good[:-1]), cache.unlink):
        change()
        assert run_subcommand("report", config) == 0
        warnings = [line for line in (out / "summary.txt").read_text().splitlines() if "WARNING" in line]
        assert warnings == [f"  WARNING: {cache} hash differs from the one recorded at the run"]


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
    ("constants", "Lx", float("nan")),
    ("simulate", "dt", float("inf")),
    ("stabilize", "eps_zero", float("nan")),
    ("stabilize", "experiment.y0_norm", float("inf")),
    ("eigen", "omega", [0.6, float("nan"), 0.1, 0.4]),
    # the practical constants, checked before the basis solve
    ("nullcontrol", "practical.spectral_constant", -0.02),
    ("simulate", "practical.trilinear_constant", 0.0),
    ("cost-curve", "practical.schedule_constant", -4.0),
    # the feedback constant is always derived: an unknown key
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
    # the viscosity is fixed at 1: any "nu" is an unknown key
    ("constants", "nu", float("nan")),
    # the threshold tau_k needs 1 <= k <= M - 1, checked before the basis solve
    ("simulate", "experiment.lambda_index", 0),
    ("simulate", "experiment.lambda_index", BASE["M"]),
    # the run settings outside the experiment section
    ("eigen", "mode", "exact"),
    ("eigen", "M", 4),
    ("stabilize", "eps_zero", 0.0),
    ("simulate", "dt", 0.0),
    ("simulate", "dt", -1e-3),
])
def test_out_of_range_experiment_value_names_its_key(tmp_path, capsys, subcommand, key, value):
    path = write_config(tmp_path, overrides={key: value})
    assert main([subcommand, "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["key"] == key
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(("text", "message"), [
    (None, "cannot read config"),
    ('{"Lx": 1.0,', "invalid JSON"),
], ids=["unreadable", "malformed"])
def test_config_file_that_cannot_be_read_or_parsed_names_file(tmp_path, capsys, text, message):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    assert main(["eigen", "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["key"]) == ("ConfigError", "<file>")
    assert message in err["message"]


def test_failed_two_period_check_is_reported_not_raised(tmp_path):
    """At eps_zero = 1e-30 the state after two periods (relative norm near
    2e-27) is not null: stabilize still exits 0 and writes every artifact,
    with the verdict false in its report and in the summary."""
    path = write_config(tmp_path, eps_zero=1e-30)
    out = tmp_path / "out"
    assert main(["stabilize", "--config", str(path)]) == 0
    report = json.loads((out / "stabilize_report.json").read_text())
    assert report["two_period_ok"] is False
    assert all(residual > 1e-30 for residual in report["two_period_residuals"])
    # one trajectory per default start offset
    assert [entry["file"] for entry in report["trajectories"]] == [f"stabilize_trajectory_{i}.csv" for i in range(3)]
    for entry in report["trajectories"]:
        assert sha256_file(out / entry["file"]) == entry["sha256"]
    assert main(["report", "--config", str(path)]) == 0
    summary = (out / "summary.txt").read_text().splitlines()
    assert "  two_period_ok = False" in summary
    assert not [line for line in summary if "WARNING" in line]


def _csv_times(path):
    return np.array([float(row.split(",")[0]) for row in path.read_text().splitlines()[1:]])


def assert_intervals_match_oracle(path, config):
    """The interval_n column of a trajectory CSV is the oracle's interval at each row's time."""
    exp = config.experiment
    schedule = Schedule.dyadic(exp.n0, config.practical.schedule_constant, exp.n_max)
    interval_at = oracle.ScheduledFeedback(schedule).interval_at
    rows = [row.split(",") for row in path.read_text().splitlines()[1:]]
    assert [int(row[4]) for row in rows] == [interval_at(float(row[0])) for row in rows]


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
    each piece: every schedule time, and every s + jT, is a step time, no
    step exceeds dt, and every sample's interval is the oracle's."""
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
            assert_intervals_match_oracle(out / entry["file"], config)
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
        assert_intervals_match_oracle(out / report["trajectory"], config)


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


def test_certified_cost_curve_is_refused_before_any_solve(tmp_path, capsys):
    """No certified run is stepped, so the slope fit has no costs to fit."""
    path = write_config(tmp_path, mode="certified")
    assert main(["cost-curve", "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["key"] == "mode"
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
    # 16 / tau_4 is about 0.12, so a configured dt of 1e-9 plans about 1.2e8 steps
    done = _run_in_children(tmp_path, "simulate", {**json.loads(json.dumps(BASE)), "dt": 1e-9},
                            {"": {}}, timeout=60)[""]
    assert done.returncode == 1
    err = json.loads(done.stderr.strip().splitlines()[-1])
    assert err["error"] == "ConfigError"
    assert err["key"] == "dt"
    match = re.search(r"dt = (\S+) over the horizon (\S+) needs (\d+) steps, more than the budget of (\d+)",
                      err["message"])
    dt, horizon, steps, budget = (float(v) for v in match.groups())
    assert dt == 1e-9
    assert steps == pytest.approx(horizon / dt, rel=1e-3)
    assert steps > budget == MAX_STEPS


def test_certified_simulate_runs_in_1024_steps(tmp_path):
    """The certified gain at tau_4 is about 1.4e7, which the closed-loop
    exponential steps at the sample spacing: the default run takes 1024
    steps of (16 / tau_4) / 1024."""
    config = parse_config(write_config(tmp_path, overrides={"mode": "certified"}))
    assert run_subcommand("simulate", config) == 0
    report = json.loads((tmp_path / "out" / "simulate_report.json").read_text())
    assert report["constants"]["mode"] == "certified" and report["gain"] > 1e7
    assert report["health"]["steps"] == 1024
    assert report["horizon"] == 16.0 / report["threshold"] and report["dt"] == report["horizon"] / 1024
    assert 0.0 <= report["health"]["max_energy_defect"] <= 1e-10 * report["y0_norm"] ** 2


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


def test_report_warns_of_a_missing_trajectory_and_still_writes_the_summary(tmp_path):
    """A deleted CSV gets a WARNING line, as a missing basis cache does, and
    the other artifacts are still summarized."""
    config = parse_config(write_config(tmp_path))
    out = tmp_path / "out"
    for sub in ("simulate", "stabilize"):
        assert run_subcommand(sub, config) == 0
    (out / "simulate_trajectory.csv").unlink()
    (out / "stabilize_trajectory_2.csv").unlink()
    assert run_subcommand("report", config) == 0
    summary = (out / "summary.txt").read_text()
    warnings = [line for line in summary.splitlines() if "WARNING" in line]
    assert warnings == ["  WARNING: simulate_trajectory.csv is missing",
                        "  WARNING: stabilize_trajectory_2.csv is missing"]
    assert "  trajectory = stabilize_trajectory_1.csv (sha256:" in summary
    assert not (out / "report_plot.csv").exists()


def test_write_json_writes_numpy_values_as_their_python_values(tmp_path):
    """Arrays, numpy bool, int and float scalars and NaN write the text of
    the Python values they hold; an object json cannot write still raises."""
    values = {"floats": np.array([0.1, -2.5e-300, np.nan]), "flags": np.array([True, False]),
              "matrix": np.arange(4).reshape(2, 2), "bool": np.bool_(True), "int": np.int64(-7),
              "float": np.float64(1.0) / 3.0, "nan": np.float64("nan"), "empty": np.array([])}
    python = {"floats": [0.1, -2.5e-300, float("nan")], "flags": [True, False], "matrix": [[0, 1], [2, 3]],
              "bool": True, "int": -7, "float": 1.0 / 3.0, "nan": float("nan"), "empty": []}
    cli._write_json(tmp_path / "numpy.json", values)
    cli._write_json(tmp_path / "python.json", python)
    assert (tmp_path / "numpy.json").read_text() == (tmp_path / "python.json").read_text()
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        cli._write_json(tmp_path / "object.json", {"value": object()})


SCIPY_CHILD = """
import json, sys
from nsstab.cli import main
runs = [arg.split("=", 1) for arg in sys.argv[1:]]
codes = {name: main([name, "--config", config]) for name, config in runs}
loaded = {name: sorted(m for m in sys.modules if m == name or m.startswith(name + "."))
          for name in ("scipy", "numpy.ma")}
print(json.dumps({"codes": codes, **loaded}))
"""


def _run_scipy_child(runs):
    """Run (subcommand, config) pairs in order in one child process, which has
    not imported scipy through the tests; returns the exit codes and the scipy
    and numpy.ma modules it loaded."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import nsstab

    src = str(Path(nsstab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", SCIPY_CHILD, *(f"{name}={config}" for name, config in runs)],
                          env={**os.environ, "PYTHONPATH": src}, timeout=300, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_warm_runs_load_no_scipy(tmp_path):
    """A warm stabilize, simulate and cost-curve, and a warm certified fit-c1,
    constants and nullcontrol, never call scipy, so they must not import it
    (about 0.3 s and 300 modules per process), nor numpy.ma, which the first
    np.unique call imports (13 ms of a warm process).  Checked in a child
    process, since this one has both loaded by other tests."""
    cache = tmp_path / "basis_cache.nsstab"
    practical = write_config(tmp_path, cache_path=str(cache))
    assert run_subcommand("eigen", parse_config(practical)) == 0
    certified = tmp_path / "certified.json"
    certified.write_text(json.dumps({**json.loads(practical.read_text()), "mode": "certified",
                                     "output_dir": str(tmp_path / "certified")}))
    result = _run_scipy_child([*((name, practical) for name in ("stabilize", "simulate", "cost-curve")),
                               *((name, certified) for name in ("fit-c1", "constants", "nullcontrol"))])
    assert result["codes"] == {name: 0 for name in ("stabilize", "simulate", "cost-curve",
                                                    "fit-c1", "constants", "nullcontrol")}
    report = json.loads((tmp_path / "certified" / "nullcontrol_report.json").read_text())
    assert report["constants"]["mode"] == "certified"
    assert result["scipy"] == [] and result["numpy.ma"] == []


def test_cold_runs_load_no_scipy(tmp_path):
    """A cold eigen solves the basis with numpy alone, and the certified
    fit-c1, constants and nullcontrol after it build the tensor and the
    constant chain: none of them imports scipy or numpy.ma.  The eigen
    report records the solve."""
    certified = write_config(tmp_path, mode="certified")
    result = _run_scipy_child([(name, certified) for name in ("eigen", "fit-c1", "constants", "nullcontrol")])
    assert result["codes"] == {name: 0 for name in ("eigen", "fit-c1", "constants", "nullcontrol")}
    report = json.loads((tmp_path / "out" / "eigen_report.json").read_text())
    assert report["cache_hit"] is False and report["solve"]["lanczos_blocks"] > 0
    assert result["scipy"] == [] and result["numpy.ma"] == []


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
