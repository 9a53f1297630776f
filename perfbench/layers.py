"""Per-layer metrics of one traced round, from child results and run reports.

Times are summed over the processes of the round.  A span's self time is its
duration minus the durations of its direct child spans.  Trajectory steps are
counted from the reports (trajectories x span / dt), not from the stepper,
so the step count survives a rewrite of ``simulate``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

#: name -> unit, in the order of the per-layer metrics in the output
METRICS = {
    "cli.import_s": "s",
    "cli.config_s": "s",
    "cli.cache_write_s": "s",
    "cli.cache_mb": "MB",
    "cli.cache_read_s": "s",
    "cli.cache_hits": "count",
    "cli.csv_write_s": "s",
    "cli.csv_rows": "count",
    "cli.csv_mb": "MB",
    "cli.subcommand_s": "s",
    "spectral.assemble_s": "s",
    "spectral.operator_mb": "MB",
    "spectral.eigensolve_s": "s",
    "spectral.eigensolves": "count",
    "spectral.gram_s": "s",
    "spectral.fit_s": "s",
    "constants.chain_s": "s",
    "constants.c0_estimate_s": "s",
    "constants.schedule_s": "s",
    "constants.law_evals_per_step": "1/step",
    "constants.interval_lookups_per_step": "1/step",
    "dynamics.tensor_s": "s",
    "dynamics.tensor_mb": "MB",
    "dynamics.traj_steps": "count",
    "dynamics.simulate_s": "s",
    "dynamics.us_per_traj_step": "us",
    "experiments.run_s": "s",
    "experiments.self_s": "s",
}

#: span name -> metric holding its summed duration
SPAN_METRICS = {
    "cli.cache_write": "cli.cache_write_s",
    "cli.cache_read": "cli.cache_read_s",
    "cli.csv_write": "cli.csv_write_s",
    "spectral.assemble": "spectral.assemble_s",
    "spectral.eigensolve": "spectral.eigensolve_s",
    "spectral.gram": "spectral.gram_s",
    "spectral.fit": "spectral.fit_s",
    "constants.chain": "constants.chain_s",
    "constants.c0_estimate": "constants.c0_estimate_s",
    "constants.schedule": "constants.schedule_s",
    "dynamics.tensor": "dynamics.tensor_s",
    "dynamics.simulate": "dynamics.simulate_s",
    "experiments.run": "experiments.run_s",
}

#: computed array size -> metric holding its largest value in the round
PEAK_METRICS = {"operator_mb": "spectral.operator_mb", "tensor_mb": "dynamics.tensor_mb"}


def trajectory_steps(out: Path) -> int:
    """Closed-loop steps the round's reports account for."""
    steps = 0

    def load(name):
        path = out / name
        return json.loads(path.read_text()) if path.is_file() else None

    if (r := load("stabilize_report.json")) is not None:
        runs = len(r["offsets"]) * (1 + len(r["eta_grid"]))
        steps += runs * round(r["config"]["experiment"]["periods"] * r["T"] / r["dt"])
    if (r := load("cost_curve_report.json")) is not None:
        steps += sum(round(run["T"] / run["dt"]) for run in r["runs"] if "dt" in run)
    if (r := load("nullcontrol_report.json")) is not None and "dt" in r:
        steps += round(r["T"] / r["dt"])
    if (r := load("simulate_report.json")) is not None:
        steps += (2 if "cutoff_trajectory" in r else 1) * round(r["horizon"] / r["dt"])
    return steps


def span_times(spans: list) -> tuple[dict, dict, dict]:
    """Summed duration, summed self time and call count per span name."""
    total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    children = defaultdict(float)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent] += end - start
    for index, (name, start, end, _) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - children[index]
        calls[name] += 1
    return total, own, calls


def round_metrics(results: list[dict], out: Path) -> dict:
    """Per-layer metrics of one round from its child results."""
    m = dict.fromkeys(METRICS, 0.0)
    for res in results:
        m["cli.import_s"] += res["import"][1] - res["import"][0]
        m["cli.config_s"] += res["config"][1] - res["config"][0]
        m["cli.subcommand_s"] += res["subcommand"][1] - res["subcommand"][0]
        total, own, calls = span_times(res["spans"])
        for span, metric in SPAN_METRICS.items():
            m[metric] += total.get(span, 0.0)
        m["experiments.self_s"] += own.get("experiments.run", 0.0)
        m["spectral.eigensolves"] += calls.get("spectral.eigensolve", 0)
        m["cli.cache_hits"] += res["counts"].get("cache_hits", 0)
        m["cli.csv_rows"] += res["counts"].get("csv_rows", 0)
        m["cli.cache_mb"] += res["sizes"].get("cache_mb", 0.0)
        m["cli.csv_mb"] += res["sizes"].get("csv_mb", 0.0)
        for key, metric in PEAK_METRICS.items():
            m[metric] = max(m[metric], res["peaks"].get(key, 0.0))
        m["constants.law_evals_per_step"] += res["counts"].get("law_evals", 0)
        m["constants.interval_lookups_per_step"] += res["counts"].get("interval_lookups", 0)
    steps = trajectory_steps(out)
    m["dynamics.traj_steps"] = steps
    if steps:
        m["constants.law_evals_per_step"] /= steps
        m["constants.interval_lookups_per_step"] /= steps
        m["dynamics.us_per_traj_step"] = m["experiments.run_s"] / steps * 1e6
    else:
        m["constants.law_evals_per_step"] = m["constants.interval_lookups_per_step"] = 0.0
    return m
