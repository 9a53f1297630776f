#!/usr/bin/env python3
"""End-to-end benchmark of the nsstab command-line pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory.  A round runs the workload's subcommands in order, each in
its own process as ``nsstab SUBCOMMAND --config FILE`` would, then checks
every artifact the round wrote (see ``checks.py``).  Each round runs as one
replica per CPU (at most ``REPLICAS``), every replica pinned to its own CPU
with its own output directory.  Rounds repeat while the next one still fits
in S seconds.  The last line of standard output is one JSON object: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of ``layers.py``, from processes whose layer functions are wrapped to
record spans.  Each metric is the median over the replicas of all rounds.

End-to-end metrics, all lower-is-better:

* ``wall_s``: launch of the first process of a replica to exit of its last.
* ``setup_s``: per process, launch until ``nsstab.cli`` is imported and the
  config parsed, summed over the workload's processes; taken as the process
  count times the median over every process of the run.
* ``peak_rss_mb``: the largest peak resident set of any process of a replica.

Every process gets ``BLAS_THREADS`` BLAS/OpenMP threads through its
environment, and reports the count the loaded BLAS libraries use.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

#: one thread: the dense eigensolve and the basis orientation depend on the
#: count, and small-M stepping runs slower with two threads than with one
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: replicas of each round, one per CPU, run side by side: a lone process on
#: this kind of shared host swings between a fast and a slow state as other
#: tenants come and go, while with every CPU busy the speed holds steadier
REPLICAS = 2

#: the whole run, set-up included, ends within this many seconds
DEADLINE_S = 170.0


class Deadline(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    return env


def start(sub: str, cwd: Path, cpu: int, trace: bool = False) -> dict:
    """Launch the child for one subcommand, pinned to one CPU."""
    argv = [sys.executable, str(HERE / "child.py"), "--src", str(SRC),
            "--result", f"{sub}.result.json"] + ["--trace"] * trace + [sub, f"{sub}.config.json"]
    with open(cwd / f"{sub}.log", "wb") as log:
        launched = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
    try:
        os.sched_setaffinity(proc.pid, {cpu})
    except ProcessLookupError:  # already gone; finish() reports its exit status
        pass
    return {"sub": sub, "cwd": cwd, "proc": proc, "launched": launched}


def finish(job: dict, status: int, usage) -> dict:
    """Record of a reaped child: exit status, clock readings, peak RSS."""
    ended = time.monotonic()
    proc, cwd, sub = job["proc"], job["cwd"], job["sub"]
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {"sub": sub, "status": proc.returncode, "launched": job["launched"], "ended": ended,
              "rss_mb": usage.ru_maxrss * 1024 / 1e6}
    if proc.returncode == 0:
        record.update(json.loads((cwd / f"{sub}.result.json").read_text()))
        record["setup_s"] = record["config"][1] - job["launched"]
    else:
        record["log"] = (cwd / f"{sub}.log").read_text(errors="replace")[-2000:]
    return record


def run_replicas(subs: list[str], dirs: dict, trace: bool = False) -> dict:
    """Run subs in order in every directory of {cpu: dir} at once; {cpu: records}."""
    queues = {cpu: list(subs) for cpu in dirs}
    records = {cpu: [] for cpu in dirs}
    running = {}

    def launch_next(cpu):
        job = start(queues[cpu].pop(0), dirs[cpu], cpu, trace)
        running[job["proc"].pid] = (cpu, job)

    try:
        for cpu in dirs:
            launch_next(cpu)
        while running:
            pid, status, usage = os.wait4(-1, 0)
            cpu, job = running.pop(pid)
            records[cpu].append(finish(job, status, usage))
            if queues[cpu]:
                launch_next(cpu)
    except Deadline:
        for _, job in running.values():
            job["proc"].kill()
            job["proc"].wait()
        raise
    return records


def write_configs(workload, seed: int, cwd: Path) -> dict:
    """One config file per subcommand; returns {subcommand: config}."""
    cfgs = {}
    for sub, overrides in workload.commands:
        cfgs[sub] = workload.config(seed, overrides)
        (cwd / f"{sub}.config.json").write_text(json.dumps(cfgs[sub], indent=1))
    return cfgs


def warm_cache(workload, seed: int, run_dir: Path, cpus: list[int]) -> None:
    """Untimed: give every replica the basis cache its config points at."""
    prep = run_dir / "prep"
    prep.mkdir()
    cfg = workload.config(seed)
    (prep / "eigen.config.json").write_text(json.dumps(cfg))
    (rec,) = run_replicas(["eigen"], {cpus[0]: prep})[cpus[0]]
    if rec["status"] != 0:
        raise RuntimeError(f"warming the basis cache failed:\n{rec['log']}")
    for cpu in cpus:
        # rounds run in <run_dir>/cpu<N>/round<k>
        shutil.copyfile(prep / cfg["cache_path"], os.path.normpath(run_dir / f"cpu{cpu}" / "round0" / cfg["cache_path"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nsstab" / "cli.py").is_file():
        print(f"no nsstab sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import checks
    import layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    subs = [sub for sub, _ in workload.commands]
    check = checks.CHECKS[workload.name]

    def expire(signum, frame):
        raise Deadline()

    signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)

    cpus = sorted(os.sched_getaffinity(0))[:REPLICAS]
    run_dir = RUNS / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    for cpu in cpus:
        (run_dir / f"cpu{cpu}").mkdir(parents=True)
    print(f"workload {workload.name}: seed {args.seed}, replicas on CPUs {cpus}, "
          f"{BLAS_THREADS} BLAS thread(s) each, trace {args.trace}", flush=True)
    if workload.warm:
        warm_cache(workload, args.seed, run_dir, cpus)

    samples, setups, attempted, failed, correct = [], [], 0, 0, True
    t0 = time.monotonic()
    longest = 0.0
    k = 0
    while k == 0 or time.monotonic() - t0 + longest <= args.seconds:
        started = time.monotonic()
        dirs = {cpu: run_dir / f"cpu{cpu}" / f"round{k}" for cpu in cpus}
        cfgs = {}
        for cpu, cwd in dirs.items():
            cwd.mkdir()
            cfgs[cpu] = write_configs(workload, args.seed, cwd)
        for cpu, records in run_replicas(subs, dirs, bool(args.trace)).items():
            attempted += len(records)
            bad = [r for r in records if r["status"] != 0]
            failed += len(bad)
            for r in bad:
                print(f"round {k} cpu {cpu}: {r['sub']} exited with {r['status']}:\n{r['log']}", file=sys.stderr)
            if bad:
                continue
            try:
                check(dirs[cpu] / "out", cfgs[cpu])
            except checks.CheckFailed as exc:
                correct = False
                print(f"round {k} cpu {cpu}: check failed: {exc}", file=sys.stderr)
            setups += [r["setup_s"] for r in records]
            samples.append({
                "wall_s": records[-1]["ended"] - records[0]["launched"],
                "peak_rss_mb": max(r["rss_mb"] for r in records),
                "layers": layers.round_metrics(records, dirs[cpu] / "out") if args.trace else None,
            })
            missing = sorted({name for r in records for name in r.get("missing", [])})
            if missing:
                print(f"round {k} cpu {cpu}: not traced, no longer in the program: {missing}", flush=True)
            threads = sorted({n for r in records for n in r["blas_threads"].values()})
            print(f"round {k} cpu {cpu}: wall {samples[-1]['wall_s']:.3f} s, set-up "
                  f"{sum(r['setup_s'] for r in records):.3f} s, peak rss "
                  f"{samples[-1]['peak_rss_mb']:.1f} MB, blas threads in use {threads}", flush=True)
        if k > 0:
            for cpu in cpus:
                shutil.rmtree(run_dir / f"cpu{cpu}" / f"round{k - 1}")
        longest = max(longest, time.monotonic() - started)
        k += 1
    signal.setitimer(signal.ITIMER_REAL, 0)

    if not samples:
        print("no replica completed its round", file=sys.stderr)
        return 1
    if args.trace:
        metrics = {
            name: {"value": statistics.median(s["layers"][name] for s in samples), "unit": unit}
            for name, unit in layers.METRICS.items()
        }
    else:
        metrics = {
            "wall_s": {"value": statistics.median(s["wall_s"] for s in samples), "unit": "s"},
            "setup_s": {"value": len(subs) * statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(s["peak_rss_mb"] for s in samples), "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
