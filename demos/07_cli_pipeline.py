#!/usr/bin/env python3
"""The reproducible pipeline: one config file, subcommands, hashed artifacts.

Every run is driven by a single JSON configuration (no positional numeric
arguments).  The eigenbasis is cached in a checksummed binary file keyed by
the grid signature, trajectories land in a fixed CSV schema printed with 17
significant digits, and every report embeds the config snapshot, the
constant pack with provenance, and content hashes of its inputs.

The same subcommands are available on the command line as
``nsstab <subcommand> --config <file>``.
"""

import json
import tempfile
from pathlib import Path

from nsstab.cli import parse_config, run_subcommand

with tempfile.TemporaryDirectory(prefix="nsstab_demo_") as tmp:
    workdir = Path(tmp)
    config_path = workdir / "run.json"
    config_path.write_text(json.dumps({
        "Lx": 1.0, "Ly": 1.0, "nx": 24, "ny": 24,
        "omega": [0.6, 0.9, 0.1, 0.4],
        "M": 16,
        "mode": "practical",
        "seed": 5,
        "output_dir": str(workdir / "out"),
        "practical": {
            "spectral_constant": 0.02,
            "trilinear_constant": 1.0,
            "schedule_constant": 4.0,
        },
        "experiment": {"lambda_index": 4, "n0": 1, "n_max": 6, "y0_norm": 1e-3},
    }, indent=2))

    config = parse_config(config_path)
    print(f"config: {config_path}")

    for name in ("eigen", "eigen", "fit-c1", "constants", "nullcontrol", "report"):
        status = run_subcommand(name, config)
        print(f"  ran {name:12s} -> exit {status}")

    out = Path(config.output_dir)
    print("\nartifacts:")
    for path in sorted(out.iterdir()):
        print(f"  {path.name}  ({path.stat().st_size} bytes)")

    eigen = json.loads((out / "eigen_report.json").read_text())
    print(f"\nsecond eigen run was a cache hit: {eigen['cache_hit']}")

    null = json.loads((out / "nullcontrol_report.json").read_text())
    print(f"nullcontrol consumed cache {null['inputs']['cache'][:23]}...")
    print(f"trajectory hash: {null['trajectory_sha256'][:23]}...")
    print(f"constants provenance: {null['constants']['provenance']}")

    print("\nsummary.txt:")
    print((out / "summary.txt").read_text())
