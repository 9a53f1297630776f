"""The three benchmark workloads: their configs and their subcommands.

The workload seed becomes the config ``seed`` and nothing else: it picks the
initial states of the stepping runs and the random triples of the trilinear
constant estimate.  Grids, packs and schedules are fixed per workload.
"""

from __future__ import annotations

from dataclasses import dataclass

#: the unit square with the control window used throughout the test suite
DOMAIN = {"Lx": 1.0, "Ly": 1.0, "omega": [0.6, 0.9, 0.1, 0.4]}

#: the acceptance-8 practical pack: small spectral constant, q = 4
SCHEDULE_PACK = {"spectral_constant": 0.02, "trilinear_constant": 1.0, "schedule_constant": 4.0}

#: the acceptance-4 practical pack for the stationary law (q derived)
RAPID_PACK = {"spectral_constant": 0.6, "trilinear_constant": 1.0, "schedule_constant": None}


@dataclass(frozen=True)
class Workload:
    """One timed round is ``commands`` run in order, one process each.

    ``warm`` workloads get their basis cache from an untimed ``eigen`` run
    before the first round; the others start every round from an empty
    output directory, so their first command solves for the basis.
    """

    name: str
    commands: tuple[tuple[str, dict], ...]  # (subcommand, config overrides)
    base: dict
    warm: bool

    def config(self, seed: int, *overrides: dict) -> dict:
        """The run config; each override replaces keys, one level deep for sections."""
        cfg = {**DOMAIN, **self.base, "seed": seed, "output_dir": "out"}
        if self.warm:
            cfg["cache_path"] = "../basis_cache.nsstab"
        for override in overrides:
            for key, value in override.items():
                cfg[key] = {**cfg.get(key, {}), **value} if isinstance(value, dict) else value
        return cfg


COLD_BASIS = Workload(
    name="cold-basis",
    base={"nx": 64, "ny": 64, "M": 24, "mode": "certified", "eps_zero": 1e-8},
    commands=(("eigen", {}), ("fit-c1", {}), ("constants", {}), ("nullcontrol", {})),
    warm=False,
)

SMALL_TIME = Workload(
    name="small-time",
    base={
        "nx": 32, "ny": 32, "M": 24, "mode": "practical", "eps_zero": 1e-8,
        "practical": SCHEDULE_PACK,
        "experiment": {
            "n0": 1, "n_max": 8, "y0_norm": 1e-3,
            "offsets": [0.0, 1.0 / 3.0, 0.9], "periods": 2,
        },
    },
    commands=(("stabilize", {}),),
    warm=True,
)

WIDE_MODES = Workload(
    name="wide-modes",
    base={
        "nx": 32, "ny": 32, "M": 64, "mode": "practical", "eps_zero": 1e-8,
        "practical": SCHEDULE_PACK,
        "experiment": {"n0_list": [1, 2, 3], "n_max": 8, "y0_norm": 1e-3},
    },
    commands=(
        ("cost-curve", {}),
        ("simulate", {
            "practical": RAPID_PACK,
            "experiment": {"lambda_index": 4, "cutoff": True, "horizon": 1.0 / 32.0},
        }),
    ),
    warm=True,
)

WORKLOADS = {w.name: w for w in (COLD_BASIS, SMALL_TIME, WIDE_MODES)}
