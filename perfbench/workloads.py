"""The benchmark's workloads: one pinchnet experiment config each.

Every workload is a figure a user reproduces with one `pinchnet` run.
Simulations always run with `sim.workers: 1`, and the workload seed goes
into `sim.seed` and nowhere else.  Sample sizes are kept small so that
several runs fit into one measurement window (see README.md).
"""

from __future__ import annotations

import copy

_DBM_0_TO_30_BY_5 = [f"{p} dBm" for p in range(0, 31, 5)]

# README rate-figure geometry
_RATE_PARAMS = {"lambda": 1.0e-5, "R": 100.0, "L": 100.0, "H": 4.0,
                "alpha_N": 4.0, "beta": 0.01, "P": "30 dBm"}

WORKLOADS = {
    # README accuracy figure: compare mode at the default outage geometry.
    # The simulator does ~90 % of the work at ~79 interferers per
    # realization, so per-realization overhead dominates.  10^4
    # realizations put 3 SE below the 0.01 agreement floor at 0 dBm.
    "outage_figure": {
        "mode": "compare",
        "sim": {"n_realizations": 10_000, "R_sim": 5000.0, "workers": 1},
        "sweep": {"parameter": "P", "values": _DBM_0_TO_30_BY_5},
    },
    # README rate figure over Np in {1, 3, 11} at the doubled truncation
    # radius of criterion 9 (~283 interferers per realization).  The only
    # workload that reaches the rate integral; Np=1 takes the radial path.
    "rate_figure": {
        "mode": "rate",
        "params": _RATE_PARAMS,
        "sim": {"n_realizations": 4000, "R_sim": 3000.0, "workers": 1},
        "sweep": {"parameter": "Np", "values": [1, 3, 11]},
    },
    # Analysis only, build-heavy: every point has a new noise term, so both
    # coverage tables are rebuilt before the strip average and both bounds.
    # Draws no random numbers.
    "bounds_sweep": {
        "mode": "bounds",
        "params": {"Np": 51},
        "sim": {"workers": 1},
        "sweep": {"parameter": "P",
                  "values": [f"{p} dBm" for p in range(0, 31)]},
    },
}

# Sweep values kept at toy size (harness smoke test).
_TOY_POINTS = 2
_TOY_REALIZATIONS = 200


def config(name: str, seed: int, toy: bool = False) -> dict:
    """The experiment config of workload `name` with the seed applied."""
    cfg = copy.deepcopy(WORKLOADS[name])
    cfg["sim"]["seed"] = seed
    if toy:
        cfg["sweep"]["values"] = cfg["sweep"]["values"][:_TOY_POINTS]
        if "n_realizations" in cfg["sim"]:
            cfg["sim"]["n_realizations"] = _TOY_REALIZATIONS
    return cfg
