"""The benchmark's workloads and the correctness checks of their outputs.

Each workload is one seeded scenario. The seed picks the run seed and, for
the urban workload, the generated trace and buildings; the simulated span
and the scenario size are fixed, so every seed asks for the same work.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

RING = dict(scenario="highway", highway_length_m=4000.0, highway_vehicles=495,
            allocation="mode4", mcs=7, awareness_m=200.0)


@dataclass(frozen=True)
class Workload:
    kind: str            # "simulate" (engine run + CSVs) or "hidden-node"
    duration_s: float    # simulated span; must exceed the 2.5 s warm-up
    scenario: dict
    bands: dict = field(default_factory=dict)  # stat -> (low, high), inclusive
    urban: bool = False


# Bands hold for any seed. They were set from seeds 100-111 with a margin of
# at least five standard deviations of that spread, so only a broken
# simulator leaves them. Seen there: ring PRR 0.905-0.925, 48.7-50.3
# neighbours; highway PRR 0.904-0.918, 50.0-50.8; urban PRR 0.76-0.92 (few
# samples, hence the wide band), 3.3-3.9; hidden-node 0.220-0.228.
WORKLOADS = {
    "ring-495": Workload(
        "simulate", 6.0, RING,
        bands={"pooled_prr": (0.88, 0.95), "mean_neighbors": (45.0, 53.0)}),
    "highway-2015": Workload(
        "simulate", 2.6,
        dict(RING, highway_length_m=16000.0, highway_vehicles=2015),
        bands={"pooled_prr": (0.87, 0.95), "mean_neighbors": (45.0, 55.0)}),
    "urban-obstacles": Workload(
        "simulate", 3.2,
        dict(scenario="trace", allocation="mode4", mcs=4, awareness_m=100.0,
             decorr_dist_m=10.0),
        bands={"pooled_prr": (0.60, 1.0), "mean_neighbors": (2.5, 5.0)},
        urban=True),
    "hidden-node-495": Workload(
        "hidden-node", 3.0, RING,
        bands={"hidden_node_probability": (0.19, 0.26)}),
}


def config_kwargs(name: str, seed: int, inputs: tuple[str, str] | None = None) -> dict:
    """RunConfig keyword arguments of workload `name` under `seed`."""
    w = WORKLOADS[name]
    kwargs = dict(w.scenario, duration_s=w.duration_s, seed=int(seed))
    if w.urban:
        kwargs["trace"], kwargs["obstacle_map"] = inputs
    return kwargs


def check(name: str, stats: dict) -> list[str]:
    """Failed checks of one run's statistics; empty when the run is correct.

    Simulated statistics are checked against the workload's bands, and a
    simulate run must leave a non-empty hold-time histogram. The half-duplex
    counter is not checked: it cannot be non-zero with the current engine.
    """
    w = WORKLOADS[name]
    failures = []
    for key, (low, high) in w.bands.items():
        value = stats.get(key)
        if value is None or not (isinstance(value, (int, float)) and math.isfinite(value)
                                 and low <= value <= high):
            failures.append(f"{key}={value} outside [{low}, {high}]")
    if w.kind == "simulate" and not stats.get("hold_rows", 0) > 0:
        failures.append("empty hold-time histogram")
    return failures
