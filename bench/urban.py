"""Seeded Manhattan-grid inputs for the urban-obstacles workload.

A square street grid with one building footprint in every block between
the streets. Vehicles drive along the streets at city speeds, turning at
intersections. A fixed number of vehicles is on the grid at any time, but
some of them leave during the run and a new vehicle (a fresh id) enters
somewhere else, so the engine's presence-churn path runs. The same seed
gives byte-identical files.
"""
from __future__ import annotations

import math
import os

import numpy as np

STREET_SPACING_M = 110.0
STREETS = 5                # lines per axis, so (STREETS - 1)^2 = 16 blocks
INSET_M = (8.0, 14.0)      # building setback from each street centre line
LIVE_VEHICLES = 50
HANDOVERS = 16             # vehicles that leave mid-run and are replaced
SPEED_MPS = (8.0, 14.0)
P_STRAIGHT = 0.7
RECORD_DT_S = 0.2          # trace record spacing (the engine interpolates)
MOVE_DT_S = 0.1
GRID_LEN_M = STREET_SPACING_M * (STREETS - 1)


def buildings(rng):
    """One rectangle per block, each side set back by a random inset."""
    polys = []
    s = STREET_SPACING_M
    for i in range(STREETS - 1):
        for j in range(STREETS - 1):
            left, right, bottom, top = rng.uniform(*INSET_M, size=4)
            x0, x1 = i * s + left, (i + 1) * s - right
            y0, y1 = j * s + bottom, (j + 1) * s - top
            polys.append([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])
    return polys


def _spawn(slot, rng):
    """Start position of the vehicle in `slot`.

    Slots are spread evenly over the streets and along them, so the share
    of blocked pairs, and with it the LOS work, varies little between
    seeds.
    """
    lines = 2 * STREETS
    street = float(slot % STREETS) * STREET_SPACING_M
    per_line = -(-LIVE_VEHICLES // lines)
    along = (slot // lines + float(rng.random())) / per_line * GRID_LEN_M
    sign = 1.0 if (slot // lines) % 2 == 0 else -1.0
    if slot % lines < STREETS:
        return [along, street, sign, 0.0]      # x, y, heading x, heading y
    return [street, along, 0.0, sign]


def _turn(state, rng):
    """Pick the way out of an intersection, staying on the grid."""
    x, y, hx, hy = state
    ways = [(hx, hy), (-hy, hx), (hy, -hx)]   # straight, left, right
    ok = [(a, b) for a, b in ways
          if 0.0 <= x + a * STREET_SPACING_M <= GRID_LEN_M
          and 0.0 <= y + b * STREET_SPACING_M <= GRID_LEN_M]
    if not ok:
        return -hx, -hy
    if ok[0] == (hx, hy) and (len(ok) == 1 or rng.random() < P_STRAIGHT):
        return ok[0]
    turns = [w for w in ok if w != (hx, hy)]
    return turns[int(rng.integers(len(turns)))]


def _advance(state, dist, rng):
    s = STREET_SPACING_M
    while dist > 1e-9:
        axis = 0 if state[2] else 1
        coord, sign = state[axis], state[2 + axis]
        nxt = (math.floor(coord / s) + 1) * s if sign > 0 else (math.ceil(coord / s) - 1) * s
        gap = abs(nxt - coord)
        if gap > dist:
            state[axis] = coord + sign * dist
            return
        state[axis] = nxt
        dist -= gap
        state[2], state[3] = _turn(state, rng)


def vehicle_records(rng, duration_s):
    """(time_s, vehicle_id, x, y) rows for the whole run."""
    n_records = int(round(duration_s / RECORD_DT_S))
    steps_per_record = int(round(RECORD_DT_S / MOVE_DT_S))
    # Handover instants lie on the record lattice, away from both ends.
    handover_at = {}
    slots = rng.permutation(LIVE_VEHICLES)[:HANDOVERS]
    for slot in slots:
        handover_at[int(slot)] = int(rng.integers(2, n_records - 1))
    rows = []
    next_id = 1000
    for slot in range(LIVE_VEHICLES):
        lives = [(0, handover_at.get(slot, n_records))]
        if slot in handover_at:
            lives.append((handover_at[slot] + 1, n_records))
        for first, last in lives:
            vid, next_id = next_id, next_id + 1
            state = _spawn(slot, rng)
            speed = float(rng.uniform(*SPEED_MPS))
            for k in range(first, last + 1):
                if k > first:
                    for _ in range(steps_per_record):
                        _advance(state, speed * MOVE_DT_S, rng)
                rows.append((k, vid, state[0], state[1]))
    rows.sort()
    return [(k * RECORD_DT_S, vid, x, y) for k, vid, x, y in rows]


def write_inputs(seed: int, duration_s: float, outdir: str):
    """Write trace.csv and buildings.txt for `seed`; returns both paths."""
    rng = np.random.default_rng([int(seed), 0x75726261])
    polys = buildings(rng)
    rows = vehicle_records(rng, duration_s)
    os.makedirs(outdir, exist_ok=True)
    trace_path = os.path.join(outdir, "trace.csv")
    with open(trace_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time_s,vehicle_id,x_m,y_m\n")
        for t, vid, x, y in rows:
            fh.write(f"{t:.1f},{vid},{x:.2f},{y:.2f}\n")
    obstacle_path = os.path.join(outdir, "buildings.txt")
    with open(obstacle_path, "w", encoding="utf-8", newline="\n") as fh:
        for poly in polys:
            fh.write(",".join(f"{x:.2f},{y:.2f}" for x, y in poly) + "\n")
    return trace_path, obstacle_path
