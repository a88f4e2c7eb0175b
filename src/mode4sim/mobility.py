"""Vehicle positions per beacon period: trace ingestion and a synthetic
multi-lane ring highway.

Highway vehicles keep a constant per-vehicle speed drawn from a per-lane
truncated Gaussian; positions wrap modulo the road length, which keeps the
linear density (and so the neighbor statistics) stationary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # config imports this module for the lane count
    from .config import RunConfig

KMH = 1000.0 / 3600.0
# Highway lanes: mean speed per lane from the outer (slowest) lane inwards,
# the spread of each vehicle's speed around its lane mean, and lane width.
LANE_SPEEDS_MPS = (70 * KMH, 90 * KMH, 110 * KMH)
SPEED_SIGMA_FRAC = 0.1
LANE_WIDTH_M = 4.0


class TraceError(ValueError):
    pass


def _trace_lines(path):
    """(line number, stripped text) of each line that is neither blank nor a
    comment; a file that cannot be read as text raises TraceError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if line and not line.startswith("#"):
                    yield lineno, line
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc


def _parse_trace(path) -> dict[int, np.ndarray]:
    """Trace file -> per vehicle id, its (t, x, y) records as a (k, 3) array.

    The first line that is neither blank nor a comment may be a header."""
    by_vehicle: dict[int, list] = {}
    n_records = 0
    for k, (lineno, line) in enumerate(_trace_lines(path)):
        parts = line.split(",")
        if k == 0 and not _is_number(parts[0]):
            continue  # optional header
        if len(parts) != 4:
            raise TraceError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
        try:
            t, vid = float(parts[0]), float(parts[1])
            x, y = float(parts[2]), float(parts[3])
        except ValueError as exc:
            raise TraceError(f"{path}:{lineno}: {exc}") from exc
        if not vid.is_integer():
            raise TraceError(f"{path}:{lineno}: vehicle id {parts[1].strip()} "
                             "is not an integer")
        if not (math.isfinite(t) and math.isfinite(x) and math.isfinite(y)):
            raise TraceError(f"{path}:{lineno}: non-finite value")
        by_vehicle.setdefault(int(vid), []).append((t, x, y))
        n_records += 1
    if n_records == 0:
        raise TraceError(f"{path}: empty trace")
    records = {vid: np.array(rows) for vid, rows in by_vehicle.items()}
    for vid, rec in records.items():
        if (rec[1:, 0] < rec[:-1, 0]).any():
            raise TraceError(f"vehicle {vid}: timestamps decrease")
    return records


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def load_trace(path, beacon_period_ms: int,
               max_gap_s: float) -> tuple[np.ndarray, np.ndarray]:
    """Trace file -> (ids, positions) at beacon-period granularity.

    `ids` are the vehicles present at one or more instants, ascending.
    `positions` has shape (n_periods, len(ids), 2): `positions[p, k]` is
    where vehicle `ids[k]` is at instant p, p beacon periods after the first
    record, and NaN when it is absent then. Positions are interpolated
    linearly between bracketing records; a vehicle is absent at a sample
    instant when no bracketing pair exists or the pair is more than
    max_gap_s apart (a leave/rejoin gap). A vehicle's last record counts
    only at an instant it falls on exactly, and of several records with one
    timestamp the last one holds from that instant on.
    """
    by_vehicle = _parse_trace(path)
    t_start = min(rec[0, 0] for rec in by_vehicle.values())
    t_end = max(rec[-1, 0] for rec in by_vehicle.values())
    step = beacon_period_ms / 1000.0
    n_steps = int(np.floor((t_end - t_start) / step)) + 1
    instants = t_start + np.arange(n_steps) * step
    ids, ks, pos = [], [], []
    for vid in sorted(by_vehicle):
        rec = by_vehicle[vid]
        times, xy = rec[:, 0], rec[:, 1:]
        # Instants from the first record to the last one, inclusive.
        k = np.arange(np.searchsorted(instants, times[0], side="left"),
                      np.searchsorted(instants, times[-1], side="right"))
        t = instants[k]
        # times[j - 1] <= t < times[j]; j == len(times) only where t is the
        # last record's time, which then stands as it is.
        j = np.searchsorted(times, t, side="right")
        inner = j < len(times)
        lo, hi = j - 1, np.minimum(j, len(times) - 1)
        span = times[hi] - times[lo]
        keep = ~(inner & (span > max_gap_s) & (times[lo] != t))
        if not keep.any():
            continue
        with np.errstate(invalid="ignore"):  # 0/0 at the last record, unused
            frac = (t - times[lo]) / span
        at = np.where(inner[:, None],
                      xy[lo] + frac[:, None] * (xy[hi] - xy[lo]), xy[lo])
        ids.append(vid)
        ks.append(k[keep])
        pos.append(at[keep])
    positions = np.full((n_steps, len(ids), 2), np.nan)
    for row, (k, at) in enumerate(zip(ks, pos)):
        positions[k, row] = at
    return np.asarray(ids, dtype=int), positions


# ---------------------------------------------------------------------------
# Synthetic highway
# ---------------------------------------------------------------------------

@dataclass
class HighwayState:
    x: np.ndarray
    y: np.ndarray
    speed: np.ndarray  # signed, direction baked in


def _truncated_normal(rng, mean, sigma, n):
    mean = np.broadcast_to(np.asarray(mean, dtype=float), (n,))
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), (n,))
    vals = rng.normal(mean, sigma, size=n)
    for _ in range(16):
        bad = np.abs(vals - mean) > 3 * sigma
        if not bad.any():
            break
        vals[bad] = rng.normal(mean[bad], sigma[bad])
    return np.clip(vals, mean - 3 * sigma, mean + 3 * sigma)


def spawn_highway(cfg: RunConfig, rng: np.random.Generator) -> HighwayState:
    """Uniform placement along each lane at the configured total density."""
    n = cfg.highway_vehicles
    lanes = 2 * cfg.lanes_per_direction
    lane_of = np.arange(n) % lanes
    direction = np.where(lane_of < cfg.lanes_per_direction, 1.0, -1.0)
    lane_rank = np.where(lane_of < cfg.lanes_per_direction,
                         lane_of, lane_of - cfg.lanes_per_direction)
    # Outer lane (rank 0) slowest; y offsets mirror across the median.
    y = direction * (0.5 + lane_rank) * LANE_WIDTH_M
    mean = np.asarray(LANE_SPEEDS_MPS)[lane_rank.astype(int)]
    speed = _truncated_normal(rng, mean, SPEED_SIGMA_FRAC * mean, n) * direction
    x = rng.uniform(0.0, cfg.highway_length_m, size=n)
    return HighwayState(x=x, y=y, speed=speed)


def step_highway(cfg: RunConfig, state: HighwayState, dt_s: float):
    """Advance positions by dt, wrapping around the ring."""
    if dt_s <= 0:
        raise ValueError("dt must be positive")
    state.x = np.mod(state.x + state.speed * dt_s, cfg.highway_length_m)
