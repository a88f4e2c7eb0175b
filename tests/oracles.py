"""Scalar reference implementations, kept as test oracles.

The simulator works on row-indexed arrays only. The functions here compute
the same quantities one link, one vehicle or one resource at a time, from a
per-instant `ScenarioSnapshot`, so tests can check the array paths against
code that follows the definitions literally. No module of the simulator
imports this one; `test_reference.py` enforces that.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from mode4sim.channel import ChannelRealization, dbm_to_mw, rx_power_dbm, shadow_sigma_db
from mode4sim.config import RunConfig
from mode4sim.phy import ibe_factor


def mw_to_dbm(mw):
    return 10.0 * np.log10(mw)


# ---------------------------------------------------------------------------
# Scenario snapshot
# ---------------------------------------------------------------------------

@dataclass
class ScenarioSnapshot:
    """Positions and transmissions of all vehicles at one instant.

    `ids` are external vehicle identifiers; `positions[k]` belongs to
    `ids[k]`. `events` lists the transmissions of this subframe, referring to
    vehicles by their row index. `wrap_length_m` marks a ring road whose
    x coordinate wraps (distances use the minimum image).
    """

    tti: int
    ids: np.ndarray
    positions: np.ndarray
    events: list = field(default_factory=list)
    wrap_length_m: float | None = None

    def __post_init__(self):
        self.ids = np.asarray(self.ids)
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ValueError("positions must be (n, 2)")
        if len(self.ids) != len(self.positions):
            raise ValueError("ids and positions length mismatch")

    @property
    def n(self) -> int:
        return len(self.ids)


def snapshot_distance(snapshot: ScenarioSnapshot, i: int, j: int) -> float:
    """Distance between two rows of the snapshot."""
    dx = abs(snapshot.positions[i, 0] - snapshot.positions[j, 0])
    if snapshot.wrap_length_m is not None:
        dx = min(dx, snapshot.wrap_length_m - dx)
    dy = snapshot.positions[i, 1] - snapshot.positions[j, 1]
    return float(np.hypot(dx, dy))


def neighbors(snapshot: ScenarioSnapshot, vehicle: int, awareness_m: float) -> set:
    """Ids of all vehicles within the awareness range (inclusive boundary)."""
    if awareness_m <= 0:
        raise ValueError("awareness_m must be positive")
    row = np.flatnonzero(snapshot.ids == vehicle)
    if len(row) != 1:
        raise ValueError(f"vehicle {vehicle} not in snapshot")
    i = int(row[0])
    dx = np.abs(snapshot.positions[:, 0] - snapshot.positions[i, 0])
    if snapshot.wrap_length_m is not None:
        dx = np.minimum(dx, snapshot.wrap_length_m - dx)
    dy = snapshot.positions[:, 1] - snapshot.positions[i, 1]
    dist = np.hypot(dx, dy)
    mask = dist <= awareness_m
    mask[i] = False
    return set(int(v) for v in snapshot.ids[mask])


# ---------------------------------------------------------------------------
# Resource grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class BrIndex:
    """Position of one BR: subframe within the period, slot within the subframe."""

    subframe: int
    freq_slot: int


def br_flat_index(cfg: RunConfig, br: BrIndex) -> int:
    if not (0 <= br.subframe < cfg.beacon_period_ms):
        raise ValueError(f"subframe {br.subframe} out of range")
    if not (0 <= br.freq_slot < cfg.brs_per_tti):
        raise ValueError(f"freq_slot {br.freq_slot} out of range")
    return br.subframe * cfg.brs_per_tti + br.freq_slot


def br_from_flat(cfg: RunConfig, r: int) -> BrIndex:
    if not (0 <= r < cfg.br_count):
        raise ValueError(f"flat BR index {r} out of range [0, {cfg.br_count})")
    return BrIndex(subframe=r // cfg.brs_per_tti, freq_slot=r % cfg.brs_per_tti)


# ---------------------------------------------------------------------------
# Shadowing
# ---------------------------------------------------------------------------

def shadow_step(
    real: ChannelRealization, link: tuple[int, int], moved_m: float, rng
) -> float:
    """Advance one pair's shadow sample by a relative displacement."""
    if moved_m < 0:
        raise ValueError("moved_m must be >= 0")
    i, j = link
    s = real.shadow_db[i, j]
    if moved_m == 0:
        return float(s)
    sigma = float(shadow_sigma_db(real.cfg, real.los[i, j]))
    rho = float(np.exp(-moved_m / real.cfg.resolved_decorr_dist_m()))
    g = rng.normal(0.0, sigma)
    s_new = rho * s + np.sqrt(1.0 - rho * rho) * g
    real.shadow_db[i, j] = s_new
    real.shadow_db[j, i] = s_new
    real._rx_lin = None
    return float(s_new)


# ---------------------------------------------------------------------------
# Reception and sensing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TxEvent:
    """One beacon transmission: who, where in the grid, at what power."""

    vehicle: int
    br: BrIndex
    tx_power_dbm: float = 23.0


@dataclass(frozen=True)
class RxOutcome:
    source: int
    destination: int
    sinr_db: float
    decoded: bool
    half_duplex_blocked: bool


@dataclass(frozen=True)
class SenseSample:
    """Measurement of one BR in one TTI.

    rsrp_dbm is present only when the sample is attributed to a decodable
    transmission; s_rssi_dbm is the total power seen in the BR.
    """

    br: BrIndex
    s_rssi_dbm: float
    rsrp_dbm: float | None
    tti: int


NOISE_DBM = -99.437  # RunConfig().noise_floor_dbm(): a two-subchannel BR
IBE_DB = 25.0        # the default in-band-emission attenuation


def make_channel(rx_dbm_matrix, cfg=None):
    """Realization with hand-set link budgets: pathloss chosen so that
    tx + 2*gain - pathloss equals the requested received power."""
    cfg = cfg or RunConfig()
    rx = np.asarray(rx_dbm_matrix, dtype=float)
    pl = cfg.tx_power_dbm + 2 * cfg.antenna_gain_db - rx
    return ChannelRealization(cfg, pl, np.zeros_like(pl), np.ones_like(pl, bool))


def _event_power_lin(event: TxEvent, dst: int, channel: ChannelRealization) -> float:
    src = event.vehicle
    base = float(rx_power_dbm(channel.cfg, channel.pathloss_db[src, dst],
                              channel.shadow_db[src, dst]))
    # Per-event power deviations from the configured level shift dB-for-dB.
    base += event.tx_power_dbm - channel.cfg.tx_power_dbm
    return float(dbm_to_mw(base))


def sinr(dst: int, src: int, events: list[TxEvent], channel: ChannelRealization,
         cfg: RunConfig, noise_dbm: float = NOISE_DBM, ibe_db: float = IBE_DB) -> float:
    """SINR in dB at `dst` for the transmission of `src`, over a noise floor
    of `noise_dbm` with cross-slot leakage attenuated by `ibe_db`.

    Preconditions: `src` transmits in this subframe and `dst` does not.
    """
    by_vehicle = {ev.vehicle: ev for ev in events}
    if src not in by_vehicle:
        raise ValueError(f"vehicle {src} does not transmit in this subframe")
    if dst in by_vehicle:
        raise ValueError(f"destination {dst} transmits in this subframe (half duplex)")
    ev_src = by_vehicle[src]
    useful = _event_power_lin(ev_src, dst, channel)
    noise = float(dbm_to_mw(noise_dbm))
    interference = 0.0
    for ev in events:
        if ev.vehicle in (src, dst):
            continue
        k_ibe = 1.0 if ev.br.freq_slot == ev_src.br.freq_slot else ibe_factor(ibe_db)
        interference += k_ibe * _event_power_lin(ev, dst, channel)
    return float(mw_to_dbm(useful / (noise + interference)))


def receive_subframe(snapshot: ScenarioSnapshot, channel: ChannelRealization,
                     cfg: RunConfig, noise_dbm: float = NOISE_DBM,
                     ibe_db: float = IBE_DB) -> list[RxOutcome]:
    """Reception outcome of every (source, destination) pair of the subframe."""
    tx_vehicles = {ev.vehicle for ev in snapshot.events}
    gamma_min = cfg.resolved_sinr_min_db()
    outcomes = []
    for ev in snapshot.events:
        for dst in range(snapshot.n):
            if dst == ev.vehicle:
                continue
            if dst in tx_vehicles:
                outcomes.append(RxOutcome(ev.vehicle, dst, float("nan"),
                                          decoded=False, half_duplex_blocked=True))
                continue
            value = sinr(dst, ev.vehicle, snapshot.events, channel, cfg,
                         noise_dbm, ibe_db)
            outcomes.append(RxOutcome(ev.vehicle, dst, value,
                                      decoded=value > gamma_min,
                                      half_duplex_blocked=False))
    return outcomes


def sense_subframe(observer: int, snapshot: ScenarioSnapshot,
                   channel: ChannelRealization, cfg: RunConfig,
                   noise_dbm: float = NOISE_DBM,
                   ibe_db: float = IBE_DB) -> list[SenseSample]:
    """Sensing samples taken by `observer` for the BRs of this subframe.

    Returns nothing when the observer transmits (the unmonitored case). Every
    BR of the subframe yields one total-power sample; each decodable
    transmission adds a sample attributed to its BR.
    """
    tx_vehicles = {ev.vehicle for ev in snapshot.events}
    if observer in tx_vehicles:
        return []
    subframe = snapshot.tti % cfg.beacon_period_ms
    noise = float(dbm_to_mw(noise_dbm))
    samples = []
    for slot in range(cfg.brs_per_tti):
        total = noise
        for ev in snapshot.events:
            k_ibe = 1.0 if ev.br.freq_slot == slot else ibe_factor(ibe_db)
            total += k_ibe * _event_power_lin(ev, observer, channel)
        s_rssi = float(mw_to_dbm(total))
        attributed = False
        for ev in snapshot.events:
            if ev.br.freq_slot != slot:
                continue
            value = sinr(observer, ev.vehicle, snapshot.events, channel, cfg,
                         noise_dbm, ibe_db)
            if value > cfg.resolved_sinr_min_db():
                rsrp = mw_to_dbm(_event_power_lin(ev, observer, channel))
                samples.append(SenseSample(ev.br, s_rssi, float(rsrp), snapshot.tti))
                attributed = True
        if not attributed:
            samples.append(SenseSample(BrIndex(subframe, slot), s_rssi, None,
                                       snapshot.tti))
    return samples


# ---------------------------------------------------------------------------
# Per-beacon metric bookkeeping
# ---------------------------------------------------------------------------

def record_beacon(prr, ud, src: int, outcomes, snapshot: ScenarioSnapshot,
                  awareness_m: float, t_now_s: float):
    """Per-beacon PRR and update-delay bookkeeping from reception outcomes.

    `prr` is a `metrics.PrrAccumulator` and `ud` a `metrics.UdTracker`.
    Every neighbor inside the awareness range counts in the PRR denominator
    (half-duplex-blocked ones included); decoded neighbors feed the update
    delay tracker.
    """
    decoded_dsts = []
    for out in outcomes:
        if out.source != src:
            continue
        d = snapshot_distance(snapshot, src, out.destination)
        if d > awareness_m:
            continue
        bin_idx = int(prr.bin_of(np.asarray(d)))
        prr.neighbor_count[bin_idx] += 1
        if out.decoded:
            prr.decoded_count[bin_idx] += 1
            decoded_dsts.append(out.destination)
    if decoded_dsts:
        ud.record(src, np.asarray(decoded_dsts, dtype=int), t_now_s)


# ---------------------------------------------------------------------------
# Obstacle LOS
# ---------------------------------------------------------------------------

def _orient(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _on_segment(p, q, r):
    return (
        min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
        and min(p[1], q[1]) <= r[1] <= max(p[1], q[1])
    )


def _segments_intersect(a1, a2, b1, b2):
    d1 = _orient(b1, b2, a1)
    d2 = _orient(b1, b2, a2)
    d3 = _orient(a1, a2, b1)
    d4 = _orient(a1, a2, b2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and _on_segment(b1, b2, a1):
        return True
    if d2 == 0 and _on_segment(b1, b2, a2):
        return True
    if d3 == 0 and _on_segment(a1, a2, b1):
        return True
    if d4 == 0 and _on_segment(a1, a2, b2):
        return True
    return False


def _point_in_polygon(poly, p):
    inside = False
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        if (y1 > p[1]) != (y2 > p[1]):
            x_cross = x1 + (p[1] - y1) * (x2 - x1) / (y2 - y1)
            if p[0] < x_cross:
                inside = not inside
    return inside


def blocks(obstacles, pos_i, pos_j) -> bool:
    """Scalar reference for `channel.los_state`, one pair at a time."""
    p = (float(pos_i[0]), float(pos_i[1]))
    q = (float(pos_j[0]), float(pos_j[1]))
    for poly in obstacles.polygons:
        if _point_in_polygon(poly, p) or _point_in_polygon(poly, q):
            return True
        n = len(poly)
        for k in range(n):
            if _segments_intersect(p, q, tuple(poly[k]), tuple(poly[(k + 1) % n])):
                return True
    return False
