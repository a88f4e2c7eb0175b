"""Discrete-time scenario runner.

The clock ticks in 1 ms subframes. Each period (every beacon_period_ms
ticks) the world advances (mobility, geometry, LOS, channel realization),
then the protocol starts its period (neighbour sets, metric bins, the
oldest sensing-memory slot recycled, trace churn). Within a subframe the
tick is two-phase: first propagation (reception outcomes, sensing samples
for every listener), then per-vehicle MAC updates, so state updates never
see partial data.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import mode4, phy
from .channel import ChannelRealization, ObstacleMap, dbm_to_mw, los_state
from .config import RunConfig
from .metrics import (HiddenNodeAccumulator, PrrAccumulator, UdTracker,
                      hidden_node_probability)
from .mobility import TraceError, load_trace, spawn_highway, step_highway
from .scenario import pair_legs
from .seeding import substream


@dataclass
class SimulationResult:
    prr: PrrAccumulator
    ud: UdTracker
    hold_counts: np.ndarray
    half_duplex_violations: int
    half_duplex_pairs_checked: int
    mean_neighbors: float
    beacons_sent: int
    reselections: int
    seed: int
    warmup_s: float
    duration_s: float
    config_items: list = field(default_factory=list)
    beacon_log: list = field(default_factory=list)


class SimulationEngine:
    """One seeded scenario run."""

    def __init__(self, cfg: RunConfig, record_beacon_log: bool = False):
        cfg.validate()
        self.cfg = cfg
        self.awareness_m = cfg.resolved_awareness_m()
        self.t_b = cfg.beacon_period_ms
        self.total_tti = int(round(cfg.duration_s * 1000))
        self.warmup_tti = cfg.t_sense_ms + cfg.n_max * self.t_b
        self.noise_lin = float(dbm_to_mw(cfg.noise_floor_dbm()))
        self.gamma_lin = float(dbm_to_mw(cfg.resolved_sinr_min_db()))
        self.ibe_lin = phy.ibe_factor(cfg.ibe_attenuation_db)
        self.record_beacon_log = record_beacon_log
        self.beacon_log = []

        self._setup_scenario()
        self._setup_state()

    # -- construction -----------------------------------------------------

    def _setup_scenario(self):
        """Decide the scenario once: `frames`, `wrap` and `rho_const`.

        `frames[p]` holds every vehicle's position in period p, NaN while it
        is absent. Highway speeds are constant, so each pair's shadowing
        correlation per period is too (`rho_const`); trace runs derive it
        from consecutive frames.
        """
        cfg = self.cfg
        self.obstacles = ObstacleMap.from_file(cfg.obstacle_map) if cfg.obstacle_map else None
        n_periods = (self.total_tti + self.t_b - 1) // self.t_b
        self.rho_const = None
        if cfg.scenario == "highway":
            state = spawn_highway(cfg, substream(cfg.seed, "mobility"))
            self.frames = np.empty((n_periods, cfg.highway_vehicles, 2))
            self.frames[:, :, 1] = state.y
            self.frames[0, :, 0] = state.x
            for period in range(1, n_periods):
                step_highway(cfg, state, self.t_b / 1000.0)
                self.frames[period, :, 0] = state.x
            self.wrap = cfg.highway_length_m
            v = state.speed
            moved = np.abs(v[:, None] - v[None, :]) * (self.t_b / 1000.0)
            self.rho_const = np.exp(-moved / cfg.resolved_decorr_dist_m())
        else:
            # Row k of the run is the trace's k-th vehicle id.
            _, self.frames = load_trace(cfg.trace, self.t_b, cfg.max_trace_gap_s)
            if len(self.frames) < n_periods:
                raise TraceError(
                    f"trace covers {len(self.frames)} beacon periods, "
                    f"run needs {n_periods}"
                )
            self.wrap = None
        self.n = self.frames.shape[1]

    def _setup_state(self):
        cfg, n = self.cfg, self.n
        self.next_tx = np.full(n, -1, dtype=np.int64)
        self.select_at = np.full(n, -1, dtype=np.int64)
        self.cur_slot = np.zeros(n, dtype=np.int32)
        self.counter = np.zeros(n, dtype=np.int64)  # reselection counters
        self.seq = np.full(n, -1, dtype=np.int64)
        self.held = np.zeros(n, dtype=np.int64)
        self.present = np.zeros(n, dtype=bool)  # every vehicle starts absent
        self.phase = substream(cfg.seed, "phase").integers(0, self.t_b, size=n)
        self.shadow_rng = substream(cfg.seed, "shadow")
        self.mac_rngs = [substream(cfg.seed, "mac", v) for v in range(n)]

        self.memory = None
        if cfg.allocation == "mode4":
            self.memory = mode4.SensingMemory(n, cfg)

        self.prr = PrrAccumulator(cfg.prr_bin_width_m, self.awareness_m)
        self.ud = UdTracker(n, self.t_b / 1000.0)
        self.hold_counts: list[int] = []
        self.hd_violations = 0
        self.hd_checked = 0
        self.beacons_sent = 0
        self.neighbor_samples = 0.0
        self.neighbor_periods = 0
        self.channel: ChannelRealization | None = None
        self.dist = None
        self.neigh = None
        self.bins = None

    # -- per-period geometry ----------------------------------------------

    def _los_matrix(self):
        los = np.ones((self.n, self.n), dtype=bool)
        if self.obstacles is None:
            return los
        idx = np.flatnonzero(self.present)
        a, b = np.triu_indices(len(idx), 1)
        a, b = idx[a], idx[b]
        ok = los_state(self.obstacles, self.positions[a], self.positions[b])
        los[a, b] = ok
        los[b, a] = ok
        return los

    def _shadow_rho(self, period: int):
        """Per-pair shadowing correlation from the previous period to this one."""
        if self.rho_const is not None:
            return self.rho_const
        disp = self.frames[period] - self.frames[period - 1]
        with np.errstate(invalid="ignore"):
            moved = np.hypot(disp[:, 0][:, None] - disp[:, 0][None, :],
                             disp[:, 1][:, None] - disp[:, 1][None, :])
        # Presence changes decorrelate the pair's shadowing entirely.
        moved = np.where(np.isnan(moved), np.inf, moved)
        return np.exp(-moved / self.cfg.resolved_decorr_dist_m())

    def _advance_world(self, t: int):
        """Positions, presence, geometry, LOS and channel of the period at t."""
        period = t // self.t_b
        self.positions = self.frames[period]
        self.present = ~np.isnan(self.positions[:, 0])
        legs = pair_legs(self.positions, self.wrap)
        self.dist = np.hypot(*legs)
        los = self._los_matrix()
        if self.channel is None:
            self.channel = ChannelRealization.initial(
                self.cfg, self.dist, los, legs, self.shadow_rng)
        else:
            self.channel.advance(self.dist, los, legs, self.shadow_rng,
                                 self._shadow_rho(period))

    def _begin_period(self, t: int):
        """Advance the world, then start the protocol's period at t."""
        was_present = self.present
        self._advance_world(t)
        present, dist = self.present, self.dist
        # Absent vehicles sit at an infinite distance from every other one.
        neigh = dist <= self.awareness_m
        np.fill_diagonal(neigh, False)
        self.neigh = neigh
        self.bins = self.prr.bin_of(np.minimum(dist, self.awareness_m))
        self.ud.reset_pairs(~neigh)

        if t >= self.warmup_tti and present.any():
            self.neighbor_samples += neigh.sum(axis=1)[present].mean()
            self.neighbor_periods += 1

        if self.memory is not None:
            self.memory.begin_period(t // self.t_b)

        # Departures drop their allocation; arrivals (every highway vehicle
        # on period 0) schedule a first selection within this period.
        gone = was_present & ~present
        self.next_tx[gone] = -1
        self.select_at[gone] = -1
        self.counter[gone] = 0
        self.held[gone] = 0
        fresh = present & ~was_present
        self.select_at[fresh] = t + self.phase[fresh]

    # -- selection and transmission ----------------------------------------

    def _delta_to_offset(self, offset: int, t: int) -> int:
        delta = (offset - t) % self.t_b
        return delta if delta > 0 else self.t_b

    def _select(self, v: int, t: int):
        rng = self.mac_rngs[v]
        if self.memory is not None:
            cands = mode4.candidate_set(self.memory, v, self.cfg, t)
            r, self.counter[v] = mode4.mac_select(cands, self.cfg, rng)
        else:
            r = int(rng.integers(self.cfg.br_count))
        offset, self.cur_slot[v] = divmod(r, self.cfg.brs_per_tti)
        self.next_tx[v] = t + self._delta_to_offset(offset, t)

    def _mac_after_tx(self, v: int, t: int):
        if self.memory is None:
            self._select(v, t)  # random allocation redraws every period
            return
        action = mode4.on_beacon_period_end(self.counter, v, self.cfg,
                                            self.mac_rngs[v])
        if action == "keep":
            self.next_tx[v] = t + self.t_b
        else:
            self.hold_counts.append(int(self.held[v]))
            self.held[v] = 0
            self._select(v, t)

    def _tick(self, t: int):
        if t % self.t_b == 0:
            self._begin_period(t)
        subframe = t % self.t_b

        for v in np.flatnonzero(self.select_at == t):
            self.select_at[v] = -1
            if self.present[v]:
                self._select(int(v), t)

        txs = np.flatnonzero(self.next_tx == t)
        if len(txs) == 0:
            if self.memory is not None:
                self.memory.record_srssi(self.present, subframe)
            return

        tx_mask = np.zeros(self.n, dtype=bool)
        tx_mask[txs] = True
        tx_slots = self.cur_slot[txs]
        power_rows = self.channel.rx_power_lin()[txs]
        recv_mask = self.present & ~tx_mask
        slot_sums = phy.slot_power_sums(power_rows, tx_slots, self.cfg.brs_per_tti)
        sinr_lin, decoded = phy.subframe_reception(
            power_rows, tx_slots, self.noise_lin, self.gamma_lin,
            self.ibe_lin, recv_mask, slot_sums)

        # Half-duplex audit: sensing samples (counted by the memory) and
        # PRR/UD credits (counted below) that go to a vehicle transmitting
        # in the same subframe are protocol violations.
        self.hd_checked += int(len(txs) * (len(txs) - 1))

        if self.memory is not None:
            self.memory.mark_transmissions(txs, subframe)
            srssi = phy.subframe_srssi(slot_sums, self.noise_lin, self.ibe_lin)
            self.memory.record_srssi(recv_mask, subframe, srssi)
            self.memory.record_rsrp(subframe, tx_slots, power_rows, decoded)

        self.seq[txs] += 1
        self.held[txs] += 1
        self.beacons_sent += len(txs)

        if t >= self.warmup_tti:
            credited = decoded & self.neigh[txs]
            self.hd_violations += int(np.count_nonzero(credited[:, tx_mask]))
            for k, v in enumerate(txs):
                nm = self.neigh[v]
                dec = credited[k]
                self.prr.record_arrays(self.bins[v][nm], dec[nm])
                dst = np.flatnonzero(dec)
                if len(dst):
                    self.ud.record(int(v), dst, self.seq[v] * self.t_b / 1000.0)
                if self.record_beacon_log:
                    self.beacon_log.append((int(v), int(nm.sum()), int(dec.sum())))

        for v in txs:
            self._mac_after_tx(int(v), t)

    def run(self) -> SimulationResult:
        for t in range(self.total_tti):
            self._tick(t)
        mean_neigh = (self.neighbor_samples / self.neighbor_periods
                      if self.neighbor_periods else float("nan"))
        return SimulationResult(
            prr=self.prr,
            ud=self.ud,
            hold_counts=np.asarray(self.hold_counts, dtype=np.int64),
            half_duplex_violations=self.hd_violations + (
                self.memory.half_duplex_writes if self.memory is not None else 0),
            half_duplex_pairs_checked=self.hd_checked,
            mean_neighbors=float(mean_neigh),
            beacons_sent=self.beacons_sent,
            reselections=len(self.hold_counts),
            seed=self.cfg.seed,
            warmup_s=self.warmup_tti / 1000.0,
            duration_s=self.cfg.duration_s,
            config_items=self.cfg.resolved_items(),
            beacon_log=self.beacon_log,
        )


def run_scenario(cfg: RunConfig, record_beacon_log: bool = False) -> SimulationResult:
    return SimulationEngine(cfg, record_beacon_log=record_beacon_log).run()


def run_hidden_node(cfg: RunConfig, sample_every_periods: int = 1):
    """Mobility + channel only: hidden-node statistics over sampled instants."""
    cfg.validate()
    engine = SimulationEngine(cfg)  # reuse the world half
    acc = HiddenNodeAccumulator(bin_width_m=cfg.prr_bin_width_m,
                                max_range_m=engine.awareness_m)
    n_periods = engine.total_tti // engine.t_b
    for period in range(n_periods):
        t = period * engine.t_b
        engine._advance_world(t)
        if period % sample_every_periods:
            continue
        idx = np.flatnonzero(engine.present)
        if len(idx) < 2:
            continue
        rows = np.ix_(idx, idx)
        acc.add(hidden_node_probability(
            engine.channel.rx_power_lin()[rows], engine.dist[rows],
            engine.noise_lin, engine.gamma_lin, cfg.prr_bin_width_m,
            engine.awareness_m))
    return acc
