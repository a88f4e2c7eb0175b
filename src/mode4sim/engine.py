"""Discrete-time scenario runner: a world and the protocol run on it.

`SimulationEngine` is the world: set-up decides the scenario once, and
`advance(t, neighbours)` brings presence, geometry, LOS and channel to the
period at t, and lists the period's neighbour pairs when asked. LOS is one
`los_state` call per block of rows of each period's present pairs, and the
channel takes the pairs it finds blocked as keys. `advance` hands the
channel the next period's positions and blocked keys one period early:
the channel derives the shadow step from them and takes it while the
protocol runs, and its next `advance` refreshes to them. `Protocol` holds
the allocation, sensing, MAC and metric state; it reads the world and
never advances it. The engine's clock ticks in 1 ms subframes. At each
period start the world advances, then the protocol starts its period (in
the metric phase its neighbour pairs, the oldest sensing-memory slot
recycled, trace churn). Within a subframe the tick is two-phase: first propagation (reception
outcomes, sensing samples and metric credits for all of the subframe's
transmitters at once), then per-vehicle MAC updates, so state updates never
see partial data.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mode4, phy
# `pair_legs` is unused here: the benchmark's layer table wraps it in this
# module until the engine reports its own phase times (ROADMAP item 2).
from .channel import (ChannelRealization, ObstacleMap, block_rows, dbm_to_mw, los_state,
                      pair_legs)
from .config import RunConfig
from .metrics import (HiddenNodeAccumulator, PrrAccumulator, UdTracker,
                      hidden_node_probability)
from .mobility import TraceError, load_trace, spawn_highway, step_highway
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
    cfg: RunConfig


class SimulationEngine:
    """The world of one seeded run, and the clock that runs a protocol on it."""

    def __init__(self, cfg: RunConfig):
        cfg.validate()
        self.cfg = cfg
        self.t_b = cfg.beacon_period_ms
        self.total_tti = int(round(cfg.duration_s * 1000))
        # Every period the clock enters, the last one possibly in part.
        self.n_periods = -(-self.total_tti // self.t_b)
        self.noise_lin = float(dbm_to_mw(cfg.noise_floor_dbm()))
        self.gamma_lin = float(dbm_to_mw(cfg.resolved_sinr_min_db()))

        self._setup_scenario()
        self.present = np.zeros(self.n, dtype=bool)  # every vehicle starts absent
        self.shadow_rng = substream(cfg.seed, "shadow")
        self.channel: ChannelRealization | None = None

    # -- construction -----------------------------------------------------

    def _setup_scenario(self):
        """Decide the scenario once: `frames`, `wrap` and `speeds`.

        `frames[p]` holds every vehicle's position in period p, NaN while it
        is absent. The channel derives each highway pair's shadowing
        correlation from the constant `speeds`, and a trace pair's from the
        frames' displacements.
        """
        cfg = self.cfg
        self.obstacles = ObstacleMap.from_file(cfg.obstacle_map) if cfg.obstacle_map else None
        self.speeds = None
        if cfg.scenario == "highway":
            state = spawn_highway(cfg, substream(cfg.seed, "mobility"))
            self.frames = np.empty((self.n_periods, cfg.highway_vehicles, 2))
            self.frames[:, :, 1] = state.y
            self.frames[0, :, 0] = state.x
            for period in range(1, self.n_periods):
                step_highway(cfg, state, self.t_b / 1000.0)
                self.frames[period, :, 0] = state.x
            self.wrap = cfg.highway_length_m
            self.speeds = state.speed
        else:
            # Row k of the run is the trace's k-th vehicle id.
            _, self.frames = load_trace(cfg.trace, self.t_b, cfg.max_trace_gap_s)
            if len(self.frames) < self.n_periods:
                raise TraceError(
                    f"trace covers {len(self.frames)} beacon periods, "
                    f"run needs {self.n_periods}"
                )
            self.wrap = None
        self.n = self.frames.shape[1]

    # -- per-period geometry ----------------------------------------------

    def _blocked_pairs(self, positions):
        """The ascending keys i * n + j (i < j) of the pairs of vehicles
        present at `positions` (NaN while absent) that an obstacle blocks,
        or None when no map can block a link."""
        if self.obstacles is None:
            return None
        idx = np.flatnonzero(~np.isnan(positions[:, 0]))
        m, keys = len(idx), []
        rows = block_rows(m)  # blocks of rows, as the channel's: small temporaries
        for r0 in range(0, max(m, 1), rows):
            tail = idx[r0:]  # block pair (a, b) is vehicles tail[a] < tail[b]
            a, b = np.triu_indices(min(rows, m - r0), 1, m - r0)
            clear = los_state(self.obstacles, positions[tail], a, b)
            keys.append(tail[a[~clear]] * self.n + tail[b[~clear]])
        return np.concatenate(keys)

    def advance(self, t: int, neighbours: bool = False):
        """Positions, presence, LOS and channel of the period at t, which
        follows the period of the previous call. With `neighbours`, the
        channel also lists the period's neighbour pairs
        (`channel.neighbours`); without, that is None."""
        period = t // self.t_b
        self.positions = self.frames[period]
        self.present = ~np.isnan(self.positions[:, 0])
        if self.channel is None:
            self.channel = ChannelRealization.initial(
                self.cfg, self.positions, self.wrap, self._blocked_pairs(self.positions),
                self.shadow_rng, self.speeds, neighbours)
        else:
            self.channel.advance(neighbours)
        # Hand the channel the next period's step to take while this period
        # runs, and none that no period uses.
        if period + 1 < self.n_periods:
            ahead = self.frames[period + 1]
            self.channel.step_ahead(ahead, self._blocked_pairs(ahead))

    def run(self) -> SimulationResult:
        protocol = Protocol(self)
        for t in range(self.total_tti):
            if t % self.t_b == 0:
                self.advance(t, t >= self.cfg.warmup_tti)
                protocol.begin_period(t)
            protocol.tick(t)
        return protocol.result()

    def hidden_node(self, sample_every_periods: int = 1) -> HiddenNodeAccumulator:
        """Mobility + channel only: hidden-node statistics over sampled instants."""
        cfg = self.cfg
        awareness_m = cfg.resolved_awareness_m()
        acc = HiddenNodeAccumulator(bin_width_m=cfg.prr_bin_width_m,
                                    max_range_m=awareness_m)
        for period in range(self.n_periods):
            sampled = period % sample_every_periods == 0
            self.advance(period * self.t_b, sampled)
            if not sampled or np.count_nonzero(self.present) < 2:
                continue
            # An absent vehicle receives and sends zero power, so it is never a
            # link, an interferer or heard, and adds nothing to the ratio sums.
            acc.add(hidden_node_probability(
                self.channel.rx_power_lin(), self.channel.neighbours, self.noise_lin,
                self.gamma_lin, cfg.prr_bin_width_m, awareness_m))
        return acc


class Protocol:
    """Allocation, sensing, MAC and metric state of one run on `world`."""

    def __init__(self, world: SimulationEngine):
        cfg, n = world.cfg, world.n
        self.world, self.cfg, self.n, self.t_b = world, cfg, n, world.t_b
        self.awareness_m = cfg.resolved_awareness_m()
        self.ibe_lin = phy.ibe_factor(cfg.ibe_attenuation_db)

        # Next event, -1 while absent: a selection while `cur_slot` is -1.
        self.next_tx = np.full(n, -1, dtype=np.int64)
        self.cur_slot = np.full(n, -1, dtype=np.int32)
        self.counter = np.zeros(n, dtype=np.int64)  # reselection counters
        self.seq = np.full(n, -1, dtype=np.int64)  # beacons sent, less one
        self.since = np.zeros(n, dtype=np.int64)  # `seq` at the last selection
        self.phase = substream(cfg.seed, "phase").integers(0, self.t_b, size=n)
        self.mac_rngs = [substream(cfg.seed, "mac", v) for v in range(n)]

        self.memory = None
        if cfg.allocation == "mode4":
            self.memory = mode4.SensingMemory(n, cfg)

        self.prr = PrrAccumulator(cfg.prr_bin_width_m, self.awareness_m)
        self.ud = UdTracker(self.t_b / 1000.0)
        self.hold_counts: list[int] = []
        self.hd_violations = 0
        self.hd_checked = 0
        self.neighbor_samples = 0.0
        self.neighbor_periods = 0
        # The metric phase's neighbour pairs and their PRR bins: those of
        # source v are pair_ptr[v]:pair_ptr[v + 1], by ascending destination.
        self.pair_ptr = self.pair_dst = self.pair_bin = None

    def begin_period(self, t: int):
        """Start the protocol's period at t, on the world advanced to it."""
        # Every present vehicle has an event scheduled, every absent one -1.
        was_present, present = self.next_tx >= 0, self.world.present
        # The warm-up is whole periods, and nothing reads neighbours in it.
        if t >= self.cfg.warmup_tti:
            self._neighbour_pairs()
            if present.any():
                self.neighbor_samples += np.diff(self.pair_ptr)[present].mean()
                self.neighbor_periods += 1

        if self.memory is not None:
            self.memory.begin_period(t // self.t_b)

        # Departures drop their allocation (`cur_slot` -1), so arrivals (every
        # highway vehicle on period 0) schedule a selection in this period.
        gone = was_present & ~present
        self.next_tx[gone] = -1
        self.cur_slot[gone] = -1
        fresh = present & ~was_present
        self.next_tx[fresh] = t + self.phase[fresh]

    def _neighbour_pairs(self):
        """This period's neighbour pairs, as the world listed them: sorted
        keys src * n + dst and their distances."""
        keys, dist = self.world.channel.neighbours
        self.pair_ptr = np.searchsorted(keys, np.arange(self.n + 1) * self.n)
        self.pair_dst = keys % self.n
        self.pair_bin = self.prr.bin_of(dist)
        self.ud.reset_pairs(keys)

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
        self.since[v] = self.seq[v]

    def _mac_after_tx(self, v: int, t: int):
        if self.memory is None:
            self._select(v, t)  # random allocation redraws every period
            return
        action = mode4.on_beacon_period_end(self.counter, v, self.cfg,
                                            self.mac_rngs[v])
        if action == "keep":
            self.next_tx[v] = t + self.t_b
        else:
            self.hold_counts.append(int(self.seq[v] - self.since[v]))
            self._select(v, t)

    def tick(self, t: int):
        subframe, present = t % self.t_b, self.world.present
        # Departures clear `next_tx`, so every vehicle due is present. A
        # selection schedules its first beacon 1..t_b subframes on, not at t.
        due = np.flatnonzero(self.next_tx == t)
        holds = self.cur_slot[due] >= 0
        txs = due[holds]
        for v in due[~holds]:
            self._select(int(v), t)

        if len(txs) == 0:
            if self.memory is not None:
                # Every BR reads the noise floor and nothing is decoded.
                silent = np.zeros((0, self.n), dtype=bool)
                self.memory.record_subframe(subframe, txs, present, self.world.noise_lin,
                                            txs, silent, silent)
            return

        tx_mask = np.zeros(self.n, dtype=bool)
        tx_mask[txs] = True
        tx_slots = self.cur_slot[txs]
        power_rows = self.world.channel.rx_power_lin()[txs]
        recv_mask = present & ~tx_mask
        slot_sums = phy.slot_power_sums(power_rows, tx_slots, self.cfg.brs_per_tti)
        sinr_lin, decoded = phy.subframe_reception(
            power_rows, tx_slots, self.world.noise_lin, self.world.gamma_lin,
            self.ibe_lin, recv_mask, slot_sums)

        # Half-duplex audit: sensing samples (counted by the memory) and
        # PRR/UD credits (counted below) that go to a vehicle transmitting
        # in the same subframe are protocol violations.
        self.hd_checked += int(len(txs) * (len(txs) - 1))

        if self.memory is not None:
            srssi = phy.subframe_srssi(slot_sums, self.world.noise_lin, self.ibe_lin)
            self.memory.record_subframe(subframe, txs, recv_mask, srssi,
                                        tx_slots, power_rows, decoded)

        self.seq[txs] += 1

        if t >= self.cfg.warmup_tti:
            # The transmitters' segments of the pair list, in order.
            lo = self.pair_ptr[txs]
            counts = self.pair_ptr[txs + 1] - lo
            row = np.repeat(np.arange(len(txs)), counts)
            pairs = np.arange(len(row)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
            dst = self.pair_dst[pairs]
            credited = decoded[row, dst]
            self.hd_violations += int(np.count_nonzero(credited & tx_mask[dst]))
            self.prr.record_arrays(self.pair_bin[pairs], credited)
            # A source transmits at most once per subframe, so no pair
            # repeats within this call.
            if credited.any():
                src = txs[row[credited]]
                self.ud.record(pairs[credited], self.seq[src])

        for v in txs:
            self._mac_after_tx(int(v), t)

    def result(self) -> SimulationResult:
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
            beacons_sent=int((self.seq + 1).sum()),
            reselections=len(self.hold_counts),
            cfg=self.cfg,
        )


def run_scenario(cfg: RunConfig) -> SimulationResult:
    return SimulationEngine(cfg).run()


def run_hidden_node(cfg: RunConfig, sample_every_periods: int = 1):
    return SimulationEngine(cfg).hidden_node(sample_every_periods)
