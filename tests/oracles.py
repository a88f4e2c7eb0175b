"""Scalar reference implementations, kept as test oracles.

The simulator works on row-indexed arrays only. The functions here compute
the same quantities one link, one vehicle or one resource at a time, from a
per-instant `ScenarioSnapshot`, so tests can check the array paths against
code that follows the definitions literally. Two more checks live here:
a Monte Carlo of the counter process, against the closed forms of
`mode4sim.analysis`, and the priority power-threshold table, which gives
the default `p_th_dbm`. `FullMatrixChannel` is the whole-matrix channel
refresh that the simulator's blocked pass must equal bit for bit, with
`highway_rho` its highway correlation and `full_shadow` the blocked pass's
shadow state as a whole matrix. `DenseUdTracker` keeps the update-delay
state of every ordered pair in an (n, n) matrix, where the simulator keeps
it per neighbour pair; `MonitoredFlagRing` keeps a monitored flag per
vehicle, period slot and subframe, where the simulator keeps each
vehicle's latest transmission period per subframe. `pair_distances` and
`neighbour_list` rebuild the (n, n) pair distances and the neighbour list
from them, where the simulator keeps distances only for the pairs within
range. No module of the simulator imports this one; `test_reference.py`
enforces that.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from mode4sim.analysis import AnalysisError
from mode4sim.channel import dbm_to_mw, pair_legs, pathloss_los_db, pathloss_nlos_db
from mode4sim.config import RunConfig
from mode4sim.metrics import HiddenNodeResult, MetricsError
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


def pair_distances(positions, wrap_length_m: float | None = None) -> np.ndarray:
    """All (n, n) pair distances from `channel.pair_legs`, infinite where a
    vehicle is absent (NaN position)."""
    return np.hypot(*pair_legs(np.asarray(positions, dtype=float), wrap_length_m))


def neighbour_list(dist_m: np.ndarray, range_m: float):
    """The off-diagonal pairs of an (n, n) distance matrix within `range_m`
    (inclusive), as `ChannelRealization.neighbours` lists them: the
    ascending keys src * n + dst and the pairs' distances."""
    near = dist_m <= range_m
    np.fill_diagonal(near, False)
    keys = np.flatnonzero(near)
    return keys, dist_m.ravel()[keys]


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
# Channel
# ---------------------------------------------------------------------------

def pathloss_db(cfg: RunConfig, distance_m, los, legs):
    """Pathloss for links of the given length; NLOS links take the corner
    pathloss of their two street legs."""
    pl_los = pathloss_los_db(distance_m, cfg.carrier_ghz)
    if np.all(los):
        return pl_los
    pl_nlos = pathloss_nlos_db(legs[0], legs[1], cfg.carrier_ghz)
    return np.where(los, pl_los, pl_nlos)


def rx_power_dbm(cfg: RunConfig, pathloss_db, shadow_db):
    """Received power; a positive shadow sample attenuates."""
    return cfg.tx_power_dbm + 2.0 * cfg.antenna_gain_db - np.asarray(pathloss_db) - np.asarray(shadow_db)


def shadow_sigma_db(cfg: RunConfig, los):
    """Shadowing sigma of each link from its LOS flag."""
    return np.where(los, cfg.shadow_sigma_los_db, cfg.shadow_sigma_nlos_db)


def _symmetric_normal(rng, n):
    g = rng.standard_normal((n, n))
    upper = np.triu(g, 1)
    return upper + upper.T


class FullMatrixChannel:
    """Per-link pathloss + correlated shadow state for all vehicle pairs,
    refreshed one whole (n, n) matrix at a time from distances and street
    legs (`channel.pair_legs`).

    Matrices are (n, n) and symmetric; the diagonal is unused. Shadowing is
    an AR(1) process per unordered pair, stepped by the change in relative
    displacement between updates.
    """

    def __init__(self, cfg: RunConfig, pathloss_db, shadow_db, los):
        self.cfg = cfg
        self.pathloss_db = np.asarray(pathloss_db, dtype=float)
        self.shadow_db = np.asarray(shadow_db, dtype=float)
        self.los = np.asarray(los, dtype=bool)
        self.n = self.pathloss_db.shape[0]
        self._rx_lin = None

    @classmethod
    def initial(cls, cfg: RunConfig, dist_m, los, legs,
                rng: np.random.Generator) -> "FullMatrixChannel":
        pl = pathloss_db(cfg, dist_m, los, legs)
        shadow = _symmetric_normal(rng, len(pl)) * shadow_sigma_db(cfg, los)
        return cls(cfg, pl, shadow, los)

    def advance(self, dist_m, los, legs, rng: np.random.Generator, rho):
        """Refresh pathloss for the new geometry and step the shadow AR(1).

        rho is each pair's correlation with its previous sample,
        exp(-moved/decorr) for a relative displacement `moved` since the
        previous update; rho = 0 resamples the pair from scratch.
        """
        self._rx_lin = None
        self.los = np.asarray(los, dtype=bool)
        self.pathloss_db = pathloss_db(self.cfg, dist_m, self.los, legs)
        sigma = shadow_sigma_db(self.cfg, self.los)
        g = _symmetric_normal(rng, self.n) * sigma
        self.shadow_db = rho * self.shadow_db + np.sqrt(1.0 - rho * rho) * g

    def rx_power_lin(self):
        """Linear received power in mW, diagonal zeroed. rows = transmitter."""
        if self._rx_lin is None:
            with np.errstate(invalid="ignore"):
                lin = dbm_to_mw(rx_power_dbm(self.cfg, self.pathloss_db,
                                             self.shadow_db))
            lin = np.nan_to_num(lin, nan=0.0, posinf=0.0)
            np.fill_diagonal(lin, 0.0)
            self._rx_lin = lin
        return self._rx_lin


def highway_rho(cfg: RunConfig, speeds):
    """Each highway pair's shadowing correlation per beacon period,
    exp(-|v_i - v_j| * period / decorr), in one n x n buffer: the whole
    matrix of what each `ChannelRealization` refresh block computes from
    `speeds`."""
    rho = np.subtract.outer(speeds, speeds)
    np.abs(rho, out=rho)
    rho *= cfg.beacon_period_ms / 1000.0
    np.negative(rho, out=rho)
    rho /= cfg.resolved_decorr_dist_m()
    return np.exp(rho, out=rho)


def full_shadow(real) -> np.ndarray:
    """A `ChannelRealization`'s shadow state as the symmetric (n, n) matrix
    with a zero diagonal, rebuilt from the upper triangle of its store of
    upper-block rectangles (block b holds rows r0:r1, columns r0:)."""
    n = len(real.rx_power_lin())
    full = np.zeros((n, n))
    for (r0, r1), block in zip(real._blocks, real._shadow):
        full[r0:r1, r0:] = block
    upper = np.triu(full, 1)
    return upper + upper.T


def shadow_step(
    real: FullMatrixChannel, link: tuple[int, int], moved_m: float, rng
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
    return FullMatrixChannel(cfg, pl, np.zeros_like(pl), np.ones_like(pl, bool))


def _event_power_lin(event: TxEvent, dst: int, channel: FullMatrixChannel) -> float:
    src = event.vehicle
    base = float(rx_power_dbm(channel.cfg, channel.pathloss_db[src, dst],
                              channel.shadow_db[src, dst]))
    # Per-event power deviations from the configured level shift dB-for-dB.
    base += event.tx_power_dbm - channel.cfg.tx_power_dbm
    return float(dbm_to_mw(base))


def sinr(dst: int, src: int, events: list[TxEvent], channel: FullMatrixChannel,
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


def subframe_reception_expression(power_rows, tx_slots, noise_lin, gamma_min_lin,
                                  ibe_lin, receiver_mask, slot_sums):
    """`phy.subframe_reception` as one whole-array expression, a fresh
    temporary per step; the in-place form must equal it byte for byte."""
    total = slot_sums.sum(axis=0)
    own_slot_sum = slot_sums[tx_slots]
    same = own_slot_sum - power_rows
    cross = (total - own_slot_sum) * ibe_lin
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr_lin = power_rows / (noise_lin + same + cross)
    sinr_lin = np.where(receiver_mask[None, :], sinr_lin, 0.0)
    return sinr_lin, sinr_lin > gamma_min_lin


def receive_subframe(snapshot: ScenarioSnapshot, channel: FullMatrixChannel,
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
                   channel: FullMatrixChannel, cfg: RunConfig,
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


class MonitoredFlagRing:
    """Per-subframe monitored flags of every vehicle, in a ring of
    `t_sense / beacon_period` period slots beside the sensing samples.

    A period's slot starts all True; a transmission clears its vehicle's
    flag for that subframe. A subframe is monitored when no slot of the
    ring has its flag cleared. `SensingMemory` keeps each vehicle's latest
    transmission period per subframe instead.
    """

    def __init__(self, n: int, cfg: RunConfig):
        self.n_slots = cfg.t_sense_ms // cfg.beacon_period_ms
        self.flags = np.ones((n, self.n_slots, cfg.beacon_period_ms), dtype=bool)
        self.slot = 0

    def begin_period(self, period: int):
        self.slot = period % self.n_slots
        self.flags[:, self.slot] = True

    def record_transmissions(self, subframe: int, txs):
        self.flags[txs, self.slot, subframe] = False

    def monitored_offsets(self, v: int) -> np.ndarray:
        return self.flags[v].all(axis=0)


# ---------------------------------------------------------------------------
# Per-beacon metric bookkeeping
# ---------------------------------------------------------------------------

class DenseUdTracker:
    """Inter-reception gaps per ordered (source, destination) pair.

    Gaps are kept as integer beacon-period counts (they are exact multiples
    of the beacon period); `last` holds the previous correct reception's
    time as a beacon-period index, -1 when none: int32 takes half the
    memory of a time in seconds.
    """

    def __init__(self, n_vehicles: int, beacon_period_s: float):
        self.beacon_period_s = float(beacon_period_s)
        self.last = np.full((n_vehicles, n_vehicles), -1, dtype=np.int32)
        self.gap_counts = np.zeros(1, dtype=np.int64)

    def _grow(self, need: int):
        if need >= len(self.gap_counts):
            grown = np.zeros(need + 1, dtype=np.int64)
            grown[: len(self.gap_counts)] = self.gap_counts
            self.gap_counts = grown

    def record(self, src, dst_indices: np.ndarray, t_now_s):
        """Receptions at `dst_indices` of the beacons `src` sent at `t_now_s`.

        `src` and `t_now_s` are scalars or arrays aligned with `dst_indices`;
        no (src, dst) pair may repeat within one call. Times are multiples
        of the beacon period, and each is rounded to its period index.
        """
        prev = self.last[src, dst_indices]
        now = np.rint(np.asarray(t_now_s, dtype=float) / self.beacon_period_s)
        now = np.broadcast_to(now.astype(np.int32), prev.shape)
        seen = prev >= 0
        if seen.any():
            gaps = now[seen].astype(np.int64) - prev[seen]
            if (gaps <= 0).any():
                raise MetricsError("non-positive update-delay gap")
            self._grow(int(gaps.max()))
            self.gap_counts += np.bincount(gaps, minlength=len(self.gap_counts))
        self.last[src, dst_indices] = now

    def reset_pairs(self, out_of_range: np.ndarray):
        """Forget pairs that left the awareness range."""
        self.last[out_of_range] = -1

    @property
    def total_gaps(self) -> int:
        return int(self.gap_counts.sum())


def record_beacon(prr, ud, src: int, outcomes, snapshot: ScenarioSnapshot,
                  awareness_m: float, t_now_s: float):
    """Per-beacon PRR and update-delay bookkeeping from reception outcomes.

    `prr` is a `metrics.PrrAccumulator` and `ud` a `DenseUdTracker`.
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
# Hidden-node probability
# ---------------------------------------------------------------------------

def hidden_node_loop(power_lin: np.ndarray, dist_m: np.ndarray, noise_lin: float,
                     gamma_lin: float, bin_width_m: float,
                     max_range_m: float) -> HiddenNodeResult:
    """`metrics.hidden_node_probability` one source at a time: for each
    source, the whole (n, destinations) slice of the power matrix is
    compared with the destinations' breaking thresholds. `dist_m` holds the
    (n, n) pair distances; a link adds to the bins only when its distance is
    within `max_range_m`, and to the probability whatever its distance."""
    n = len(power_lin)
    if n < 2:
        raise MetricsError("need at least two vehicles")
    n_bins = int(np.ceil(max_range_m / bin_width_m))
    ratio_sum = np.zeros(n_bins)
    pair_count = np.zeros(n_bins, dtype=np.int64)
    total_ratio = 0.0
    total_pairs = 0
    snr_floor = gamma_lin * noise_lin
    for a in range(n):
        dests = np.flatnonzero(power_lin[a] > snr_floor)
        dests = dests[dests != a]
        if len(dests) == 0:
            continue
        # Interference level at b that breaks the a->b link.
        break_thr = power_lin[a, dests] / gamma_lin - noise_lin
        strong = power_lin[:, dests] > break_thr[None, :]
        strong[a, :] = False
        source_deaf = power_lin[:, a] < snr_floor
        i_cnt = strong.sum(axis=0)
        h_cnt = (strong & source_deaf[:, None]).sum(axis=0)
        has_i = i_cnt > 0
        if not has_i.any():
            continue
        ratios = h_cnt[has_i] / i_cnt[has_i]
        d = dist_m[a, dests[has_i]]
        near = d <= max_range_m
        bin_idx = np.clip((d[near] / bin_width_m).astype(int), 0, n_bins - 1)
        ratio_sum += np.bincount(bin_idx, weights=ratios[near], minlength=n_bins)
        pair_count += np.bincount(bin_idx, minlength=n_bins)
        total_ratio += float(ratios.sum())
        total_pairs += int(has_i.sum())
    probability = total_ratio / total_pairs if total_pairs else 0.0
    return HiddenNodeResult(probability, ratio_sum, pair_count)


# ---------------------------------------------------------------------------
# Test-side views of simulator results
# ---------------------------------------------------------------------------

def rebinned(acc, width_m: float):
    """Coarser view (e.g. 20 m bins) of a `metrics.HiddenNodeAccumulator`'s
    pair samples: (bin centers, probability, pair counts)."""
    factor = int(round(width_m / acc.bin_width_m))
    if factor < 1 or not np.isclose(factor * acc.bin_width_m, width_m):
        raise MetricsError("rebin width must be a multiple of the bin width")
    n = (len(acc.ratio_sum) // factor) * factor
    rs = acc.ratio_sum[:n].reshape(-1, factor).sum(axis=1)
    pc = acc.pair_count[:n].reshape(-1, factor).sum(axis=1)
    centers = (np.arange(len(rs)) + 0.5) * width_m
    with np.errstate(invalid="ignore"):
        prob = np.where(pc > 0, rs / np.maximum(pc, 1), np.nan)
    return centers, prob, pc


def empirical_pmf(samples: np.ndarray, length: int) -> np.ndarray:
    """Histogram of integer samples as a pmf vector of the given length."""
    counts = np.bincount(samples, minlength=length)[:length]
    return counts / len(samples)


# ---------------------------------------------------------------------------
# Monte Carlo oracle of the counter process
# ---------------------------------------------------------------------------

# A straight Monte Carlo of the counter process is an independent oracle for
# both closed-form quantities of `mode4sim.analysis`: the hold-time pmf
# (`tbc_distribution`) and the reallocation probability
# (`reallocation_probability`).

def simulate_hold_times(n_min: int, n_max: int, p_keep: float, n_samples: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Straight simulation: chain uniform draws, keep with probability p_keep."""
    if not (1 <= n_min <= n_max):
        raise AnalysisError("need 1 <= n_min <= n_max")
    if not (0.0 <= p_keep < 1.0):
        raise AnalysisError("p_keep must lie in [0, 1)")
    if p_keep == 0.0:
        draws_per_hold = np.ones(n_samples, dtype=np.int64)
    else:
        draws_per_hold = rng.geometric(1.0 - p_keep, size=n_samples).astype(np.int64)
    draws = rng.integers(n_min, n_max + 1, size=int(draws_per_hold.sum()))
    starts = np.concatenate([[0], np.cumsum(draws_per_hold)[:-1]])
    return np.add.reduceat(draws, starts)


def simulate_reallocation_probability(n_min: int, n_max: int, p_keep: float,
                                      n_star: int, n_samples: int,
                                      rng: np.random.Generator) -> float:
    """Phase-sampling oracle: uniform window start inside each simulated hold."""
    holds = simulate_hold_times(n_min, n_max, p_keep, n_samples, rng)
    phase = rng.integers(0, holds)  # offset of the window start inside the hold
    return float(np.mean(holds - phase <= n_star))


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """TV distance between two pmf vectors (padded to a common length)."""
    size = max(len(p), len(q))
    a = np.zeros(size)
    b = np.zeros(size)
    a[: len(p)] = p
    b[: len(q)] = q
    # Mass missing from either vector (truncation, out-of-range samples) is
    # treated as fully disjoint above the support: a conservative bound.
    missing_a = max(0.0, 1.0 - a.sum())
    missing_b = max(0.0, 1.0 - b.sum())
    return float(0.5 * (np.abs(a - b).sum() + missing_a + missing_b))


# ---------------------------------------------------------------------------
# Priority power threshold
# ---------------------------------------------------------------------------

class Mode4ParamError(ValueError):
    pass


def power_threshold(a: int, b: int) -> float:
    """Occupancy threshold in dBm from transmitter priority a, receiver
    priority b. The simulator's default `RunConfig.p_th_dbm` is
    `power_threshold(1, 1)`."""
    if not (isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer))):
        raise Mode4ParamError("priorities must be integers")
    if not (0 <= a <= 7 and 0 <= b <= 7):
        raise Mode4ParamError("priorities must lie in [0, 7]")
    return float(-128 + 2 * (a * 8 + b))


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
