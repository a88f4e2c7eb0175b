"""Distributed sidelink resource selection (sensing + semi-persistent MAC).

Selection walks the standardized pipeline: restrict to the [t1, t2] window,
drop unmonitored BRs, drop BRs whose decoded control messages mark them
reserved with average RSRP above the power threshold (escalating the
threshold 3 dB at a time until enough survive), rank the rest by average
S-RSSI and hand the lowest n_R to the MAC, which picks uniformly and holds
the choice for a counter drawn in [n_min, n_max], rolling a keep/reselect
die at every expiry.
"""
from __future__ import annotations

import math

import numpy as np

from .channel import dbm_to_mw
from .config import RunConfig


class Mode4ParamError(ValueError):
    pass


class Mode4ProtocolError(RuntimeError):
    pass


def power_threshold(a: int, b: int) -> float:
    """Occupancy threshold in dBm from transmitter priority a, receiver priority b."""
    if not (isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer))):
        raise Mode4ParamError("priorities must be integers")
    if not (0 <= a <= 7 and 0 <= b <= 7):
        raise Mode4ParamError("priorities must lie in [0, 7]")
    return float(-128 + 2 * (a * 8 + b))


class SensingMemory:
    """Sensing memory of every vehicle, and the only code that writes it.

    The memory is a ring of `t_sense / beacon_period` period slots per
    vehicle; each slot holds per-BR S-RSSI and RSRP samples in linear mW,
    stored as float32 with 0 meaning no sample, plus per-subframe monitored
    flags. Slots older than the ring depth are overwritten, which is exactly
    the discard-after-t_sense rule. A vehicle marked as transmitting in a
    subframe must take no sample in it; `half_duplex_writes` counts the
    writes that break this rule.
    """

    def __init__(self, n: int, cfg: RunConfig):
        self.n_slots = cfg.t_sense_ms // cfg.beacon_period_ms
        self.brs_per_tti = cfg.brs_per_tti
        r = cfg.br_count
        self.s_rssi = np.zeros((n, self.n_slots, r), dtype=np.float32)
        self.rsrp_sum = np.zeros((n, self.n_slots, r), dtype=np.float32)
        self.rsrp_cnt = np.zeros((n, self.n_slots, r), dtype=np.int32)
        self.monitored = np.ones((n, self.n_slots, cfg.beacon_period_ms), dtype=bool)
        self.noise_floor_lin = float(dbm_to_mw(cfg.noise_floor_dbm()))
        self.slot = 0
        self.half_duplex_writes = 0

    def begin_period(self, period: int):
        """Recycle the ring slot of the period about to be sensed."""
        self.slot = period % self.n_slots
        self.s_rssi[:, self.slot] = 0.0
        self.rsrp_sum[:, self.slot] = 0.0
        self.rsrp_cnt[:, self.slot] = 0
        self.monitored[:, self.slot] = True

    def mark_transmissions(self, rows: np.ndarray, subframe: int):
        """Vehicles `rows` transmit in `subframe`: they do not monitor it."""
        self.monitored[rows, self.slot, subframe] = False

    def _transmitting(self, subframe: int) -> np.ndarray:
        return ~self.monitored[:, self.slot, subframe]

    def record_srssi(self, observers: np.ndarray, subframe: int, srssi=None):
        """S-RSSI of the subframe's BRs at the `observers` (a vehicle mask).

        `srssi` is the (brs_per_tti, n) total power per BR at every vehicle;
        None stands for a subframe nobody transmits in, where every BR reads
        the noise floor.
        """
        self.half_duplex_writes += int(np.count_nonzero(
            observers & self._transmitting(subframe)))
        base = subframe * self.brs_per_tti
        for f in range(self.brs_per_tti):
            value = self.noise_floor_lin if srssi is None else srssi[f, observers]
            self.s_rssi[observers, self.slot, base + f] = value

    def record_rsrp(self, subframe: int, tx_slots: np.ndarray,
                    power_rows: np.ndarray, decoded: np.ndarray):
        """RSRP of each decoded transmission at the vehicles that decoded it.

        Row k of `power_rows` and `decoded` (n_tx, n) belongs to the
        transmission in frequency slot `tx_slots[k]` of `subframe`.
        """
        self.half_duplex_writes += int(np.count_nonzero(
            decoded[:, self._transmitting(subframe)]))
        base = subframe * self.brs_per_tti
        for k in range(len(tx_slots)):
            dec = decoded[k]
            if dec.any():
                r = base + int(tx_slots[k])
                self.rsrp_sum[dec, self.slot, r] += power_rows[k, dec]
                self.rsrp_cnt[dec, self.slot, r] += 1

    # Aggregates of vehicle v over the whole ring (= the sensing window).

    def monitored_offsets(self, v: int) -> np.ndarray:
        return self.monitored[v].all(axis=0)

    def avg_srssi_lin(self, v: int) -> np.ndarray:
        s_rssi = self.s_rssi[v]
        total = s_rssi.sum(axis=0, dtype=np.float64)
        count = np.count_nonzero(s_rssi, axis=0)
        return np.where(count > 0, total / np.maximum(count, 1), self.noise_floor_lin)

    def avg_rsrp_lin(self, v: int) -> np.ndarray:
        """Average RSRP per BR; 0 for a BR with no decoded reservation."""
        count = self.rsrp_cnt[v].sum(axis=0)
        total = self.rsrp_sum[v].sum(axis=0, dtype=np.float64)
        return np.where(count > 0, total / np.maximum(count, 1), 0.0)


def selection_count(r_sel: float, basis_count: int) -> int:
    """Number of candidates handed to the MAC: ceil(r_sel * basis)."""
    return math.ceil(r_sel * basis_count)


def candidate_set(memory: SensingMemory, v: int, cfg: RunConfig,
                  now_tti: int) -> np.ndarray:
    """Flat BR indices, best first, for vehicle v selecting at `now_tti`.

    Escalating the power threshold only relaxes occupancy; if the monitored
    in-window BRs themselves number fewer than n_R, all of them are returned.
    """
    t_b = cfg.beacon_period_ms
    offsets = (now_tti + np.arange(cfg.t1, cfg.t2 + 1)) % t_b
    in_window = np.zeros(t_b, dtype=bool)
    in_window[offsets] = True
    usable = in_window & memory.monitored_offsets(v)
    cand = np.repeat(usable, cfg.brs_per_tti)
    if cfg.nr_basis == "window":
        basis = int(in_window.sum()) * cfg.brs_per_tti
    else:
        basis = cfg.br_count
    n_r = selection_count(cfg.r_sel, basis)
    if not cand.any():
        return np.flatnonzero(cand)

    # Unreserved BRs average 0 mW, below any threshold.
    avg_rsrp = memory.avg_rsrp_lin(v)
    p_th_dbm = cfg.p_th_dbm
    while True:
        occupied = avg_rsrp > dbm_to_mw(p_th_dbm)
        survivors = cand & ~occupied
        if survivors.sum() >= n_r or not (cand & occupied).any():
            break
        p_th_dbm += 3.0

    avg_srssi = memory.avg_srssi_lin(v)
    idx = np.flatnonzero(survivors)
    order = idx[np.argsort(avg_srssi[idx], kind="stable")]
    return order[:n_r]


def mac_select(candidates: np.ndarray, cfg: RunConfig,
               rng: np.random.Generator) -> tuple[int, int]:
    """Uniform pick among the candidate BRs plus a fresh reselection counter."""
    if len(candidates) == 0:
        raise Mode4ProtocolError("MAC selection received an empty candidate list")
    choice = int(candidates[int(rng.integers(len(candidates)))])
    counter = draw_counter(cfg, rng)
    return choice, counter


def draw_counter(cfg: RunConfig, rng: np.random.Generator) -> int:
    return int(rng.integers(cfg.n_min, cfg.n_max + 1))


def on_beacon_period_end(counters: np.ndarray, v: int, cfg: RunConfig,
                         rng: np.random.Generator) -> str:
    """Advance vehicle v's counter after a beacon period; decide keep vs reselect.

    A counter of 0 means no active allocation. On a keep-at-expiry the
    counter is redrawn here; on 'reselect' it stays 0 until candidate_set +
    mac_select supply the new one.
    """
    counter = int(counters[v]) - 1
    if counter < 0:
        raise Mode4ProtocolError("no active allocation")
    if counter == 0 and rng.random() < cfg.p_keep:
        counter = draw_counter(cfg, rng)
    counters[v] = counter
    return "keep" if counter > 0 else "reselect"
