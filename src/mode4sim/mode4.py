"""Distributed sidelink resource selection (sensing + semi-persistent MAC).

Selection walks the standardized pipeline: restrict to the [t1, t2] window,
drop unmonitored BRs unless none would be left, drop BRs whose decoded
control messages mark them reserved with average RSRP above the power
threshold (escalating the threshold 3 dB at a time until enough survive),
rank the rest by average S-RSSI and hand the lowest n_R to the MAC, which
picks uniformly and holds the choice for a counter drawn in [n_min, n_max],
rolling a keep/reselect die at every expiry.
"""
from __future__ import annotations

import math

import numpy as np

from .channel import dbm_to_mw
from .config import RunConfig


class Mode4ProtocolError(RuntimeError):
    pass


class SensingMemory:
    """Sensing memory of every vehicle, and the only code that writes it.

    The memory is a ring of `t_sense / beacon_period` period slots per
    vehicle; each slot holds per-BR S-RSSI and RSRP samples in linear mW,
    stored as float32 with 0 meaning no sample. A decode count is below n
    (one subframe's transmissions in one frequency slot), so it takes the
    smallest unsigned type that holds n. Slots older than the ring depth
    are overwritten, which is exactly the discard-after-t_sense rule.
    `last_tx[v, s]`, the period of v's latest transmission in subframe s,
    tells whether v monitored s over the ring. A vehicle transmitting in a
    subframe must take no sample in it; `half_duplex_writes` counts the
    writes that break this rule.
    """

    def __init__(self, n: int, cfg: RunConfig):
        self.n_slots = cfg.t_sense_ms // cfg.beacon_period_ms
        self.brs_per_tti = cfg.brs_per_tti
        r = cfg.br_count
        self.s_rssi = np.zeros((n, self.n_slots, r), dtype=np.float32)
        self.rsrp_sum = np.zeros((n, self.n_slots, r), dtype=np.float32)
        self.rsrp_cnt = np.zeros((n, self.n_slots, r), dtype=np.min_scalar_type(n))
        self.last_tx = np.full((n, cfg.beacon_period_ms), -self.n_slots, dtype=np.int32)
        self.noise_floor_lin = float(dbm_to_mw(cfg.noise_floor_dbm()))
        self.period = self.slot = 0
        self.half_duplex_writes = 0

    def begin_period(self, period: int):
        """Recycle the ring slot of the period about to be sensed."""
        self.period = period
        self.slot = period % self.n_slots
        self.s_rssi[:, self.slot] = 0.0
        self.rsrp_sum[:, self.slot] = 0.0
        self.rsrp_cnt[:, self.slot] = 0

    def record_subframe(self, subframe: int, txs: np.ndarray, observers: np.ndarray,
                        srssi, tx_slots: np.ndarray, power_rows: np.ndarray,
                        decoded: np.ndarray):
        """Write the samples of `subframe` into its BR columns of the slot.

        Vehicles `txs` transmit in the subframe and do not monitor it. The
        `observers` (a vehicle mask) take the S-RSSI `srssi`: the
        (brs_per_tti, n) total power per BR at every vehicle, or one value
        for every BR. Row k of `power_rows` and `decoded` (n_tx, n) belongs
        to the transmission in frequency slot `tx_slots[k]`; its power adds
        to the RSRP sum and count of that BR at the vehicles that decoded it.

        The columns are assigned whole: `begin_period` zeroed them and each
        subframe is written once per period, so a subframe without
        transmissions leaves its RSRP columns as they are.
        """
        slot = self.slot
        self.last_tx[txs, subframe] = self.period
        self.half_duplex_writes += int(np.count_nonzero(observers[txs])
                                       + np.count_nonzero(decoded[:, txs]))
        base = subframe * self.brs_per_tti
        brs = slice(base, base + self.brs_per_tti)
        # `.T` views the columns as (brs_per_tti, n) blocks.
        self.s_rssi[:, slot, brs].T[...] = np.where(observers, srssi, 0.0)
        if len(tx_slots) == 0:
            return
        # At most one transmission per slot and vehicle decodes when the
        # threshold is at least 0 dB, so each RSRP sum then has one non-zero
        # term.
        member = (tx_slots == np.arange(self.brs_per_tti)[:, None]).astype(float)
        self.rsrp_sum[:, slot, brs].T[...] = member @ np.where(decoded, power_rows, 0.0)
        self.rsrp_cnt[:, slot, brs].T[...] = member @ decoded

    # Aggregates of vehicle v over the whole ring (= the sensing window).

    def monitored_offsets(self, v: int) -> np.ndarray:
        return self.last_tx[v] <= self.period - self.n_slots

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
    A window without a monitored subframe offers all of its BRs instead.
    """
    t_b = cfg.beacon_period_ms
    offsets = (now_tti + np.arange(cfg.t1, cfg.t2 + 1)) % t_b
    in_window = np.zeros(t_b, dtype=bool)
    in_window[offsets] = True
    usable = in_window & memory.monitored_offsets(v)
    cand = np.repeat(usable if usable.any() else in_window, cfg.brs_per_tti)
    if cfg.nr_basis == "window":
        basis = int(in_window.sum()) * cfg.brs_per_tti
    else:
        basis = cfg.br_count
    n_r = selection_count(cfg.r_sel, basis)

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
