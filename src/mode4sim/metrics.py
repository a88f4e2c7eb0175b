"""Output metrics: packet reception ratio by distance, update delay, and the
hidden-node probability of one instant.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MetricsError(ValueError):
    pass


class PrrAccumulator:
    """Decoded/neighbor counts in fixed-width distance bins."""

    def __init__(self, bin_width_m: float = 10.0, max_range_m: float = 200.0):
        if bin_width_m <= 0 or max_range_m <= 0:
            raise MetricsError("bin width and range must be positive")
        self.bin_width_m = float(bin_width_m)
        self.max_range_m = float(max_range_m)
        self.n_bins = int(np.ceil(max_range_m / bin_width_m))
        self.neighbor_count = np.zeros(self.n_bins, dtype=np.int64)
        self.decoded_count = np.zeros(self.n_bins, dtype=np.int64)

    def bin_of(self, distance_m):
        idx = np.asarray(distance_m / self.bin_width_m, dtype=np.int64)
        return np.clip(idx, 0, self.n_bins - 1)

    def record_arrays(self, bin_idx: np.ndarray, decoded: np.ndarray):
        self.neighbor_count += np.bincount(bin_idx, minlength=self.n_bins)
        if decoded.any():
            self.decoded_count += np.bincount(bin_idx[decoded], minlength=self.n_bins)

    def by_bin(self):
        """(bin centers, prr, samples); prr is NaN for empty bins."""
        centers = (np.arange(self.n_bins) + 0.5) * self.bin_width_m
        with np.errstate(invalid="ignore"):
            prr = np.where(self.neighbor_count > 0,
                           self.decoded_count / np.maximum(self.neighbor_count, 1),
                           np.nan)
        return centers, prr, self.neighbor_count.copy()

    def pooled(self) -> float:
        """PRR over all bins; NaN when no neighbor was ever in range."""
        total = self.neighbor_count.sum()
        if total == 0:
            return float("nan")
        return float(self.decoded_count.sum() / total)


class UdTracker:
    """Inter-reception gaps per ordered (source, destination) pair.

    Gaps are kept as integer beacon-period counts (they are exact multiples
    of the beacon period); `last` holds the time of the previous correct
    reception, -1 when none.
    """

    def __init__(self, n_vehicles: int, beacon_period_s: float = 0.1):
        self.beacon_period_s = float(beacon_period_s)
        self.last = np.full((n_vehicles, n_vehicles), -1.0)
        self.gap_counts = np.zeros(1, dtype=np.int64)

    def _grow(self, need: int):
        if need >= len(self.gap_counts):
            grown = np.zeros(need + 1, dtype=np.int64)
            grown[: len(self.gap_counts)] = self.gap_counts
            self.gap_counts = grown

    def record(self, src: int, dst_indices: np.ndarray, t_now_s: float):
        prev = self.last[src, dst_indices]
        seen = prev >= 0.0
        if seen.any():
            gaps = np.rint((t_now_s - prev[seen]) / self.beacon_period_s).astype(np.int64)
            if (gaps <= 0).any():
                raise MetricsError("non-positive update-delay gap")
            self._grow(int(gaps.max()))
            self.gap_counts += np.bincount(gaps, minlength=len(self.gap_counts))
        self.last[src, dst_indices] = t_now_s

    def reset_pairs(self, out_of_range: np.ndarray):
        """Forget pairs that left the awareness range."""
        self.last[out_of_range] = -1.0

    @property
    def total_gaps(self) -> int:
        return int(self.gap_counts.sum())


def ud_percentile(ud: UdTracker, q: float) -> float:
    """Nearest-rank quantile of the pooled gaps, in seconds."""
    if not (0.0 < q <= 1.0):
        raise MetricsError("q must lie in (0, 1]")
    total = ud.total_gaps
    if total == 0:
        raise MetricsError("no update-delay gaps recorded")
    rank = int(np.ceil(q * total))
    cum = np.cumsum(ud.gap_counts)
    gap = int(np.searchsorted(cum, rank))
    return gap * ud.beacon_period_s


# ---------------------------------------------------------------------------
# Hidden-node probability
# ---------------------------------------------------------------------------

@dataclass
class HiddenNodeResult:
    """Per-snapshot hidden-node statistics.

    `probability` averages #hidden/#interferers over the (source,
    destination) pairs that actually had interferers; pairs with none are
    excluded, and when every pair is, the probability is reported as 0.
    """

    probability: float
    bin_width_m: float
    bin_ratio_sum: np.ndarray
    bin_pair_count: np.ndarray


def hidden_node_probability(power_lin: np.ndarray, dist_m: np.ndarray,
                            noise_lin: float, gamma_lin: float, bin_width_m: float,
                            max_range_m: float) -> HiddenNodeResult:
    """Fraction of link-breaking interferers the source cannot hear.

    `power_lin` is the (n, n) linear received power, rows = transmitter,
    with a zero diagonal; `dist_m` the (n, n) pair distances; `noise_lin`
    and `gamma_lin` the noise floor in mW and the decoding threshold as a
    linear ratio. Destinations are nodes with interference-free SNR above
    the threshold; an interferer is any third node whose power alone pushes
    the pair's SINR below it; it is hidden when the source receives it below
    the same threshold over noise.
    """
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
        bins = np.clip((dist_m[a, dests[has_i]] / bin_width_m).astype(int), 0, n_bins - 1)
        ratio_sum += np.bincount(bins, weights=ratios, minlength=n_bins)
        pair_count += np.bincount(bins, minlength=n_bins)
        total_ratio += float(ratios.sum())
        total_pairs += int(has_i.sum())
    probability = total_ratio / total_pairs if total_pairs else 0.0
    return HiddenNodeResult(probability, bin_width_m, ratio_sum, pair_count)


class HiddenNodeAccumulator:
    """Average hidden-node statistics across periodically sampled snapshots."""

    def __init__(self, bin_width_m: float = 10.0, max_range_m: float = 500.0):
        self.bin_width_m = bin_width_m
        self.max_range_m = max_range_m
        n_bins = int(np.ceil(max_range_m / bin_width_m))
        self.ratio_sum = np.zeros(n_bins)
        self.pair_count = np.zeros(n_bins, dtype=np.int64)
        self.snapshot_probs = []

    def add(self, result: HiddenNodeResult):
        self.ratio_sum += result.bin_ratio_sum
        self.pair_count += result.bin_pair_count
        self.snapshot_probs.append(result.probability)

    def overall(self) -> float:
        """Mean over snapshots; NaN when no sampled instant had two vehicles."""
        if not self.snapshot_probs:
            return float("nan")
        return float(np.mean(self.snapshot_probs))

    def by_bin(self):
        centers = (np.arange(len(self.ratio_sum)) + 0.5) * self.bin_width_m
        with np.errstate(invalid="ignore"):
            prob = np.where(self.pair_count > 0,
                            self.ratio_sum / np.maximum(self.pair_count, 1), np.nan)
        return centers, prob, self.pair_count.copy()

    def rebinned(self, width_m: float):
        """Coarser view (e.g. 20 m bins) of the same pair samples."""
        factor = int(round(width_m / self.bin_width_m))
        if factor < 1 or not np.isclose(factor * self.bin_width_m, width_m):
            raise MetricsError("rebin width must be a multiple of the bin width")
        n = (len(self.ratio_sum) // factor) * factor
        rs = self.ratio_sum[:n].reshape(-1, factor).sum(axis=1)
        pc = self.pair_count[:n].reshape(-1, factor).sum(axis=1)
        centers = (np.arange(len(rs)) + 0.5) * width_m
        with np.errstate(invalid="ignore"):
            prob = np.where(pc > 0, rs / np.maximum(pc, 1), np.nan)
        return centers, prob, pc
