"""Output metrics: packet reception ratio by distance, update delay, and the
hidden-node probability of one instant.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MetricsError(ValueError):
    pass


def _n_bins(bin_width_m: float, max_range_m: float) -> int:
    return int(np.ceil(max_range_m / bin_width_m))


def _bin_index(distance_m, bin_width_m: float, n_bins: int):
    """Each finite, non-negative distance's bin. Callers bin distances
    within the range only; the last bin also holds the range's end when the
    range is a whole number of bins."""
    idx = np.asarray(distance_m / bin_width_m, dtype=np.int64)
    return np.clip(idx, 0, n_bins - 1)


def _ratio_by_bin(bin_width_m: float, total, count):
    """(bin centers, total / count with NaN where the count is 0, count)."""
    centers = (np.arange(len(count)) + 0.5) * bin_width_m
    with np.errstate(invalid="ignore"):
        ratio = np.where(count > 0, total / np.maximum(count, 1), np.nan)
    return centers, ratio, count.copy()


class PrrAccumulator:
    """Decoded/neighbor counts in fixed-width distance bins."""

    def __init__(self, bin_width_m: float, max_range_m: float):
        if bin_width_m <= 0 or max_range_m <= 0:
            raise MetricsError("bin width and range must be positive")
        self.bin_width_m = float(bin_width_m)
        self.n_bins = _n_bins(bin_width_m, max_range_m)
        self.neighbor_count = np.zeros(self.n_bins, dtype=np.int64)
        self.decoded_count = np.zeros(self.n_bins, dtype=np.int64)

    def bin_of(self, distance_m):
        return _bin_index(distance_m, self.bin_width_m, self.n_bins)

    def record_arrays(self, bin_idx: np.ndarray, decoded: np.ndarray):
        self.neighbor_count += np.bincount(bin_idx, minlength=self.n_bins)
        if decoded.any():
            self.decoded_count += np.bincount(bin_idx[decoded], minlength=self.n_bins)

    def by_bin(self):
        """(bin centers, prr, samples); prr is NaN for empty bins."""
        return _ratio_by_bin(self.bin_width_m, self.decoded_count, self.neighbor_count)

    def pooled(self) -> float:
        """PRR over all bins; NaN when no neighbor was ever in range."""
        total = self.neighbor_count.sum()
        if total == 0:
            return float("nan")
        return float(self.decoded_count.sum() / total)


class UdTracker:
    """Inter-reception gaps per ordered (source, destination) neighbour pair.

    A period's pairs are `keys`, the sorted `src * n + dst` of its neighbour
    list; `last[k]` holds the sequence number of pair k's previous correct
    reception, -1 when none. A source sends one beacon per period, so gaps
    are kept as integer beacon-period counts.
    """

    def __init__(self, beacon_period_s: float):
        self.beacon_period_s = float(beacon_period_s)
        self.keys = np.empty(0, dtype=np.int64)
        self.last = np.empty(0, dtype=np.int32)
        self.gap_counts = np.zeros(1, dtype=np.int64)

    def record(self, pairs: np.ndarray, beacons: np.ndarray):
        """Receptions over the pairs at positions `pairs` of `keys`, pair
        `pairs[k]` of the beacon with sequence number `beacons[k]`. No pair
        may repeat within one call.
        """
        prev = self.last[pairs]
        seen = prev >= 0
        if seen.any():
            gaps = beacons[seen] - prev[seen]
            if (gaps <= 0).any():
                raise MetricsError("non-positive update-delay gap")
            counts = np.bincount(gaps)
            if len(counts) > len(self.gap_counts):
                self.gap_counts = np.pad(self.gap_counts, (0, len(counts) - len(self.gap_counts)))
            self.gap_counts[:len(counts)] += counts
        self.last[pairs] = beacons

    def reset_pairs(self, keys: np.ndarray):
        """Start a period on the sorted pair keys `keys`: pairs that stay
        keep their last reception, pairs that left are forgotten."""
        last = np.full(len(keys), -1, dtype=np.int32)
        held = np.flatnonzero(self.last >= 0)
        if len(held) and len(keys):
            old = self.keys[held]
            at = np.minimum(np.searchsorted(keys, old), len(keys) - 1)
            stay = keys[at] == old
            last[at[stay]] = self.last[held[stay]]
        self.keys, self.last = keys, last

    @property
    def total_gaps(self) -> int:
        return int(self.gap_counts.sum())


def ud_percentile(ud: UdTracker, q: float) -> float:
    """Nearest-rank quantile of the pooled gaps, in seconds; NaN when no gap
    was recorded."""
    if not (0.0 < q <= 1.0):
        raise MetricsError("q must lie in (0, 1]")
    total = ud.total_gaps
    if total == 0:
        return float("nan")
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
    bin_ratio_sum: np.ndarray
    bin_pair_count: np.ndarray


def _count_above(power_lin: np.ndarray, dst: np.ndarray, thr: np.ndarray) -> np.ndarray:
    """Per link k, the number of entries of column `dst[k]` above `thr[k]`.

    Each column is sorted once, when a link first needs it, and searched for
    all of its links' thresholds at once.
    """
    n = len(power_lin)
    by_dst = np.argsort(dst, kind="stable")
    bounds = np.searchsorted(dst[by_dst], np.arange(n + 1)).tolist()
    counts = np.empty(len(dst), dtype=np.int64)
    for b in range(n):
        links = by_dst[bounds[b]:bounds[b + 1]]
        if len(links):
            counts[links] = n - np.searchsorted(np.sort(power_lin[:, b]), thr[links],
                                                side="right")
    return counts


def _count_heard_above(power_lin: np.ndarray, snr_floor: float, src: np.ndarray,
                       dst: np.ndarray, thr: np.ndarray) -> np.ndarray:
    """Per link k, the number of rows i != src[k] the source hears
    (`power_lin[i, src[k]] >= snr_floor`) with `power_lin[i, dst[k]] > thr[k]`.

    `src` must be sorted; each source compares one (heard, destinations)
    block of the power matrix.
    """
    n = len(power_lin)
    hears = np.ascontiguousarray((power_lin >= snr_floor).T)
    np.fill_diagonal(hears, False)
    flat = power_lin.ravel()
    bounds = np.searchsorted(src, np.arange(n + 1)).tolist()
    counts = np.zeros(len(src), dtype=np.int64)
    for a in range(n):
        lo, hi = bounds[a], bounds[a + 1]
        if hi > lo:
            block = flat.take(np.flatnonzero(hears[a])[:, None] * n + dst[lo:hi])
            counts[lo:hi] = (block > thr[lo:hi]).sum(axis=0)
    return counts


def hidden_node_probability(power_lin: np.ndarray, neighbours, noise_lin: float,
                            gamma_lin: float, bin_width_m: float,
                            max_range_m: float) -> HiddenNodeResult:
    """Fraction of link-breaking interferers the source cannot hear.

    `power_lin` is the (n, n) linear received power, rows = transmitter,
    with a zero diagonal; `neighbours` the pairs within `max_range_m`, as
    the ascending keys src * n + dst and their distances; `noise_lin` and
    `gamma_lin` the noise floor in mW and the decoding threshold as a
    linear ratio. Destinations are nodes with interference-free SNR above
    the threshold; an interferer is any third node whose power alone pushes
    the pair's SINR below it; it is hidden when the source receives it below
    the same threshold over noise. `probability` averages over every link
    with interferers; the distance bins hold only the links in `neighbours`.

    Both counts are exact integers. The interferers of link (a, b) are the
    entries of column b above `P[a,b]/gamma - N`, found by binary search in
    that column sorted once, less the source's own entry if it is above
    too (always when gamma >= 1, not always when gamma < 1). The hidden
    ones are the interferers less those the source hears, so per source
    only the rows i with `P[i,a] >= gamma*N`, about the decoding-range
    neighbours, are compared. Ratio sums are added per source in source
    order, as a loop over sources adds them, so the result does not depend
    on how the counts were found.
    """
    n = len(power_lin)
    if n < 2:
        raise MetricsError("need at least two vehicles")
    n_bins = _n_bins(bin_width_m, max_range_m)
    snr_floor = gamma_lin * noise_lin
    # Every decodable link (a, b), a != b, sources ascending, then destinations.
    src, dst = np.nonzero(power_lin > snr_floor)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    link_power = power_lin[src, dst]
    # Interference level at b that breaks the a->b link.
    break_thr = link_power / gamma_lin - noise_lin
    i_cnt = _count_above(power_lin, dst, break_thr) - (link_power > break_thr)
    h_cnt = i_cnt - _count_heard_above(power_lin, snr_floor, src, dst, break_thr)
    has_i = i_cnt > 0
    src, dst = src[has_i], dst[has_i]
    ratios = h_cnt[has_i] / i_cnt[has_i]
    # Only the links in the neighbour list are binned. Both key lists are
    # ascending, so each neighbour key is searched in the links, and the
    # links it finds stay in link order.
    keys, dist_m = neighbours
    link = src * n + dst
    at = np.searchsorted(link, keys)
    found = at < len(link)
    found[found] = link[at[found]] == keys[found]
    binned = at[found]
    bin_idx = _bin_index(dist_m[found], bin_width_m, n_bins)
    # Row a holds source a's partial sums; cumsum adds the rows in order.
    per_source = np.bincount(src[binned] * n_bins + bin_idx, weights=ratios[binned],
                             minlength=n * n_bins).reshape(n, n_bins)
    ratio_sum = np.cumsum(per_source, axis=0)[-1]
    pair_count = np.bincount(bin_idx, minlength=n_bins)
    # One sum per source, added in order (builtin `sum` would compensate
    # the additions on Python 3.12+).
    total_ratio = 0.0
    bounds = np.searchsorted(src, np.arange(n + 1)).tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        total_ratio += float(ratios[lo:hi].sum())
    probability = total_ratio / len(ratios) if len(ratios) else 0.0
    return HiddenNodeResult(probability, ratio_sum, pair_count)


class HiddenNodeAccumulator:
    """Average hidden-node statistics across periodically sampled snapshots."""

    def __init__(self, bin_width_m: float, max_range_m: float):
        self.bin_width_m = bin_width_m
        self.ratio_sum = np.zeros(_n_bins(bin_width_m, max_range_m))
        self.pair_count = np.zeros(len(self.ratio_sum), dtype=np.int64)
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
        """(bin centers, probability, pair samples); NaN for empty bins."""
        return _ratio_by_bin(self.bin_width_m, self.ratio_sum, self.pair_count)
