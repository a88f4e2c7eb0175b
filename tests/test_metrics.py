import numpy as np
import pytest

from mode4sim.channel import dbm_to_mw
from mode4sim.metrics import (HiddenNodeAccumulator, MetricsError,
                              PrrAccumulator, UdTracker,
                              hidden_node_probability, ud_percentile)
from mode4sim.scenario import pair_legs
from oracles import NOISE_DBM, RxOutcome, ScenarioSnapshot, make_channel, record_beacon

GAMMA_DB = 7.30


# -- PRR ----------------------------------------------------------------------

def outcomes_for(src, decoded_map):
    return [RxOutcome(src, dst, 10.0, dec, False) for dst, dec in decoded_map.items()]


def snapshot_line(xs):
    n = len(xs)
    return ScenarioSnapshot(tti=0, ids=np.arange(n),
                            positions=np.column_stack([xs, np.zeros(n)]))


def test_all_neighbors_decoding_gives_unit_bin():
    prr = PrrAccumulator(10.0, 200.0)
    ud = UdTracker(3)
    snap = snapshot_line([0.0, 5.0, 8.0])
    record_beacon(prr, ud, 0, outcomes_for(0, {1: True, 2: True}), snap, 200.0, 0.1)
    centers, values, samples = prr.by_bin()
    assert values[0] == 1.0 and samples[0] == 2
    assert prr.pooled() == 1.0


def test_blocked_neighbors_count_in_denominator():
    prr = PrrAccumulator(10.0, 200.0)
    ud = UdTracker(2)
    snap = snapshot_line([0.0, 5.0])
    outcomes = [RxOutcome(0, 1, float("nan"), False, True)]
    record_beacon(prr, ud, 0, outcomes, snap, 200.0, 0.1)
    assert prr.pooled() == 0.0
    assert prr.neighbor_count[0] == 1


def test_beyond_awareness_not_counted():
    prr = PrrAccumulator(10.0, 200.0)
    ud = UdTracker(2)
    snap = snapshot_line([0.0, 250.0])
    record_beacon(prr, ud, 0, outcomes_for(0, {1: True}), snap, 200.0, 0.1)
    assert prr.neighbor_count.sum() == 0


def test_prr_bounds_and_pooling():
    rng = np.random.default_rng(0)
    acc = PrrAccumulator(10.0, 100.0)
    decoded = 0
    for _ in range(3):
        bins = rng.integers(0, 10, size=200)
        dec = rng.random(200) < 0.7
        acc.record_arrays(bins, dec)
        decoded += int(dec.sum())
    _, values, _ = acc.by_bin()
    ok = ~np.isnan(values)
    assert ((values[ok] >= 0) & (values[ok] <= 1)).all()
    assert acc.neighbor_count.sum() == 600
    assert (acc.decoded_count <= acc.neighbor_count).all()
    assert acc.pooled() == pytest.approx(decoded / 600)
    assert np.isnan(PrrAccumulator(10.0, 100.0).pooled())


# -- UD -----------------------------------------------------------------------

def test_gap_arithmetic():
    ud = UdTracker(2, beacon_period_s=0.1)
    ud.record(0, np.array([1]), 0.5)
    ud.record(0, np.array([1]), 0.8)
    assert ud.total_gaps == 1
    assert ud_percentile(ud, 1.0) == pytest.approx(0.3)


def test_lossfree_floor_gaps_are_one_period():
    ud = UdTracker(2)
    for k in range(1, 50):
        ud.record(0, np.array([1]), k * 0.1)
    assert ud_percentile(ud, 0.5) == pytest.approx(0.1)
    assert ud_percentile(ud, 1.0) == pytest.approx(0.1)


def test_nearest_rank_percentile():
    ud = UdTracker(2)
    # Nine 0.1 s gaps and one 0.5 s gap: q=0.9 hits rank 9 of 10.
    t = 0.0
    for _ in range(10):
        t += 0.1
        ud.record(0, np.array([1]), t)
    ud.record(0, np.array([1]), t + 0.5)
    assert ud.total_gaps == 10
    assert ud_percentile(ud, 0.9) == pytest.approx(0.1)
    assert ud_percentile(ud, 1.0) == pytest.approx(0.5)


def test_percentile_monotone_in_q():
    rng = np.random.default_rng(1)
    ud = UdTracker(2)
    t = 0.0
    for _ in range(500):
        t += 0.1 * int(rng.integers(1, 20))
        ud.record(0, np.array([1]), t)
    qs = np.linspace(0.05, 1.0, 40)
    vals = [ud_percentile(ud, q) for q in qs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_out_of_range_reset_drops_pair_state():
    ud = UdTracker(2)
    ud.record(0, np.array([1]), 0.1)
    mask = np.ones((2, 2), dtype=bool)  # everything out of range
    ud.reset_pairs(mask)
    ud.record(0, np.array([1]), 5.0)
    assert ud.total_gaps == 0  # no gap across the reset


def test_empty_tracker_raises():
    with pytest.raises(MetricsError):
        ud_percentile(UdTracker(2), 0.9)


def test_gaps_are_positive_invariant():
    ud = UdTracker(2)
    ud.record(0, np.array([1]), 0.3)
    with pytest.raises(MetricsError):
        ud.record(0, np.array([1]), 0.3)


# -- hidden node ----------------------------------------------------------------

def hidden_node(snap, chan, gamma_db, bin_width_m=10.0, max_range_m=500.0):
    """hidden_node_probability on a snapshot's distances and a realization."""
    dist = np.hypot(*pair_legs(snap.positions, snap.wrap_length_m))
    return hidden_node_probability(
        chan.rx_power_lin(), dist, float(dbm_to_mw(NOISE_DBM)),
        float(dbm_to_mw(gamma_db)), bin_width_m, max_range_m)


def test_two_vehicles_vacuous_case():
    snap = snapshot_line([0.0, 50.0])
    chan = make_channel([[0, -70], [-70, 0]])
    res = hidden_node(snap, chan, GAMMA_DB)
    assert res.bin_pair_count.sum() == 0
    assert res.probability == 0.0


def test_constructed_hidden_node_gives_one():
    # Source 0 -> destination 1; interferer 2 sits next to the destination
    # (strong enough to break the link) and out of the source's earshot.
    rx = np.full((3, 3), -150.0)
    rx[0, 1] = -85.0   # link SNR ~ 14 dB above noise: decodable alone
    rx[2, 1] = -80.0   # interference pushes SINR below the threshold
    rx[2, 0] = -130.0  # source cannot hear the interferer
    rx[0, 2] = -130.0
    chan = make_channel(rx)
    snap = snapshot_line([0.0, 100.0, 130.0])
    res = hidden_node(snap, chan, GAMMA_DB)
    # Pair (0 -> 1) is interfered by the hidden node 2; the reverse-direction
    # pair (2 -> 1) is likewise broken by 0, which 2 cannot hear either.
    assert res.bin_pair_count.sum() == 2
    assert res.probability == 1.0
    assert res.bin_ratio_sum[10] == 1.0  # the 100 m source-destination pair
    assert res.bin_ratio_sum[3] == 1.0   # the 30 m reverse pair


def test_audible_interferer_is_not_hidden():
    rx = np.full((3, 3), -150.0)
    rx[0, 1] = -85.0
    rx[2, 1] = -80.0
    rx[2, 0] = -70.0   # each source hears the node breaking its link
    rx[0, 2] = -70.0
    chan = make_channel(rx)
    snap = snapshot_line([0.0, 100.0, 130.0])
    res = hidden_node(snap, chan, GAMMA_DB)
    assert res.bin_pair_count.sum() == 2
    assert res.probability == 0.0


def test_membership_matches_set_oracle():
    rng = np.random.default_rng(5)
    n = 12
    rx = rng.uniform(-130, -60, size=(n, n))
    chan = make_channel(rx)
    snap = snapshot_line(list(rng.uniform(0, 400, size=n)))
    res = hidden_node(snap, chan, GAMMA_DB)
    # Brute-force evaluation of the three set definitions.
    power = chan.rx_power_lin()
    noise = float(dbm_to_mw(NOISE_DBM))
    gamma = float(dbm_to_mw(GAMMA_DB))
    ratios = []
    for a in range(n):
        for b in range(n):
            if b == a or power[a, b] / noise <= gamma:
                continue
            interferers = [c for c in range(n) if c not in (a, b)
                           and power[a, b] / (noise + power[c, b]) < gamma]
            if not interferers:
                continue
            hidden = [c for c in interferers if power[c, a] / noise < gamma]
            ratios.append(len(hidden) / len(interferers))
    assert res.bin_pair_count.sum() == len(ratios)
    assert res.probability == pytest.approx(float(np.mean(ratios)))


def test_probability_within_unit_interval_and_rebin():
    rng = np.random.default_rng(6)
    acc = HiddenNodeAccumulator(bin_width_m=10.0, max_range_m=200.0)
    for k in range(5):
        n = 30
        rx = rng.uniform(-120, -60, size=(n, n))
        chan = make_channel(rx)
        snap = snapshot_line(list(rng.uniform(0, 500, size=n)))
        res = hidden_node(snap, chan, GAMMA_DB,
                          bin_width_m=10.0, max_range_m=200.0)
        assert 0.0 <= res.probability <= 1.0
        acc.add(res)
    assert 0.0 <= acc.overall() <= 1.0
    assert np.isnan(HiddenNodeAccumulator(bin_width_m=10.0, max_range_m=200.0).overall())
    centers20, prob20, pairs20 = acc.rebinned(20.0)
    assert len(centers20) == 10
    assert pairs20.sum() == acc.pair_count.sum()
