import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mode4sim.channel import dbm_to_mw
from mode4sim.metrics import (HiddenNodeAccumulator, MetricsError,
                              PrrAccumulator, UdTracker,
                              hidden_node_probability, ud_percentile)
from oracles import (NOISE_DBM, DenseUdTracker, RxOutcome, ScenarioSnapshot,
                     hidden_node_loop, make_channel, neighbour_list, pair_distances,
                     rebinned, record_beacon)

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
    ud = DenseUdTracker(3, 0.1)
    snap = snapshot_line([0.0, 5.0, 8.0])
    record_beacon(prr, ud, 0, outcomes_for(0, {1: True, 2: True}), snap, 200.0, 0.1)
    centers, values, samples = prr.by_bin()
    assert values[0] == 1.0 and samples[0] == 2
    assert prr.pooled() == 1.0


def test_blocked_neighbors_count_in_denominator():
    prr = PrrAccumulator(10.0, 200.0)
    ud = DenseUdTracker(2, 0.1)
    snap = snapshot_line([0.0, 5.0])
    outcomes = [RxOutcome(0, 1, float("nan"), False, True)]
    record_beacon(prr, ud, 0, outcomes, snap, 200.0, 0.1)
    assert prr.pooled() == 0.0
    assert prr.neighbor_count[0] == 1


def test_beyond_awareness_not_counted():
    prr = PrrAccumulator(10.0, 200.0)
    ud = DenseUdTracker(2, 0.1)
    snap = snapshot_line([0.0, 250.0])
    record_beacon(prr, ud, 0, outcomes_for(0, {1: True}), snap, 200.0, 0.1)
    assert prr.neighbor_count.sum() == 0


def test_prr_bounds_and_pooling():
    rng = np.random.default_rng(0)
    acc = PrrAccumulator(10.0, 100.0)
    decoded = 0
    for _ in range(3):
        bin_idx = rng.integers(0, 10, size=200)
        dec = rng.random(200) < 0.7
        acc.record_arrays(bin_idx, dec)
        decoded += int(dec.sum())
    _, values, _ = acc.by_bin()
    ok = ~np.isnan(values)
    assert ((values[ok] >= 0) & (values[ok] <= 1)).all()
    assert acc.neighbor_count.sum() == 600
    assert (acc.decoded_count <= acc.neighbor_count).all()
    assert acc.pooled() == pytest.approx(decoded / 600)
    assert np.isnan(PrrAccumulator(10.0, 100.0).pooled())


# -- UD -----------------------------------------------------------------------

# The one pair (0 -> 1) of two vehicles: key 0 * 2 + 1, position 0.
PAIR = np.array([0])


def one_pair_tracker():
    ud = UdTracker(0.1)
    ud.reset_pairs(np.array([1]))
    return ud


def test_gap_arithmetic():
    ud = one_pair_tracker()
    ud.record(PAIR, np.array([5]))
    ud.record(PAIR, np.array([8]))
    assert ud.total_gaps == 1
    assert ud_percentile(ud, 1.0) == pytest.approx(0.3)


def test_lossfree_floor_gaps_are_one_period():
    ud = one_pair_tracker()
    for k in range(1, 50):
        ud.record(PAIR, np.array([k]))
    assert ud_percentile(ud, 0.5) == pytest.approx(0.1)
    assert ud_percentile(ud, 1.0) == pytest.approx(0.1)


def test_nearest_rank_percentile():
    ud = one_pair_tracker()
    # Nine 0.1 s gaps and one 0.5 s gap: q=0.9 hits rank 9 of 10.
    for beacon in range(1, 11):
        ud.record(PAIR, np.array([beacon]))
    ud.record(PAIR, np.array([15]))
    assert ud.total_gaps == 10
    assert ud_percentile(ud, 0.9) == pytest.approx(0.1)
    assert ud_percentile(ud, 1.0) == pytest.approx(0.5)


def test_percentile_monotone_in_q():
    rng = np.random.default_rng(1)
    ud = one_pair_tracker()
    beacon = 0
    for _ in range(500):
        beacon += int(rng.integers(1, 20))
        ud.record(PAIR, np.array([beacon]))
    qs = np.linspace(0.05, 1.0, 40)
    vals = [ud_percentile(ud, q) for q in qs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_out_of_range_reset_drops_pair_state():
    ud = one_pair_tracker()
    ud.record(PAIR, np.array([1]))
    ud.reset_pairs(np.array([0, 2]))  # the pair left the range
    ud.reset_pairs(np.array([1]))  # and came back
    ud.record(PAIR, np.array([50]))
    assert ud.total_gaps == 0  # no gap across the reset
    ud.reset_pairs(np.array([], dtype=np.int64))  # every pair left
    assert len(ud.last) == 0


def test_staying_pairs_keep_their_reception_at_a_new_position():
    ud = UdTracker(0.1)
    ud.reset_pairs(np.array([1, 5]))
    ud.record(np.array([0, 1]), np.array([1, 2]))
    # Key 1 moves to position 1 and key 5 to position 3; key 3 is new.
    ud.reset_pairs(np.array([0, 1, 3, 5]))
    assert ud.last.tolist() == [-1, 1, -1, 2]
    ud.record(np.array([1, 2, 3]), np.full(3, 5))
    assert ud.gap_counts.tolist() == [0, 0, 0, 1, 1]


def test_empty_tracker_reports_nan():
    empty = UdTracker(0.1)
    for q in (0.5, 0.9, 1.0):
        assert np.isnan(ud_percentile(empty, q))
    # The q range is checked before the gaps are.
    for q in (0.0, 1.5):
        with pytest.raises(MetricsError):
            ud_percentile(empty, q)


def test_gaps_are_positive_invariant():
    ud = one_pair_tracker()
    ud.record(PAIR, np.array([3]))
    with pytest.raises(MetricsError):
        ud.record(PAIR, np.array([3]))


@st.composite
def ud_histories(draw):
    """Periods of (neighbour mask, credits) on n vehicles, some absent in
    each period. A credit is a mask of decoded pairs and, per source, the
    beacon periods its clock advances before it sends; an advance of 0
    repeats a reception time."""
    n = draw(st.integers(2, 6))
    flags = st.lists(st.booleans(), min_size=n * n, max_size=n * n)
    periods = []
    for _ in range(draw(st.integers(1, 6))):
        present = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        neigh = np.array(draw(flags)).reshape(n, n) & present & present[:, None]
        np.fill_diagonal(neigh, False)
        credits = draw(st.lists(st.tuples(
            flags, st.lists(st.sampled_from([0, 1, 1, 2, 5]), min_size=n, max_size=n)),
            max_size=3))
        periods.append((neigh, [(np.array(m).reshape(n, n), np.array(a)) for m, a in credits]))
    return n, periods


def _outcome(record, *args):
    try:
        record(*args)
    except MetricsError as err:
        return str(err)
    return None


@settings(max_examples=200, deadline=None)
@given(ud_histories())
def test_pair_tracker_equals_the_dense_oracle(history):
    # Pairs leave the neighbour set and come back, and vehicles go absent;
    # the pair tracker matches each period's sorted keys to the last, while
    # the oracle forgets every pair out of range. The oracle takes times in
    # seconds, the pair tracker beacon sequence numbers.
    n, periods = history
    pair, dense = UdTracker(0.1), DenseUdTracker(n, 0.1)
    clock = np.zeros(n, dtype=np.int64)
    for neigh, credits in periods:
        keys = np.flatnonzero(neigh)
        pair.reset_pairs(keys)
        dense.reset_pairs(~neigh)
        for decoded, advance in credits:
            clock += advance
            src, dst = np.nonzero(decoded & neigh)
            want = _outcome(dense.record, src, dst, clock[src] * 0.1)
            got = _outcome(pair.record, np.searchsorted(keys, src * n + dst), clock[src])
            assert got == want
            assert np.array_equal(pair.gap_counts, dense.gap_counts)
            if want is not None:
                return


# -- hidden node ----------------------------------------------------------------

def hidden_node(snap, chan, gamma_db, bin_width_m=10.0, max_range_m=500.0):
    """hidden_node_probability on a snapshot's neighbour list and a realization."""
    dist = pair_distances(snap.positions, snap.wrap_length_m)
    return hidden_node_probability(
        chan.rx_power_lin(), neighbour_list(dist, max_range_m), float(dbm_to_mw(NOISE_DBM)),
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


def test_a_link_past_the_range_counts_in_the_probability_but_no_bin():
    # The constructed hidden node with the destination 250 m from the
    # source, past the 200 m range: link 0 -> 1 still adds its ratio to the
    # probability, but only the 30 m link 2 -> 1 adds to a distance bin.
    rx = np.full((3, 3), -150.0)
    rx[0, 1] = -85.0
    rx[2, 1] = -80.0
    rx[2, 0] = -130.0
    rx[0, 2] = -130.0
    chan = make_channel(rx)
    snap = snapshot_line([0.0, 250.0, 280.0])
    res = hidden_node(snap, chan, GAMMA_DB, max_range_m=200.0)
    assert res.probability == 1.0
    assert res.bin_pair_count.sum() == 1 and res.bin_pair_count[3] == 1
    assert res.bin_ratio_sum.sum() == res.bin_ratio_sum[3] == 1.0
    dist = pair_distances(snap.positions)
    assert_same_as_loop(chan.rx_power_lin(), dist, float(dbm_to_mw(NOISE_DBM)),
                        float(dbm_to_mw(GAMMA_DB)))
    acc = HiddenNodeAccumulator(bin_width_m=10.0, max_range_m=200.0)
    acc.add(res)
    assert acc.overall() == 1.0 and acc.pair_count.sum() == 1


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


def assert_same_as_loop(power, dist, noise, gamma, bin_width_m=10.0, max_range_m=200.0):
    got = hidden_node_probability(power, neighbour_list(dist, max_range_m), noise, gamma,
                                  bin_width_m, max_range_m)
    want = hidden_node_loop(power, dist, noise, gamma, bin_width_m, max_range_m)
    assert got.probability == want.probability
    assert got.bin_ratio_sum.tobytes() == want.bin_ratio_sum.tobytes()
    assert np.array_equal(got.bin_pair_count, want.bin_pair_count)
    return got


@settings(max_examples=150, deadline=None)
@example(n=2, seed=0, gamma_db=-5.0, zero_share=0.0)
@example(n=2, seed=1, gamma_db=15.0, zero_share=0.0)
@given(n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1),
       gamma_db=st.floats(-5.0, 15.0), zero_share=st.floats(0.0, 0.5))
def test_counts_equal_the_loop_on_random_matrices(n, seed, gamma_db, zero_share):
    # Asymmetric powers over six decades, some entries and diagonals zero,
    # distances past the range, which add to no bin; the threshold below
    # and above 0 dB.
    rng = np.random.default_rng(seed)
    power = 10.0 ** rng.uniform(-3.0, 3.0, (n, n))
    power[rng.random((n, n)) < zero_share] = 0.0
    dist = rng.uniform(0.0, 250.0, (n, n))
    assert_same_as_loop(power, dist, 1.0, float(dbm_to_mw(gamma_db)))


# Dyadic powers with noise 1 and a power-of-two threshold: P/gamma - 1 is
# exact, so many entries equal some link's breaking threshold, and with
# gamma < 1 a source's own entry can lie on either side of it.
DYADIC = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(2, 9), gamma=st.sampled_from([0.25, 0.5, 2.0, 4.0]))
def test_counts_equal_the_loop_with_exact_ties(data, n, gamma):
    values = data.draw(st.lists(st.sampled_from(DYADIC), min_size=n * n, max_size=n * n))
    power = np.array(values).reshape(n, n)
    dist = np.arange(n * n, dtype=float).reshape(n, n) * 3.0
    assert_same_as_loop(power, dist, 1.0, gamma)


def test_a_tie_with_the_breaking_threshold_does_not_interfere():
    # Link 0 -> 1 breaks above 4/2 - 1 = 1. Node 2 sits exactly on it and
    # node 3 just above it; only node 3 interferes, and the source is deaf
    # to it.
    power = np.zeros((4, 4))
    power[0, 1] = 4.0
    power[2, 1] = 1.0
    power[3, 1] = np.nextafter(1.0, 2.0)
    res = assert_same_as_loop(power, np.full((4, 4), 15.0), 1.0, 2.0)
    assert res.bin_pair_count[1] == 1
    assert res.probability == 1.0


def test_source_above_its_own_threshold_is_not_an_interferer():
    # With gamma = 1/2 the only link, 0 -> 1, breaks above
    # 2 * 0.625 - 1 = 0.25, which the source's own 0.625 exceeds. Node 2 at
    # 0.375 is the only interferer, and the source hears it at exactly the
    # decoding floor of 0.5.
    power = np.zeros((3, 3))
    power[0, 1] = 0.625
    power[2, 1] = 0.375
    power[2, 0] = 0.5
    res = assert_same_as_loop(power, np.full((3, 3), 15.0), 1.0, 0.5)
    assert res.bin_pair_count.sum() == 1
    assert res.probability == 0.0


def test_source_below_its_own_threshold_is_not_subtracted():
    # With gamma = 1/2 the link 0 -> 1 breaks above 2 * 2 - 1 = 3, above the
    # source's own 2. Node 2 at 4 is the one interferer, and the source is
    # deaf to it.
    power = np.zeros((3, 3))
    power[0, 1] = 2.0
    power[2, 1] = 4.0
    res = assert_same_as_loop(power, np.full((3, 3), 15.0), 1.0, 0.5)
    assert res.bin_pair_count.sum() == 1
    assert res.probability == 1.0


def test_no_decodable_pair_gives_zero():
    power = np.full((5, 5), 0.5)
    res = assert_same_as_loop(power, np.full((5, 5), 15.0), 1.0, 2.0)
    assert res.probability == 0.0
    assert res.bin_pair_count.sum() == 0
    assert not res.bin_ratio_sum.any()


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
    centers20, prob20, pairs20 = rebinned(acc, 20.0)
    assert len(centers20) == 10
    assert pairs20.sum() == acc.pair_count.sum()
