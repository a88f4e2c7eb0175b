import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mode4sim.channel import dbm_to_mw
from mode4sim.config import RunConfig
from mode4sim.phy import (ibe_factor, slot_power_sums, subframe_reception,
                          subframe_srssi)
from oracles import (NOISE_DBM, BrIndex, RxOutcome, ScenarioSnapshot, TxEvent,
                     make_channel, receive_subframe, sense_subframe, sinr,
                     subframe_reception_expression)

GRID = RunConfig(mcs=7)  # gamma_min = 7.30 dB, 2 BRs per TTI
def snapshot(n, events, tti=0):
    return ScenarioSnapshot(tti=tti, ids=np.arange(n),
                            positions=np.zeros((n, 2)), events=events)


def test_sinr_no_interferer_is_snr():
    # src 0 -> dst 1 at -80 dBm, nobody else transmits.
    chan = make_channel([[0, -80], [-80, 0]])
    events = [TxEvent(0, BrIndex(0, 0))]
    value = sinr(1, 0, events, chan, GRID)
    assert value == pytest.approx(-80 - NOISE_DBM, abs=1e-9)


def test_equal_power_co_br_interferer_gives_zero_db():
    rx = [[0, -60, 0], [0, 0, 0], [0, -60, 0]]
    chan = make_channel(rx)
    events = [TxEvent(0, BrIndex(0, 0)), TxEvent(2, BrIndex(0, 0))]
    value = sinr(1, 0, events, chan, GRID)
    # Noise is ~39 dB below each signal: SINR sits just under 0 dB.
    assert value == pytest.approx(0.0, abs=0.01)


def test_sinr_two_interferers_matches_hand_computation():
    useful, int_same, int_cross = -75.0, -88.0, -80.0
    rx = np.zeros((4, 4))
    rx[0, 3], rx[1, 3], rx[2, 3] = useful, int_same, int_cross
    chan = make_channel(rx)
    events = [TxEvent(0, BrIndex(0, 0)), TxEvent(1, BrIndex(0, 0)),
              TxEvent(2, BrIndex(0, 1))]
    got = sinr(3, 0, events, chan, GRID)
    # Spreadsheet-style evaluation of the interference sum.
    lin = lambda dbm: 10 ** (dbm / 10)
    denom = lin(NOISE_DBM) + lin(int_same) + lin(int_cross) * 10 ** (-25 / 10)
    assert got == pytest.approx(10 * math.log10(lin(useful) / denom), abs=1e-9)


def test_sinr_preconditions():
    chan = make_channel(np.zeros((2, 2)))
    events = [TxEvent(0, BrIndex(0, 0))]
    with pytest.raises(ValueError):
        sinr(1, 1, events, chan, GRID)  # src does not transmit
    events = [TxEvent(0, BrIndex(0, 0)), TxEvent(1, BrIndex(0, 1))]
    with pytest.raises(ValueError):
        sinr(1, 0, events, chan, GRID)  # dst transmits


def test_exact_threshold_tie_fails_strictly():
    # Engineered so sinr_lin equals gamma exactly in linear domain.
    gamma_lin = float(dbm_to_mw(GRID.resolved_sinr_min_db()))
    noise_lin = 1.0
    rows = np.array([[0.0, gamma_lin * noise_lin]])
    sinr_lin, decoded = subframe_reception(
        rows, np.array([0]), noise_lin, gamma_lin, 0.0,
        receiver_mask=np.array([False, True]),
        slot_sums=slot_power_sums(rows, np.array([0]), GRID.brs_per_tti))
    assert sinr_lin[0, 1] == gamma_lin
    assert not decoded[0, 1]


def test_half_duplex_pair_never_decodes():
    rx = np.full((2, 2), 0.0)  # arbitrarily strong links
    chan = make_channel(rx)
    snap = snapshot(2, [TxEvent(0, BrIndex(0, 0)), TxEvent(1, BrIndex(0, 1))])
    outcomes = receive_subframe(snap, chan, GRID)
    assert all(o.half_duplex_blocked and not o.decoded for o in outcomes)


def test_single_transmitter_nearby_receiver_decodes():
    chan = make_channel([[0, -70], [-70, 0]])
    snap = snapshot(2, [TxEvent(0, BrIndex(0, 0))])
    outcomes = receive_subframe(snap, chan, GRID)
    assert outcomes == [RxOutcome(0, 1, pytest.approx(-70 - NOISE_DBM), True, False)]


def test_receive_subframe_matches_pairwise_brute_force():
    rng = np.random.default_rng(8)
    rx = rng.uniform(-95, -60, size=(3, 3))
    chan = make_channel(rx)
    events = [TxEvent(0, BrIndex(0, 0)), TxEvent(1, BrIndex(0, 1))]
    snap = snapshot(3, events)
    outcomes = {(o.source, o.destination): o for o in receive_subframe(snap, chan, GRID)}
    assert set(outcomes) == {(0, 1), (0, 2), (1, 0), (1, 2)}
    for (src, dst), o in outcomes.items():
        if dst in (0, 1):
            assert o.half_duplex_blocked and not o.decoded
        else:
            expected = sinr(dst, src, events, chan, GRID)
            assert o.sinr_db == pytest.approx(expected, abs=1e-9)
            assert o.decoded == (expected > GRID.resolved_sinr_min_db())


def test_engine_core_agrees_with_scalar_sinr():
    rng = np.random.default_rng(9)
    n = 6
    rx = rng.uniform(-95, -55, size=(n, n))
    chan = make_channel(rx)
    events = [TxEvent(0, BrIndex(0, 0)), TxEvent(2, BrIndex(0, 1)),
              TxEvent(4, BrIndex(0, 0))]
    txs = np.array([0, 2, 4])
    recv = np.ones(n, bool)
    recv[txs] = False
    rows, slots = chan.rx_power_lin()[txs], np.array([0, 1, 0])
    sinr_lin, decoded = subframe_reception(
        rows, slots, float(dbm_to_mw(NOISE_DBM)),
        float(dbm_to_mw(GRID.resolved_sinr_min_db())),
        ibe_factor(25.0), recv, slot_power_sums(rows, slots, GRID.brs_per_tti))
    for k, src in enumerate(txs):
        for dst in range(n):
            if dst in txs or dst == src:
                continue
            want = sinr(dst, int(src), events, chan, GRID)
            assert 10 * math.log10(sinr_lin[k, dst]) == pytest.approx(want, abs=1e-6)


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8), n=st.integers(1, 40),
       slots=st.integers(1, 4), masked=st.sampled_from([0.0, 0.3, 1.0]),
       silent=st.sampled_from([0.0, 0.5]))
@example(seed=0, k=3, n=5, slots=1, masked=0.3, silent=0.5)
@settings(max_examples=60, deadline=None)
def test_in_place_reception_equals_the_expression(seed, k, n, slots, masked, silent):
    # Masked receivers, all-zero power rows (absent transmitters) and
    # several transmitters in one slot: the two-buffer kernel must give the
    # whole-array expression's SINR and decoded flags byte for byte.
    rng = np.random.default_rng(seed)
    rows = dbm_to_mw(rng.uniform(-110.0, -40.0, size=(k, n)))
    rows[rng.random(k) < silent] = 0.0
    tx_slots = rng.integers(0, slots, size=k)
    recv = rng.random(n) >= masked
    args = (rows, tx_slots, float(dbm_to_mw(NOISE_DBM)),
            float(dbm_to_mw(GRID.resolved_sinr_min_db())), ibe_factor(25.0), recv,
            slot_power_sums(rows, tx_slots, slots))
    got, want = subframe_reception(*args), subframe_reception_expression(*args)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def test_removing_interferer_never_decreases_sinr():
    rng = np.random.default_rng(10)
    rx = rng.uniform(-95, -60, size=(4, 4))
    chan = make_channel(rx)
    full = [TxEvent(0, BrIndex(0, 0)), TxEvent(1, BrIndex(0, 0)),
            TxEvent(2, BrIndex(0, 1))]
    for drop in (1, 2):
        fewer = [ev for ev in full if ev.vehicle != drop]
        assert sinr(3, 0, fewer, chan, GRID) >= sinr(3, 0, full, chan, GRID)


def test_infinite_ibe_silences_cross_slot_interference():
    rx = [[0, -70, 0], [0, 0, 0], [-50, -50, 0]]
    chan = make_channel(rx)
    with_cross = [TxEvent(0, BrIndex(0, 0)), TxEvent(2, BrIndex(0, 1))]
    alone = [TxEvent(0, BrIndex(0, 0))]
    assert sinr(1, 0, with_cross, chan, GRID, ibe_db=math.inf) == pytest.approx(
        sinr(1, 0, alone, chan, GRID, ibe_db=math.inf))


# -- sensing ---------------------------------------------------------------

def test_transmitting_observer_takes_no_samples():
    chan = make_channel(np.zeros((2, 2)))
    snap = snapshot(2, [TxEvent(0, BrIndex(0, 0))])
    assert sense_subframe(0, snap, chan, GRID) == []


def test_empty_subframe_senses_noise_floor():
    chan = make_channel(np.zeros((2, 2)))
    snap = snapshot(2, [], tti=7)
    samples = sense_subframe(0, snap, chan, GRID)
    assert len(samples) == GRID.brs_per_tti
    for s in samples:
        assert s.s_rssi_dbm == pytest.approx(NOISE_DBM, abs=1e-6)
        assert s.rsrp_dbm is None
        assert s.br.subframe == 7


def test_occupied_br_reads_hotter_than_its_neighbour():
    chan = make_channel([[0, 0, -70], [0, 0, 0], [0, 0, 0]])
    snap = snapshot(3, [TxEvent(0, BrIndex(0, 0))])
    samples = {s.br.freq_slot: s for s in sense_subframe(2, snap, chan, GRID)}
    assert samples[0].s_rssi_dbm > samples[1].s_rssi_dbm
    assert samples[0].rsrp_dbm == pytest.approx(-70.0)


def test_srssi_core_accounts_ibe():
    noise = 1e-9
    rows = np.array([[2e-9, 0.0], [0.0, 0.0]])  # tx0 slot0, tx1 slot1 silent
    out = subframe_srssi(slot_power_sums(rows, np.array([0, 1]), 2), noise, 0.01)
    assert out[0, 0] == pytest.approx(noise + 2e-9)
    assert out[1, 0] == pytest.approx(noise + 2e-9 * 0.01)
