"""The scalar oracles of `oracles.py` against the array paths, and the guard
that keeps the oracles and their snapshot type out of the simulator."""
import ast
import os

import numpy as np

import mode4sim
from mode4sim import phy
from mode4sim.channel import dbm_to_mw
from mode4sim.config import RunConfig
from mode4sim.mode4 import SensingMemory
import oracles
from oracles import (IBE_DB, NOISE_DBM, BrIndex, ScenarioSnapshot, TxEvent,
                     br_flat_index, make_channel, sense_subframe)

GRID = RunConfig(mcs=7)

# Names only tests/oracles.py may define, and no simulator module may import.
ORACLE_NAMES = {"ScenarioSnapshot", "TxEvent", "RxOutcome", "SenseSample",
                "BrIndex", "sinr", "receive_subframe", "sense_subframe",
                "record_beacon", "shadow_step", "neighbors", "mw_to_dbm",
                "blocks", "_orient", "_on_segment", "_segments_intersect",
                "_point_in_polygon"}
# Modules the simulator must not import: the oracles and the test suite.
TEST_MODULES = {"oracles", "tests"}


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return list(ast.walk(ast.parse(fh.read(), filename=path)))


def _defined(nodes):
    return {n.name for n in nodes if isinstance(n, (ast.ClassDef, ast.FunctionDef))}


def test_only_reference_holds_the_oracles():
    package = os.path.dirname(mode4sim.__file__)
    for name in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        nodes = _parse(os.path.join(package, name))
        assert not _defined(nodes) & ORACLE_NAMES, f"{name} defines an oracle"
        for node in nodes:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                # Every dotted-name part the import statement names.
                names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
                parts = {part for dotted in names for part in dotted.split(".")}
                assert not parts & (TEST_MODULES | ORACLE_NAMES), f"{name} imports {parts}"
    missing = ORACLE_NAMES - _defined(_parse(oracles.__file__))
    assert not missing, f"tests/oracles.py lacks {missing}"


def test_sensing_writes_match_scalar_sense_subframe():
    # One subframe with three transmitters, two of them sharing a slot, goes
    # through the engine's write path; every observer's stored samples must
    # equal what the scalar oracle measures, up to float32 storage.
    rng = np.random.default_rng(12)
    n, subframe = 7, 37
    chan = make_channel(rng.uniform(-110, -60, size=(n, n)))
    events = [TxEvent(0, BrIndex(subframe, 0)), TxEvent(3, BrIndex(subframe, 1)),
              TxEvent(5, BrIndex(subframe, 0))]
    snap = ScenarioSnapshot(tti=subframe, ids=np.arange(n),
                            positions=np.zeros((n, 2)), events=events)

    txs = np.array([ev.vehicle for ev in events])
    tx_slots = np.array([ev.br.freq_slot for ev in events])
    power_rows = chan.rx_power_lin()[txs]
    noise_lin = float(dbm_to_mw(NOISE_DBM))
    ibe_lin = phy.ibe_factor(IBE_DB)
    recv = np.ones(n, dtype=bool)
    recv[txs] = False
    slot_sums = phy.slot_power_sums(power_rows, tx_slots, GRID.brs_per_tti)
    _, decoded = phy.subframe_reception(power_rows, tx_slots, noise_lin,
                                        float(dbm_to_mw(GRID.resolved_sinr_min_db())),
                                        ibe_lin, recv, slot_sums)
    memory = SensingMemory(n, GRID)
    memory.begin_period(0)
    memory.mark_transmissions(txs, subframe)
    memory.record_srssi(recv, subframe, phy.subframe_srssi(slot_sums, noise_lin, ibe_lin))
    memory.record_rsrp(subframe, tx_slots, power_rows, decoded)

    brs = slice(subframe * GRID.brs_per_tti, (subframe + 1) * GRID.brs_per_tti)
    rsrp_samples = quiet_brs = 0
    for v in range(n):
        samples = sense_subframe(v, snap, chan, GRID)
        srssi = memory.s_rssi[v, memory.slot, brs]
        rsrp_sum = memory.rsrp_sum[v, memory.slot, brs]
        rsrp_cnt = memory.rsrp_cnt[v, memory.slot, brs]
        if v in txs:
            assert samples == []
            assert not srssi.any() and not rsrp_cnt.any()
            continue
        want_srssi = np.zeros(GRID.brs_per_tti)
        want_rsrp = np.zeros(GRID.brs_per_tti)
        want_cnt = np.zeros(GRID.brs_per_tti, dtype=int)
        for s in samples:
            r = br_flat_index(GRID, s.br) - brs.start
            want_srssi[r] = dbm_to_mw(s.s_rssi_dbm)
            if s.rsrp_dbm is not None:
                want_rsrp[r] += dbm_to_mw(s.rsrp_dbm)
                want_cnt[r] += 1
        np.testing.assert_allclose(srssi, want_srssi, rtol=1e-6)
        np.testing.assert_allclose(rsrp_sum, want_rsrp, rtol=1e-6)
        assert rsrp_cnt.tolist() == want_cnt.tolist()
        rsrp_samples += int(want_cnt.sum())
        quiet_brs += int((want_cnt == 0).sum())
    # Some BRs carry a decoded transmission and some carry none.
    assert rsrp_samples > 0 and quiet_brs > 0
    # Nothing outside this subframe's BRs was written.
    assert np.count_nonzero(memory.s_rssi) == np.count_nonzero(memory.s_rssi[:, :, brs])
    assert memory.rsrp_cnt.sum() == rsrp_samples
    assert memory.half_duplex_writes == 0
