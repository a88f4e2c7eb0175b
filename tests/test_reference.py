"""The scalar oracles of mode4sim.reference against the array paths, and the
guard that keeps the oracles and their snapshot type out of the simulator."""
import ast
import os

import numpy as np

import mode4sim
from mode4sim import phy
from mode4sim.channel import ChannelParams, ChannelRealization, dbm_to_mw
from mode4sim.grid import GridConfig
from mode4sim.mode4 import Mode4Params, SensingMemory
from mode4sim.reference import (BrIndex, ScenarioSnapshot, TxEvent,
                                br_flat_index, sense_subframe)

GRID = GridConfig.for_mcs(7)
NOISE_DBM = -99.437

# Names only mode4sim.reference may define or import.
ORACLE_NAMES = {"ScenarioSnapshot", "TxEvent", "RxOutcome", "SenseSample",
                "BrIndex", "sinr", "receive_subframe", "sense_subframe",
                "record_beacon", "shadow_step", "neighbors"}


def _imports_reference(node):
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return (module.split(".")[-1] == "reference"
                or (not module and any(a.name == "reference" for a in node.names)))
    return any(a.name.split(".")[-1] == "reference" for a in node.names)


def test_only_reference_holds_the_oracles():
    package = os.path.dirname(mode4sim.__file__)
    defined_in_reference = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                if name == "reference.py":
                    defined_in_reference.add(node.name)
                else:
                    assert node.name not in ORACLE_NAMES, f"{name} defines {node.name}"
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and name != "reference.py":
                assert not _imports_reference(node), f"{name} imports reference"
                imported = {a.name.split(".")[-1] for a in node.names}
                assert not imported & ORACLE_NAMES, f"{name} imports {imported & ORACLE_NAMES}"
    assert ORACLE_NAMES <= defined_in_reference


def test_sensing_writes_match_scalar_sense_subframe():
    # One subframe with three transmitters, two of them sharing a slot, goes
    # through the engine's write path; every observer's stored samples must
    # equal what the scalar oracle measures, up to float32 storage.
    rng = np.random.default_rng(12)
    n, subframe = 7, 37
    params = ChannelParams(noise_floor_dbm=NOISE_DBM)
    rx = rng.uniform(-110, -60, size=(n, n))
    pl = params.tx_power_dbm + 2 * params.antenna_gain_db - rx
    chan = ChannelRealization(params, pl, np.zeros_like(pl), np.ones_like(pl, bool))
    events = [TxEvent(0, BrIndex(subframe, 0)), TxEvent(3, BrIndex(subframe, 1)),
              TxEvent(5, BrIndex(subframe, 0))]
    snap = ScenarioSnapshot(tti=subframe, ids=np.arange(n),
                            positions=np.zeros((n, 2)), events=events)

    txs = np.array([ev.vehicle for ev in events])
    tx_slots = np.array([ev.br.freq_slot for ev in events])
    power_rows = chan.rx_power_lin()[txs]
    noise_lin = float(dbm_to_mw(NOISE_DBM))
    ibe_lin = phy.ibe_factor(0, 1, params.ibe_attenuation_db)
    recv = np.ones(n, dtype=bool)
    recv[txs] = False
    _, decoded = phy.subframe_reception(power_rows, tx_slots, noise_lin,
                                        float(dbm_to_mw(GRID.sinr_min_db)),
                                        ibe_lin, recv)
    memory = SensingMemory(n, GRID, Mode4Params(), NOISE_DBM)
    memory.begin_period(0)
    memory.mark_transmissions(txs, subframe)
    memory.record_srssi(recv, subframe, phy.subframe_srssi(
        power_rows, tx_slots, noise_lin, ibe_lin, GRID.brs_per_tti))
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
