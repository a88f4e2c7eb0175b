"""The scalar oracles of `oracles.py` against the array paths, the guard
that keeps the oracles and their snapshot type out of the simulator, the guard
that keeps test-only code out of the package, and the guard that keeps
package modules out of each other's private attributes."""
import ast
import os
from collections import defaultdict

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
                "_point_in_polygon", "rebinned", "empirical_pmf",
                "hidden_node_loop", "simulate_hold_times",
                "simulate_reallocation_probability", "total_variation",
                "power_threshold", "Mode4ParamError", "FullMatrixChannel",
                "_symmetric_normal", "pathloss_db", "rx_power_dbm",
                "shadow_sigma_db", "subframe_reception_expression",
                "highway_rho", "full_shadow", "DenseUdTracker",
                "MonitoredFlagRing", "pair_distances", "neighbour_list",
                "full_pair_legs"}
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


def unreferenced_definitions(package):
    """Top-level functions and classes, and methods of top-level classes, of
    the modules in `package` that no package code names outside their own
    definition. Re-exports in `__init__.py` do not count as a use, and
    dunder methods are called implicitly."""
    kinds = (ast.ClassDef, ast.FunctionDef)
    defs, uses = [], defaultdict(list)  # uses: name -> [(module, line)]
    for module in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        with open(os.path.join(package, module), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, kinds):
                defs.append((module, node))
            if isinstance(node, ast.ClassDef):
                defs += [(module, m) for m in node.body
                         if isinstance(m, kinds) and not m.name.startswith("__")]
        if module == "__init__.py":
            continue
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                uses[n.id].append((module, n.lineno))
            elif isinstance(n, ast.Attribute):
                uses[n.attr].append((module, n.lineno))

    def used_outside(module, node):
        return any(where != module or not node.lineno <= line <= node.end_lineno
                   for where, line in uses[node.name])

    return sorted(node.name for module, node in defs if not used_outside(module, node))


# The benchmark's entry point to the hidden-node pass (bench/child.py calls
# it), a one-line wrapper of `SimulationEngine.hidden_node` that no package
# code calls: the command builds its world before it makes `--out`.
BENCHMARK_ENTRY_POINTS = ["run_hidden_node"]


def test_package_ships_only_code_the_package_uses():
    found = unreferenced_definitions(os.path.dirname(mode4sim.__file__))
    assert found == BENCHMARK_ENTRY_POINTS


def private_attribute_uses(package):
    """(module, line, attribute) of every `_`-prefixed attribute that code in
    `package` reads or writes on anything but `self` or `cls`."""
    found = []
    for module in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        for n in _parse(os.path.join(package, module)):
            if (isinstance(n, ast.Attribute) and n.attr.startswith("_")
                    and not (isinstance(n.value, ast.Name) and n.value.id in ("self", "cls"))):
                found.append((module, n.lineno, n.attr))
    return found


def test_package_uses_no_private_attribute_of_another_object():
    assert private_attribute_uses(os.path.dirname(mode4sim.__file__)) == []


def test_sensing_writes_match_scalar_sense_subframe():
    # One subframe with three transmitters, two of them sharing a slot, goes
    # through the engine's write path; every observer's stored samples must
    # equal what the scalar oracle measures, up to float32 storage, and the
    # absent vehicle's must stay empty.
    n = 7
    counts = _check_sensing_writes(GRID, np.random.default_rng(12).uniform(
        -110, -60, size=(n, n)))
    # Some BRs carry a decoded transmission and some carry none.
    assert counts.sum() > 0 and (counts == 0).any()
    # Below 0 dB at equal powers every receiver decodes both same-slot
    # transmitters, so one BR takes two RSRP samples in one subframe.
    counts = _check_sensing_writes(RunConfig(mcs=7, sinr_min_db=-3.0),
                                   np.full((n, n), -70.0))
    assert counts.max() == 2


def _check_sensing_writes(grid, rx_dbm):
    """Per-observer RSRP sample counts of the subframe's BRs, after checking
    the memory's writes against `sense_subframe`. The last vehicle is absent:
    it neither observes nor transmits."""
    n, subframe = len(rx_dbm), 37
    absent = n - 1
    chan = make_channel(rx_dbm)
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
    recv[absent] = False
    slot_sums = phy.slot_power_sums(power_rows, tx_slots, grid.brs_per_tti)
    _, decoded = phy.subframe_reception(power_rows, tx_slots, noise_lin,
                                        float(dbm_to_mw(grid.resolved_sinr_min_db())),
                                        ibe_lin, recv, slot_sums)
    memory = SensingMemory(n, grid)
    memory.begin_period(0)
    memory.record_subframe(subframe, txs, recv,
                           phy.subframe_srssi(slot_sums, noise_lin, ibe_lin),
                           tx_slots, power_rows, decoded)

    brs = slice(subframe * grid.brs_per_tti, (subframe + 1) * grid.brs_per_tti)
    counts = []
    for v in range(n):
        samples = sense_subframe(v, snap, chan, grid)
        srssi = memory.s_rssi[v, memory.slot, brs]
        rsrp_sum = memory.rsrp_sum[v, memory.slot, brs]
        rsrp_cnt = memory.rsrp_cnt[v, memory.slot, brs]
        if v in txs:
            assert samples == []
            assert not srssi.any() and not rsrp_cnt.any()
            assert not memory.monitored_offsets(v)[subframe]
            continue
        assert memory.monitored_offsets(v)[subframe]
        if v == absent:
            assert samples  # the oracle, blind to presence, would sense
            assert not srssi.any() and not rsrp_sum.any() and not rsrp_cnt.any()
            continue
        want_srssi = np.zeros(grid.brs_per_tti)
        want_rsrp = np.zeros(grid.brs_per_tti)
        want_cnt = np.zeros(grid.brs_per_tti, dtype=int)
        for s in samples:
            r = br_flat_index(grid, s.br) - brs.start
            want_srssi[r] = dbm_to_mw(s.s_rssi_dbm)
            if s.rsrp_dbm is not None:
                want_rsrp[r] += dbm_to_mw(s.rsrp_dbm)
                want_cnt[r] += 1
        np.testing.assert_allclose(srssi, want_srssi, rtol=1e-6)
        np.testing.assert_allclose(rsrp_sum, want_rsrp, rtol=1e-6)
        assert rsrp_cnt.tolist() == want_cnt.tolist()
        counts.append(want_cnt)
    counts = np.concatenate(counts)
    # Nothing outside this subframe's BRs was written.
    assert np.count_nonzero(memory.s_rssi) == np.count_nonzero(memory.s_rssi[:, :, brs])
    assert memory.rsrp_cnt.sum() == counts.sum()
    assert memory.half_duplex_writes == 0
    return counts
