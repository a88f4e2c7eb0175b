"""Tests of the benchmark itself: input generator, tracer and checks."""
import math
import os
import shutil
import subprocess
import sys

import pytest

import child
import layers
import urban
import workloads
from run import iteration_problems
from workloads import Workload, check

HERE = os.path.dirname(os.path.abspath(__file__))
TINY_RING = dict(scenario="highway", highway_length_m=800.0, highway_vehicles=40,
                 allocation="mode4", mcs=7, awareness_m=200.0)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_urban_inputs_are_byte_identical_per_seed(tmp_path):
    first = urban.write_inputs(3, 3.2, str(tmp_path / "a"))
    again = urban.write_inputs(3, 3.2, str(tmp_path / "b"))
    other = urban.write_inputs(4, 3.2, str(tmp_path / "c"))
    for x, y, z in zip(first, again, other):
        assert _read(x) == _read(y)
        assert _read(x) != _read(z)


def test_urban_trace_has_churn_and_sixteen_buildings(tmp_path):
    trace, buildings = urban.write_inputs(5, 3.2, str(tmp_path))
    with open(buildings, encoding="utf-8") as fh:
        assert len(fh.read().splitlines()) == (urban.STREETS - 1) ** 2
    spans = {}
    with open(trace, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            t, vid, x, y = line.split(",")
            lo, hi = spans.get(vid, (math.inf, -math.inf))
            spans[vid] = (min(lo, float(t)), max(hi, float(t)))
            assert 0.0 <= float(x) <= urban.GRID_LEN_M
            assert 0.0 <= float(y) <= urban.GRID_LEN_M
    assert len(spans) == urban.LIVE_VEHICLES + urban.HANDOVERS
    assert sum(lo > 0.0 for lo, _ in spans.values()) == urban.HANDOVERS
    assert sum(hi < 3.2 for _, hi in spans.values()) == urban.HANDOVERS


def _originals():
    from mode4sim import engine
    found = {}
    for name, path, attr in layers.LAYER_TARGETS:
        owner = layers._resolve(path)
        found[name] = vars(owner).get(attr)
    found["SimulationEngine"] = engine.SimulationEngine
    return found


@pytest.mark.parametrize("kind", ["simulate", "hidden-node"])
def test_traced_run_accounts_time_and_restores_wrappers(kind, tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny",
                        Workload(kind, 2.6, TINY_RING))
    before = _originals()
    rec = child.run_once("tiny", 1, 1, True, str(tmp_path / "out"),
                         spans_path=str(tmp_path / "spans.csv"))
    assert _originals() == before
    assert rec["failures"] == []
    assert rec["missing"] == []
    assert rec["self_sum_run_s"] == pytest.approx(rec["run_s"], rel=1e-6)
    calls = {name: v["calls"] for name, v in rec["layers"].items()}
    assert calls["seeding.substream"] > 0
    assert calls["channel.advance"] == 25
    assert calls["engine.setup_self"] == 1
    if kind == "simulate":
        assert calls["phy.subframe_reception"] > 0
        assert calls["metrics.hidden_node"] == 0
    else:
        assert calls["metrics.hidden_node"] == 26
        assert calls["phy.subframe_reception"] == 0
    assert os.path.getsize(tmp_path / "spans.csv") > 0


def test_wrappers_are_restored_when_the_run_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with layers.patched(layers.Tracer(), layers=True, engine_class=True):
            assert _originals() != before
            raise RuntimeError("boom")
    assert _originals() == before


GOOD = {
    "ring-495": {"pooled_prr": 0.919, "mean_neighbors": 49.0, "hold_rows": 40},
    "hidden-node-495": {"hidden_node_probability": 0.22},
}


def test_checks_pass_on_plausible_results():
    for name, stats in GOOD.items():
        assert check(name, stats) == []


@pytest.mark.parametrize("name, key, value", [
    ("ring-495", "pooled_prr", 0.5),
    ("ring-495", "pooled_prr", float("nan")),
    ("ring-495", "pooled_prr", None),
    ("ring-495", "mean_neighbors", 12.0),
    ("ring-495", "hold_rows", 0),
    ("hidden-node-495", "hidden_node_probability", 0.9),
])
def test_each_check_fails_on_a_doctored_result(name, key, value):
    stats = dict(GOOD[name], **{key: value})
    assert check(name, stats) != []


def test_changed_digest_within_a_run_is_a_failure():
    rec = {"failures": [], "digests": {"a.csv": "00"}}
    assert iteration_problems(rec, {"a.csv": "00"}) == []
    assert iteration_problems(rec, {"a.csv": "01"}) != []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ring-495",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
