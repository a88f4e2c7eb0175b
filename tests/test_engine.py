import numpy as np
import pytest

from mode4sim import phy
from mode4sim.config import RunConfig
from mode4sim.engine import SimulationEngine, run_scenario
from mode4sim.mobility import spawn_highway, step_highway
from mode4sim.seeding import substream
from oracles import blocks

SMALL = dict(highway_length_m=1000.0, highway_vehicles=124, seed=5)


@pytest.fixture(scope="module")
def small_run():
    cfg = RunConfig(duration_s=6.0, **SMALL)
    return run_scenario(cfg, record_beacon_log=True)


def test_same_seed_reproduces_everything(small_run):
    again = run_scenario(RunConfig(duration_s=6.0, **SMALL), record_beacon_log=True)
    assert again.prr.pooled() == small_run.prr.pooled()
    assert (again.prr.neighbor_count == small_run.prr.neighbor_count).all()
    assert (again.prr.decoded_count == small_run.prr.decoded_count).all()
    assert np.array_equal(again.hold_counts, small_run.hold_counts)
    assert np.array_equal(again.ud.gap_counts, small_run.ud.gap_counts)
    assert again.beacon_log == small_run.beacon_log


def test_different_seed_differs():
    other = run_scenario(RunConfig(duration_s=6.0, highway_length_m=1000.0,
                                   highway_vehicles=124, seed=6))
    assert other.prr.pooled() != pytest.approx(0.0)
    # Not a strict requirement, but two seeds agreeing bit-for-bit would
    # indicate the seed is ignored somewhere.
    base = run_scenario(RunConfig(duration_s=6.0, **SMALL))
    assert not np.array_equal(other.prr.decoded_count, base.prr.decoded_count)


def test_half_duplex_clean_over_full_log(small_run):
    assert small_run.half_duplex_pairs_checked > 0
    assert small_run.half_duplex_violations == 0


def test_half_duplex_audit_counts_credits_to_transmitters(monkeypatch):
    # A reception core that ignores half-duplex hands decodes to vehicles
    # transmitting in the same subframe; the PRR/UD credit audit sees them.
    real = phy.subframe_reception

    def deaf_to_half_duplex(*args, **kwargs):
        sinr_lin, decoded = real(*args, **kwargs)
        return sinr_lin, np.ones_like(decoded)

    monkeypatch.setattr(phy, "subframe_reception", deaf_to_half_duplex)
    result = run_scenario(RunConfig(duration_s=3.6, allocation="random",
                                    t_sense_ms=200, n_max=6, highway_length_m=800.0,
                                    highway_vehicles=40, seed=2))
    assert result.half_duplex_pairs_checked > 0
    assert result.half_duplex_violations > 0


def test_pooled_prr_matches_raw_beacon_log(small_run):
    neighbors = sum(n for _, n, _ in small_run.beacon_log)
    decoded = sum(d for _, _, d in small_run.beacon_log)
    assert neighbors == small_run.prr.neighbor_count.sum()
    assert small_run.prr.pooled() == pytest.approx(decoded / neighbors)


def test_hold_times_have_counter_floor(small_run):
    # Every hold spans at least n_min periods (one full counter draw).
    assert small_run.hold_counts.min() >= 5


def test_random_allocation_redraws_every_period():
    cfg = RunConfig(duration_s=3.6, allocation="random", t_sense_ms=200,
                    n_max=6, highway_length_m=800.0, highway_vehicles=40, seed=2)
    engine = SimulationEngine(cfg)
    offsets = []
    for t in range(3600):
        engine._tick(t)
        if t % 100 == 99:
            offsets.append(engine.next_tx % engine.t_b)
    offsets = np.asarray(offsets[5:])
    repeats = (offsets[1:] == offsets[:-1]).mean()
    # Uniform redraw over 200 BRs keeps the same subframe ~1% of the time.
    assert repeats < 0.05
    assert engine.hd_violations == 0


def test_mode4_transmissions_stay_within_selection_window():
    cfg = RunConfig(duration_s=3.0, t_sense_ms=200, n_min=2, n_max=4,
                    t1=2, t2=30, highway_length_m=800.0, highway_vehicles=30,
                    seed=3)
    engine = SimulationEngine(cfg)
    for t in range(3000):
        before = engine.next_tx % engine.t_b
        engine._tick(t)
        changed = np.flatnonzero(engine.next_tx % engine.t_b != before)
        for v in changed:
            nxt = engine.next_tx[v]
            # The first transmission on a fresh allocation happens t1..t2
            # TTIs after the selection instant.
            assert cfg.t1 <= nxt - t <= cfg.t2
    assert engine.beacons_sent > 0


def test_highway_frames_and_first_selection():
    # The frames set-up builds are the highway stepped once per period, and
    # every vehicle arrives on period 0 with its first selection at its phase.
    cfg = RunConfig(duration_s=3.05, **SMALL)
    engine = SimulationEngine(cfg)
    assert engine.frames.shape == (31, cfg.highway_vehicles, 2)
    state = spawn_highway(cfg, substream(cfg.seed, "mobility"))
    for period, frame in enumerate(engine.frames):
        if period:
            step_highway(cfg, state, cfg.beacon_period_ms / 1000.0)
        assert np.array_equal(frame, np.column_stack([state.x, state.y])), period
    assert not engine.present.any()
    engine._tick(0)
    assert engine.present.all()
    later = engine.phase > 0
    assert later.any() and not later.all()
    assert np.array_equal(engine.select_at[later], engine.phase[later])
    # Phase-0 vehicles selected within tick 0.
    assert (engine.select_at[~later] == -1).all()
    assert (engine.next_tx[~later] > 0).all()


def test_trace_scenario_respects_presence(tmp_path):
    rows = []
    for k in range(0, 46):  # 4.5 s at 0.1 s resolution
        t = k * 0.1
        rows.append(f"{t:.1f},0,{5 * t:.2f},0.0")
        rows.append(f"{t:.1f},1,{5 * t:.2f},4.0")
        if not 1.0 <= t <= 3.0:  # vehicle 2 leaves for two seconds
            rows.append(f"{t:.1f},2,{5 * t:.2f},8.0")
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(rows) + "\n")
    cfg = RunConfig(scenario="trace", trace=str(path), duration_s=4.0,
                    t_sense_ms=200, n_min=2, n_max=4, seed=1,
                    max_trace_gap_s=0.15)
    engine = SimulationEngine(cfg)
    tx_times = {0: [], 1: [], 2: []}
    for t in range(4000):
        txs = np.flatnonzero(engine.next_tx == t)
        engine._tick(t)
        for v in txs:
            tx_times[int(v)].append(t)
    assert tx_times[0] and tx_times[1]
    gap_txs = [t for t in tx_times[2] if 1100 <= t <= 2900]
    assert gap_txs == []  # absent vehicles stay silent
    assert any(t > 3000 for t in tx_times[2])  # rejoins afterwards


def test_los_matrix_matches_scalar_blocks(tmp_path):
    # Four vehicles pass a building; vehicle 3 joins half-way. Pairs on
    # opposite sides of the building are blocked, the others are not.
    rows = []
    for k in range(16):
        t = k * 0.1
        rows.append(f"{t:.1f},0,{10 * t:.2f},0.0")
        rows.append(f"{t:.1f},1,{100 - 10 * t:.2f},0.0")
        rows.append(f"{t:.1f},2,{20 + 30 * t:.2f},20.0")
        if t >= 0.5:
            rows.append(f"{t:.1f},3,{50.0:.2f},{-30 + 5 * t:.2f}")
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join(rows) + "\n")
    obstacles = tmp_path / "map.txt"
    obstacles.write_text("40,-10,60,-10,60,10,40,10\n")
    cfg = RunConfig(scenario="trace", trace=str(trace), obstacle_map=str(obstacles),
                    duration_s=1.0, t_sense_ms=200, n_min=2, n_max=4, seed=1)
    engine = SimulationEngine(cfg)
    blocked_seen = clear_seen = 0
    for t in range(0, 1000, 100):
        engine._advance_world(t)
        los = engine._los_matrix()
        assert np.array_equal(los, los.T)
        want = np.ones_like(los)
        present = np.flatnonzero(engine.present)
        for a in present:
            for b in present:
                if a != b:
                    want[a, b] = not blocks(engine.obstacles, engine.positions[a],
                                            engine.positions[b])
        assert np.array_equal(los, want), t
        assert engine.present[3] == (t >= 500)
        blocked_seen += int((~los).sum())
        clear_seen += int(los[np.ix_(present, present)].sum()) - len(present)
    assert blocked_seen > 0 and clear_seen > 0


def test_duration_must_exceed_warmup():
    from mode4sim.config import ConfigError
    with pytest.raises(ConfigError):
        RunConfig(duration_s=2.0, **SMALL).validate()
