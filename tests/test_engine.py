import tracemalloc

import numpy as np
import pytest

from mode4sim import channel, engine as engine_module, mode4, phy
from mode4sim.channel import block_rows
from mode4sim.config import RunConfig
from mode4sim.engine import Protocol, SimulationEngine, run_hidden_node, run_scenario
from mode4sim.metrics import PrrAccumulator
from mode4sim.mobility import spawn_highway, step_highway
from mode4sim.seeding import substream
from oracles import (DenseUdTracker, RxOutcome, ScenarioSnapshot, blocks, hidden_node_loop,
                     neighbour_list, pair_distances, record_beacon)

SMALL = dict(highway_length_m=1000.0, highway_vehicles=124, seed=5)


def _step(world, protocol, t):
    """Tick t by hand, in the order `SimulationEngine.run` uses."""
    if t % world.t_b == 0:
        world.advance(t, t >= world.cfg.warmup_tti)
        protocol.begin_period(t)
    protocol.tick(t)


@pytest.fixture(scope="module")
def small_run():
    cfg = RunConfig(duration_s=6.0, **SMALL)
    return run_scenario(cfg)


def test_same_seed_reproduces_everything(small_run):
    again = run_scenario(RunConfig(duration_s=6.0, **SMALL))
    assert again.prr.pooled() == small_run.prr.pooled()
    assert (again.prr.neighbor_count == small_run.prr.neighbor_count).all()
    assert (again.prr.decoded_count == small_run.prr.decoded_count).all()
    assert np.array_equal(again.hold_counts, small_run.hold_counts)
    assert np.array_equal(again.ud.gap_counts, small_run.ud.gap_counts)


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


def _churn_trace(tmp_path):
    """A 3.6 s trace of 30 vehicles on a 600 m road, driving both ways at
    5-30 m/s, so pairs keep entering and leaving each other's range. Each
    vehicle but every third leaves once, at a time of its own, for one
    beacon period or for six."""
    rng = np.random.default_rng(4)
    x0, speed = rng.uniform(0.0, 600.0, 30), rng.uniform(5.0, 30.0, 30) * rng.choice([-1, 1], 30)
    leaves = rng.integers(5, 25, 30)
    rows = []
    for k in range(37):
        t = k * 0.1
        for v in range(30):
            if v % 3 and leaves[v] <= k < leaves[v] + (1 if v % 3 == 1 else 6):
                continue
            rows.append(f"{t:.1f},{v},{x0[v] + speed[v] * t:.2f},{4.0 * (v % 2):.1f}")
    path = tmp_path / "churn.csv"
    path.write_text("\n".join(rows) + "\n")
    return dict(scenario="trace", trace=str(path), awareness_m=100.0, max_trace_gap_s=0.15)


def test_batched_credit_matches_per_beacon_oracle(monkeypatch):
    # The engine credits all of a subframe's transmitters in one PRR and one
    # UD call; replaying each metric-phase beacon through the per-beacon
    # oracle into fresh accumulators must give the same counts exactly.
    _check_batched_credit(monkeypatch, RunConfig(
        duration_s=3.6, t_sense_ms=200, n_max=6, highway_length_m=800.0,
        highway_vehicles=40, seed=2))


def test_batched_credit_matches_per_beacon_oracle_under_churn(monkeypatch, tmp_path):
    # The engine keeps update-delay state per neighbour pair and carries
    # the pairs that stay from one period's list to the next; the oracle's
    # (n, n) tracker forgets every pair out of range. On a trace whose
    # neighbour sets and presence churn, some pairs out of range for a
    # single period, the counts must still match exactly.
    _check_batched_credit(monkeypatch, RunConfig(
        duration_s=3.6, t_sense_ms=200, n_max=6, seed=2, **_churn_trace(tmp_path)))


def _check_batched_credit(monkeypatch, cfg):
    world = SimulationEngine(cfg)
    proto = Protocol(world)
    captured = []
    real = phy.subframe_reception

    def capture(*args, **kwargs):
        sinr_lin, decoded = real(*args, **kwargs)
        captured.append(decoded)
        return sinr_lin, decoded

    monkeypatch.setattr(phy, "subframe_reception", capture)
    prr = PrrAccumulator(cfg.prr_bin_width_m, proto.awareness_m)
    ud = DenseUdTracker(world.n, world.t_b / 1000.0)
    replayed = left = 0
    for t in range(world.total_tti):
        if t % world.t_b == 0:
            world.advance(t, t >= cfg.warmup_tti)
            proto.begin_period(t)  # departures drop their transmission
            neigh = pair_distances(world.positions, world.wrap) <= proto.awareness_m
            np.fill_diagonal(neigh, False)
            left += np.count_nonzero(ud.last[~neigh] >= 0)
            ud.reset_pairs(~neigh)
        # Vehicles due at t without a frequency slot select, not transmit.
        txs = np.flatnonzero((proto.next_tx == t) & (proto.cur_slot >= 0))
        captured.clear()
        proto.tick(t)
        if t < cfg.warmup_tti or not len(txs):
            continue
        (decoded,) = captured
        assert len(decoded) == len(txs)
        snap = ScenarioSnapshot(tti=t, ids=np.arange(world.n),
                                positions=world.positions, wrap_length_m=world.wrap)
        for k, v in enumerate(txs):
            # The oracle is blind to presence: offer it present receivers only.
            outcomes = [RxOutcome(int(v), dst, float("nan"), bool(decoded[k, dst]), False)
                        for dst in np.flatnonzero(world.present) if dst != v]
            record_beacon(prr, ud, int(v), outcomes, snap, proto.awareness_m,
                          proto.seq[v] * world.t_b / 1000.0)
            replayed += 1
    # Some credited pairs left the range with a reception time to forget.
    assert replayed > 0 and ud.total_gaps > 0 and left > 0
    assert np.array_equal(prr.neighbor_count, proto.prr.neighbor_count)
    assert np.array_equal(prr.decoded_count, proto.prr.decoded_count)
    assert np.array_equal(ud.gap_counts, proto.ud.gap_counts)


def test_hold_times_have_counter_floor(small_run):
    # Every hold spans at least n_min periods (one full counter draw).
    assert small_run.hold_counts.min() >= 5


def test_random_allocation_redraws_every_period():
    cfg = RunConfig(duration_s=3.6, allocation="random", t_sense_ms=200,
                    n_max=6, highway_length_m=800.0, highway_vehicles=40, seed=2)
    world = SimulationEngine(cfg)
    proto = Protocol(world)
    offsets = []
    for t in range(3600):
        _step(world, proto, t)
        if t % 100 == 99:
            offsets.append(proto.next_tx % proto.t_b)
    offsets = np.asarray(offsets[5:])
    repeats = (offsets[1:] == offsets[:-1]).mean()
    # Uniform redraw over 200 BRs keeps the same subframe ~1% of the time.
    assert repeats < 0.05
    assert proto.hd_violations == 0


def test_mode4_transmissions_stay_within_selection_window():
    cfg = RunConfig(duration_s=3.0, t_sense_ms=200, n_min=2, n_max=4,
                    t1=2, t2=30, highway_length_m=800.0, highway_vehicles=30,
                    seed=3)
    world = SimulationEngine(cfg)
    proto = Protocol(world)
    selections = 0
    for t in range(3000):
        before = proto.next_tx % proto.t_b
        _step(world, proto, t)
        # An arrival's first selection moves `next_tx` too, but holds no slot.
        changed = np.flatnonzero((proto.next_tx % proto.t_b != before)
                                 & (proto.cur_slot >= 0))
        for v in changed:
            nxt = proto.next_tx[v]
            # The first transmission on a fresh allocation happens t1..t2
            # TTIs after the selection instant.
            assert cfg.t1 <= nxt - t <= cfg.t2
        selections += len(changed)
    assert selections > cfg.highway_vehicles
    assert proto.result().beacons_sent > 0


@pytest.mark.xfail(strict=True, reason=(
    "model gap: a reselection schedules the new allocation's first beacon "
    "t1..t2 subframes after the beacon that ended the old one, so about half "
    "of the reselections send a second beacon within one 100 ms period "
    "(ring-495, 6 s, seed 1: 30,453 beacons against 29,700 generations)"))
def test_no_vehicle_sends_more_beacons_than_it_generates():
    # Every vehicle is present from t = 0 and generates one beacon per
    # period from its phase on.
    cfg = RunConfig(duration_s=3.6, t_sense_ms=200, n_max=6, highway_length_m=800.0,
                    highway_vehicles=40, seed=2)
    world = SimulationEngine(cfg)
    proto = Protocol(world)
    for t in range(world.total_tti):
        _step(world, proto, t)
    generated = -(-(world.total_tti - proto.phase) // world.t_b)
    assert ((proto.seq + 1) <= generated).all()


def test_highway_frames_and_first_selection():
    # The frames set-up builds are the highway stepped once per period, and
    # every vehicle arrives on period 0 with its first selection at its phase.
    cfg = RunConfig(duration_s=3.05, **SMALL)
    world = SimulationEngine(cfg)
    proto = Protocol(world)
    assert world.frames.shape == (31, cfg.highway_vehicles, 2)
    state = spawn_highway(cfg, substream(cfg.seed, "mobility"))
    for period, frame in enumerate(world.frames):
        if period:
            step_highway(cfg, state, cfg.beacon_period_ms / 1000.0)
        assert np.array_equal(frame, np.column_stack([state.x, state.y])), period
    assert not world.present.any() and (proto.next_tx == -1).all()
    _step(world, proto, 0)
    assert world.present.all()
    later = proto.phase > 0
    assert later.any() and not later.all()
    # The others are due to select at their phase, holding no slot yet.
    assert np.array_equal(proto.next_tx[later], proto.phase[later])
    assert (proto.cur_slot[later] == -1).all()
    # Phase-0 vehicles selected within tick 0.
    assert (proto.cur_slot[~later] >= 0).all()
    assert (proto.next_tx[~later] > 0).all()


def _three_vehicle_trace_run(tmp_path):
    """A world and a protocol on a sparse 4 s trace: three vehicles, and
    vehicle 2 leaves for two seconds (1.0-3.0 s)."""
    rows = []
    for k in range(0, 46):  # 4.5 s at 0.1 s resolution
        t = k * 0.1
        rows.append(f"{t:.1f},0,{5 * t:.2f},0.0")
        rows.append(f"{t:.1f},1,{5 * t:.2f},4.0")
        if not 1.0 <= t <= 3.0:
            rows.append(f"{t:.1f},2,{5 * t:.2f},8.0")
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(rows) + "\n")
    cfg = RunConfig(scenario="trace", trace=str(path), duration_s=4.0,
                    t_sense_ms=200, n_min=2, n_max=4, seed=1,
                    max_trace_gap_s=0.15)
    world = SimulationEngine(cfg)
    return world, Protocol(world)


def test_trace_scenario_respects_presence(tmp_path):
    world, proto = _three_vehicle_trace_run(tmp_path)
    tx_times = {0: [], 1: [], 2: []}
    for t in range(4000):
        sent = proto.seq.copy()
        _step(world, proto, t)
        for v in np.flatnonzero(proto.seq != sent):
            tx_times[int(v)].append(t)
    assert tx_times[0] and tx_times[1]
    gap_txs = [t for t in tx_times[2] if 1100 <= t <= 2900]
    assert gap_txs == []  # absent vehicles stay silent
    assert any(t > 3000 for t in tx_times[2])  # rejoins afterwards


def test_current_slot_holds_no_sample_ahead_of_the_clock(tmp_path):
    # The sensing window slides one subframe per tick: after tick t, no BR of
    # a later subframe of the current period's slot holds an S-RSSI sample or
    # an RSRP count yet. A noise-floor prefill of the slot when the period
    # begins would break this. Three vehicles leave most subframes without a
    # transmitter.
    world, proto = _three_vehicle_trace_run(tmp_path)
    memory, per_tti = proto.memory, proto.cfg.brs_per_tti
    silent = sensed = decoded = 0
    for t in range(world.total_tti):
        sent = proto.seq.copy()
        _step(world, proto, t)
        silent += np.array_equal(proto.seq, sent)
        now = (t % world.t_b + 1) * per_tti
        slot = memory.slot
        assert not memory.s_rssi[:, slot, now:].any(), t
        assert not memory.rsrp_cnt[:, slot, now:].any(), t
        sensed += np.count_nonzero(memory.s_rssi[:, slot, now - per_tti:now])
        decoded += int(memory.rsrp_cnt[:, slot, now - per_tti:now].sum())
    assert silent > world.total_tti // 2 and sensed > 0 and decoded > 0


def test_los_matrix_matches_scalar_blocks(tmp_path):
    # Four vehicles pass a building; vehicle 3 joins half-way. Pairs on
    # opposite sides of the building are blocked, the others are not. The
    # engine hands the channel the blocked pairs as ascending keys
    # i * n + j with i < j, of present vehicles only.
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
    n = engine.n
    blocked_seen = clear_seen = 0
    for t in range(0, 1000, 100):
        engine.advance(t)
        keys = engine._blocked_pairs(engine.positions)
        assert (np.diff(keys) > 0).all()
        i, j = np.divmod(keys, n)
        assert (i < j).all() and engine.present[i].all() and engine.present[j].all()
        present = np.flatnonzero(engine.present)
        pairs = [(a, b) for k, a in enumerate(present) for b in present[k + 1:]]
        want = [a * n + b for a, b in pairs
                if blocks(engine.obstacles, engine.positions[a], engine.positions[b])]
        assert keys.tolist() == want, t
        assert engine.present[3] == (t >= 500)
        blocked_seen += len(keys)
        clear_seen += len(pairs) - len(keys)
    assert blocked_seen > 0 and clear_seen > 0


def test_a_highway_with_obstacles_hands_the_channel_no_square_array(tmp_path, monkeypatch):
    # A wall in the median blocks pairs on opposite carriageways. The
    # channel gets them as keys, so no argument of its constructor,
    # `initial` or `advance` is an (n, n) array.
    wall = tmp_path / "map.txt"
    wall.write_text("100,-0.5,600,-0.5,600,0.5,100,0.5\n")
    cfg = RunConfig(obstacle_map=str(wall), duration_s=0.5, highway_length_m=800.0,
                    highway_vehicles=40, t_sense_ms=100, n_min=1, n_max=2, seed=3)
    Realization = channel.ChannelRealization
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append((name, args + tuple(kwargs.values())))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(Realization, "__init__", spy("__init__", Realization.__init__))
    monkeypatch.setattr(Realization, "initial",
                        classmethod(spy("initial", Realization.initial.__func__)))
    monkeypatch.setattr(Realization, "advance", spy("advance", Realization.advance))
    los_state, blocked = engine_module.los_state, []

    def counted(*args):
        clear = los_state(*args)
        blocked.append(np.count_nonzero(~clear))
        return clear

    monkeypatch.setattr(engine_module, "los_state", counted)
    world = SimulationEngine(cfg)
    n = world.n
    for period in range(world.n_periods):
        world.advance(period * world.t_b)
    assert len(blocked) == world.n_periods and sum(blocked) > 0
    assert [name for name, _ in calls] == ["initial", "__init__"] + ["advance"] * 4
    for name, args in calls:
        assert not any(np.shape(arg)[:2] == (n, n) for arg in args
                       if isinstance(arg, np.ndarray)), name


def test_a_trace_with_churn_hands_the_channel_no_square_array(tmp_path, monkeypatch):
    # Five vehicles pass a building; vehicle 3 leaves for 0.3 s and vehicle
    # 4 joins late. `step_ahead` gets each next period's positions and
    # blocked keys, and `advance` no array at all, so no argument of the
    # channel's constructor, `initial`, `step_ahead` or `advance` is an
    # (n, n) array. The channel steps its shadow by each vehicle's
    # displacement since the previous period, NaN where it is absent in
    # either.
    rows = []
    for k in range(11):
        t = k * 0.1
        for v in range(5):
            if (v == 3 and 0.3 <= t <= 0.5) or (v == 4 and t < 0.4):
                continue
            rows.append(f"{t:.1f},{v},{20 * v + 10 * t:.2f},{15.0 * (v % 2):.1f}")
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join(rows) + "\n")
    obstacles = tmp_path / "map.txt"
    obstacles.write_text("40,2,60,2,60,10,40,10\n")
    cfg = RunConfig(scenario="trace", trace=str(trace), obstacle_map=str(obstacles),
                    duration_s=1.0, t_sense_ms=200, n_min=2, n_max=4, seed=1,
                    max_trace_gap_s=0.15)
    Realization = channel.ChannelRealization
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append((name, args + tuple(kwargs.values())))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(Realization, "__init__", spy("__init__", Realization.__init__))
    monkeypatch.setattr(Realization, "initial",
                        classmethod(spy("initial", Realization.initial.__func__)))
    monkeypatch.setattr(Realization, "step_ahead", spy("step_ahead", Realization.step_ahead))
    monkeypatch.setattr(Realization, "advance", spy("advance", Realization.advance))
    stepped, step = [], Realization._step

    def steps_by(self, blocked, moved):
        stepped.append(moved)
        return step(self, blocked, moved)

    monkeypatch.setattr(Realization, "_step", steps_by)
    world = SimulationEngine(cfg)
    n, frames = world.n, world.frames
    for period in range(world.n_periods):
        world.advance(period * world.t_b)
    assert n == 5 and world.n_periods == 10
    assert [name for name, _ in calls] == (["initial", "__init__", "step_ahead"]
                                           + ["advance", "step_ahead"] * 8 + ["advance"])
    for name, args in calls:
        assert not any(np.shape(arg)[:2] == (n, n) for arg in args
                       if isinstance(arg, np.ndarray)), name
    handed = [args[1] for name, args in calls if name == "step_ahead"]
    for period, positions in enumerate(handed, start=1):
        assert np.array_equal(positions, frames[period], equal_nan=True)
    assert all(args[1:] == (False,) for name, args in calls if name == "advance")
    assert any(len(args[2]) for name, args in calls if name == "step_ahead")
    # The constructor's fresh draw, then one step per period.
    assert stepped[0] == np.inf and len(stepped) == 10
    for period, moved in enumerate(stepped[1:], start=1):
        assert np.array_equal(moved, frames[period] - frames[period - 1], equal_nan=True)
    # NaN rows: vehicle 3 in the steps to periods 3-6, vehicle 4 in those to 1-4.
    assert sum(np.isnan(moved).all(axis=1).sum() for moved in stepped[1:]) == 8


def _churning_trace(path, n, periods):
    """A trace of n vehicles on four lanes over `periods` beacon periods,
    every seventh vehicle absent at 0.1 s."""
    rows = []
    for k in range(periods + 1):
        t = k * 0.1
        for v in range(n):
            if v % 7 == 0 and k == 1:
                continue
            rows.append(f"{t:.1f},{v},{5.0 * v + 25.0 * t:.2f},{4.0 * (v % 4):.1f}")
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_a_trace_advance_allocates_less_than_one_power_matrix(tmp_path, monkeypatch):
    # On a 600-vehicle trace with churn, one `advance` (the period's shadow
    # step, taken inline with one refresh thread, the refresh, and the
    # next period's displacements) allocates less than one n x n matrix:
    # each step block computes its pairs' displacement legs from the
    # (n, 2) displacements. A per-pair displacement matrix took several.
    monkeypatch.setattr(channel, "WORKERS", 1)
    n = 600
    cfg = RunConfig(scenario="trace", trace=_churning_trace(tmp_path / "trace.csv", n, 4),
                    duration_s=0.4, t_sense_ms=100, n_min=1, n_max=2, seed=1,
                    max_trace_gap_s=0.15)
    world = SimulationEngine(cfg)
    world.advance(0)
    assert world.n == n and block_rows(n) < n
    tracemalloc.start()
    try:
        world.advance(world.t_b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isnan(world.positions).any()
    assert peak < n * n * 8


def test_blocked_pairs_are_enumerated_a_block_of_rows_at_a_time(tmp_path):
    # A wall in the median of a 600-vehicle highway blocks the pairs across
    # it. The world lists them by blocks of the channel's rows, so its
    # temporaries are a block's index pairs and endpoints: the peak stays
    # under 1.5 power matrices, where all 180K pairs at once peaked at 3.2.
    # The keys are those of all pairs at once, ascending.
    wall = tmp_path / "map.txt"
    wall.write_text("100,-0.5,2900,-0.5,2900,0.5,100,0.5\n")
    n = 600
    cfg = RunConfig(obstacle_map=str(wall), duration_s=0.5, highway_length_m=3000.0,
                    highway_vehicles=n, t_sense_ms=100, n_min=1, n_max=2, seed=3)
    world = SimulationEngine(cfg)
    positions = world.frames[0]
    assert block_rows(n) < n
    tracemalloc.start()
    try:
        keys = world._blocked_pairs(positions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    a, b = np.triu_indices(n, 1)
    clear = engine_module.los_state(world.obstacles, positions, a, b)
    assert keys.tobytes() == (a[~clear] * n + b[~clear]).tobytes()
    assert 0 < len(keys) < len(a)
    assert peak < 1.5 * n * n * 8


def test_each_period_steps_and_refreshes_on_the_keys_of_one_los_pass(tmp_path, monkeypatch):
    # Vehicles pass a building, so the blocked pairs change from period to
    # period. The world finds each period's keys with one `los_state` call,
    # one period ahead, and hands them to the channel once: the constructor
    # gets period 0's, then `step_ahead` the keys of period p, and
    # `advance` no keys. The channel's refresh of period p takes the keys
    # its step took.
    rows = []
    for k in range(11):
        t = k * 0.1
        rows.append(f"{t:.1f},0,{10 * t:.2f},0.0")
        rows.append(f"{t:.1f},1,{100 - 40 * t:.2f},0.0")
        rows.append(f"{t:.1f},2,{30 + 30 * t:.2f},15.0")
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join(rows) + "\n")
    obstacles = tmp_path / "map.txt"
    obstacles.write_text("40,-10,60,-10,60,10,40,10\n")
    cfg = RunConfig(scenario="trace", trace=str(trace), obstacle_map=str(obstacles),
                    duration_s=1.0, t_sense_ms=200, n_min=2, n_max=4, seed=1)
    Realization = channel.ChannelRealization
    los_calls, handed = [], []
    los_state = engine_module.los_state

    def counted(*args):
        los_calls.append(args)
        return los_state(*args)

    def spy(name, fn, at):
        def wrapped(*args):
            handed.append((name, args[at]))
            return fn(*args)
        return wrapped

    monkeypatch.setattr(engine_module, "los_state", counted)
    monkeypatch.setattr(Realization, "__init__", spy("initial", Realization.__init__, 4))
    monkeypatch.setattr(Realization, "step_ahead", spy("step", Realization.step_ahead, 2))
    monkeypatch.setattr(Realization, "advance", spy("advance", Realization.advance, slice(1, None)))
    monkeypatch.setattr(Realization, "_refresh", spy("refresh", Realization._refresh, 2))
    world = SimulationEngine(cfg)
    for period in range(world.n_periods):
        world.advance(period * world.t_b)
    assert len(los_calls) == world.n_periods == 10
    assert [name for name, _ in handed] == (["initial", "refresh"]
                                            + ["step", "advance", "refresh"] * 9)
    assert all(args == (False,) for name, args in handed if name == "advance")
    keys = [handed[0][1]] + [got for name, got in handed if name == "step"]
    refreshed = [got for name, got in handed if name == "refresh"]
    assert all(got is want for got, want in zip(refreshed, keys, strict=True))
    for period, got in enumerate(keys):
        want = world._blocked_pairs(world.frames[period])
        assert got.tolist() == want.tolist(), period
    assert len({tuple(k.tolist()) for k in keys}) > 1


def test_simulate_and_hidden_node_advance_the_same_periods(monkeypatch):
    # 1.05 s ends half-way through period 10. The simulate clock enters it,
    # so hidden-node samples it too.
    cfg = RunConfig(duration_s=1.05, t_sense_ms=200, n_max=6, highway_length_m=800.0,
                    highway_vehicles=40, seed=2)
    # Simulate asks for the neighbour list in the metric phase only,
    # hidden-node in every sampled period.
    advanced = []
    real = SimulationEngine.advance

    def record(self, t, neighbours=False):
        advanced.append((t, neighbours))
        real(self, t, neighbours)
        assert (self.channel.neighbours is not None) == neighbours

    monkeypatch.setattr(SimulationEngine, "advance", record)
    run_scenario(cfg)
    simulated = advanced[:]
    advanced.clear()
    acc = run_hidden_node(cfg)
    periods = list(range(0, 1100, 100))
    assert simulated == [(t, t >= cfg.warmup_tti) for t in periods]
    assert advanced == [(t, True) for t in periods]
    assert len(acc.snapshot_probs) == 11
    advanced.clear()
    acc = run_hidden_node(cfg, 3)
    assert advanced == [(t, t % 300 == 0) for t in periods]
    assert len(acc.snapshot_probs) == 4


@pytest.mark.parametrize("runner", [run_scenario, run_hidden_node])
def test_a_run_draws_one_normal_matrix_per_period(runner, monkeypatch):
    # The world takes each period's shadow step one period ahead, on a
    # refresh thread: after the run the shadow stream must have drawn
    # exactly one (n, n) matrix per period, no more and no fewer.
    monkeypatch.setattr(channel, "WORKERS", 2)
    n = 300
    assert block_rows(n) < n  # two blocks, so the steps run on the thread
    cfg = RunConfig(duration_s=1.05, t_sense_ms=200, n_max=6, highway_length_m=2000.0,
                    highway_vehicles=n, seed=3)
    shadow = []
    real_substream = engine_module.substream

    def recording_substream(seed, *path):
        rng = real_substream(seed, *path)
        if path == ("shadow",):
            shadow.append(rng)
        return rng

    monkeypatch.setattr(engine_module, "substream", recording_substream)
    runner(cfg)
    fresh = substream(cfg.seed, "shadow")
    periods = 11
    for _ in range(periods):
        fresh.standard_normal((n, n))
    assert [rng.bit_generator.state for rng in shadow] == [fresh.bit_generator.state]


def test_hidden_node_builds_no_protocol_state(monkeypatch):
    # The hidden-node pass reads only the world: it builds no sensing memory
    # or metric accumulator and opens no phase or MAC stream. The same probes
    # on a simulate run see all of them.
    built, streams = [], []
    real_substream = engine_module.substream

    def recording_substream(seed, *path):
        streams.append(path[0])
        return real_substream(seed, *path)

    monkeypatch.setattr(engine_module, "substream", recording_substream)
    for owner, name in ((mode4, "SensingMemory"), (engine_module, "UdTracker"),
                        (engine_module, "PrrAccumulator")):
        def recording(*args, _cls=getattr(owner, name), _name=name, **kwargs):
            built.append(_name)
            return _cls(*args, **kwargs)
        monkeypatch.setattr(owner, name, recording)
    cfg = RunConfig(duration_s=1.05, t_sense_ms=200, n_max=6, highway_length_m=800.0,
                    highway_vehicles=40, seed=2)
    acc = run_hidden_node(cfg)
    assert len(acc.snapshot_probs) == 11
    assert built == []
    assert sorted(streams) == ["mobility", "shadow"]
    run_scenario(cfg)
    assert sorted(built) == ["PrrAccumulator", "SensingMemory", "UdTracker"]
    assert {"phase", "mac"} <= set(streams)


def test_hidden_node_under_churn_counts_the_present_rows(tmp_path, monkeypatch):
    # Six vehicles on a 250 m stretch; vehicle 4 leaves for a second and
    # vehicle 5 joins late, so some snapshots hold absent vehicles, whose
    # rows the metric must ignore.
    rows = []
    for k in range(41):
        t = k * 0.1
        for v in range(6):
            if (v == 4 and 1.0 <= t <= 2.0) or (v == 5 and t < 2.5):
                continue
            rows.append(f"{t:.1f},{v},{50 * v + 8 * t:.2f},{4.0 * (v % 2):.1f}")
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(rows) + "\n")
    cfg = RunConfig(scenario="trace", trace=str(path), duration_s=4.0,
                    t_sense_ms=200, n_min=2, n_max=4, seed=3, max_trace_gap_s=0.15)
    engines = []
    real_advance = SimulationEngine.advance

    def remember(self, t, *args):
        engines.append(self)
        real_advance(self, t, *args)

    real_metric = engine_module.hidden_node_probability
    sizes = []

    def checked(power, neighbours, *rest):
        got = real_metric(power, neighbours, *rest)
        eng = engines[-1]
        dist = pair_distances(eng.positions, eng.wrap)
        for listed, want in zip(neighbours, neighbour_list(dist, cfg.resolved_awareness_m())):
            assert listed.tobytes() == want.tobytes()
        idx = np.flatnonzero(eng.present)
        rows = np.ix_(idx, idx)
        want = hidden_node_loop(eng.channel.rx_power_lin()[rows], dist[rows], *rest)
        assert got.probability == want.probability
        assert got.bin_ratio_sum.tobytes() == want.bin_ratio_sum.tobytes()
        assert np.array_equal(got.bin_pair_count, want.bin_pair_count)
        sizes.append((len(idx), eng.n))
        return got

    monkeypatch.setattr(SimulationEngine, "advance", remember)
    monkeypatch.setattr(engine_module, "hidden_node_probability", checked)
    acc = run_hidden_node(cfg)
    assert len(acc.snapshot_probs) == len(sizes) == 40
    assert (5, 6) in sizes and (6, 6) in sizes and (4, 6) in sizes
    assert acc.pair_count.sum() > 0


def test_the_world_holds_no_square_matrix_but_power():
    # Only the protocol's reads of received power by row and column need a
    # whole (n, n) matrix. The shadow state lives in the channel's
    # upper-block store, which holds about n^2/2 values, and distances only
    # in the neighbour list.
    cfg = RunConfig(duration_s=3.0, highway_length_m=3000.0, highway_vehicles=600, seed=1)
    world = SimulationEngine(cfg)
    world.advance(0, True)
    n = world.n
    found = {}
    for value in [*vars(world).values(), *vars(world.channel).values()]:
        for item in value if isinstance(value, (list, tuple)) else [value]:
            for array in item if isinstance(item, tuple) else [item]:
                if isinstance(array, np.ndarray) and array.shape == (n, n):
                    found[id(array)] = array
    assert list(found) == [id(world.channel.rx_power_lin())]
    assert len(world.channel.neighbours[0]) > 0


def test_the_protocol_holds_no_square_matrix():
    # In the metric phase the protocol keeps its neighbours and their
    # update-delay state per neighbour pair: after a period starts, no
    # (n, n) array is left in the protocol, its tracker or its memory.
    cfg = RunConfig(duration_s=3.0, highway_length_m=3000.0, highway_vehicles=600, seed=1)
    world = SimulationEngine(cfg)
    proto = Protocol(world)
    n = world.n
    for t in (cfg.warmup_tti, cfg.warmup_tti + world.t_b):
        world.advance(t, True)
        proto.begin_period(t)
        for owner in (proto, proto.ud, proto.memory):
            for value in vars(owner).values():
                for item in value if isinstance(value, (list, tuple)) else [value]:
                    assert not (isinstance(item, np.ndarray) and item.shape == (n, n)), owner
        assert proto.pair_ptr[-1] > 0


def test_duration_must_exceed_warmup():
    from mode4sim.config import ConfigError
    with pytest.raises(ConfigError):
        RunConfig(duration_s=2.0, **SMALL).validate()
