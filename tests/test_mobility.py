import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mode4sim.config import RunConfig
from mode4sim.mobility import (LANE_SPEEDS_MPS, TraceError, load_trace, spawn_highway,
                               step_highway)
from mode4sim.seeding import substream
from oracles import ScenarioSnapshot, neighbors


def write_trace(tmp_path, text, name="trace.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


# -- trace ingestion --------------------------------------------------------

def load_snapshots(path):
    """load_trace's arrays as one snapshot of the present vehicles per instant."""
    ids, positions = load_trace(path)
    present = ~np.isnan(positions[:, :, 0])
    return [ScenarioSnapshot(tti=k * 100, ids=ids[present[k]],
                             positions=positions[k, present[k]])
            for k in range(len(positions))]


def test_arrays_hold_every_present_vehicle_in_id_order(tmp_path):
    # Vehicle 9 joins at 0.2 s; vehicle 4 has records only between two
    # instants, so it is never present and gets no column.
    text = ("0.0,7,0,0\n1.0,7,10,0\n0.2,9,5,5\n0.5,9,8,5\n"
            "0.42,4,1,1\n0.44,4,2,1\n")
    ids, positions = load_trace(write_trace(tmp_path, text))
    assert ids.tolist() == [7, 9]
    assert positions.shape == (11, 2, 2)
    absent = np.isnan(positions)
    assert (absent[:, :, 0] == absent[:, :, 1]).all()
    assert not absent[:, 0].any()
    assert [k for k in range(11) if not absent[k, 1, 0]] == [2, 3, 4, 5]
    assert positions[4, 1] == pytest.approx([7.0, 5.0])


def test_static_vehicle_same_position_everywhere(tmp_path):
    rows = "\n".join(f"{t/10:.1f},1,5.0,7.0" for t in range(0, 21))
    snaps = load_snapshots(write_trace(tmp_path, rows))
    assert len(snaps) == 21
    for snap in snaps:
        assert list(snap.ids) == [1]
        assert snap.positions[0] == pytest.approx([5.0, 7.0])


def test_interpolation_at_tenth_second(tmp_path):
    cases = [
        ("0.0,3,0.0,0.0\n1.0,3,10.0,0.0\n", {1: 1.0, 5: 5.0}),
        # Two records share 0.5 s: the last of them holds from that instant on.
        ("0.0,3,0.0,0.0\n0.5,3,7.0,0.0\n0.5,3,5.0,0.0\n1.0,3,10.0,0.0\n",
         {1: 1.4, 5: 5.0, 6: 6.0}),
    ]
    for text, expect in cases:
        snaps = load_snapshots(write_trace(tmp_path, text))
        for k, x in expect.items():
            assert snaps[k].positions[0, 0] == pytest.approx(x)


def test_header_is_optional(tmp_path):
    path = write_trace(tmp_path, "time_s,vehicle_id,x_m,y_m\n0.0,1,0,0\n0.5,1,5,0\n")
    snaps = load_snapshots(path)
    assert list(snaps[0].ids) == [1]


def test_gap_excludes_vehicle(tmp_path):
    cases = [
        # Present on [0, 1] and [4, 4.5], absent inside the 3-second hole.
        (["0.0,1,0,0", "0.5,1,5,0", "1.0,1,10,0", "4.0,1,40,0", "4.5,1,45,0"],
         lambda k: k <= 10 or 40 <= k <= 45),
        # A last record on an instant counts there; one between instants
        # does not carry over to the next instant.
        (["0.0,1,0,0", "0.5,1,5,0", "1.0,2,0,0"], lambda k: k <= 5),
        (["0.0,1,0,0", "0.55,1,5,0", "1.0,2,0,0"], lambda k: k <= 5),
        # Joining late, between instants.
        (["0.25,1,0,0", "0.5,1,5,0", "0.0,2,0,0", "1.0,2,0,0"],
         lambda k: 3 <= k <= 5),
    ]
    for rows, expect in cases:
        snaps = load_snapshots(write_trace(tmp_path, "\n".join(rows)))
        present = {k for k, snap in enumerate(snaps) if 1 in snap.ids}
        # Membership oracle from the raw records of vehicle 1.
        for k in range(len(snaps)):
            assert (k in present) == expect(k), f"{rows}: t={k * 0.1}"


def test_malformed_line_reports_number(tmp_path):
    path = write_trace(tmp_path, "0.0,1,0,0\nnot,a,row\n")
    with pytest.raises(TraceError, match=":2"):
        load_trace(path)


def test_empty_trace_rejected(tmp_path):
    with pytest.raises(TraceError, match="empty"):
        load_trace(write_trace(tmp_path, "\n"))


def test_decreasing_time_rejected(tmp_path):
    path = write_trace(tmp_path, "1.0,1,0,0\n0.5,1,1,0\n")
    with pytest.raises(TraceError, match="decrease"):
        load_trace(path)


@given(st.floats(0.05, 0.95))
@settings(max_examples=30, deadline=None)
def test_interpolated_positions_on_segment(frac):
    t = round(frac, 3)
    snaps = None
    import tempfile, os
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.csv")
        with open(path, "w") as fh:
            fh.write("0.0,9,2.0,3.0\n1.0,9,12.0,-5.0\n")
        snaps = load_snapshots(path)
    for snap in snaps:
        x, y = snap.positions[0]
        lam = (x - 2.0) / 10.0
        assert -1e-9 <= lam <= 1 + 1e-9
        assert y == pytest.approx(3.0 + lam * (-8.0))


# -- highway -----------------------------------------------------------------

def test_step_arithmetic():
    cfg = RunConfig(highway_length_m=16000, highway_vehicles=4)
    state = spawn_highway(cfg, substream(0, "mobility"))
    state.x = np.array([100.0, 15999.0, 50.0, 0.0])
    state.speed = np.array([30.0, 30.0, -20.0, 10.0])
    step_highway(cfg, state, 0.1)
    assert state.x[0] == pytest.approx(103.0)
    assert state.x[1] == pytest.approx(2.0)  # wrapped
    assert state.x[2] == pytest.approx(48.0)


def test_wrap_preserves_count_and_range():
    cfg = RunConfig(highway_length_m=4000, highway_vehicles=200)
    state = spawn_highway(cfg, substream(1, "mobility"))
    for _ in range(500):
        step_highway(cfg, state, 0.1)
    assert len(state.x) == 200
    assert ((state.x >= 0) & (state.x < 4000)).all()


def test_speeds_truncated_and_lane_signed():
    cfg = RunConfig(highway_vehicles=1200)
    state = spawn_highway(cfg, substream(2, "mobility"))
    speeds = np.abs(state.speed)
    means = np.asarray(LANE_SPEEDS_MPS)
    assert speeds.min() >= means.min() * 0.7 - 1e-9
    assert speeds.max() <= means.max() * 1.3 + 1e-9
    assert (state.speed > 0).sum() == 600  # half per direction
    assert len(np.unique(state.y)) == 6


def test_density_calibration_matches_target_neighbours():
    # (N-1) * 400 m / L ~= 49.4 neighbors within 200 m at the default density.
    cfg = RunConfig(highway_length_m=4000, highway_vehicles=495)
    state = spawn_highway(cfg, substream(3, "mobility"))
    positions = np.column_stack([state.x, state.y])
    snap = ScenarioSnapshot(tti=0, ids=np.arange(495), positions=positions,
                            wrap_length_m=4000)
    counts = [len(neighbors(snap, v, 200.0)) for v in range(495)]
    assert np.mean(counts) == pytest.approx(49.4, rel=0.10)


# -- neighbors ----------------------------------------------------------------

def test_lone_vehicle_has_no_neighbors():
    snap = ScenarioSnapshot(tti=0, ids=np.array([7]), positions=np.array([[0.0, 0.0]]))
    assert neighbors(snap, 7, 100.0) == set()


def test_boundary_is_inclusive():
    snap = ScenarioSnapshot(tti=0, ids=np.array([0, 1]),
                            positions=np.array([[0.0, 0.0], [100.0, 0.0]]))
    assert neighbors(snap, 0, 100.0) == {1}
    assert neighbors(snap, 1, 100.0) == {0}


@given(st.integers(2, 30), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_neighbors_match_brute_force(n, seed):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-300, 300, size=(n, 2))
    ids = np.arange(n)
    snap = ScenarioSnapshot(tti=0, ids=ids, positions=pos)
    awareness = 150.0
    for v in range(n):
        got = neighbors(snap, v, awareness)
        want = {j for j in range(n) if j != v
                and np.hypot(*(pos[j] - pos[v])) <= awareness}
        assert got == want
        for j in got:
            assert v in neighbors(snap, j, awareness)  # symmetry
