import itertools
import math
import multiprocessing
import re
import signal
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mode4sim import channel
from mode4sim.channel import (ChannelRealization, ObstacleMap, ObstacleMapError,
                              block_rows, breakpoint_distance_m, los_state,
                              pathloss_los_db, pathloss_nlos_db)
from mode4sim.config import RunConfig
from oracles import (FullMatrixChannel, _point_in_polygon, blocks, full_pair_legs,
                     full_shadow, highway_rho, neighbour_list, pathloss_db, rx_power_dbm,
                     shadow_step)

PARAMS = RunConfig()


# -- LOS determination ---------------------------------------------------

SQUARE = ObstacleMap(polygons=[[(40, -10), (60, -10), (60, 10), (40, 10)]])


def _clear(obstacles, p, q):
    """`los_state` of the one segment p-q."""
    got = los_state(obstacles, np.array([p, q], dtype=float), [0], [1])
    assert got.dtype == bool and got.shape == (1,)
    return bool(got[0])


def test_empty_map_is_always_los():
    assert _clear(None, (0, 0), (1234, -99))
    assert _clear(ObstacleMap(polygons=[]), (0, 0), (5, 5))


def test_building_between_blocks():
    assert not _clear(SQUARE, (0, 0), (100, 0))


def test_same_side_of_building_is_los():
    assert _clear(SQUARE, (0, 0), (30, 0))
    assert _clear(SQUARE, (0, 20), (100, 20))


def _los_oracle(obstacles, p, q, steps=2000):
    # Independent check: dense sampling along the segment + point-in-polygon.
    for k in range(steps + 1):
        frac = k / steps
        pt = (p[0] + frac * (q[0] - p[0]), p[1] + frac * (q[1] - p[1]))
        for poly in obstacles.polygons:
            if _point_in_polygon(poly, pt):
                return False
    return True


@given(st.tuples(st.floats(-30, 120), st.floats(-40, 40)),
       st.tuples(st.floats(-30, 120), st.floats(-40, 40)))
@settings(max_examples=60, deadline=None)
def test_los_matches_sampling_oracle(p, q):
    got = _clear(SQUARE, p, q)
    want = _los_oracle(SQUARE, p, q)
    # The sampling oracle can miss grazing contacts; only compare clear cases.
    if got != want:
        assert not got, "los_state claims LOS where sampling finds a hit"


@given(st.tuples(st.floats(-200, 200), st.floats(-200, 200)),
       st.tuples(st.floats(-200, 200), st.floats(-200, 200)))
@settings(max_examples=50, deadline=None)
def test_los_symmetry(p, q):
    assert _clear(SQUARE, p, q) == _clear(SQUARE, q, p)


# Convex and concave polygons on an integer lattice, so lattice segments run
# along edges, end on edges and pass through vertices.
LATTICE_MAP = ObstacleMap(polygons=[
    [(0, 0), (4, 0), (4, 4), (0, 4)],
    [(6, 0), (12, 0), (12, 3), (9, 3), (9, 8), (6, 8)],   # L shape
    [(2, 6), (5, 10), (0, 9)],
    [(1, 12), (5, 12), (5, 16), (4, 16), (3, 13), (2, 16), (1, 16)],  # notch
])

lattice_points = st.tuples(st.integers(-2, 14), st.integers(-2, 17))
float_points = st.tuples(st.floats(-2, 14), st.floats(-2, 17))


@given(st.lists(lattice_points | float_points, max_size=12))
@settings(max_examples=80, deadline=None)
def test_array_los_matches_scalar_blocks(points):
    # Every pair i < j of the points, as the engine asks for its present
    # vehicles; lattice points repeat, so some pairs have length 0.
    points = np.array(points, dtype=float).reshape(-1, 2)
    a, b = np.triu_indices(len(points), 1)
    got = los_state(LATTICE_MAP, points, a, b)
    assert got.dtype == bool and got.shape == (len(a),)
    want = [not blocks(LATTICE_MAP, points[i], points[j]) for i, j in zip(a, b)]
    assert got.tolist() == want


@pytest.mark.parametrize("p, q, los", [
    ((-1, 0), (5, 0), False),     # collinear with the square's bottom edge
    ((4, -2), (4, -1), True),     # collinear with an edge, short of it
    ((4, -2), (4, 0), False),     # ends on a vertex
    ((3, -1), (5, 1), False),     # passes through a vertex
    ((-1, 2), (0, 2), False),     # ends on an edge
    ((5, -1), (5, 9), True),      # runs between two buildings
    ((9, 5), (10, 5), False),     # starts on the L's inner edge
    ((10, 5), (11, 6), True),     # inside the L's notch
    ((3, 14), (3, 15), True),     # inside the notch of the last polygon
    ((2, 2), (2, 2), False),      # a point inside the square
])
def test_array_los_contact_cases(p, q, los):
    assert blocks(LATTICE_MAP, p, q) == (not los)
    got = los_state(LATTICE_MAP, np.array([p, q], float), [0, 1], [1, 0])
    assert got.tolist() == [los, los]


def test_array_los_matches_scalar_on_a_lattice(monkeypatch):
    # Enough lattice segments that every contact rule decides some of them.
    rng = np.random.default_rng(11)
    points = np.column_stack([rng.integers(-2, 15, 200), rng.integers(-2, 18, 200)]).astype(float)
    a, b = rng.integers(0, len(points), size=(2, 2000))
    want = [not blocks(LATTICE_MAP, points[i], points[j]) for i, j in zip(a, b)]
    assert los_state(LATTICE_MAP, points, a, b).tolist() == want
    monkeypatch.setattr(channel, "LOS_CHUNK_ELEMENTS", 50)  # chunks of 2 pairs or points
    assert los_state(LATTICE_MAP, points, a, b).tolist() == want
    assert 0 < sum(want) < len(want)


def test_los_state_forms_and_errors():
    none = np.empty(0, dtype=int)
    for obstacles in (None, SQUARE):
        for points in (np.empty((0, 2)), np.zeros((3, 2))):
            got = los_state(obstacles, points, none, none)
            assert got.shape == (0,) and got.dtype == bool
    assert los_state(None, np.zeros((3, 2)), [0, 1, 0], [1, 2, 2]).tolist() == [True] * 3
    for obstacles in (None, SQUARE):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                los_state(obstacles, [(0.0, 0.0), (bad, 0.0)], [0], [1])
        with pytest.raises(ValueError):
            los_state(obstacles, np.zeros((3, 2)), [0, 1], [1, 2, 0])
        with pytest.raises(ValueError):
            los_state(obstacles, np.zeros((3, 3)), [0], [1])


def test_obstacle_file_roundtrip(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("40,-10,60,-10,60,10,40,10\n# comment\n\n")
    loaded = ObstacleMap.from_file(path)
    assert len(loaded.polygons) == 1
    assert not _clear(loaded, (0, 0), (100, 0))


def test_malformed_obstacle_map_is_rejected(tmp_path, capsys):
    from mode4sim.cli import main
    cfg = tmp_path / "cfg.yaml"
    bad_lines = {"odd": "0,0,10,0,10,10,0", "nan": "0,0,10,0,nan,10,0,10",
                 "inf": "0,0,10,0,inf,10,0,10", "two vertices": "0,0,10,0"}
    for name, line in bad_lines.items():
        path = tmp_path / "map.txt"
        path.write_text(f"# buildings\n{line}\n")
        with pytest.raises(ObstacleMapError, match=re.escape(f"{path}:2:")):
            ObstacleMap.from_file(path)
        cfg.write_text(f"obstacle_map: {path}\nduration_s: 3.0\n"
                       "highway_length_m: 800.0\nhighway_vehicles: 20\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2, name
        assert f"{path}:2:" in capsys.readouterr().err
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ObstacleMapError, match="finite"):
            ObstacleMap(polygons=[[(0, 0), (10, 0), (10, bad), (0, 10)]])


# -- pathloss -------------------------------------------------------------

def test_los_pathloss_monotone():
    fc = PARAMS.carrier_ghz
    assert pathloss_los_db(3.0, fc) < pathloss_los_db(300.0, fc)
    d = np.linspace(3, 2000, 4000)
    pl = pathloss_los_db(d, fc)
    assert (np.diff(pl) >= 0).all()


def test_pathloss_reference_value_at_100m():
    # Independent hand evaluation of the documented two-slope expression at
    # d = 100 m, 5.9 GHz, 1.5 m antennas: past the 19.67 m breakpoint.
    h_eff = 0.5
    d_bp = 4 * h_eff * h_eff * 5.9e9 / 3e8
    assert d_bp == pytest.approx(19.6667, abs=1e-3)
    expected = (40 * math.log10(100) + 9.45 - 34.6 * math.log10(h_eff)
                + 2.7 * math.log10(5.9 / 5))
    assert pathloss_los_db(100.0, 5.9) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(100.06, abs=0.01)


def test_pathloss_continuous_at_breakpoint():
    # Continuous up to the rounding of the published slope constants.
    fc = PARAMS.carrier_ghz
    bp = breakpoint_distance_m(fc)
    assert pathloss_los_db(bp - 1e-9, fc) == pytest.approx(pathloss_los_db(bp + 1e-9, fc),
                                                           abs=5e-3)


def test_nlos_never_below_los():
    for d in (5, 10, 25, 60, 150, 400, 1000):
        legs = (d / math.sqrt(2.0), d / math.sqrt(2.0))
        los = pathloss_db(PARAMS, d, True, legs)
        nlos = pathloss_db(PARAMS, d, False, legs)
        assert nlos >= los
    # Degenerate legs: one street leg much shorter than the other.
    for d1, d2 in ((3, 200), (5, 50), (150, 3), (400, 12)):
        euclid = math.hypot(d1, d2)
        assert (pathloss_nlos_db(d1, d2, PARAMS.carrier_ghz)
                >= pathloss_los_db(euclid, PARAMS.carrier_ghz) - 1e-12)


def test_nlos_symmetric_in_legs():
    fc = PARAMS.carrier_ghz
    assert pathloss_nlos_db(20, 80, fc) == pytest.approx(pathloss_nlos_db(80, 20, fc))


def test_distance_clamped_below_3m():
    assert pathloss_los_db(0.5, PARAMS.carrier_ghz) == pathloss_los_db(3.0, PARAMS.carrier_ghz)


# -- received power -------------------------------------------------------

def test_rx_power_examples():
    assert rx_power_dbm(PARAMS, 0.0, 0.0) == pytest.approx(29.0)
    assert rx_power_dbm(PARAMS, 100.0, 0.0) == pytest.approx(-71.0)
    assert rx_power_dbm(PARAMS, 100.0, -4.0) == pytest.approx(-67.0)


def test_rx_power_decreasing_in_pathloss():
    pl = np.linspace(40, 140, 50)
    rx = rx_power_dbm(PARAMS, pl, 0.0)
    assert (np.diff(rx) < 0).all()


def test_noise_floor_values():
    # -174 dBm/Hz over the BR allocation bandwidth plus 9 dB noise figure.
    assert RunConfig(mcs=7).noise_floor_dbm() == pytest.approx(
        -174 + 10 * math.log10(3.6e6) + 9)
    assert RunConfig(mcs=4).noise_floor_dbm() == pytest.approx(
        -174 + 10 * math.log10(7.2e6) + 9)


# -- shadowing ------------------------------------------------------------

def _all_los(dist):
    """All-LOS flags, and street legs |dx| = d, |dy| = 0, for distances d."""
    return np.ones_like(dist, dtype=bool), (dist, np.zeros_like(dist))


def _single_link_realization(sigma_los=3.0, decorr=25.0):
    params = RunConfig(shadow_sigma_los_db=sigma_los, decorr_dist_m=decorr)
    dist = np.array([[0.0, 50.0], [50.0, 0.0]])
    return FullMatrixChannel.initial(params, dist, *_all_los(dist),
                                     np.random.default_rng(1))


def test_shadow_step_zero_move_keeps_sample():
    real = _single_link_realization()
    before = real.shadow_db[0, 1]
    after = shadow_step(real, (0, 1), 0.0, np.random.default_rng(2))
    assert after == before


def test_shadow_step_large_move_resamples():
    rng = np.random.default_rng(3)
    samples = []
    for _ in range(4000):
        real = _single_link_realization()
        real.shadow_db[0, 1] = real.shadow_db[1, 0] = 100.0  # extreme start
        samples.append(shadow_step(real, (0, 1), 1e9, rng))
    arr = np.asarray(samples)
    assert abs(arr.mean()) < 0.2          # old state fully forgotten
    assert arr.std() == pytest.approx(3.0, rel=0.05)


def test_shadow_autocorrelation_matches_ar1():
    # Empirical lag-1 autocorrelation over 1e5 steps of fixed displacement.
    real = _single_link_realization()
    rng = np.random.default_rng(4)
    step_m, decorr = 5.0, 25.0
    n = 100_000
    vals = np.empty(n)
    for k in range(n):
        vals[k] = shadow_step(real, (0, 1), step_m, rng)
    rho_hat = np.corrcoef(vals[:-1], vals[1:])[0, 1]
    assert rho_hat == pytest.approx(math.exp(-step_m / decorr), abs=0.02)
    assert vals.var() == pytest.approx(9.0, rel=0.05)  # sigma^2 stationary


def _line(n, spacing_m=7.0):
    return np.column_stack([spacing_m * np.arange(n), np.zeros(n)])


def _pair_line(n):
    """n vehicles on two lanes of a 3 km line."""
    return np.column_stack([np.linspace(0.0, 3000.0, n), np.tile([2.0, 6.0], n // 2)])


def test_shadow_process_matches_ar1_statistics():
    # 300 vehicles, every other pair NLOS, stepped 200 times from a fresh
    # draw. The first half of the vehicles stands still and the second half
    # moves on by a distance of rho = 0.8 each period, so pairs across the
    # groups step by rho = 0.8 and pairs within a group by rho = 1 exactly. Each step
    # must keep the power matrix exactly symmetric with a zero diagonal;
    # the pooled cross-group samples must show each class's sigma^2 and a
    # lag-1 correlation of rho (standard errors below 0.5 % of sigma^2 and
    # 0.005 in correlation), and each within-group sample must stay the
    # same bit for bit.
    params = RunConfig()
    n, steps, decorr = 300, 200, params.resolved_decorr_dist_m()
    # A stride of whole 1/1024 m keeps every position exact, so each
    # vehicle's displacement is the stride (or 0) bit for bit.
    pos = _line(n)
    stride = round(-decorr * math.log(0.8) * 1024) / 1024
    rho = math.exp(-stride / decorr)
    i, j = np.triu_indices(n, 1)
    los = np.add.outer(np.arange(n), np.arange(n)) % 2 == 0
    across = (i < n // 2) & (j >= n // 2)
    pairs = {"los": los[i, j] & across, "nlos": ~los[i, j] & across}
    sigma = {"los": params.shadow_sigma_los_db, "nlos": params.shadow_sigma_nlos_db}
    rng = np.random.default_rng(7)
    blocked = np.flatnonzero(np.triu(~los, 1))
    real = ChannelRealization.initial(params, _line(n), None, blocked, rng)
    sums = {k: np.zeros(3) for k in pairs}  # sum s_t^2, sum s_{t-1}^2, sum s_t s_{t-1}
    first = prev = full_shadow(real)[i, j]
    for _ in range(steps):
        pos[n // 2:, 0] += stride
        real.step_ahead(pos, blocked)
        real.advance()
        power = real.rx_power_lin()
        assert np.array_equal(power, power.T)
        assert not power.diagonal().any()
        cur = full_shadow(real)[i, j]
        for k, mask in pairs.items():
            a, b = cur[mask], prev[mask]
            sums[k] += (a @ a, b @ b, a @ b)
        prev = cur
    for k, mask in pairs.items():
        count = steps * np.count_nonzero(mask)
        assert sums[k][0] / count == pytest.approx(sigma[k] ** 2, rel=0.03), k
        assert sums[k][2] / sums[k][1] == pytest.approx(rho, abs=0.02), k
    assert cur[~across].tobytes() == first[~across].tobytes()
    assert (cur[~across] != 0.0).all()

    # Every vehicle leaves for a period and comes back. A vehicle absent in
    # either period of a step (NaN position: rho = 0) forgets the state, so
    # both steps draw a fresh sample of each class's sigma, uncorrelated
    # with the sample before (at the first, an extreme old state written
    # into the channel's own store).
    pairs = {"los": los[i, j], "nlos": ~los[i, j]}
    old = full_shadow(real)[i, j]
    for block in real._shadow:
        block += 100.0
    assert full_shadow(real)[i, j] == pytest.approx(old + 100.0)
    for step in (np.full((n, 2), np.nan), pos):
        real.step_ahead(step, blocked)
        real.advance()
        new = full_shadow(real)[i, j]
        for k, mask in pairs.items():
            assert abs(new[mask].mean()) < 0.1, k
            assert new[mask].var() == pytest.approx(sigma[k] ** 2, rel=0.05), k
            assert abs(np.corrcoef(new[mask], old[mask])[0, 1]) < 0.03, k
        old = new


def _moves(n, seed=0):
    """Displacements of n vehicles over one period, up to 10 m in x and y."""
    return np.random.default_rng(seed).uniform(-10.0, 10.0, size=(n, 2))


def test_advance_frees_the_old_power_matrix_first():
    # Holding the previous period's n x n power matrix while advance builds
    # the next one would add one n x n matrix to the peak memory. Advance
    # overwrites the matrix the protocol read last period in place, so the
    # old values are gone as the new ones arrive.
    params = RunConfig()
    rng = np.random.default_rng(6)
    real = ChannelRealization.initial(params, _line(3), None, None, rng)
    old = real.rx_power_lin()
    before = old.copy()
    real.step_ahead(_line(3, spacing_m=9.0), None)
    real.advance()
    assert real.rx_power_lin() is old
    assert not np.array_equal(old, before)


def test_refresh_allocates_less_than_one_power_matrix():
    # The blocked step and refresh keep their temporaries to a few
    # block-sized arrays: one step, one advance and the power read allocate
    # less than one n x n matrix at 600 vehicles. The whole-matrix refresh
    # peaked at six.
    params = RunConfig()
    n = 600
    pos = _pair_line(n)
    real = ChannelRealization.initial(params, pos, 4000.0, None, np.random.default_rng(8))
    pos += _moves(n)
    tracemalloc.start()
    try:
        real.step_ahead(pos, None)
        real.advance()
        real.rx_power_lin()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


def _retained_bytes(build):
    """Bytes still allocated, under tracemalloc, once `build()` has returned
    while its result is alive."""
    tracemalloc.start()
    try:
        kept = build()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del kept
    return retained


def test_a_realization_keeps_the_power_and_the_shadow_store_only():
    # Between two periods a realization keeps the power matrix and the
    # shadow store of about n^2/2 values: each period's normals and AR(1)
    # weights live only in the step's block buffers. At 600 vehicles that is
    # 1.59 power matrices; a store of the next period's normals beside the
    # shadow store, and a kept draw buffer, made it 2.4.
    n = 600
    pos = _pair_line(n)

    def build():
        real = ChannelRealization.initial(RunConfig(), pos, 4000.0, None,
                                          np.random.default_rng(8))
        real.step_ahead(pos + _moves(n), None)
        real.advance()
        return real

    with mock.patch.object(channel, "WORKERS", 1):
        assert _retained_bytes(build) < 1.6 * n * n * 8


def test_highway_realization_retains_no_more_than_a_trace_one():
    # A highway steps its shadow by the constant speeds, computed in each
    # step block: a realization built with `speeds` keeps only the speeds
    # beside what one built without them keeps, not a per-pair store of
    # rho (two upper-block stores, 3.5 MB at 600 vehicles).
    params = RunConfig()
    n = 600
    pos = _pair_line(n)
    speeds = np.random.default_rng(9).uniform(19.0, 31.0, n)

    def build(speeds):
        real = ChannelRealization.initial(params, pos, 4000.0, None,
                                          np.random.default_rng(8), speeds)
        real.step_ahead(pos + _moves(n), None)
        real.advance()
        return real

    with mock.patch.object(channel, "WORKERS", 1):
        trace = _retained_bytes(lambda: build(None))
        highway = _retained_bytes(lambda: build(speeds))
    assert highway <= trace + 64 * 1024


def _symmetric(values):
    m = np.triu(values, 1)
    return m + m.T


# Ranges within which a refresh lists its pairs; the last catches none.
RANGES = [200.0, 30.0, 1e-9]


def _n_with_blocks(k):
    """The fewest vehicles whose realization has at least k blocks."""
    return next(n for n in itertools.count(1) if -(-n // block_rows(n)) >= k)


# Vehicles whose realizations have two and three blocks under the default
# sizes, and sizes under which every block past 64 vehicles has 16 rows, so
# small worlds have many blocks.
TWO_BLOCKS, THREE_BLOCKS = _n_with_blocks(2), _n_with_blocks(3)
SIZES = {"default": {"BLOCK_ELEMENTS": channel.BLOCK_ELEMENTS,
                     "MIN_BLOCK_ROWS": channel.MIN_BLOCK_ROWS},
         "small": {"BLOCK_ELEMENTS": 1024, "MIN_BLOCK_ROWS": 16}}


def test_blocks_hold_about_the_budget_and_never_fewer_than_the_minimum_rows():
    assert [block_rows(n) for n in (495, 1024, 2015, 10075)] == [132, 64, 64, 64]
    with mock.patch.multiple(channel, **SIZES["small"]):
        assert block_rows(40) == 25 and block_rows(200) == 16
    for n, k in ((TWO_BLOCKS - 1, 1), (TWO_BLOCKS, 2), (THREE_BLOCKS, 3)):
        real = ChannelRealization.initial(PARAMS, _line(n), None, None,
                                          np.random.default_rng(0))
        assert len(real._blocks) == k, n


@given(n=st.integers(1, THREE_BLOCKS + 150), seed=st.integers(0, 2**32 - 1),
       wrap=st.sampled_from([None, 700.0]), absent=st.sampled_from([0.0, 0.2]),
       nlos=st.sampled_from([0.0, 0.4, 1.0]),
       moves=st.sampled_from(["displacement", "speeds"]),
       workers=st.sampled_from([1, 2, 3]), ahead=st.booleans(),
       range_m=st.sampled_from(RANGES), late=st.booleans(),
       sizes=st.sampled_from(list(SIZES)))
@example(n=1, seed=0, wrap=None, absent=0.0, nlos=0.0, moves="displacement", workers=2,
         ahead=True, range_m=200.0, late=False, sizes="default")
@example(n=2, seed=7, wrap=700.0, absent=0.0, nlos=1.0, moves="speeds", workers=2,
         ahead=True, range_m=200.0, late=False, sizes="default")
@example(n=TWO_BLOCKS, seed=1, wrap=700.0, absent=0.2, nlos=0.4, moves="displacement",
         workers=2, ahead=True, range_m=200.0, late=False, sizes="default")
@example(n=THREE_BLOCKS, seed=2, wrap=700.0, absent=0.0, nlos=0.0, moves="displacement",
         workers=2, ahead=False, range_m=30.0, late=False, sizes="default")
@example(n=THREE_BLOCKS, seed=3, wrap=None, absent=0.2, nlos=0.4, moves="speeds",
         workers=3, ahead=True, range_m=200.0, late=False, sizes="default")
@example(n=200, seed=4, wrap=None, absent=0.2, nlos=0.4, moves="displacement", workers=2,
         ahead=True, range_m=1e-9, late=False, sizes="small")
@example(n=200, seed=5, wrap=700.0, absent=0.2, nlos=0.0, moves="speeds", workers=1,
         ahead=True, range_m=200.0, late=False, sizes="small")
@example(n=THREE_BLOCKS, seed=6, wrap=None, absent=0.2, nlos=0.4, moves="displacement",
         workers=2, ahead=False, range_m=200.0, late=True, sizes="default")
@settings(max_examples=30, deadline=None)
def test_blocked_refresh_equals_the_full_matrix_oracle(n, seed, wrap, absent, nlos, moves,
                                                       workers, ahead, range_m, late,
                                                       sizes):
    # Over an initial draw and three steps and advances with vehicles
    # arriving and leaving, mixed LOS/NLOS, per-vehicle displacements with
    # NaN rows (rho = 0) and repeated rows (rho = 1) or highway speeds, and one
    # to many blocks, the blocked step and refresh must give the
    # whole-matrix refresh's shadow state and power bit for bit, list the
    # pairs within `range_m` of the oracle's distances bit for bit, and
    # leave the generator in the same state, on any number of refresh
    # threads, with each step taken ahead on a thread or inline. With
    # `late`, only pairs of two vehicles past the first block are blocked,
    # so the first block finds none of the keys and a later one finds them
    # all.
    with mock.patch.object(channel, "WORKERS", workers), \
            mock.patch.multiple(channel, **SIZES[sizes]):
        _refresh_against_the_oracle(n, seed, wrap, absent, nlos, moves, ahead,
                                    range_m=range_m, late=late)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("ahead", [False, True])
def test_constant_speed_refresh_equals_the_full_matrix_oracle(workers, ahead):
    # On a highway each step block computes its pairs' rho and
    # sqrt(1 - rho^2) from the speeds; the refreshes must equal the
    # whole-matrix refresh fed `highway_rho` bit for bit. Vehicles 0 and
    # n - 1 share a speed, so their rho is exactly 1 and the weight of the
    # fresh sample exactly 0: their shadow sample never changes, while that
    # of vehicles 0 and 1 does.
    n = THREE_BLOCKS
    speeds = np.random.default_rng(5).uniform(19.0, 31.0, n)
    speeds[-1] = speeds[0]
    with mock.patch.object(channel, "WORKERS", workers):
        shadows = _refresh_against_the_oracle(n, 6, 700.0, 0.0, 0.4, "speeds", ahead, speeds)
    same_speed = {s[0, n - 1].tobytes() for s in shadows}
    assert len(same_speed) == 1 and shadows[0][0, n - 1] != 0.0
    assert len({s[0, 1].tobytes() for s in shadows}) == len(shadows)


def _refresh_against_the_oracle(n, seed, wrap, absent, nlos, moves, ahead, speeds=None,
                                range_m=200.0, late=False):
    """The channel over four periods checked against `FullMatrixChannel`.
    Vehicles move by random steps between periods, and some are absent in
    each. The channel gets each period's positions; the oracle's rho comes
    from the whole-matrix legs of the positions' change, or from `speeds`
    (drawn when None) and `highway_rho` with `moves` "speeds". The channel gets the keys
    of the oracle's NLOS pairs; with `late`, no pair of a vehicle in the
    first block is NLOS. With `ahead`, each step goes to `step_ahead` as
    soon as the refresh before it returns, so it runs while that refresh's
    power and neighbour list are checked; without, just before the next
    `advance`. Every refresh but the second lists its pairs within
    `range_m`, checked against `neighbour_list` of the `full_pair_legs`
    distances. Returns the shadow state of each period, through
    `full_shadow`."""
    params = RunConfig(awareness_m=range_m)
    data = np.random.default_rng(seed)
    if moves == "speeds" and speeds is None:
        speeds = data.uniform(19.0, 31.0, n)
    # Positions and steps in whole 1/1024 m add up exactly, and stay within
    # the ring.
    periods, last = [], None
    track = np.round(data.uniform(0.0, 500.0, size=(n, 2)) * 1024) / 1024
    for period in range(4):
        if period:
            # Random steps, and copies of one step (pairs that keep their
            # distance: rho = 1).
            step = np.round(data.uniform(-30.0, 30.0, size=(n, 2)) * 1024) / 1024
            step[data.random(n) < 0.3] = step[data.integers(n)]
            track = track + step
        pos = track.copy()
        pos[data.random(n) < absent] = np.nan
        los = _symmetric(data.random((n, n)) >= nlos)
        np.fill_diagonal(los, True)
        if late:
            los[:block_rows(n)] = los[:, :block_rows(n)] = True
        rho = None
        if period and moves == "speeds":
            rho = highway_rho(params, speeds)
        elif period:
            # A vehicle absent in either period has a NaN displacement: rho = 0.
            legs = full_pair_legs(pos - last)
            rho = np.exp(-np.hypot(*legs) / params.resolved_decorr_dist_m())
        blocked = None if nlos == 0.0 else np.flatnonzero(np.triu(~los, 1))
        periods.append((pos, los, blocked, rho))
        last = pos
    ours, theirs = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    shadows = []
    for period, (pos, los, blocked, rho) in enumerate(periods):
        legs = full_pair_legs(pos, wrap)
        dist = np.hypot(*legs)
        listed = period != 1
        if period == 0:
            real = ChannelRealization.initial(params, pos, wrap, blocked, ours, speeds, listed)
            oracle = FullMatrixChannel.initial(params, dist, los, legs, theirs)
        else:
            if not ahead:
                real.step_ahead(pos, blocked)
            real.advance(listed)
            oracle.advance(dist, los, legs, theirs, rho)
        shadows.append(full_shadow(real))
        if ahead and period < 3:
            next_pos, _, next_blocked, _ = periods[period + 1]
            real.step_ahead(next_pos, next_blocked)
        assert shadows[-1].tobytes() == oracle.shadow_db.tobytes(), period
        assert real.rx_power_lin().tobytes() == oracle.rx_power_lin().tobytes(), period
        if listed:
            want = neighbour_list(dist, range_m)
            assert [a.tobytes() for a in real.neighbours] == [a.tobytes() for a in want], period
        else:
            assert real.neighbours is None
    assert ours.bit_generator.state == theirs.bit_generator.state
    return shadows


def test_a_trace_step_takes_each_displacement_since_the_last_step(monkeypatch):
    # A trace realization keeps a copy of the positions of its last step
    # and steps its shadow by each vehicle's displacement since them. From
    # P0 to P1, with vehicles arriving (NaN in P0), leaving (NaN in P1) and
    # absent in both, the channel must equal the whole-matrix oracle fed
    # the rho of P1 - P0 bit for bit, though the caller overwrites both
    # arrays once it has handed them over.
    monkeypatch.setattr(channel, "WORKERS", 2)
    params, n = RunConfig(), THREE_BLOCKS
    data = np.random.default_rng(21)
    p0 = data.uniform(0.0, 600.0, size=(n, 2))
    p1 = p0 + data.uniform(-20.0, 20.0, size=(n, 2))
    p0[:10] = np.nan
    p1[5:15] = np.nan
    los = _symmetric(data.random((n, n)) >= 0.3)
    np.fill_diagonal(los, True)
    blocked = np.flatnonzero(np.triu(~los, 1))
    want0, want1 = p0.copy(), p1.copy()
    real = ChannelRealization.initial(params, p0, None, blocked, np.random.default_rng(5))
    p0[:] = 0.0
    real.step_ahead(p1, blocked)
    p1[:] = 0.0
    real.advance(True)

    theirs = np.random.default_rng(5)
    legs = full_pair_legs(want0)
    oracle = FullMatrixChannel.initial(params, np.hypot(*legs), los, legs, theirs)
    rho = np.exp(-np.hypot(*full_pair_legs(want1 - want0)) / params.resolved_decorr_dist_m())
    assert (rho[:15] == 0.0).all() and (rho[15:, 15:] > 0.0).all()
    legs = full_pair_legs(want1)
    dist = np.hypot(*legs)
    oracle.advance(dist, los, legs, theirs, rho)
    assert full_shadow(real).tobytes() == oracle.shadow_db.tobytes()
    assert real.rx_power_lin().tobytes() == oracle.rx_power_lin().tobytes()
    want = neighbour_list(dist, params.resolved_awareness_m())
    assert [a.tobytes() for a in real.neighbours] == [a.tobytes() for a in want]


@given(n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
       wrap=st.sampled_from([None, 700.0]),
       absent=st.sampled_from(["none", "rows", "x only"]), cut=st.data())
@example(n=1, seed=0, wrap=None, absent="none", cut=None)
@example(n=9, seed=1, wrap=700.0, absent="rows", cut=None)
@settings(max_examples=60, deadline=None)
def test_pair_legs_equal_the_whole_matrix_legs(n, seed, wrap, absent, cut):
    # The legs kernel over a random block of rows r0:r1, columns r0:, on a
    # ring or not, with absent vehicles, must give that block of the
    # oracle's whole-matrix legs bit for bit, in views over the starts of
    # the buffers it is given, and leave the rest of them alone. A vehicle
    # with only x non-finite gets infinite legs both ways, where the oracle
    # has an infinite |dx| only; the distances agree.
    data = np.random.default_rng(seed)
    points = data.uniform(-100.0, 800.0, size=(n, 2))
    gone = data.random(n) < 0.3
    if absent == "rows":
        points[gone] = np.nan
    elif absent == "x only":
        points[gone, 0] = np.nan
    r0, r1 = 0, n
    if cut is not None:
        r0 = cut.draw(st.integers(0, n - 1))
        r1 = cut.draw(st.integers(r0 + 1, n))
    size = (r1 - r0) * (n - r0)
    bufs = np.full(size + 7, -1.0), np.full(size + 7, -2.0)
    dx, dy = channel.pair_legs(points, r0, r1, wrap, *bufs)
    assert dx.shape == dy.shape == (r1 - r0, n - r0)
    assert np.shares_memory(dx, bufs[0]) and np.shares_memory(dy, bufs[1])
    assert (bufs[0][size:] == -1.0).all() and (bufs[1][size:] == -2.0).all()
    want = [leg[r0:r1, r0:] for leg in full_pair_legs(points, wrap)]
    assert np.hypot(dx, dy).tobytes() == np.hypot(*want).tobytes()
    if absent != "x only":
        assert dx.tobytes() == want[0].tobytes() and dy.tobytes() == want[1].tobytes()
    else:
        rows, cols = gone[r0:r1], gone[r0:]
        assert np.isinf(dy[rows]).all() and np.isinf(dy[:, cols]).all()
        keep = np.ix_(~rows, ~cols)
        assert dy[keep].tobytes() == want[1][keep].tobytes()
        assert dx.tobytes() == want[0].tobytes()


def _power_bytes(n, seed):
    """The first period's power matrix of n vehicles on a line, as bytes."""
    real = ChannelRealization.initial(RunConfig(), _line(n), None, None,
                                      np.random.default_rng(seed))
    return real.rx_power_lin().tobytes()


def _power_bytes_in_child(n, seed):
    signal.alarm(100)  # a deadlocked child dies and breaks the pool
    try:
        return _power_bytes(n, seed)
    finally:
        signal.alarm(0)


def test_a_forked_child_refreshes_on_its_own_threads(monkeypatch):
    # A forked `sweep --jobs` child inherits the parent's pool object but
    # none of its threads. Its multi-block refresh must run on threads of
    # its own and give the parent's bytes, not wait for ever.
    monkeypatch.setattr(channel, "WORKERS", 2)
    n = THREE_BLOCKS
    here = _power_bytes(n, 11)
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        there = pool.submit(_power_bytes_in_child, n, 11).result(timeout=120)
    assert there == here


def test_a_refresh_is_one_pass_of_one_task_per_block(monkeypatch):
    # Each block's task computes its rows of the upper triangle and then
    # mirrors them, so every refresh waits on the refresh threads once.
    monkeypatch.setattr(channel, "WORKERS", 2)
    passes, each = [], channel._each

    def counted(pool, fn, blocks):
        passes.append(len(blocks))
        each(pool, fn, blocks)

    monkeypatch.setattr(channel, "_each", counted)
    n = THREE_BLOCKS
    real = ChannelRealization.initial(PARAMS, _line(n), None, None, np.random.default_rng(14))
    real.step_ahead(_line(n, spacing_m=9.0), None)
    real.advance()
    assert passes == [3, 3]


def _state_bytes(real):
    """The shadow state and power of a realization, as bytes. A refresh
    block writes its distances into its power rows first, so the power
    covers them."""
    return [full_shadow(real).tobytes(), real.rx_power_lin().tobytes()]


def test_a_failing_block_fails_advance_after_every_block_returned(monkeypatch):
    # The second pathloss call raises; every other one is slowed down. The
    # error must reach the caller only once every submitted block has
    # returned, so no block writes to the matrices after advance ends, and
    # the threads must still serve the next realization.
    monkeypatch.setattr(channel, "WORKERS", 2)
    params, n = RunConfig(), _n_with_blocks(5)
    pos = _line(n)
    real = ChannelRealization.initial(params, pos, None, None, np.random.default_rng(9))
    calls = itertools.count()
    pathloss = channel.pathloss_los_db

    def flaky(*args, **kwargs):
        if next(calls) == 1:
            raise RuntimeError("block failed")
        time.sleep(0.1)
        return pathloss(*args, **kwargs)

    monkeypatch.setattr(channel, "pathloss_los_db", flaky)
    real.step_ahead(pos + _moves(n), None)
    with pytest.raises(RuntimeError, match="block failed"):
        real.advance()
    after = _state_bytes(real)
    time.sleep(0.5)
    assert _state_bytes(real) == after

    monkeypatch.setattr(channel, "pathloss_los_db", pathloss)
    legs = full_pair_legs(pos)
    oracle = FullMatrixChannel.initial(params, np.hypot(*legs), np.ones((n, n), dtype=bool),
                                       legs, np.random.default_rng(12))
    assert _power_bytes(n, 12) == oracle.rx_power_lin().tobytes()


class _FailingDraws:
    """A generator whose draws raise once `failing` is set."""

    def __init__(self, seed):
        self.rng, self.failing = np.random.default_rng(seed), False

    def standard_normal(self, out):
        if self.failing:
            raise RuntimeError("draw failed")
        return self.rng.standard_normal(out=out)


def test_a_failing_step_ahead_fails_the_next_advance(monkeypatch):
    # A step that raises on its refresh thread must make the next advance
    # raise before it writes the power, and leave the threads to serve the
    # next realization. The realization's own stream fails from the second
    # period's draws on, so the step fails before it touches the shadow.
    monkeypatch.setattr(channel, "WORKERS", 2)
    params, n = RunConfig(), THREE_BLOCKS
    pos = _line(n)
    draws = _FailingDraws(9)
    real = ChannelRealization.initial(params, pos, None, None, draws)
    before = _state_bytes(real)
    draws.failing = True
    real.step_ahead(pos + _moves(n), None)
    with pytest.raises(RuntimeError, match="draw failed"):
        real.advance()
    assert _state_bytes(real) == before

    legs = full_pair_legs(pos)
    oracle = FullMatrixChannel.initial(params, np.hypot(*legs), np.ones((n, n), dtype=bool),
                                       legs, np.random.default_rng(12))
    assert _power_bytes(n, 12) == oracle.rx_power_lin().tobytes()


def test_step_ahead_checks_its_arguments_before_any_draw(monkeypatch):
    # Positions of another shape than (n, 2) (none, a scalar, a per-pair
    # matrix, one vehicle short or a third coordinate) must make
    # `step_ahead` fail on the calling thread: no normal drawn, nothing
    # pending, no matrix written. `advance` with no step pending fails too,
    # and so does a second `step_ahead` before the `advance`.
    monkeypatch.setattr(channel, "WORKERS", 2)
    n = THREE_BLOCKS
    pos = _line(n)
    ahead = pos + _moves(n)
    rng = np.random.default_rng(13)
    real = ChannelRealization.initial(PARAMS, pos, None, None, rng)
    before, state = _state_bytes(real), rng.bit_generator.state
    for wrong in (None, 10.0, np.inf, np.zeros((n, n)), np.zeros((n, 3)), ahead[:-1],
                  ahead.ravel()):
        with pytest.raises(ValueError, match="positions"):
            real.step_ahead(wrong, None)
    with pytest.raises(RuntimeError, match="step_ahead"):
        real.advance()
    assert _state_bytes(real) == before and rng.bit_generator.state == state
    real.step_ahead(ahead, None)
    with pytest.raises(RuntimeError, match="pending"):
        real.step_ahead(ahead, None)
    real.advance()
    twin_rng = np.random.default_rng(13)
    twin = ChannelRealization.initial(PARAMS, pos, None, None, twin_rng)
    twin.step_ahead(ahead, None)
    twin.advance()
    assert _state_bytes(real) == _state_bytes(twin)
    assert rng.bit_generator.state == twin_rng.bit_generator.state
