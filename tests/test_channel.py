import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mode4sim import channel
from mode4sim.channel import (ChannelRealization, ObstacleMap, ObstacleMapError,
                              breakpoint_distance_m, los_state, pathloss_db,
                              pathloss_los_db, pathloss_nlos_db, rx_power_dbm)
from mode4sim.config import RunConfig
from oracles import _point_in_polygon, blocks, shadow_step

PARAMS = RunConfig()


# -- LOS determination ---------------------------------------------------

SQUARE = ObstacleMap(polygons=[[(40, -10), (60, -10), (60, 10), (40, 10)]])


def test_empty_map_is_always_los():
    assert los_state(None, (0, 0), (1234, -99))
    assert los_state(ObstacleMap(polygons=[]), (0, 0), (5, 5))


def test_building_between_blocks():
    assert not los_state(SQUARE, (0, 0), (100, 0))


def test_same_side_of_building_is_los():
    assert los_state(SQUARE, (0, 0), (30, 0))
    assert los_state(SQUARE, (0, 20), (100, 20))


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
    got = los_state(SQUARE, p, q)
    want = _los_oracle(SQUARE, p, q)
    # The sampling oracle can miss grazing contacts; only compare clear cases.
    if got != want:
        assert not got, "los_state claims LOS where sampling finds a hit"


@given(st.tuples(st.floats(-200, 200), st.floats(-200, 200)),
       st.tuples(st.floats(-200, 200), st.floats(-200, 200)))
@settings(max_examples=50, deadline=None)
def test_los_symmetry(p, q):
    assert los_state(SQUARE, p, q) == los_state(SQUARE, q, p)


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


@given(st.lists(st.tuples(lattice_points, lattice_points)
                | st.tuples(float_points, float_points), max_size=40))
@settings(max_examples=80, deadline=None)
def test_array_los_matches_scalar_blocks(segments):
    p = np.array([a for a, _ in segments], dtype=float).reshape(-1, 2)
    q = np.array([b for _, b in segments], dtype=float).reshape(-1, 2)
    got = los_state(LATTICE_MAP, p, q)
    assert got.dtype == bool and got.shape == (len(segments),)
    want = [not blocks(LATTICE_MAP, a, b) for a, b in zip(p, q)]
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
    assert los_state(LATTICE_MAP, p, q) is los
    got = los_state(LATTICE_MAP, np.array([p, q], float), np.array([q, p], float))
    assert got.tolist() == [los, los]


def test_array_los_matches_scalar_on_a_lattice(monkeypatch):
    # Enough lattice segments that every contact rule decides some of them.
    rng = np.random.default_rng(11)
    p = rng.integers(-2, 15, size=(2000, 2)).astype(float)
    q = rng.integers(-2, 18, size=(2000, 2)).astype(float)
    want = [not blocks(LATTICE_MAP, a, b) for a, b in zip(p, q)]
    assert los_state(LATTICE_MAP, p, q).tolist() == want
    monkeypatch.setattr(channel, "LOS_CHUNK_ELEMENTS", 50)  # chunks of 2 pairs
    assert los_state(LATTICE_MAP, p, q).tolist() == want
    assert 0 < sum(want) < len(want)


def test_los_state_forms_and_errors():
    assert type(los_state(SQUARE, (0, 0), (100, 0))) is bool
    assert type(los_state(None, (0, 0), (100, 0))) is bool
    empty = np.empty((0, 2))
    for obstacles in (None, SQUARE):
        got = los_state(obstacles, empty, empty)
        assert got.shape == (0,) and got.dtype == bool
    assert los_state(None, np.zeros((3, 2)), np.ones((3, 2))).tolist() == [True] * 3
    p = np.array([[0.0, 0.0], [np.nan, 0.0]])
    for obstacles in (None, SQUARE):
        with pytest.raises(ValueError, match="finite"):
            los_state(obstacles, (0, 0), (np.inf, 0))
        with pytest.raises(ValueError, match="finite"):
            los_state(obstacles, p, np.ones((2, 2)))
        with pytest.raises(ValueError):
            los_state(obstacles, np.zeros((2, 2)), np.zeros((3, 2)))


def test_obstacle_file_roundtrip(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("40,-10,60,-10,60,10,40,10\n# comment\n\n")
    loaded = ObstacleMap.from_file(path)
    assert len(loaded.polygons) == 1
    assert not los_state(loaded, (0, 0), (100, 0))


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
                       "highway: {length_m: 800.0, vehicles: 20}\n")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2, name
        assert f"{path}:2:" in capsys.readouterr().err
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ObstacleMapError, match="finite"):
            ObstacleMap(polygons=[[(0, 0), (10, 0), (10, bad), (0, 10)]])


# -- pathloss -------------------------------------------------------------

def test_los_pathloss_monotone():
    assert pathloss_los_db(3.0) < pathloss_los_db(300.0)
    d = np.linspace(3, 2000, 4000)
    pl = pathloss_los_db(d)
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
    bp = breakpoint_distance_m(5.9)
    assert pathloss_los_db(bp - 1e-9) == pytest.approx(pathloss_los_db(bp + 1e-9), abs=5e-3)


def test_nlos_never_below_los():
    for d in (5, 10, 25, 60, 150, 400, 1000):
        legs = (d / math.sqrt(2.0), d / math.sqrt(2.0))
        los = pathloss_db(PARAMS, d, True, legs)
        nlos = pathloss_db(PARAMS, d, False, legs)
        assert nlos >= los
    # Degenerate legs: one street leg much shorter than the other.
    for d1, d2 in ((3, 200), (5, 50), (150, 3), (400, 12)):
        euclid = math.hypot(d1, d2)
        assert pathloss_nlos_db(d1, d2) >= pathloss_los_db(euclid) - 1e-12


def test_nlos_symmetric_in_legs():
    assert pathloss_nlos_db(20, 80) == pytest.approx(pathloss_nlos_db(80, 20))


def test_distance_clamped_below_3m():
    assert pathloss_los_db(0.5) == pathloss_los_db(3.0)


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
    return ChannelRealization.initial(params, dist, *_all_los(dist),
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


def test_vectorized_advance_stationary_variance():
    params = RunConfig()
    n = 60
    rng = np.random.default_rng(5)
    dist = np.full((n, n), 80.0)
    los, legs = _all_los(dist)
    real = ChannelRealization.initial(params, dist, los, legs, rng)
    rho = np.exp(-np.full((n, n), 10.0) / params.resolved_decorr_dist_m())
    samples = []
    for _ in range(300):
        real.advance(dist, los, legs, rng, rho)
        samples.append(real.shadow_db[np.triu_indices(n, 1)].copy())
    arr = np.concatenate(samples[50:])
    assert arr.var() == pytest.approx(9.0, rel=0.05)
    assert np.allclose(real.shadow_db, real.shadow_db.T)
