import pytest
from hypothesis import given, strategies as st

from mode4sim.grid import GridConfig, GridConfigError, selection_count
from oracles import BrIndex, br_flat_index, br_from_flat


def test_br_count_matches_layout():
    assert GridConfig.for_mcs(4, beacon_period_ms=100).br_count == 100
    assert GridConfig.for_mcs(7, beacon_period_ms=100).br_count == 200
    assert GridConfig(beacon_period_ms=1, brs_per_tti=1,
                      subchannels_per_br=4, mcs_index=4,
                      sinr_min_db=2.76).br_count == 1


def test_flat_index_examples():
    cfg2 = GridConfig.for_mcs(7)
    assert br_from_flat(cfg2, 0) == BrIndex(0, 0)
    assert br_from_flat(cfg2, 3) == BrIndex(1, 1)
    cfg4 = GridConfig.for_mcs(14, sinr_min_db=12.0)
    assert br_from_flat(cfg4, 23) == BrIndex(5, 3)


def test_flat_index_range_errors():
    cfg = GridConfig.for_mcs(7)
    with pytest.raises(GridConfigError):
        br_from_flat(cfg, -1)
    with pytest.raises(GridConfigError):
        br_from_flat(cfg, cfg.br_count)
    with pytest.raises(GridConfigError):
        br_flat_index(cfg, BrIndex(0, cfg.brs_per_tti))


def test_invalid_geometry_rejected():
    with pytest.raises(GridConfigError):
        GridConfig(brs_per_tti=3, subchannels_per_br=2)  # 6 > 4 subchannels
    with pytest.raises(GridConfigError):
        GridConfig(beacon_period_ms=0)
    with pytest.raises(GridConfigError):
        GridConfig.for_mcs(14)  # threshold must be explicit


@given(st.sampled_from([1, 2, 4]), st.integers(1, 200), st.data())
def test_flat_roundtrip_bijection(per_tti, period, data):
    cfg = GridConfig(beacon_period_ms=period, brs_per_tti=per_tti,
                     subchannels_per_br=4 // per_tti, mcs_index=7,
                     sinr_min_db=7.3)
    r = data.draw(st.integers(0, cfg.br_count - 1))
    br = br_from_flat(cfg, r)
    assert br_flat_index(cfg, br) == r
    assert 0 <= br.subframe < period
    assert 0 <= br.freq_slot < per_tti


@given(st.integers(0, 199), st.integers(0, 199))
def test_brs_never_overlap(r_a, r_b):
    cfg = GridConfig.for_mcs(7)
    a, b = br_from_flat(cfg, r_a), br_from_flat(cfg, r_b)
    if r_a == r_b:
        assert a == b
    elif a.subframe == b.subframe:
        assert a.freq_slot != b.freq_slot  # same TTI, disjoint subchannels
    else:
        assert a.subframe != b.subframe  # disjoint in time


def test_selection_count_is_ceiling():
    assert selection_count(0.2, 100) == 20
    assert selection_count(0.2, 200) == 40
    assert selection_count(0.2, 24) == 5   # ceil(4.8), total basis
    assert selection_count(0.2, 16) == 4   # window basis of the same layout
    with pytest.raises(GridConfigError):
        selection_count(0.0, 100)
