import pytest
from hypothesis import given, strategies as st

from mode4sim.config import MCS_BRS_PER_TTI, ConfigError, RunConfig
from mode4sim.mode4 import selection_count
from oracles import BrIndex, br_flat_index, br_from_flat

MCS_OF_BRS_PER_TTI = {b: mcs for mcs, b in MCS_BRS_PER_TTI.items()}


def test_br_count_matches_layout():
    assert RunConfig(mcs=4, beacon_period_ms=100).br_count == 100
    assert RunConfig(mcs=7, beacon_period_ms=100).br_count == 200
    assert RunConfig(beacon_period_ms=1, mcs=4).br_count == 1


def test_flat_index_examples():
    cfg2 = RunConfig(mcs=7)
    assert br_from_flat(cfg2, 0) == BrIndex(0, 0)
    assert br_from_flat(cfg2, 3) == BrIndex(1, 1)
    cfg4 = RunConfig(mcs=14, sinr_min_db=12.0)
    assert br_from_flat(cfg4, 23) == BrIndex(5, 3)


def test_flat_index_range_errors():
    cfg = RunConfig(mcs=7)
    with pytest.raises(ValueError):
        br_from_flat(cfg, -1)
    with pytest.raises(ValueError):
        br_from_flat(cfg, cfg.br_count)
    with pytest.raises(ValueError):
        br_flat_index(cfg, BrIndex(0, cfg.brs_per_tti))


def test_invalid_geometry_rejected():
    with pytest.raises(ConfigError):
        RunConfig(beacon_period_ms=0).validate()
    with pytest.raises(ConfigError):
        RunConfig(mcs=14).validate()  # threshold must be explicit


@given(st.sampled_from([1, 2, 4]), st.integers(1, 200), st.data())
def test_flat_roundtrip_bijection(per_tti, period, data):
    cfg = RunConfig(beacon_period_ms=period, mcs=MCS_OF_BRS_PER_TTI[per_tti],
                    sinr_min_db=7.3)
    r = data.draw(st.integers(0, cfg.br_count - 1))
    br = br_from_flat(cfg, r)
    assert br_flat_index(cfg, br) == r
    assert 0 <= br.subframe < period
    assert 0 <= br.freq_slot < per_tti


@given(st.integers(0, 199), st.integers(0, 199))
def test_brs_never_overlap(r_a, r_b):
    cfg = RunConfig(mcs=7)
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
    with pytest.raises(ConfigError):
        RunConfig(r_sel=0.0).validate()
