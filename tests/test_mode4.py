import numpy as np
import pytest

from mode4sim.channel import dbm_to_mw
from mode4sim.config import ConfigError, RunConfig
from mode4sim.mode4 import (Mode4ParamError, Mode4ProtocolError, SensingMemory,
                            candidate_set, mac_select, on_beacon_period_end,
                            power_threshold)

GRID = RunConfig(mcs=7)


def fresh_memory(cfg, n=1):
    return SensingMemory(n, cfg)


def sense_period(memory, period, srssi=None, rsrp=None, grid=GRID):
    """Vehicle 0 of `memory` senses one beacon period.

    `srssi` holds one S-RSSI value per flat BR; `rsrp` one RSRP value per
    flat BR, where 0 means no decoded reservation. Both are linear mW.
    """
    memory.begin_period(period)
    b = grid.brs_per_tti
    observer = np.ones(1, dtype=bool)
    for subframe in range(grid.beacon_period_ms):
        brs = slice(subframe * b, (subframe + 1) * b)
        if srssi is not None:
            memory.record_srssi(observer, subframe, np.asarray(srssi)[brs, None])
        if rsrp is not None:
            power = np.asarray(rsrp, dtype=float)[brs, None]
            memory.record_rsrp(subframe, np.arange(b), power, power > 0)


def candidates(memory, cfg, now_tti=0):
    return candidate_set(memory, 0, cfg, now_tti)


# -- Eq.-style power threshold ---------------------------------------------

def test_power_threshold_corners():
    assert power_threshold(0, 0) == -128.0
    assert power_threshold(7, 7) == -2.0
    assert power_threshold(3, 4) == -72.0


def test_power_threshold_full_table():
    for a in range(8):
        for b in range(8):
            assert power_threshold(a, b) == -128 + 2 * (a * 8 + b)


def test_power_threshold_validation():
    for bad in ((-1, 0), (0, 8), (8, 8)):
        with pytest.raises(Mode4ParamError):
            power_threshold(*bad)
    with pytest.raises(Mode4ParamError):
        power_threshold(1.5, 2)


# -- parameter validation ----------------------------------------------------

def test_param_bounds():
    RunConfig().validate()  # defaults valid
    for bad in (dict(t1=0), dict(t2=19), dict(t2=101), dict(p_keep=0.9),
                dict(r_sel=0.0), dict(n_min=10, n_max=5), dict(t_sense_ms=150)):
        with pytest.raises(ConfigError):
            RunConfig(**bad).validate()
    RunConfig(p_keep=0.9, nonstandard=True).validate()


# -- candidate construction ---------------------------------------------------

def test_cold_start_returns_first_nr_in_flat_order():
    cfg = RunConfig()
    cands = candidates(fresh_memory(cfg), cfg)
    assert len(cands) == 40  # ceil(0.2 * 200)
    # All-equal S-RSSI at the noise floor: the default window spans every
    # offset, so the flat-order tie-break yields the first 40 BRs, and the
    # random choice happens downstream in mac_select.
    assert cands.tolist() == list(range(40))


def test_window_restriction():
    cfg = RunConfig(t1=2, t2=20)
    now = 50
    cands = candidates(fresh_memory(cfg), cfg, now_tti=now)
    assert len(cands) > 0
    for r in cands:
        delta = (r // GRID.brs_per_tti - now) % 100
        assert cfg.t1 <= delta <= cfg.t2


def test_unmonitored_offsets_excluded():
    cfg = RunConfig()
    memory = fresh_memory(cfg)
    memory.begin_period(3)
    memory.mark_transmissions(np.array([0]), 17)
    cands = candidates(memory, cfg)
    assert all(r // GRID.brs_per_tti != 17 for r in cands)


def test_occupied_exclusion_and_escalation():
    cfg = RunConfig(p_th_dbm=-110.0)
    memory = fresh_memory(cfg)
    # Mark BR 5 reserved with RSRP above threshold: must never be returned.
    rsrp = np.zeros(GRID.br_count)
    rsrp[5] = dbm_to_mw(-80)
    sense_period(memory, 0, rsrp=rsrp)
    cands = candidates(memory, cfg)
    assert 5 not in cands  # flat 5 = subframe 2, slot 1
    assert len(cands) == 40

    # Reserve everything hot: escalation must still fill n_R.
    memory2 = fresh_memory(cfg)
    sense_period(memory2, 0, rsrp=np.full(GRID.br_count, dbm_to_mw(-70)))
    cands2 = candidates(memory2, cfg)
    assert len(cands2) == 40


def test_escalation_prefers_weakest_reservations():
    cfg = RunConfig(p_th_dbm=-110.0, t1=1, t2=100)
    memory = fresh_memory(cfg)
    rng = np.random.default_rng(0)
    levels = rng.uniform(-105, -60, size=GRID.br_count)
    sense_period(memory, 0, srssi=dbm_to_mw(levels), rsrp=dbm_to_mw(levels))
    flats = candidates(memory, cfg).tolist()
    # Survivors are those below the final escalated threshold; the returned
    # set must be exactly the n_R with the smallest average S-RSSI among them.
    final_th = cfg.p_th_dbm
    while (levels > final_th).sum() > GRID.br_count - 40:
        final_th += 3.0
    survivors = np.flatnonzero(levels <= final_th)
    expect = survivors[np.argsort(levels[survivors], kind="stable")][:40]
    assert sorted(flats) == sorted(int(r) for r in expect)


def test_candidates_sorted_by_average_srssi():
    cfg = RunConfig()
    memory = fresh_memory(cfg)
    rng = np.random.default_rng(1)
    vals = rng.uniform(1e-13, 1e-9, size=GRID.br_count)
    sense_period(memory, 0, srssi=vals)
    sense_period(memory, 1, srssi=vals)
    flats = candidates(memory, cfg).tolist()
    assert flats == sorted(range(GRID.br_count), key=lambda r: (vals[r], r))[:40]


def test_stale_samples_beyond_t_sense_are_ignored():
    cfg = RunConfig()
    memory = fresh_memory(cfg)
    baseline = candidates(memory, cfg)
    # Stuff every slot with loud samples, then recycle all of them.
    loud = np.full(GRID.br_count, 1e-3)
    for period in range(memory.n_slots):
        sense_period(memory, period, srssi=loud, rsrp=loud)
    for period in range(memory.n_slots, 2 * memory.n_slots):
        memory.begin_period(period)
    assert np.array_equal(candidates(memory, cfg), baseline)


def test_writes_to_a_transmitting_row_are_counted():
    memory = fresh_memory(RunConfig(), n=3)
    memory.begin_period(0)
    memory.mark_transmissions(np.array([1]), 4)
    others = np.array([True, False, True])
    srssi = np.full((GRID.brs_per_tti, 3), 1e-9)
    own_beacon = np.full((1, 3), 1e-9)
    memory.record_srssi(others, 4, srssi)
    memory.record_rsrp(4, np.array([0]), own_beacon, others[None, :])
    assert memory.half_duplex_writes == 0
    # Vehicle 1 transmits in subframe 4, so any sample it takes there counts.
    memory.record_srssi(np.ones(3, dtype=bool), 4, srssi)
    assert memory.half_duplex_writes == 1
    memory.record_rsrp(4, np.array([0]), own_beacon, np.array([[False, True, False]]))
    assert memory.half_duplex_writes == 2
    memory.record_srssi(np.ones(3, dtype=bool), 5)  # it listens in subframe 5
    assert memory.half_duplex_writes == 2


def test_degenerate_window_returns_all_monitored():
    cfg = RunConfig(r_sel=1.0, t1=1, t2=20)
    cands = candidates(fresh_memory(cfg), cfg)
    # n_R = 200 but only 20 offsets are in the window: all of them come back.
    assert len(cands) == 20 * GRID.brs_per_tti


def test_small_grid_candidate_count():
    # 24-BR grid (6 ms period, 4 BRs per TTI): two of the six offsets were
    # used for own transmissions, leaving 16 monitored BRs; the ceiling rule
    # on the full grid still asks for ceil(0.2 * 24) = 5 of them.
    cfg = RunConfig(beacon_period_ms=6, mcs=14, sinr_min_db=12.0,
                    t_sense_ms=12, r_sel=0.2, t1=1, t2=20)
    memory = fresh_memory(cfg)
    memory.begin_period(0)
    memory.mark_transmissions(np.array([0]), 2)
    memory.begin_period(1)
    memory.mark_transmissions(np.array([0]), 5)
    cands = candidates(memory, cfg)
    assert len(cands) == 5
    assert all(r // cfg.brs_per_tti not in (2, 5) for r in cands)


def test_nr_basis_window():
    total = RunConfig(t1=1, t2=50, nr_basis="total")
    window = RunConfig(t1=1, t2=50, nr_basis="window")
    memory = fresh_memory(total)
    assert len(candidates(memory, total)) == 40   # ceil(0.2*200)
    assert len(candidates(memory, window)) == 20  # ceil(0.2*100)


# -- MAC ----------------------------------------------------------------------

def test_mac_select_single_candidate():
    cfg = RunConfig()
    r, counter = mac_select(np.array([19]), cfg, np.random.default_rng(0))
    assert r == 19
    assert cfg.n_min <= counter <= cfg.n_max


def test_mac_select_empty_is_protocol_error():
    with pytest.raises(Mode4ProtocolError):
        mac_select(np.array([], dtype=int), RunConfig(), np.random.default_rng(0))


def test_mac_select_uniform_choice_and_counter():
    cfg = RunConfig()
    rng = np.random.default_rng(42)
    cands = np.arange(20) * GRID.brs_per_tti
    picks = np.zeros(20)
    counters = np.zeros(16)
    n = 100_000
    for _ in range(n):
        r, counter = mac_select(cands, cfg, rng)
        picks[r // GRID.brs_per_tti] += 1
        counters[counter] += 1
    assert np.all(np.abs(picks / n - 0.05) <= 0.005)
    assert set(np.flatnonzero(counters)) == set(range(5, 16))
    assert np.all(np.abs(counters[5:16] / n - 1 / 11) <= 0.005)


def test_period_end_decrement_keeps():
    cfg = RunConfig()
    counters = np.array([3])
    assert on_beacon_period_end(counters, 0, cfg, np.random.default_rng(0)) == "keep"
    assert counters[0] == 2


def test_period_end_zero_counter_pkeep0_always_reselects():
    cfg = RunConfig(p_keep=0.0)
    rng = np.random.default_rng(1)
    for _ in range(200):
        counters = np.array([1])
        assert on_beacon_period_end(counters, 0, cfg, rng) == "reselect"


def test_period_end_keep_fraction():
    cfg = RunConfig(p_keep=0.8)
    rng = np.random.default_rng(2)
    counters = np.zeros(1, dtype=np.int64)
    keeps = 0
    n = 100_000
    for _ in range(n):
        counters[0] = 1
        if on_beacon_period_end(counters, 0, cfg, rng) == "keep":
            keeps += 1
            assert cfg.n_min <= counters[0] <= cfg.n_max  # redrawn
    assert abs(keeps / n - 0.8) <= 0.01


def test_period_end_requires_allocation():
    # A zero counter is the state of a vehicle with no allocation.
    with pytest.raises(Mode4ProtocolError):
        on_beacon_period_end(np.zeros(1, dtype=np.int64), 0, RunConfig(),
                             np.random.default_rng(0))
