import os

import pytest
import yaml

from mode4sim import cli
from mode4sim.cli import main

SMALL_CFG = {
    "highway_length_m": 800.0,
    "highway_vehicles": 80,
    "duration_s": 4.0,
    "t_sense_ms": 500,
    "n_max": 8,
    "seed": 9,
}

CSV_FILES = ("prr_by_distance.csv", "ud_percentiles.csv", "hold_times.csv")


def write_cfg(tmp_path, mapping, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(mapping))
    return str(path)


def read_bytes(outdir, name):
    with open(os.path.join(outdir, name), "rb") as fh:
        return fh.read()


def test_simulate_writes_outputs_and_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_CFG)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", "--config", cfg, "--out", out_a]) == 0
    assert main(["simulate", "--config", cfg, "--out", out_b]) == 0
    for name in CSV_FILES + ("summary.txt",):
        assert read_bytes(out_a, name) == read_bytes(out_b, name), name
    summary = read_bytes(out_a, "summary.txt").decode()
    assert "config.seed: 9" in summary
    assert "pooled_prr:" in summary


def test_seed_override_changes_outputs(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_CFG)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", "--config", cfg, "--out", out_a]) == 0
    assert main(["simulate", "--config", cfg, "--out", out_b, "--seed", "10"]) == 0
    assert read_bytes(out_a, "prr_by_distance.csv") != read_bytes(out_b, "prr_by_distance.csv")


def test_sweep_single_value_matches_simulate(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_CFG)
    out_sim = str(tmp_path / "sim")
    out_sweep = str(tmp_path / "sweep")
    assert main(["simulate", "--config", cfg, "--out", out_sim]) == 0
    assert main(["sweep", "--config", cfg, "--param", "p_keep",
                 "--values", "0.4", "--out", out_sweep]) == 0
    point = os.path.join(out_sweep, "p_keep=0.4")
    for name in CSV_FILES:
        assert read_bytes(out_sim, name) == read_bytes(point, name), name
    combined = read_bytes(out_sweep, "sweep_results.csv").decode().splitlines()
    assert combined[0].startswith("param,value")
    assert len(combined) == 2


def test_sweep_parallel_workers_match_sequential(tmp_path):
    cfg = write_cfg(tmp_path, dict(SMALL_CFG, duration_s=3.0))
    out_seq = str(tmp_path / "seq")
    out_par = str(tmp_path / "par")
    args = ["sweep", "--config", cfg, "--param", "p_keep", "--values", "0,0.8"]
    assert main(args + ["--out", out_seq]) == 0
    assert main(args + ["--out", out_par, "--jobs", "2"]) == 0
    assert (read_bytes(out_seq, "sweep_results.csv")
            == read_bytes(out_par, "sweep_results.csv"))
    for value in ("0.0", "0.8"):
        point = os.path.join(f"p_keep={value}", "prr_by_distance.csv")
        assert read_bytes(out_seq, point) == read_bytes(out_par, point)


def test_sweep_jobs_capped_at_points_and_rejected_below_one(tmp_path, monkeypatch):
    # The pool starts every worker it is asked for, so the sweep asks for no
    # more than it has points. The fake pool starts no process.
    import concurrent.futures

    class PoolStarted(Exception):
        pass

    asked = []

    class FakePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, points):
            raise PoolStarted

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    _no_runs(monkeypatch)
    cfg = write_cfg(tmp_path, SMALL_CFG)
    args = ["sweep", "--config", cfg, "--param", "p_keep", "--values", "0,0.4",
            "--out", str(tmp_path / "sw"), "--jobs"]
    with pytest.raises(PoolStarted):
        main(args + ["5000"])
    assert asked == [2]
    for jobs in ("0", "-3"):
        assert main(args + [jobs]) == 2, jobs
    assert asked == [2]


def test_sweep_unknown_parameter_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_CFG)
    assert main(["sweep", "--config", cfg, "--param", "bogus",
                 "--values", "1,2", "--out", str(tmp_path / "o")]) == 2


def test_invalid_config_exits_2(tmp_path, monkeypatch):
    _no_runs(monkeypatch)
    cfg = write_cfg(tmp_path, {"mcs": 5})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    cfg = write_cfg(tmp_path, {"nonsense_key": 1}, name="c2.yaml")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    cfg = write_cfg(tmp_path, {"duration_s": 1.0}, name="c3.yaml")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    cfg = write_cfg(tmp_path, {"bandwidth_mhz": 10.0}, name="c4.yaml")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    cfg = write_cfg(tmp_path, {"t_sense_ms": 150, "duration_s": 3.0}, name="c5.yaml")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    for key, value in (("highway_vehicles", 0), ("lanes_per_direction", 0),
                       ("highway_length_m", -5), ("highway_length_m", float("nan")),
                       ("lanes_per_direction", 1.5), ("lanes_per_direction", 4),
                       ("highway_vehicles", 40.5),
                       # the nested spelling is not a key
                       ("highway", {"vehicles": 20})):
        cfg = write_cfg(tmp_path, {key: value}, name="hw.yaml")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2, key
    nan, inf = float("nan"), float("inf")
    for key, value in (("tx_power_dbm", nan), ("sinr_min_db", nan), ("duration_s", inf),
                       ("awareness_m", -5.0), ("awareness_m", inf), ("awareness_m", nan),
                       ("prr_bin_width_m", 0.0), ("prr_bin_width_m", inf),
                       # values of the wrong type
                       ("beacon_period_ms", 100.0), ("t_sense_ms", 1000.0),
                       ("tx_power_dbm", "23"), ("duration_s", "2.7"), ("t1", 1.5),
                       ("n_min", 2.5), ("seed", 1.5), ("mcs", 7.0), ("sinr_min_db", "7"),
                       ("p_keep", False), ("nonstandard", "no"),
                       # radio settings under which every link fails
                       ("carrier_ghz", 0.0), ("carrier_ghz", -5.9), ("carrier_ghz", inf),
                       ("tx_power_dbm", inf), ("tx_power_dbm", -inf),
                       ("antenna_gain_db", inf), ("antenna_gain_db", -inf),
                       ("noise_figure_db", inf), ("ibe_attenuation_db", -inf),
                       ("sinr_min_db", inf), ("shadow_sigma_los_db", inf),
                       # a threshold the 3 dB escalation never leaves
                       ("p_th_dbm", -inf), ("p_th_dbm", inf),
                       # a shadow step of inf / -inf, NaN in every power
                       ("decorr_dist_m", inf), ("decorr_dist_m", 0.0),
                       # a gap limit that drops every interpolated instant
                       ("max_trace_gap_s", -1.0)):
        cfg = write_cfg(tmp_path, dict(SMALL_CFG, **{key: value}), name="f.yaml")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2, (key, value)
    cfg = write_cfg(tmp_path, SMALL_CFG, name="hn.yaml")
    assert main(["hidden-node", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--duration-s", "inf"]) == 2


def _no_runs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a simulation ran")
    monkeypatch.setattr(cli, "run_scenario", refuse)
    monkeypatch.setattr(cli.SimulationEngine, "run", refuse)
    monkeypatch.setattr(cli.SimulationEngine, "hidden_node", refuse)


def test_sweep_rejects_bad_point_before_running(tmp_path, capsys, monkeypatch):
    _no_runs(monkeypatch)
    cfg = write_cfg(tmp_path, SMALL_CFG)
    out = str(tmp_path / "sw")
    assert main(["sweep", "--config", cfg, "--param", "t_sense_ms",
                 "--values", "500,150", "--out", out]) == 2
    assert "t_sense_ms (150)" in capsys.readouterr().err
    assert not os.path.exists(out)
    assert main(["sweep", "--config", cfg, "--param", "highway_vehicles",
                 "--values", "20,0", "--out", out]) == 2
    assert "vehicle count must be positive" in capsys.readouterr().err
    assert not os.path.exists(out)
    for param, values in (("awareness_m", "200,-5"), ("duration_s", "4,inf"),
                          ("awareness_m", "200,nan")):
        assert main(["sweep", "--config", cfg, "--param", param,
                     "--values", values, "--out", out]) == 2, values
        assert f"{param} must be" in capsys.readouterr().err
        assert not os.path.exists(out)
    # A repeated value would run one point twice into one directory.
    for param, values, repeated in (("seed", "1,2,1", "1"), ("p_keep", "0.4,0.40", "0.4")):
        assert main(["sweep", "--config", cfg, "--param", param,
                     "--values", values, "--out", out]) == 2, values
        assert f"{param} value {repeated} is repeated" in capsys.readouterr().err
        assert not os.path.exists(out)


def test_mcs14_requires_explicit_threshold(tmp_path):
    bad = dict(SMALL_CFG, mcs=14)
    cfg = write_cfg(tmp_path, bad)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    good = dict(SMALL_CFG, mcs=14, sinr_min_db=12.0)
    cfg = write_cfg(tmp_path, good, name="ok.yaml")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o2")]) == 0


def test_simulate_survives_a_window_without_monitored_subframes(tmp_path):
    # One-period holds that are never kept: every beacon ends its
    # allocation and the next lands 1..20 subframes on, so over a 2 s
    # sensing window a vehicle transmits in every subframe of some
    # selection window. Selection then falls back to the whole window.
    cfg = write_cfg(tmp_path, {"highway_length_m": 800.0, "highway_vehicles": 40,
                               "duration_s": 8, "n_min": 1, "n_max": 1, "p_keep": 0.0,
                               "t_sense_ms": 2000, "t2": 20})
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    assert "half_duplex_violations: 0" in read_bytes(out, "summary.txt").decode()


def test_lone_vehicle_reports_nan_prr(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"highway_length_m": 800.0, "highway_vehicles": 1,
                               "duration_s": 3.0})
    out = str(tmp_path / "o")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    assert "pooled PRR nan" in capsys.readouterr().out
    summary = read_bytes(out, "summary.txt").decode()
    assert "pooled_prr: nan" in summary
    # No gap was ever recorded, so every update-delay quantile reads nan.
    rows = read_bytes(out, "ud_percentiles.csv").decode().splitlines()
    assert rows == ["q,seconds"] + [f"{q},nan" for q in cli.UD_QUANTILES]
    for q in cli.UD_QUANTILES:
        assert f"ud_p{q}: nan" in summary.splitlines()
    assert main(["sweep", "--config", cfg, "--param", "seed", "--values", "2",
                 "--out", str(tmp_path / "sw")]) == 0
    rows = read_bytes(str(tmp_path / "sw"), "sweep_results.csv").decode().splitlines()
    assert rows[1].split(",")[2] == "nan"


def test_unwritable_output_exits_2(tmp_path, capsys, monkeypatch):
    _no_runs(monkeypatch)
    cfg = write_cfg(tmp_path, dict(SMALL_CFG, duration_s=3.0))
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "out")
    for command in (["simulate"], ["sweep", "--param", "seed", "--values", "1,2"],
                    ["hidden-node"]):
        assert main(command + ["--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error:") and out in err, command


def test_missing_trace_exits_3(tmp_path):
    cfg = write_cfg(tmp_path, {"scenario": "trace", "trace": str(tmp_path / "no.csv"),
                               "duration_s": 4.0, "t_sense_ms": 500, "n_max": 8})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


# Fractional vehicle ids would otherwise merge 0 with 0.5 and 1 with 1.5.
FRACTIONAL_IDS = "".join(f"{t / 10},{vid},{5 * k},0\n" for t in range(30)
                         for k, vid in enumerate(("0", "0.5", "1", "1.5")))


def test_malformed_trace_exits_3(tmp_path, capsys):
    for text in ("0.0,1,0,0\nbroken line\n", FRACTIONAL_IDS):
        trace = tmp_path / "bad.csv"
        trace.write_text(text)
        cfg = write_cfg(tmp_path, {"scenario": "trace", "trace": str(trace),
                                   "duration_s": 2.6, "t_sense_ms": 500, "n_max": 8})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith(f"trace error: {trace}:2:")


def test_a_trace_error_leaves_no_output_directory(tmp_path, capsys, monkeypatch):
    # Both commands build the world before they make `--out`, so a trace
    # that is missing or malformed exits 3 and leaves no directory behind.
    _no_runs(monkeypatch)
    bad = tmp_path / "bad.csv"
    bad.write_text(FRACTIONAL_IDS)
    out = tmp_path / "o"
    for trace in (tmp_path / "no.csv", bad):
        cfg = write_cfg(tmp_path, {"scenario": "trace", "trace": str(trace),
                                   "duration_s": 2.6, "t_sense_ms": 500, "n_max": 8})
        for command in (["simulate"], ["hidden-node"]):
            assert main(command + ["--config", cfg, "--out", str(out)]) == 3, (trace, command)
            err = capsys.readouterr().err
            assert err.startswith("trace error:") and str(trace) in err, (trace, command)
            assert not out.exists(), (trace, command)


def test_sweep_builds_every_world_before_its_output_directory(tmp_path, capsys, monkeypatch):
    # A missing trace, and a swept duration past the end of a good one,
    # fail while the points' worlds are built: exit 3, nothing run, no
    # `--out` left behind.
    _no_runs(monkeypatch)
    good = tmp_path / "good.csv"
    good.write_text("".join(f"{t / 10},{vid},{5 * vid},0\n" for t in range(30) for vid in range(4)))
    out = tmp_path / "o"
    for trace, param, values in ((tmp_path / "no.csv", "seed", "1,2"),
                                 (good, "duration_s", "2.6,4.0")):
        cfg = write_cfg(tmp_path, {"scenario": "trace", "trace": str(trace),
                                   "duration_s": 2.6, "t_sense_ms": 500, "n_max": 8})
        assert main(["sweep", "--config", cfg, "--param", param, "--values", values,
                     "--out", str(out)]) == 3, param
        err = capsys.readouterr().err
        assert err.startswith("trace error:"), param
        assert not out.exists(), param


def test_sweep_takes_nr_basis_and_tx_power(tmp_path):
    assert cli.SWEEPABLE_KEYS["nr_basis"] is str
    assert cli.SWEEPABLE_KEYS["tx_power_dbm"] is float
    cfg = write_cfg(tmp_path, dict(SMALL_CFG, highway_vehicles=40, duration_s=3.0))
    out = str(tmp_path / "sw")
    assert main(["sweep", "--config", cfg, "--param", "nr_basis",
                 "--values", "total,window", "--out", out]) == 0
    for value in ("total", "window"):
        summary = read_bytes(os.path.join(out, f"nr_basis={value}"), "summary.txt").decode()
        assert f"config.nr_basis: {value}" in summary.splitlines()
    rows = read_bytes(out, "sweep_results.csv").decode().splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [["nr_basis", "total"],
                                                         ["nr_basis", "window"]]


def test_unreadable_obstacle_map_exits_2(tmp_path, capsys):
    # A map that cannot be read is a configuration error, like a config
    # file that cannot be read; only trace input errors exit 3. The map is
    # read while the world is built, before any subframe runs.
    for path in (tmp_path / "missing.csv", tmp_path):
        cfg = write_cfg(tmp_path, dict(SMALL_CFG, obstacle_map=str(path)))
        for command in (["simulate"], ["hidden-node"]):
            assert main(command + ["--config", cfg, "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot read obstacle map {path}"), command


def test_analyze_writes_ccdf_and_reports(tmp_path, capsys):
    out = str(tmp_path / "an")
    assert main(["analyze", "--n-min", "5", "--n-max", "15", "--p-keep", "0",
                 "--t-sense-ms", "1000", "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "P_r(10 beacon periods) = 0.899" in printed
    lines = read_bytes(out, "tbc_ccdf.csv").decode().splitlines()
    assert lines[0] == "hold_periods,hold_seconds,ccdf"
    assert lines[1].startswith("0,0.0000,1.000000000")


def test_analyze_draws_counters_uniformly_only(tmp_path, capsys):
    # The simulator draws counters uniformly on [n_min, n_max], so the
    # analysis has no other hold-draw form to choose.
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--tbe-form", "uniform", "--out", str(tmp_path / "an")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tbe-form" in capsys.readouterr().err
    assert not (tmp_path / "an").exists()


def test_analyze_rejects_bad_periods_before_writing(tmp_path, capsys):
    for flag, value in (("--beacon-period-ms", "0"), ("--t-sense-ms", "0"),
                        ("--beacon-period-ms", "-100"), ("--t-sense-ms", "-1000"),
                        ("--eps", "1"), ("--eps", "2")):
        out = str(tmp_path / "an")
        assert main(["analyze", flag, value, "--out", out]) == 2, (flag, value)
        assert capsys.readouterr().err.startswith("error:")
        assert not os.path.exists(out), (flag, value)


def test_hidden_node_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path, dict(SMALL_CFG, duration_s=3.0))
    out = str(tmp_path / "hn")
    assert main(["hidden-node", "--config", cfg, "--out", out,
                 "--sample-every", "5"]) == 0
    lines = read_bytes(out, "hidden_node.csv").decode().splitlines()
    assert lines[0] == "d_bin_m,probability"
    assert "hidden-node probability" in capsys.readouterr().out


def test_hidden_node_rejects_sample_every_below_1(tmp_path, capsys, monkeypatch):
    _no_runs(monkeypatch)
    cfg = write_cfg(tmp_path, dict(SMALL_CFG, duration_s=3.0))
    out = str(tmp_path / "hn")
    for value in ("0", "-3"):
        assert main(["hidden-node", "--config", cfg, "--out", out,
                     "--sample-every", value]) == 2, value
        assert "--sample-every" in capsys.readouterr().err
        assert not os.path.exists(out), value


def test_hidden_node_lone_vehicle_reports_nan(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"highway_length_m": 800.0, "highway_vehicles": 1,
                               "duration_s": 3.0})
    out = str(tmp_path / "hn")
    assert main(["hidden-node", "--config", cfg, "--out", out]) == 0
    assert "hidden-node probability (all sampled instants): nan" in capsys.readouterr().out
    summary = read_bytes(out, "summary.txt").decode()
    assert "hidden_node_probability: nan" in summary
    assert "snapshots: 0" in summary
    rows = read_bytes(out, "hidden_node.csv").decode().splitlines()[1:]
    assert rows and all(row.endswith(",nan") for row in rows)


def test_power_threshold_sweep_is_flat_when_sparse(tmp_path):
    # Sparse ring (about 12 neighbors): the occupancy threshold has nearly
    # no headroom to act, so the two extreme settings coincide within 1 pp.
    sparse = {
        "highway_length_m": 4000.0, "highway_vehicles": 120,
        "duration_s": 13.0, "seed": 17,
    }
    cfg = write_cfg(tmp_path, sparse)
    out = str(tmp_path / "sw")
    assert main(["sweep", "--config", cfg, "--param", "p_th_dbm",
                 "--values=-128,-60", "--out", out]) == 0
    rows = read_bytes(out, "sweep_results.csv").decode().splitlines()[1:]
    prrs = [float(r.split(",")[2]) for r in rows]
    assert abs(prrs[0] - prrs[1]) < 0.01


def test_highway_flag_supersedes_config_trace(tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_text("\n".join(f"{k/10:.1f},1,{k},0" for k in range(60)) + "\n")
    cfg = write_cfg(tmp_path, {"scenario": "trace", "trace": str(trace),
                               "duration_s": 4.0, "t_sense_ms": 500, "n_max": 8})
    out = str(tmp_path / "o")
    assert main(["simulate", "--config", cfg, "--out", out, "--highway",
                 "--vehicles", "60", "--length-m", "600"]) == 0
