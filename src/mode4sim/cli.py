"""Command-line front-end: simulate / sweep / analyze / hidden-node.

Exit codes: 2 for configuration problems and outputs that cannot be
written, 3 for trace I/O failures. All result files are plain CSV plus a
key:value summary echoing the fully resolved configuration, so a (config,
seed) pair reproduces byte-identical outputs.
"""
from __future__ import annotations

import argparse
from dataclasses import replace
import os
import sys

import numpy as np

from .analysis import (reallocation_probability, tbc_ccdf, tbc_distribution)
from .channel import ObstacleMapError
from .config import (SWEEPABLE_KEYS, ConfigError, RunConfig, load_config,
                     with_overrides)
from .engine import SimulationEngine, SimulationResult, run_scenario
from .metrics import ud_percentile
from .mobility import TraceError

EXIT_CONFIG = 2
EXIT_TRACE_IO = 3

UD_QUANTILES = (0.5, 0.9, 0.95, 0.99, 0.999, 0.9999)


class OutputError(Exception):
    """An output file or directory could not be written."""


def _make_outdir(path):
    """Create directory `path` (and its parents) if it does not exist yet."""
    try:
        os.makedirs(path or ".", exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror}") from exc


def _write_lines(path, lines):
    """Write `lines` to `path`, creating its directory first."""
    _make_outdir(os.path.dirname(path))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line + "\n")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror}") from exc


def _ratio_text(value) -> str:
    return "nan" if np.isnan(value) else f"{value:.6f}"


def write_run_outputs(result: SimulationResult, outdir: str):
    rows = ["bin_center_m,prr,samples"] + [
        f"{c:.1f},{_ratio_text(p)},{int(s)}" for c, p, s in zip(*result.prr.by_bin())]
    _write_lines(os.path.join(outdir, "prr_by_distance.csv"), rows)

    rows = ["q,seconds"] + [f"{q},{ud_percentile(result.ud, q):.4f}" for q in UD_QUANTILES]
    _write_lines(os.path.join(outdir, "ud_percentiles.csv"), rows)

    rows = ["length_periods,count"]
    if len(result.hold_counts):
        hist = np.bincount(result.hold_counts)
        for length in np.flatnonzero(hist):
            rows.append(f"{int(length)},{int(hist[length])}")
    _write_lines(os.path.join(outdir, "hold_times.csv"), rows)

    summary = [
        f"pooled_prr: {result.prr.pooled():.6f}",
        f"beacons_sent: {result.beacons_sent}",
        f"reselections: {result.reselections}",
        f"mean_neighbors: {result.mean_neighbors:.3f}",
        f"half_duplex_violations: {result.half_duplex_violations}",
        f"half_duplex_pairs_checked: {result.half_duplex_pairs_checked}",
        f"ud_gaps_recorded: {result.ud.total_gaps}",
        f"warmup_s: {result.cfg.warmup_s}",
        f"seed: {result.cfg.seed}",
    ]
    summary += [f"ud_p{q}: {ud_percentile(result.ud, q):.4f}" for q in UD_QUANTILES]
    summary += [f"config.{key}: {value}" for key, value in result.cfg.resolved_items()]
    _write_lines(os.path.join(outdir, "summary.txt"), summary)


def _load_with_overrides(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trace:
        overrides["scenario"] = "trace"
        overrides["trace"] = args.trace
    if args.highway:
        overrides["scenario"] = "highway"
        if cfg.trace:
            cfg = replace(cfg, trace=None)  # --highway supersedes a config trace
    if args.vehicles is not None:
        overrides["highway_vehicles"] = args.vehicles
    if args.length_m is not None:
        overrides["highway_length_m"] = args.length_m
    if args.duration_s is not None:
        overrides["duration_s"] = args.duration_s
    return with_overrides(cfg, **overrides)


def cmd_simulate(args) -> int:
    world = SimulationEngine(_load_with_overrides(args))
    _make_outdir(args.out)
    result = world.run()
    write_run_outputs(result, args.out)
    print(f"pooled PRR {result.prr.pooled():.4f} over {result.beacons_sent} beacons "
          f"(mean neighbors {result.mean_neighbors:.1f}); outputs in {args.out}")
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.param not in SWEEPABLE_KEYS:
        raise ConfigError(f"unknown sweep parameter '{args.param}'")
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    cast = SWEEPABLE_KEYS[args.param]
    values = [cast(v) for v in args.values.split(",") if v != ""]
    if not values:
        raise ConfigError("sweep needs at least one value")
    for k, value in enumerate(values):
        if value in values[:k]:
            raise ConfigError(f"sweep {args.param} value {value} is repeated")
    points = [with_overrides(cfg, **{args.param: value}) for value in values]
    # Building a point's world loads its trace and checks its span, so a
    # bad point fails here, before `--out` exists.
    for point in points:
        SimulationEngine(point)
    _make_outdir(args.out)
    # Points are independent seeded runs, so any worker count gives the
    # same results in the same order. The pool starts all its workers at
    # once, so it gets no more than there are points.
    workers = min(args.jobs, len(points))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_scenario, points))
    else:
        results = [run_scenario(point) for point in points]
    combined = ["param,value,pooled_prr,ud_p0.999_s,mean_neighbors,beacons"]
    for value, result in zip(values, results):
        subdir = os.path.join(args.out, f"{args.param}={value}")
        write_run_outputs(result, subdir)
        combined.append(f"{args.param},{value},{result.prr.pooled():.6f},"
                        f"{ud_percentile(result.ud, 0.999):.4f},"
                        f"{result.mean_neighbors:.3f},{result.beacons_sent}")
        print(f"{args.param}={value}: pooled PRR {result.prr.pooled():.4f}")
    _write_lines(os.path.join(args.out, "sweep_results.csv"), combined)
    return 0


def cmd_analyze(args) -> int:
    if args.beacon_period_ms < 1 or args.t_sense_ms < 1:
        raise ConfigError("beacon_period_ms and t_sense_ms must be positive")
    if args.t_sense_ms % args.beacon_period_ms != 0:
        raise ConfigError("t_sense_ms must be a multiple of the beacon period")
    dist = tbc_distribution(args.n_min, args.n_max, args.p_keep, eps=args.eps)
    ccdf = tbc_ccdf(dist)
    rows = ["hold_periods,hold_seconds,ccdf"]
    step = args.beacon_period_ms / 1000.0
    for n, value in enumerate(ccdf):
        rows.append(f"{n},{n * step:.4f},{value:.9f}")
    _write_lines(os.path.join(args.out, "tbc_ccdf.csv"), rows)
    n_star = args.t_sense_ms // args.beacon_period_ms
    p_r = reallocation_probability(dist, n_star)
    print(f"P_r({n_star} beacon periods) = {p_r:.6f} "
          f"(truncation error <= {dist.residual_mass:.2e})")
    print(f"mean hold {dist.mean() * step:.3f} s; ccdf written to "
          f"{os.path.join(args.out, 'tbc_ccdf.csv')}")
    return 0


def cmd_hidden_node(args) -> int:
    if args.sample_every < 1:
        raise ConfigError("--sample-every must be >= 1")
    cfg = _load_with_overrides(args)
    world = SimulationEngine(cfg)
    _make_outdir(args.out)
    acc = world.hidden_node(args.sample_every)
    centers, prob, _pairs = acc.by_bin()
    rows = ["d_bin_m,probability"] + [f"{c:.1f},{_ratio_text(p)}" for c, p in zip(centers, prob)]
    _write_lines(os.path.join(args.out, "hidden_node.csv"), rows)
    summary = [f"hidden_node_probability: {acc.overall():.6f}",
               f"contributing_pair_samples: {int(acc.pair_count.sum())}",
               f"snapshots: {len(acc.snapshot_probs)}"]
    summary += [f"config.{k}: {v}" for k, v in cfg.resolved_items()]
    _write_lines(os.path.join(args.out, "summary.txt"), summary)
    print(f"hidden-node probability (all sampled instants): {acc.overall():.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mode4sim",
        description="Distributed sidelink resource-allocation simulator and analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_flags(p):
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--trace", help="trace CSV (time_s,vehicle_id,x_m,y_m)")
        p.add_argument("--highway", action="store_true", help="synthetic highway scenario")
        p.add_argument("--vehicles", type=int, help="highway vehicle count")
        p.add_argument("--length-m", dest="length_m", type=float, help="highway ring length")
        p.add_argument("--duration-s", dest="duration_s", type=float, help="simulated seconds")

    p_sim = sub.add_parser("simulate", help="run one scenario and write metric CSVs")
    add_scenario_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run one scenario per parameter value")
    p_sweep.add_argument("--config", help="YAML config file")
    p_sweep.add_argument("--param", required=True, help="config key to sweep")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", default="out", help="output directory")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="worker processes for the sweep points")
    p_sweep.set_defaults(func=cmd_sweep)

    p_an = sub.add_parser("analyze", help="closed-form hold-time statistics")
    defaults = RunConfig()
    p_an.add_argument("--n-min", type=int, default=defaults.n_min)
    p_an.add_argument("--n-max", type=int, default=defaults.n_max)
    p_an.add_argument("--p-keep", type=float, default=defaults.p_keep)
    p_an.add_argument("--t-sense-ms", type=int, default=defaults.t_sense_ms)
    p_an.add_argument("--eps", type=float, default=1e-6)
    p_an.add_argument("--beacon-period-ms", type=int, default=defaults.beacon_period_ms)
    p_an.add_argument("--out", default="out")
    p_an.set_defaults(func=cmd_analyze)

    p_hn = sub.add_parser("hidden-node", help="hidden-node probability of a scenario")
    add_scenario_flags(p_hn)
    p_hn.add_argument("--sample-every", type=int, default=1,
                      help="sample one snapshot every N beacon periods")
    p_hn.set_defaults(func=cmd_hidden_node)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TraceError as exc:
        # TraceError subclasses ValueError; match it before the config catch.
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_TRACE_IO
    except (ConfigError, ObstacleMapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
