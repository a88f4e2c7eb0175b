"""One iteration of a benchmark workload, run in a fresh process.

Prints one JSON object: host times, peak memory, the simulated statistics
and their check, output digests and, when traced, per-layer self times.
A fresh process per iteration keeps one iteration's memory high-water mark
out of the next one's. Run by bench/run.py; see there for usage.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import sys
import time

from layers import LAYERS, RUN, SELF_OF, SETUP, WRITE, Tracer, patched
from workloads import WORKLOADS, check, config_kwargs


def peak_rss_mb() -> float:
    """High-water resident set of this process's own address space.

    VmHWM starts afresh at exec; ru_maxrss would also count the launching
    process's memory at fork time.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def csv_digests(outdir: str) -> dict:
    digests = {}
    for name in sorted(os.listdir(outdir)):
        if name.endswith(".csv"):
            with open(os.path.join(outdir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def write_hidden_node_csv(acc, outdir: str):
    """hidden_node.csv in the layout of the `hidden-node` command."""
    os.makedirs(outdir, exist_ok=True)
    centers, prob, _pairs = acc.by_bin()
    with open(os.path.join(outdir, "hidden_node.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("d_bin_m,probability\n")
        for c, p in zip(centers, prob):
            value = "nan" if math.isnan(p) else f"{p:.6f}"
            fh.write(f"{c:.1f},{value}\n")


def run_once(name, seed, setups, traced, outdir, inputs=None, spans_path=None):
    from mode4sim import cli
    from mode4sim.config import RunConfig
    from mode4sim.engine import SimulationEngine, run_hidden_node

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"mode4sim imported from {cli.__file__}, not from {src}")

    w = WORKLOADS[name]
    kwargs = config_kwargs(name, seed, inputs)
    tracer = Tracer()
    with patched(tracer, layers=traced, engine_class=w.kind == "hidden-node") as missing:
        if w.kind == "simulate":
            with tracer.span(SETUP):
                engine = SimulationEngine(RunConfig(**kwargs))
            with tracer.span(RUN):
                result = engine.run()
                with tracer.span(WRITE):
                    cli.write_run_outputs(result, outdir)
            prr = result.prr
            with open(os.path.join(outdir, "hold_times.csv"), encoding="utf-8") as fh:
                hold_rows = sum(1 for _ in fh) - 1
            stats = {
                "pooled_prr": prr.pooled() if prr.neighbor_count.sum() else float("nan"),
                "mean_neighbors": result.mean_neighbors,
                "hold_rows": hold_rows,
                "beacons_sent": result.beacons_sent,
                "reselections": result.reselections,
            }
        else:
            cfg = RunConfig(**kwargs)
            with tracer.span(RUN):
                acc = run_hidden_node(cfg)
                with tracer.span(WRITE):
                    write_hidden_node_csv(acc, outdir)
            stats = {"hidden_node_probability": acc.overall(),
                     "snapshots": len(acc.snapshot_probs)}
    rss = peak_rss_mb()
    engine = result = acc = prr = None   # free the run's state

    # Extra set-ups, timed and discarded, give set-up time more samples. They
    # come after the run, whose memory high-water mark they would otherwise
    # shift by leaving the heap laid out differently.
    gc.collect()
    setup_times = []
    for _ in range(setups - 1):
        t0 = time.perf_counter()
        engine = SimulationEngine(RunConfig(**kwargs))
        setup_times.append(time.perf_counter() - t0)
        del engine

    run_idx = tracer.names.index(RUN)
    nested_setup = sum(tracer.ends[i] - tracer.starts[i]
                       for i, n in enumerate(tracer.names)
                       if n == SETUP and tracer.parents[i] == run_idx)
    run_s = tracer.ends[run_idx] - tracer.starts[run_idx] - nested_setup
    traced_setups = tracer.durations(SETUP)
    record = {
        "run_s": run_s,
        "setup_s": setup_times + traced_setups,
        "peak_rss_mb": rss,
        "stats": stats,
        "failures": check(name, stats),
        "digests": csv_digests(outdir),
    }
    if traced:
        per_name = tracer.self_times()
        layers = {}
        for layer in LAYERS:
            setup_self, run_self, calls = per_name.get(SELF_OF.get(layer, layer), (0.0, 0.0, 0))
            layers[layer] = {"setup_s": setup_self, "run_s": run_self, "calls": calls}
        total_run = sum(rec[1] for rec in per_name.values())
        total_setup = sum(rec[0] for rec in per_name.values())
        setup_s = sum(traced_setups)
        if (abs(total_run - run_s) > 1e-6 * max(run_s, 1.0)
                or abs(total_setup - setup_s) > 1e-6 * max(setup_s, 1.0)):
            record["failures"].append(
                f"self times sum to {total_run:.6f} s run / {total_setup:.6f} s set-up, "
                f"spans give {run_s:.6f} s / {setup_s:.6f} s")
        record.update(layers=layers, counts=dict(tracer.counts), missing=missing,
                      self_sum_run_s=total_run, self_sum_setup_s=total_setup)
        if spans_path:
            tracer.write_spans(spans_path)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--inputs", nargs=2, metavar=("TRACE", "OBSTACLES"))
    parser.add_argument("--spans", help="write the traced run's spans to this CSV")
    args = parser.parse_args(argv)
    record = run_once(args.workload, args.seed, args.setups, bool(args.traced),
                      args.outdir, tuple(args.inputs) if args.inputs else None,
                      args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
