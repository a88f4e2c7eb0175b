"""mode4sim benchmark: host time and memory of four scenario workloads.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload ring-495 --seed 1 --seconds 20 --trace 0

Runs the workload as a closed loop, one iteration at a time, each in a fresh
process, until --seconds have been spent (at least MIN_ITERATIONS, unless
they would end past TIME_LIMIT_S). The package is imported from ./src, so
nothing needs installing. With --trace 0 the last stdout line reports the
medians of run_s, setup_s and peak_rss_mb; with --trace 1 untraced and
traced iterations alternate and it reports each layer's self time and call
count, and the tracing overhead. The lines before it are a human-readable
report. See bench/NOTES.md for what each workload stresses.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from layers import LAYERS
from workloads import WORKLOADS

MIN_ITERATIONS = {0: 3, 1: 2}
SETUPS_PER_ITERATION = 5
CHILD_TIMEOUT_S = 120.0
TIME_LIMIT_S = 150.0   # no iteration starts that would end past this
WORK_DIR = ".bench_work"


def _median(values):
    return statistics.median(values) if values else float("nan")


def _spread(values):
    """'median [min, max] n=k' for the report."""
    if not values:
        return "no samples"
    return (f"{_median(values):.6g} [{min(values):.6g}, {max(values):.6g}] "
            f"n={len(values)}")


def run_child(root, workload, seed, traced, outdir, inputs, spans):
    here = os.path.dirname(os.path.abspath(__file__))
    cmd = [sys.executable, os.path.join(here, "child.py"), "--workload", workload,
           "--seed", str(seed), "--traced", str(int(traced)), "--outdir", outdir,
           "--setups", str(1 if traced else SETUPS_PER_ITERATION)]
    if inputs:
        cmd += ["--inputs", *inputs]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Make peak RSS a property of the program, not of the allocator's history
    # or the machine's state. glibc moves its mmap threshold as large blocks
    # are freed, so whether a 2015 x 2015 array lands in the heap depends on
    # the order of earlier frees (highway peak 571-602 MB across seeds); a
    # fixed threshold keeps such arrays in the heap, as the moving threshold
    # does after the first free. numpy asks for transparent huge pages, which
    # the kernel grants or not depending on free memory (571 or 598 MB for
    # one seed). With both fixed the peak repeats to within 0.2 MB.
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 * 1024 * 1024)
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-8:])
        return None, f"exit code {proc.returncode}\n{tail}"
    return json.loads(lines[-1]), None


def iteration_problems(rec, reference):
    """Failed checks of one iteration.

    Every iteration of a run has the same inputs, so its output CSVs must be
    byte-identical to the first iteration's, traced or not.
    """
    problems = list(rec["failures"])
    if rec["digests"] != reference:
        problems.append("output CSVs differ from the first iteration's")
    return problems


def layer_metrics(traced, plain):
    """Per-layer metrics of a traced run, and the bases of its ratios.

    Self times are medians over the traced iterations; counts repeat
    exactly for a seed, so they come from the first one.
    """
    first = traced[0]
    metrics = {}
    for layer in LAYERS:
        total = [r["layers"][layer]["setup_s"] + r["layers"][layer]["run_s"] for r in traced]
        metrics[f"{layer}_s"] = {"value": _median(total), "unit": "s"}
        metrics[f"{layer}_calls"] = {"value": first["layers"][layer]["calls"], "unit": "count"}
    counts = first["counts"]
    rows = counts["phy.tx_rows"]
    cands, cand_calls = counts["mode4.candidate_total"], metrics["mode4.candidate_set_calls"]["value"]
    reselects = counts["mode4.reselect"]
    period_calls = metrics["mode4.on_beacon_period_end_calls"]["value"]
    traced_run = _median([r["run_s"] for r in traced])
    plain_run = _median([r["run_s"] for r in plain])
    derived = [
        ("phy.tx_rows", rows, "count",
         f"{rows} transmitter rows over {metrics['phy.subframe_reception_calls']['value']} "
         "subframe_reception calls"),
        ("mode4.candidate_size_mean", cands / cand_calls if cand_calls else 0.0, "count",
         f"{cands} candidates / {cand_calls} candidate_set calls"),
        ("mode4.reselect_ratio", reselects / period_calls if period_calls else 0.0, "ratio",
         f"{reselects} 'reselect' returns / {period_calls} on_beacon_period_end calls"),
        ("trace.overhead_ratio", traced_run / plain_run - 1.0, "ratio",
         f"traced run_s median {traced_run:.4f} s ({len(traced)} iterations) / untraced "
         f"{plain_run:.4f} s ({len(plain)} iterations), minus 1"),
    ]
    bases = {}
    for name, value, unit, base in derived:
        metrics[name] = {"value": value, "unit": unit}
        bases[name] = base
    return metrics, bases


def print_trace_report(traced, plain, metrics, bases):
    run_s = _median([r["run_s"] for r in traced])
    setup_s = _median([sum(r["setup_s"]) for r in traced])
    print(f"traced run_s {run_s:.4f} s, setup_s {setup_s:.4f} s "
          f"(medians of {len(traced)} traced iterations)")
    print(f"{'layer':30s} {'self_s':>10s} {'calls':>9s} {'% run_s':>8s} {'% setup_s':>9s}")
    for layer in LAYERS:
        run_part = _median([r["layers"][layer]["run_s"] for r in traced])
        setup_part = _median([r["layers"][layer]["setup_s"] for r in traced])
        print(f"{layer:30s} {metrics[layer + '_s']['value']:10.4f} "
              f"{metrics[layer + '_calls']['value']:9d} "
              f"{100 * run_part / run_s:8.2f} {100 * setup_part / setup_s:9.2f}")
    for name, base in bases.items():
        print(f"{name} = {metrics[name]['value']:.6g}  ({base})")
    for r in traced:
        print(f"self-time sum check: run {r['self_sum_run_s']:.6f} s vs traced run_s "
              f"{r['run_s']:.6f} s; set-up {r['self_sum_setup_s']:.6f} s vs "
              f"{sum(r['setup_s']):.6f} s")
    if traced[0]["missing"]:
        print("layers not found in the package, reported as 0: "
              + ", ".join(traced[0]["missing"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mode4sim", "__init__.py")):
        print(f"error: no mode4sim sources under {os.path.join(root, 'src')}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-",
                               dir=os.path.join(root, WORK_DIR))
    try:
        return measure(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, root, workdir) -> int:
    w = WORKLOADS[args.workload]
    inputs = None
    if w.urban:
        import urban
        inputs = urban.write_inputs(args.seed, w.duration_s, os.path.join(workdir, "inputs"))
    spans = os.path.join(workdir, "spans.csv") if args.trace else None

    plain, traced, failures = [], [], []
    reference = None
    start = time.perf_counter()
    i = 0
    while True:
        is_traced = bool(args.trace) and i % 2 == 1
        outdir = os.path.join(workdir, f"out{i}")
        t0 = time.perf_counter()
        rec, error = run_child(root, args.workload, args.seed, is_traced, outdir,
                               inputs, spans if is_traced else None)
        last = time.perf_counter() - t0
        i += 1
        if rec is not None:
            if reference is None:
                reference = rec["digests"]
            problems = iteration_problems(rec, reference)
            (traced if is_traced else plain).append(rec)
            if problems:
                failures.append(f"iteration {i}: " + "; ".join(problems))
        else:
            failures.append(f"iteration {i}: {error}")
        elapsed = time.perf_counter() - start
        if elapsed + last > (args.seconds if i >= MIN_ITERATIONS[args.trace]
                             else TIME_LIMIT_S):
            break

    print(f"workload {args.workload}, seed {args.seed}: {i} iterations in "
          f"{time.perf_counter() - start:.1f} s, {len(failures)} failed")
    for line in failures:
        print("FAILED " + line)
    if not plain or (args.trace and not traced):
        print("error: no successful iteration to report", file=sys.stderr)
        return 1
    print("stats: " + json.dumps(plain[0]["stats"], sort_keys=True))
    for name, digest in sorted(reference.items()):
        print(f"sha256 {name} {digest}")

    if args.trace:
        metrics, bases = layer_metrics(traced, plain)
        print_trace_report(traced, plain, metrics, bases)
        os.replace(spans, os.path.join(root, WORK_DIR, f"{args.workload}.spans.csv"))
    else:
        run_s = [r["run_s"] for r in plain]
        setup_s = [s for r in plain for s in r["setup_s"]]
        rss = [r["peak_rss_mb"] for r in plain]
        print(f"run_s {_spread(run_s)}; setup_s {_spread(setup_s)}; peak_rss_mb {_spread(rss)}")
        metrics = {"run_s": {"value": _median(run_s), "unit": "s"},
                   "setup_s": {"value": _median(setup_s), "unit": "s"},
                   "peak_rss_mb": {"value": _median(rss), "unit": "MB"}}
    print(json.dumps({"correct": not failures, "attempted": i, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
