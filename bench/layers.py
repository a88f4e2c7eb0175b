"""In-memory span tracing of the simulator's layers.

The tracer wraps public functions and methods of the package from the
outside, at the names the engine looks them up by, and restores them
afterwards. Each call becomes one span (name, start, end, parent); a
layer's self time is its spans' durations minus the part their child spans
cover. Spans stay in memory until the run ends.
"""
from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager

# (span name, module or class path, attribute). Functions are patched in the
# namespace the engine calls them through: names the engine imported into
# its own module are patched there, `phy.*` and `mode4.*` on their modules,
# methods on their classes.
LAYER_TARGETS = [
    ("seeding.substream", "mode4sim.engine", "substream"),
    ("mobility.step_highway", "mode4sim.engine", "step_highway"),
    ("mobility.load_trace", "mode4sim.engine", "load_trace"),
    ("scenario.pair_legs", "mode4sim.engine", "pair_legs"),
    ("channel.los", "mode4sim.engine", "los_state"),
    ("channel.initial", "mode4sim.channel:ChannelRealization", "initial"),
    ("channel.advance", "mode4sim.channel:ChannelRealization", "advance"),
    ("channel.rx_power_lin", "mode4sim.channel:ChannelRealization", "rx_power_lin"),
    ("phy.subframe_reception", "mode4sim.phy", "subframe_reception"),
    ("phy.subframe_srssi", "mode4sim.phy", "subframe_srssi"),
    ("phy.slot_power_sums", "mode4sim.phy", "slot_power_sums"),
    ("mode4.candidate_set", "mode4sim.mode4", "candidate_set"),
    ("mode4.mac_select", "mode4sim.mode4", "mac_select"),
    ("mode4.on_beacon_period_end", "mode4sim.mode4", "on_beacon_period_end"),
    ("metrics.prr_record", "mode4sim.metrics:PrrAccumulator", "record_arrays"),
    ("metrics.ud_record", "mode4sim.metrics:UdTracker", "record"),
    ("metrics.ud_reset", "mode4sim.metrics:UdTracker", "reset_pairs"),
    ("metrics.hidden_node", "mode4sim.engine", "hidden_node_probability"),
]

# Spans the benchmark opens itself, around its own calls into the package.
SETUP = "engine.setup"
RUN = "engine.run"
WRITE = "cli.write_outputs"

# Reported layers: the wrapped ones, the output writer, and the engine's
# own code as the self time of the run and set-up spans.
LAYERS = [name for name, _, _ in LAYER_TARGETS] + [WRITE, "engine.self", "engine.setup_self"]
SELF_OF = {"engine.self": RUN, "engine.setup_self": SETUP}


# Work counters: span name -> (counter, amount one call adds).
COUNTERS = {
    "phy.subframe_reception": ("phy.tx_rows", lambda args, out: len(args[0])),
    "mode4.candidate_set": ("mode4.candidate_total", lambda args, out: len(out)),
    "mode4.on_beacon_period_end": ("mode4.reselect", lambda args, out: out == "reselect"),
}


def _resolve(path):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Span recorder; `counts` holds the COUNTERS totals."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self._stack = [-1]
        self.counts = {key: 0 for key, _ in COUNTERS.values()}

    def _enter(self, name):
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _exit(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def wrap(self, fn, name):
        """`fn` recording one span per call (enter/exit inlined for speed)."""
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock = self._stack, time.perf_counter
        counts = self.counts

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        if name not in COUNTERS:
            return wrapper
        key, amount = COUNTERS[name]

        def counting_wrapper(*args, **kwargs):
            out = wrapper(*args, **kwargs)
            counts[key] += amount(args, out)
            return out
        return counting_wrapper

    # -- analysis ------------------------------------------------------

    def durations(self, name):
        return [self.ends[i] - self.starts[i]
                for i, n in enumerate(self.names) if n == name]

    def self_times(self):
        """Per span name: (self seconds in set-up, in run, call count).

        A span belongs to set-up when it lies inside an engine.setup span,
        which the hidden-node command opens inside its run.
        """
        n = len(self.names)
        child = [0.0] * n
        in_setup = [False] * n
        out: dict[str, list] = {}
        for i in range(n):
            p = self.parents[i]
            dur = self.ends[i] - self.starts[i]
            if p >= 0:
                child[p] += dur
                in_setup[i] = in_setup[p]
            if self.names[i] == SETUP:
                in_setup[i] = True
        for i in range(n):
            rec = out.setdefault(self.names[i], [0.0, 0.0, 0])
            rec[0 if in_setup[i] else 1] += self.ends[i] - self.starts[i] - child[i]
            rec[2] += 1
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            t0 = self.starts[0] if len(self.starts) else 0.0
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i] - t0:.9f},"
                         f"{self.ends[i] - t0:.9f},{self.parents[i]}\n")


@contextmanager
def patched(tracer: Tracer, layers: bool, engine_class: bool):
    """Install wrappers for the duration of the block, then restore them.

    `layers` wraps every target in LAYER_TARGETS. `engine_class` replaces
    mode4sim.engine.SimulationEngine with a subclass whose construction is an
    engine.setup span, so set-up done inside a command can be told apart from
    its run. Targets the package no longer has are skipped and returned in
    the yielded list, so a renamed layer reads as unmeasured, not as free.
    """
    saved = []
    missing = []
    try:
        if layers:
            for name, path, attr in LAYER_TARGETS:
                owner = _resolve(path)
                if attr not in vars(owner):
                    missing.append(name)
                    continue
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, name)))
                else:
                    setattr(owner, attr, tracer.wrap(raw, name))
        if engine_class:
            import mode4sim.engine as engine_mod
            base = engine_mod.SimulationEngine

            class TimedEngine(base):
                def __init__(self, *args, **kwargs):
                    with tracer.span(SETUP):
                        super().__init__(*args, **kwargs)

            saved.append((engine_mod, "SimulationEngine", base))
            engine_mod.SimulationEngine = TimedEngine
        yield missing
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
