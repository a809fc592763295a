"""The traced pass: per-module self time from a deterministic profile, and
event-core counts from a counting `Simulator` subclass.

Self time of a layer (a module of `src/bsnsim`) is the time spent in its
own functions plus the time spent in the standard library and built-ins
that it called. cProfile records, per function, its own time and the share
of it spent under each caller; time in a function outside `bsnsim` is
handed to its callers in that proportion, level by level, until it reaches
a `bsnsim` function. Whatever reaches none (the benchmark's own frames and
the profiler's cost outside any function) is left unattributed, so the
layers plus `traced.unattributed_s` add up to `traced.wall_s`.
"""

from __future__ import annotations

import cProfile
import time
from collections import Counter, defaultdict
from pathlib import Path

from bsnsim import runner
from bsnsim.channel import Medium
from bsnsim.core import Simulator
from bsnsim.node import Node, Radio

HARNESS = "harness"

# Program calls counted from the profile: metric name -> the function.
CALL_COUNTS = {
    "core.stream_lookups": Simulator.stream,
    "channel.tx_started": Medium.begin_tx,
    "channel.cca_calls": Medium.cca_busy,
    "channel.receptions_resolved": Medium._resolve,
    "node.state_changes": Radio._apply,
    "node.death_reaims": Node.power_changed,
}


class CountingSimulator(Simulator):
    """A Simulator that also counts events by kind and the heap high-water mark."""

    created: list["CountingSimulator"] = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scheduled: Counter = Counter()
        self.cancelled: Counter = Counter()
        self.heap_peak = 0
        self.dispatched_total = 0
        CountingSimulator.created.append(self)

    def schedule_at(self, fire_at, kind, target, fn):
        ev = super().schedule_at(fire_at, kind, target, fn)
        self.scheduled[kind] += 1
        if len(self._heap) > self.heap_peak:
            self.heap_peak = len(self._heap)
        return ev

    def cancel(self, event):
        done = super().cancel(event)
        if done:
            self.cancelled[event.kind] += 1
        return done

    def run(self, until):
        n = super().run(until)
        self.dispatched_total += n
        return n

    def dispatched(self) -> Counter:
        """Scheduled minus cancelled minus still pending past the horizon."""
        pending = Counter(ev.kind for _, _, ev in self._heap if not ev.cancelled)
        out = Counter(self.scheduled)
        out.subtract(self.cancelled)
        out.subtract(pending)
        return +out


def traced(fn):
    """Run fn() under cProfile with CountingSimulator in place of Simulator.

    Returns (fn's result, wall seconds, profiler, simulators created).
    """
    CountingSimulator.created = []
    runner.Simulator = CountingSimulator
    profiler = cProfile.Profile()
    try:
        t0 = time.perf_counter()
        profiler.enable()
        try:
            result = fn()
        finally:
            profiler.disable()
        wall = time.perf_counter() - t0
    finally:
        runner.Simulator = Simulator
    return result, wall, profiler, list(CountingSimulator.created)


def layer_of(filename: str, src_pkg: Path, harness_dir: Path):
    """'mac.csma' for src/bsnsim/mac/csma.py; HARNESS for the benchmark's files."""
    if filename.startswith("<") or filename == "~":
        return None
    path = Path(filename).resolve()
    if path.is_relative_to(harness_dir):
        return HARNESS
    if not path.is_relative_to(src_pkg):
        return None
    parts = list(path.relative_to(src_pkg).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts = parts[:-1] or ["bsnsim"]
    return ".".join(parts)


def self_times(profiler: cProfile.Profile, src_pkg: Path,
               harness_dir: Path) -> dict[str, float]:
    profiler.create_stats()
    stats = profiler.stats  # func -> (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)})
    owner_cache: dict = {}

    def owner(func):
        if func not in owner_cache:
            owner_cache[func] = layer_of(func[0], src_pkg, harness_dir)
        return owner_cache[func]

    shares_memo: dict = {}

    def shares(func) -> dict[str, float]:
        """Fraction of func's calls made on behalf of each layer."""
        layer = owner(func)
        if layer is not None:
            return {layer: 1.0}
        if func in shares_memo:
            return shares_memo[func]
        shares_memo[func] = {}  # a cycle through non-program code owns nothing
        callers = stats[func][4] if func in stats else {}
        total = sum(edge[3] for edge in callers.values())
        out: dict[str, float] = defaultdict(float)
        if total > 0:
            for caller, edge in callers.items():
                for layer, frac in shares(caller).items():
                    out[layer] += frac * edge[3] / total
        shares_memo[func] = out
        return out

    result: dict[str, float] = defaultdict(float)
    for func, (_, _, tt, _, callers) in stats.items():
        layer = owner(func)
        if layer is not None:
            result[layer] += tt
            continue
        total = sum(edge[2] for edge in callers.values())
        if total <= 0:
            continue
        for caller, edge in callers.items():
            for layer, frac in shares(caller).items():
                result[layer] += tt * edge[2] / total * frac
    return dict(result)


def call_counts(profiler: cProfile.Profile) -> dict[str, int]:
    stats = profiler.stats
    return {name: stats.get(cProfile.label(fn.__code__), (0, 0))[1]
            for name, fn in CALL_COUNTS.items()}
