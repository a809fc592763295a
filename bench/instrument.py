"""Timing wrappers the benchmark installs around `bsnsim.runner`.

`install()` replaces `runner.run_one` and `runner.build_network` (the names
that `compare_protocols` and `run_replications` call, serially or in forked
pool workers) and `Simulator.run`. Each run's result then carries, as extra
attributes measured where it ran:

- `bench_run_s`: host seconds inside `run_one`;
- `bench_build_s`: host seconds inside `build_network`;
- `bench_events`: events dispatched by `Simulator.run`;
- `bench_rss_kb`: peak resident memory of the process that ran it;
- `bench_error`: the traceback if the run raised, else None.

A run that raises is returned as an empty `RunMetrics` with `bench_error`
set, so one failed run does not abort its batch. The wrappers cost one
function call per run and per `Simulator.run`, not per event.
"""

from __future__ import annotations

import resource
import time
import traceback

from bsnsim import runner
from bsnsim.core import Simulator
from bsnsim.metrics import RunMetrics


class _Tally:
    """Counters of the run in progress in this process."""

    events = 0
    build_s = 0.0


_original: dict = {}


def install() -> None:
    if _original:
        return
    _original.update(run_one=runner.run_one, build_network=runner.build_network,
                     sim_run=Simulator.run)
    runner.run_one = timed_run_one
    runner.build_network = _timed_build_network
    Simulator.run = _counted_run


def _counted_run(self, until):
    n = _original["sim_run"](self, until)
    _Tally.events += n
    return n


def _timed_build_network(*args, **kwargs):
    t0 = time.perf_counter()
    try:
        return _original["build_network"](*args, **kwargs)
    finally:
        _Tally.build_s += time.perf_counter() - t0


def timed_run_one(scenario, protocol, seed, **kwargs):
    _Tally.events = 0
    _Tally.build_s = 0.0
    t0 = time.perf_counter()
    try:
        m = _original["run_one"](scenario, protocol, seed, **kwargs)
        m.bench_error = None
    except Exception:  # counted as a failed operation, reported by the caller
        m = RunMetrics(seed, protocol, scenario.horizon)
        m.bench_error = traceback.format_exc()
    m.bench_run_s = time.perf_counter() - t0
    m.bench_build_s = _Tally.build_s
    m.bench_events = _Tally.events
    m.bench_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return m
