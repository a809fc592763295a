"""bsnsim benchmark: paired-seed MAC comparisons timed end to end and per module.

Usage (from the repository root):

    python3 bench/run.py --workload fig2_compare --seed 1 --seconds 20 --trace 0

With --trace 0 it runs the workload's batches on a pool of min(2, nproc)
workers for --seconds and prints the end-to-end metrics. With --trace 1 it
runs batch 0 on the pool, re-runs a sample of it serially without and then
with the profiler, checks that all three agree, and prints the per-layer
metrics. The last line of stdout is the result as one JSON object. See
bench/README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Fresh-interpreter set-ups timed per run, at least. One follows every batch,
# so that they sample the same stretch of host time as the batches do.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

if not (SRC / "bsnsim" / "__init__.py").is_file():
    sys.exit(f"bench: no bsnsim sources under {SRC}; run from a bsnsim checkout")
sys.path.insert(0, str(SRC))

import bsnsim  # noqa: E402
from bsnsim.mac import PROTOCOLS  # noqa: E402

if not Path(bsnsim.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"bench: imported bsnsim from {bsnsim.__file__}, not {SRC}")

import instrument  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, check_batch, digest, run_record  # noqa: E402

WORKERS = min(2, len(os.sched_getaffinity(0)))



def metric_names(kind: str) -> dict[str, str]:
    """Metric name -> unit, as listed in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def setup_seconds(workload) -> float:
    """One set-up of the workload, timed in a fresh interpreter."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC),
           workload.protocols[0], *workload.scenarios]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    return float(out.stdout.strip().splitlines()[-1])


class Tally:
    """Operations attempted and failed, with the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def batch(self, workload, scenarios, runs) -> None:
        failures = check_batch(workload, scenarios, runs, SRC)
        self.attempted += len(runs)
        self.failed += len(failures)
        for key, reason in sorted(failures.items())[:5]:
            print(f"FAILED {key}: {reason}", file=sys.stderr)

    def global_check(self, ok: bool, message: str) -> None:
        if not ok:
            self.correct = False
            print(f"CHECK FAILED: {message}", file=sys.stderr)


def run_batch(workload, scenarios, seeds, tally, label):
    t0 = time.perf_counter()
    runs = workload.run_batch(scenarios, seeds, WORKERS)
    wall = time.perf_counter() - t0
    tally.batch(workload, scenarios, runs)
    print(f"{label} seeds {seeds[0]}..{seeds[-1]}: {len(runs)} runs, "
          f"wall {wall:.3f} s, digest {digest(runs)}")
    return runs, wall


def end_to_end(workload, seed: int, seconds: int, tally: Tally) -> dict:
    setup_seconds(workload)  # compiles bytecode, which users pay once
    scenarios = workload.load()
    walls, rates, setups, rss_kb = [], [], [], 0
    deadline = time.perf_counter() + seconds
    batch = 0
    while batch == 0 or time.perf_counter() < deadline:
        runs, wall = run_batch(workload, scenarios, workload.seeds(seed, batch),
                               tally, f"batch {batch}")
        walls.append(wall)
        run_s = sum(m.bench_run_s for m in runs.values())
        rates.append(sum(m.bench_events for m in runs.values()) / run_s)
        rss_kb = max([rss_kb] + [m.bench_rss_kb for m in runs.values()])
        del runs  # later pools fork from this process; keep it small
        setups.append(setup_seconds(workload))
        batch += 1
    while len(setups) < SETUP_PROBES:
        setups.append(setup_seconds(workload))
    tally.global_check(min(rates) > 0, "a batch dispatched no event")
    print(f"medians of {batch} batches and {len(setups)} set-ups")
    return {"wall_s": statistics.median(walls),
            "events_per_s": statistics.median(rates),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss_kb / 1024.0}


def same_results(tally, label, runs, reference) -> None:
    for key, m in runs.items():
        tally.attempted += 1
        if getattr(m, "bench_error", None) or \
                run_record(m) != run_record(reference[key]):
            tally.failed += 1
            print(f"FAILED {key}: {label} run differs from the pool run",
                  file=sys.stderr)


def per_layer(workload, seed: int, tally: Tally) -> dict:
    scenarios = workload.load()
    pool_runs, pool_wall = run_batch(workload, scenarios, workload.seeds(seed, 0),
                                     tally, "pool batch 0")
    out: dict[str, float] = {}
    for protocol in PROTOCOLS:
        times = [m.bench_run_s for (_, p, _), m in pool_runs.items() if p == protocol]
        out[f"runner.run_s.{protocol}"] = statistics.median(times) if times else 0.0
    busy = sum(m.bench_run_s for m in pool_runs.values())
    out["runner.pool_idle_s"] = WORKERS * pool_wall - busy

    sample = workload.seeds(seed, 0, workload.sample)
    t0 = time.perf_counter()
    serial = workload.run_batch(scenarios, sample, 1)
    out["untraced.wall_s"] = time.perf_counter() - t0
    out["runner.build_s"] = sum(m.bench_build_s for m in serial.values())
    same_results(tally, "serial", serial, pool_runs)

    traced, wall, profiler, sims = layers.traced(
        lambda: workload.run_batch(scenarios, sample, 1))
    same_results(tally, "traced", traced, pool_runs)
    out["traced.wall_s"] = wall
    out["traced.overhead"] = wall / out["untraced.wall_s"]

    self_s = layers.self_times(profiler, SRC / "bsnsim", BENCH_DIR)
    listed = [n for n in metric_names("per_layer") if n.endswith(".self_s")]
    for name in listed:
        out[name] = self_s.get(name.removesuffix(".self_s"), 0.0)
    out["traced.unattributed_s"] = wall - sum(out[name] for name in listed)
    tally.global_check(out["traced.unattributed_s"] >= 0,
                       "layer self times exceed the traced wall time")
    out.update(layers.call_counts(profiler))

    scheduled = sum((s.scheduled for s in sims), Counter())
    cancelled = sum((s.cancelled for s in sims), Counter())
    dispatched = sum((s.dispatched() for s in sims), Counter())
    total_dispatched = sum(s.dispatched_total for s in sims)
    tally.global_check(sum(dispatched.values()) == total_dispatched,
                       f"event accounting: {sum(dispatched.values())} by kind "
                       f"!= {total_dispatched} dispatched")
    out["core.events_scheduled"] = sum(scheduled.values())
    out["core.events_dispatched"] = total_dispatched
    out["core.events_cancelled"] = sum(cancelled.values())
    out["core.dispatch_ratio"] = total_dispatched / max(1, out["core.events_scheduled"])
    out["core.heap_peak"] = max((s.heap_peak for s in sims), default=0)
    for kind, n in dispatched.items():
        out[f"core.dispatched.{kind}"] = n
    for kind, n in cancelled.items():
        out[f"core.cancelled.{kind}"] = n
    print(f"traced {len(traced)} runs: {wall:.3f} s traced vs "
          f"{out['untraced.wall_s']:.3f} s untraced; "
          f"{total_dispatched} events dispatched")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    workload = WORKLOADS[args.workload]
    instrument.install()
    tally = Tally()
    kind = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        values = per_layer(workload, args.seed, tally)
    else:
        values = end_to_end(workload, args.seed, args.seconds, tally)
    units = metric_names(kind)
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in units.items()}
    unlisted = sorted(set(values) - set(units))
    if unlisted:
        print(f"measured but not listed in BENCHMARK.json: {unlisted}",
              file=sys.stderr)
    print(json.dumps({"correct": tally.correct,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
