"""The benchmark's three workloads: what one batch runs, which simulator
seeds it uses, and the checks on its outputs.

A batch is one user-level call, `compare_protocols` or `run_replications`
followed by `aggregate`, exactly as `bsnsim compare` / `bsnsim run` make it.
Every simulation run in a batch is one operation; a run fails when it
raises or when any check that involves it fails.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
from pathlib import Path
from typing import Callable

from bsnsim.core import US_PER_S
from bsnsim.metrics import aggregate
from bsnsim.runner import compare_protocols, run_replications
from bsnsim.scenario import Scenario, load_scenario
from bsnsim.traffic import TrafficClass

# Half-width of the binomial bound in standard deviations. At 6 sd a correct
# run fails a class check with probability ~1e-9, so a benchmark run never
# reports a spurious failure, while a wrong hop rate or a lost hop-product
# (0.9 read instead of 0.72 is 14 sd off) still fails every run.
BINOMIAL_Z = 6.0

# Energy may overshoot a budget only by float rounding of the ledger sums.
ENERGY_REL_TOL = 1e-9

RunKey = tuple[str, str, int]  # (scenario, protocol, seed)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple[str, ...]
    protocols: tuple[str, ...]
    reps: int            # simulator seeds per batch
    sample: int          # seeds of batch 0 re-run serially by the traced pass
    compare: bool        # compare_protocols (paired seeds) or run_replications
    check: Callable      # (scenarios, runs, fail, src_root): the workload's own checks

    def seeds(self, bench_seed: int, batch: int, count: int = 0) -> list[int]:
        """Simulator seeds of one batch; distinct for every (seed, batch)."""
        first = bench_seed * 100_000 + batch * self.reps
        return list(range(first, first + (count or self.reps)))

    def load(self) -> dict[str, Scenario]:
        return {name: load_scenario(name) for name in self.scenarios}

    def run_batch(self, scenarios: dict[str, Scenario], seeds: list[int],
                  workers: int) -> dict[RunKey, object]:
        """One user-level batch; returns every run keyed by (scenario, protocol, seed)."""
        runs = {}
        for name, sc in scenarios.items():
            if self.compare:
                sc = dataclasses.replace(sc, seed_base=seeds[0])
                out = compare_protocols(sc, list(self.protocols),
                                        reps=len(seeds), workers=workers)
                by_protocol = out["runs"]
            else:
                by_protocol = {}
                for protocol in self.protocols:
                    batch = run_replications(sc, protocol, seeds=seeds,
                                             workers=workers)
                    aggregate(batch)
                    by_protocol[protocol] = batch
            for protocol, batch in by_protocol.items():
                for m in batch:
                    runs[(name, protocol, m.seed)] = m
        return runs


# -- results digest ---------------------------------------------------------

def run_record(m) -> dict:
    """What a run reports: metric_values() and death times, exactly."""
    return {
        "metrics": sorted([k[0], k[1], repr(v)]
                          for k, v in m.metric_values().items()),
        "deaths": sorted([n, t] for n, t in m.node_death_us.items()),
    }


def digest(runs: dict[RunKey, object]) -> str:
    payload = json.dumps([[list(k), run_record(runs[k])] for k in sorted(runs)])
    return hashlib.sha256(payload.encode()).hexdigest()


# -- output checks ----------------------------------------------------------

def check_batch(workload: Workload, scenarios: dict[str, Scenario],
                runs: dict[RunKey, object], src_root: Path) -> dict[RunKey, str]:
    """Every failed run of a batch, with the first reason it failed."""
    failed: dict[RunKey, str] = {}

    def fail(keys, reason):
        for k in keys:
            failed.setdefault(k, reason)

    for key, m in runs.items():
        error = getattr(m, "bench_error", None)
        if error:
            fail([key], f"raised: {error.strip().splitlines()[-1]}")
            continue
        reason = _check_common(scenarios[key[0]], m)
        if reason:
            fail([key], reason)
    workload.check(scenarios, runs, fail, src_root)
    return failed


def _check_common(sc: Scenario, m) -> str:
    """Per-class frame conservation and per-node energy within its budget."""
    for cls, cc in m.counts.items():
        if min(cc.generated, cc.delivered, cc.dropped, cc.in_flight) < 0 or \
                cc.generated != cc.delivered + cc.dropped + cc.in_flight:
            return f"frame conservation broken for {cls.value}: {cc}"
    for spec in sc.nodes:
        used = m.node_energy_j.get(spec.id)
        if used is None:
            return f"no energy reported for node {spec.id}"
        if spec.initial_j is not None and \
                used > spec.initial_j * (1.0 + ENERGY_REL_TOL):
            return f"node {spec.id} used {used!r} J of a {spec.initial_j} J budget"
    return ""


def _check_fig2(scenarios, runs, fail, src_root) -> None:
    pdr = {}
    for protocol in ("csma802154", "pbtdma", "smac"):
        values = [m.pdr("all") for (_, p, _), m in runs.items() if p == protocol]
        pdr[protocol] = sum(values) / len(values) if None not in values else None
    if None in pdr.values() or not (
            pdr["csma802154"] > pdr["pbtdma"] and pdr["csma802154"] > pdr["smac"]):
        fail(list(runs), f"mean PDR ordering broken: {pdr}")
    for key, m in runs.items():
        if key[1] == "pbtdma" and m.collisions != 0:
            fail([key], f"pbtdma counted {m.collisions} collisions")


def _check_tbw(scenarios, runs, fail, src_root) -> None:
    for key, m in runs.items():
        em = m.counts.get(TrafficClass.EMERGENCY)
        if em is None:
            continue  # no emergency arose (about 3e-7 of runs)
        if em.dropped:
            fail([key], f"{em.dropped} emergencies dropped")
        elif len(m.emergency_access_delays_us) != em.delivered or \
                max(m.emergency_access_delays_us, default=0) >= US_PER_S:
            fail([key], "emergency access delay >= 1 s")
    for (name, protocol, seed), m in runs.items():
        if protocol != "tbw":
            continue
        pair = (name, "tbw_alwayson", seed)
        base = runs[pair]
        delivered = sum(c.delivered for c in m.counts.values())
        delivered_base = sum(c.delivered for c in base.counts.values())
        if not m.node_energy_j.get("bnc", math.inf) < \
                base.node_energy_j.get("bnc", -math.inf):
            fail([(name, protocol, seed), pair],
                 "tbw coordinator used no less energy than tbw_alwayson")
        elif abs(delivered - delivered_base) > 1:
            fail([(name, protocol, seed), pair],
                 f"delivered {delivered} vs {delivered_base} differ by > 1")


def _check_empirical(scenarios, runs, fail, src_root) -> None:
    expected = {name: expected_delivery(sc, _link_rates(sc, src_root))
                for name, sc in scenarios.items()}
    for key, m in runs.items():
        for cls, cc in m.counts.items():
            n, mean, var = expected[key[0]].get(cls, (0, 0.0, 0.0))
            if n != cc.generated:
                fail([key], f"{cls.value}: generated {cc.generated}, "
                            f"the traffic specs give {n}")
                break
            slack = BINOMIAL_Z * math.sqrt(var) + 0.5 + cc.in_flight
            if abs(cc.delivered - mean) > slack:
                fail([key], f"{cls.value}: delivered {cc.delivered}, expected "
                            f"{mean:.1f} +- {slack:.1f}")
                break


def _link_rates(sc: Scenario, src_root: Path) -> dict[tuple[str, str], float]:
    """Success rates of the scenario's posture, read from its CSV directly."""
    name = sc.channel_model["link_matrix_csv"]
    path = src_root / "bsnsim" / "data" / f"{name}.csv"
    posture = sc.channel_model["posture"].lower()
    with open(path, newline="") as fh:
        return {(row["src"].strip(), row["dst"].strip()): float(row["success_rate"])
                for row in csv.DictReader(fh)
                if row["posture"].strip().lower() == posture}


def expected_delivery(sc: Scenario, rates: dict[tuple[str, str], float]):
    """Per class: (frames generated, expected delivered, binomial variance).

    A CBR flow sends at offset + k*period for every instant up to the
    horizon. It takes one hop when both ends share a channel and neither is
    in-body (or one end is the bridge); otherwise it is relayed by the
    bridge and its rate is the product of the two hop rates.
    """
    nodes = {n.id: n for n in sc.nodes}
    bridge = sc.bridge["node"] if sc.bridge else None
    out: dict[TrafficClass, tuple[int, float, float]] = {}
    for spec in sc.traffic:
        if spec.start_offset > sc.horizon:
            continue
        count = (sc.horizon - spec.start_offset) // spec.period + 1
        src, dst = nodes[spec.node], nodes[spec.dst]
        direct = (src.channel == dst.channel
                  and "inbody" not in (src.kind, dst.kind)) or \
            bridge in (src.id, dst.id) or bridge is None
        if direct:
            p = rates.get((src.site, dst.site), 0.0)
        else:
            via = nodes[bridge].site
            p = rates.get((src.site, via), 0.0) * rates.get((via, dst.site), 0.0)
        n, mean, var = out.get(spec.cls, (0, 0.0, 0.0))
        out[spec.cls] = (n + count, mean + count * p, var + count * p * (1 - p))
    return out


WORKLOADS = {w.name: w for w in (
    Workload("fig2_compare", ("paper_fig2",),
             ("csma802154", "pbtdma", "smac"), reps=2, sample=1, compare=True,
             check=_check_fig2),
    Workload("tbw_wakeup", ("tbw_emergency",),
             ("tbw", "tbw_alwayson"), reps=200, sample=20, compare=True,
             check=_check_tbw),
    Workload("empirical_bridge", ("bridge_inbody", "table1_links"),
             ("direct",), reps=30, sample=4, compare=False,
             check=_check_empirical),
)}
