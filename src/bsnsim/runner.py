"""Network assembly and replication driver.

One run = one seeded Simulator, one Medium, one Node+MAC per scenario node,
traffic sources, and an optional Bridge. Replications are fully
independent and may execute in parallel worker processes; results merge in
seed order either way.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from .bridging import Bridge, ViaBridge
from .channel import Medium
from .core import Simulator
from .frames import Mpdu
from .mac import mac_class
from .metrics import RunMetrics, aggregate
from .node import Node
from .scenario import Scenario
from .traffic import TrafficClass, TrafficSpec, next_emergency, next_occurrence


class Network:
    """Shared run context handed to every MAC."""

    def __init__(self, sim: Simulator, medium: Medium, scenario: Scenario,
                 metrics: RunMetrics):
        self.sim = sim
        self.medium = medium
        self.scenario = scenario
        self.metrics = metrics
        self.bnc_id = scenario.bnc
        self.nodes: dict[str, Node] = {}
        self.coordinator_mac = None
        self.bridge: Optional[Bridge] = None
        self._seqs: dict[str, int] = {}

    def new_mpdu(self, src: str, dst: str, cls: TrafficClass,
                 payload_bytes: int = 128) -> Mpdu:
        seq = self._seqs.get(src, 0)
        self._seqs[src] = seq + 1
        mpdu = Mpdu(seq=seq, src=src, dst=dst, cls=cls,
                    payload_bytes=payload_bytes, created_at=self.sim.now)
        self.metrics.on_generated(mpdu)
        return mpdu

    def link_dst(self, mpdu: Mpdu) -> str:
        """First-hop link destination for a frame leaving its source."""
        if self.bridge is None:
            return mpdu.dst
        route = self.scenario.routes[mpdu.src, mpdu.dst]  # checked at load
        return route.bridge if isinstance(route, ViaBridge) else mpdu.dst

    def handle_data_delivery(self, node: Node, mpdu: Mpdu) -> None:
        if mpdu.dst == node.node_id:
            self.metrics.on_delivered(mpdu, self.sim.now)
            return
        if self.bridge is not None and node is self.bridge.node:
            self.bridge.relay(mpdu)


def protocol_settings(scenario: Scenario, protocol: str) -> dict:
    """The settings a run of `protocol` on `scenario` hands to every MAC.
    Raises ValueError when the protocol cannot run it."""
    mac_cls = mac_class(protocol)
    if scenario.on_demand and not hasattr(mac_cls, "issue_request"):
        raise ValueError(f"{protocol} cannot serve the scenario's on-demand "
                         f"requests")
    return mac_cls.settings(scenario)


def build_network(scenario: Scenario, protocol: str, seed: int, *,
                  trace: bool = False, keep_tx_log: bool = False):
    settings = protocol_settings(scenario, protocol)
    mac_cls = mac_class(protocol)
    sim = Simulator(master_seed=seed, trace=trace)
    medium = Medium(sim, scenario, keep_tx_log)
    metrics = RunMetrics(seed, protocol, scenario.horizon)
    network = Network(sim, medium, scenario, metrics)

    profile_key = scenario.protocol_profiles[protocol] or mac_cls.profile
    macs = []
    coordinator_spec = scenario.node(scenario.bnc)
    ordered = [coordinator_spec] + [n for n in scenario.nodes
                                    if n.id != scenario.bnc]
    for spec in ordered:
        profile = scenario.power_profiles[spec.profile or profile_key]
        node = Node(sim, medium, spec.id, site=spec.site,
                    position=spec.position, profile=profile,
                    initial_j=spec.initial_j, tx_power_dbm=spec.tx_power_dbm,
                    horizon_hint=scenario.horizon)
        network.nodes[spec.id] = node
        mac = mac_cls(node, network, settings)
        macs.append(mac)
        if spec.id == scenario.bnc:
            network.coordinator_mac = mac

    if scenario.bridge is not None:
        bridge = scenario.bridge
        network.bridge = Bridge(network, network.nodes[bridge["node"]],
                                bridge["interfaces"], bridge["store_capacity"])

    for mac in macs:
        mac.start()
    _schedule_traffic(network)
    return network, macs


def _schedule_traffic(network: Network) -> None:
    sim = network.sim
    scenario = network.scenario
    horizon = scenario.horizon

    def arm(spec: TrafficSpec) -> None:
        if spec.cls is TrafficClass.EMERGENCY:
            rng = sim.stream(f"traffic:{spec.node}")
            t = next_emergency(spec.rate_per_s, rng, sim.now)
            kind = "traffic_emergency"
        else:
            t = next_occurrence(spec.start_offset, spec.period, sim.now)
            kind = "traffic_arrival"
        if t is None or t > horizon:
            return
        node = network.nodes[spec.node]

        def fire():
            mpdu = network.new_mpdu(spec.node, spec.dst, spec.cls,
                                    spec.payload_bytes)
            node.mac.enqueue(mpdu)
            arm(spec)

        node.at(t, kind, fire)  # a dead node generates nothing

    for spec in scenario.traffic:
        arm(spec)

    for request in scenario.on_demand:
        if request.at <= horizon:
            network.nodes[scenario.bnc].at(
                request.at, "on_demand",
                partial(network.coordinator_mac.issue_request, request))


def run_one(scenario: Scenario, protocol: str, seed: int, *,
            trace: bool = False) -> RunMetrics:
    network, macs = build_network(scenario, protocol, seed, trace=trace)
    sim = network.sim
    sim.run(scenario.horizon)
    metrics = network.metrics
    leftovers: list[Mpdu] = []
    for mac in macs:
        leftovers.extend(mac.pending_frames())
    if network.bridge is not None:
        leftovers.extend(network.bridge.pending())
    for node in network.nodes.values():
        node.finalize()
        metrics.node_energy_j[node.node_id] = node.consumed_j()
        metrics.node_death_us[node.node_id] = node.death_time
    metrics.collisions = network.medium.data_collisions
    metrics.finalize(leftovers)
    if trace:
        metrics.trace_lines = list(sim.trace_lines)
    return metrics


_scenario: Optional[Scenario] = None  # the batch's scenario, in a pool worker


def _init_worker(scenario: Scenario) -> None:
    global _scenario
    _scenario = scenario


def _pool_run(job):
    return run_one(_scenario, *job)


def _run_jobs(scenario: Scenario, jobs: list, workers: int) -> list[RunMetrics]:
    """Run every (protocol, seed) job of one batch; results in job order.

    A forked worker inherits the scenario once, through the pool initializer,
    so a job carries only its protocol and seed. Jobs go out in chunks of
    about a twentieth of each worker's share: a small batch is sent one job
    at a time, so no worker is left with a tail of long runs.
    """
    if workers <= 1 or len(jobs) <= 1:
        return [run_one(scenario, *job) for job in jobs]
    import multiprocessing  # here, so that a serial run never loads it
    workers = min(workers, len(jobs))
    chunksize = max(1, len(jobs) // (20 * workers))
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers, initializer=_init_worker,
                  initargs=(scenario,)) as pool:
        return pool.map(_pool_run, jobs, chunksize=chunksize)


def run_replications(scenario: Scenario, protocol: str, seeds: list[int],
                     workers: int = 1) -> list[RunMetrics]:
    return _run_jobs(scenario, [(protocol, s) for s in seeds], workers)


def compare_protocols(scenario: Scenario, protocols: list[str],
                      reps: Optional[int] = None, workers: int = 1) -> dict:
    """Paired-seed comparison; returns per-protocol runs and aggregates."""
    if len(protocols) < 2:
        raise ValueError("need >= 2 protocols to compare")
    repeated = sorted({p for p in protocols if protocols.count(p) > 1})
    if repeated:
        raise ValueError(f"protocols listed more than once: "
                         f"{', '.join(repeated)}")
    seeds = scenario.seeds(reps)
    out = {"seeds": seeds, "runs": {}, "aggregates": {}, "ordering": []}
    results = _run_jobs(scenario, [(p, s) for p in protocols for s in seeds],
                        workers)
    for i, protocol in enumerate(protocols):
        runs = results[i * len(seeds):(i + 1) * len(seeds)]
        out["runs"][protocol] = runs
        out["aggregates"][protocol] = aggregate(runs)
    shared = None
    for agg in out["aggregates"].values():
        keys = set(agg.stats)
        shared = keys if shared is None else shared & keys
    for key in sorted(shared):
        ranked = sorted(protocols,
                        key=lambda p: out["aggregates"][p].stats[key].mean,
                        reverse=True)
        line = f"{key[0]}[{key[1]}]: " + " > ".join(
            f"{p}={out['aggregates'][p].stats[key].mean:.6g}" for p in ranked)
        out["ordering"].append(line)
    return out
