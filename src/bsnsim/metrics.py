"""Per-run counters and cross-replication statistics."""

from __future__ import annotations

import math
from array import array
from typing import Iterable, NamedTuple, Optional

from .core import SimTime
from .frames import Mpdu
from .traffic import TrafficClass


class ClassCounts:
    __slots__ = ("generated", "delivered", "dropped", "in_flight")

    def __init__(self, generated: int = 0, delivered: int = 0,
                 dropped: int = 0, in_flight: int = 0):
        self.generated = generated
        self.delivered = delivered
        self.dropped = dropped
        self.in_flight = in_flight

    def __repr__(self) -> str:
        return (f"ClassCounts(generated={self.generated}, delivered="
                f"{self.delivered}, dropped={self.dropped}, in_flight="
                f"{self.in_flight})")


class RunMetrics:
    """Everything one replication reports.

    Every generated frame is disposed exactly once (delivered or dropped) or
    counted in flight at the horizon, so per-class conservation holds:
    generated == delivered + dropped + in_flight.

    Each class's delay samples are one `array('q')` of microseconds, so a
    result holds and pickles them as one buffer per class.
    """

    def __init__(self, seed: int, protocol: str = "", horizon: SimTime = 0):
        self.seed = seed
        self.protocol = protocol
        self.horizon = horizon
        self.counts: dict[TrafficClass, ClassCounts] = {}
        self.latency_us: dict[TrafficClass, array] = {}
        self.collisions = 0
        self.bridge_drops = 0
        self.wakeup_failures = 0
        self.csma_failures = 0
        self.node_energy_j: dict[str, float] = {}
        self.node_death_us: dict[str, Optional[SimTime]] = {}

    def _cc(self, cls: TrafficClass) -> ClassCounts:
        cc = self.counts.get(cls)
        if cc is None:
            cc = self.counts[cls] = ClassCounts()
        return cc

    @property
    def emergency_access_delays_us(self) -> memoryview:
        """The Emergency class's delay samples, read-only. The samples cannot
        grow while a view is held, so read it once the run is over."""
        samples = self.latency_us.get(TrafficClass.EMERGENCY, array("q"))
        return memoryview(samples).toreadonly()

    def on_generated(self, mpdu: Mpdu) -> None:
        self._cc(mpdu.cls).generated += 1

    def on_delivered(self, mpdu: Mpdu, at: SimTime) -> bool:
        """Count a final-destination delivery once; duplicates are ignored."""
        if mpdu.disposed is not None:
            return False
        mpdu.disposed = "delivered"
        cc = self._cc(mpdu.cls)
        cc.delivered += 1
        samples = self.latency_us.get(mpdu.cls)
        if samples is None:
            samples = self.latency_us[mpdu.cls] = array("q")
        samples.append(at - mpdu.created_at)
        return True

    def on_dropped(self, mpdu: Mpdu) -> bool:
        if mpdu.disposed is not None:
            return False
        mpdu.disposed = "dropped"
        self._cc(mpdu.cls).dropped += 1
        return True

    def finalize(self, leftover: Iterable[Mpdu]) -> None:
        """Mark undisposed frames in flight and assert conservation."""
        for mpdu in leftover:
            if mpdu.disposed is None:
                mpdu.disposed = "in_flight"
                self._cc(mpdu.cls).in_flight += 1
        for cls, cc in self.counts.items():
            if cc.generated != cc.delivered + cc.dropped + cc.in_flight:
                raise AssertionError(
                    f"frame conservation violated for {cls.value}: "
                    f"{cc.generated} != {cc.delivered}+{cc.dropped}+{cc.in_flight}")

    # Reporting ------------------------------------------------------------

    def pdr(self, class_filter="all") -> Optional[float]:
        generated = delivered = 0
        for cls, cc in self.counts.items():
            if class_filter == "all" or cls.value == class_filter or cls is class_filter:
                generated += cc.generated
                delivered += cc.delivered
        if generated == 0:
            return None
        return delivered / generated

    def metric_values(self) -> dict[tuple[str, str], float]:
        """Flat (metric, qualifier) -> value map used for CSVs and aggregation."""
        out: dict[tuple[str, str], float] = {}
        p = self.pdr("all")
        if p is not None:
            out[("pdr", "all")] = p
        for cls, cc in self.counts.items():
            if cc.generated:
                out[("pdr", cls.value)] = cc.delivered / cc.generated
            out[("generated", cls.value)] = cc.generated
            out[("delivered", cls.value)] = cc.delivered
            out[("dropped", cls.value)] = cc.dropped
            out[("in_flight", cls.value)] = cc.in_flight
        all_lat = [v for samples in self.latency_us.values() for v in samples]
        if all_lat:
            out[("latency_mean_us", "all")] = sum(all_lat) / len(all_lat)
            out[("latency_p95_us", "all")] = percentile(all_lat, 95)
        d = self.latency_us.get(TrafficClass.EMERGENCY)
        if d:
            out[("emergency_delay_max_us", "Emergency")] = max(d)
            out[("emergency_delay_p50_us", "Emergency")] = percentile(d, 50)
        out[("collisions", "all")] = self.collisions
        out[("bridge_drops", "all")] = self.bridge_drops
        out[("wakeup_failures", "all")] = self.wakeup_failures
        out[("csma_failures", "all")] = self.csma_failures
        for node, j in self.node_energy_j.items():
            out[("consumed_j", node)] = j
        return out


def percentile(samples: list, p: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * n)-th order statistic."""
    if not samples:
        raise ValueError("empty samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Stats(NamedTuple):
    mean: float
    std: float
    min: float
    max: float
    n: int


class Aggregate:
    """Mean / sample std / min / max per metric over replications."""

    def __init__(self, stats: dict[tuple[str, str], Stats], n_runs: int):
        self.stats = stats
        self.n_runs = n_runs

    def get(self, metric: str, qualifier: str = "all") -> Optional[Stats]:
        return self.stats.get((metric, qualifier))


def aggregate(runs: list[RunMetrics]) -> Aggregate:
    if not runs:
        raise ValueError("need at least one run to aggregate")
    per_key: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        for key, value in run.metric_values().items():
            per_key.setdefault(key, []).append(float(value))
    stats = {}
    for key, values in per_key.items():
        n = len(values)
        mean = sum(values) / n
        if n > 1:
            var = sum((v - mean) ** 2 for v in values) / (n - 1)
            std = math.sqrt(var)
        else:
            std = 0.0
        stats[key] = Stats(mean=mean, std=std, min=min(values), max=max(values), n=n)
    return Aggregate(stats, len(runs))
