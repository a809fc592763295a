"""Traffic taxonomy and frame arrival generators.

Three families: periodic CBR normal traffic (high/medium/low designation is
an application label, not inferred from rates), coordinator-initiated
on-demand requests, and Poisson emergency events.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Optional

from .core import SimTime, US_PER_S


class TrafficClass(Enum):
    NORMAL_HIGH = "NormalHigh"
    NORMAL_MEDIUM = "NormalMedium"
    NORMAL_LOW = "NormalLow"
    ON_DEMAND_CONTINUOUS = "OnDemandContinuous"
    ON_DEMAND_NON_CONTINUOUS = "OnDemandNonContinuous"
    EMERGENCY = "Emergency"


NORMAL_CLASSES = (TrafficClass.NORMAL_HIGH, TrafficClass.NORMAL_MEDIUM,
                  TrafficClass.NORMAL_LOW)

_PRIORITY = {
    TrafficClass.NORMAL_LOW: 0,
    TrafficClass.NORMAL_MEDIUM: 1,
    TrafficClass.NORMAL_HIGH: 2,
    TrafficClass.ON_DEMAND_NON_CONTINUOUS: 3,
    TrafficClass.ON_DEMAND_CONTINUOUS: 4,
    TrafficClass.EMERGENCY: 5,
}


def priority(cls: TrafficClass) -> int:
    """Total priority order; higher rank wins channel access."""
    return _PRIORITY[cls]


class TrafficSpec(NamedTuple):
    """One node's traffic pattern. CBR classes use period; Emergency uses rate."""

    node: str
    cls: TrafficClass
    payload_bytes: int = 128
    period: Optional[SimTime] = None        # ticks, CBR classes
    rate_per_s: float = 0.0                 # lambda, Emergency
    start_offset: SimTime = 0
    dst: str = "bnc"


def next_occurrence(offset: SimTime, period: SimTime, now: SimTime) -> SimTime:
    """Smallest offset + k*period (k >= 0) strictly greater than now: the
    next normal arrival, or the next start of a wakeup window."""
    if offset > now:
        return offset
    k = (now - offset) // period + 1
    return offset + k * period


def next_emergency(rate_per_s: float, rng, now: SimTime) -> Optional[SimTime]:
    """Poisson arrival: now + Exp(lambda), rounded up to ticks. None if rate 0."""
    if rate_per_s == 0:
        return None
    delay_s = rng.expovariate(rate_per_s)
    return now + max(1, math.ceil(delay_s * US_PER_S))


class OnDemandMode(Enum):
    CONTINUOUS = "Continuous"
    NON_CONTINUOUS = "NonContinuous"


class OnDemandRequest(NamedTuple):
    """A coordinator-initiated information request, issued at tick `at`
    and addressed by a tone to the target alone or by broadcast to all."""

    target: str
    mode: OnDemandMode
    duration: SimTime = 0          # Continuous only
    stream_period: SimTime = US_PER_S
    at: SimTime = 0
    addressing: str = "Tone"       # Tone | Broadcast

    def response_offsets(self) -> list[SimTime]:
        """Offsets of response frames relative to service start."""
        if self.mode is OnDemandMode.NON_CONTINUOUS:
            return [0]
        out = []
        t = 0
        while t < self.duration:
            out.append(t)
            t += self.stream_period
        return out

    @property
    def cls(self) -> TrafficClass:
        if self.mode is OnDemandMode.CONTINUOUS:
            return TrafficClass.ON_DEMAND_CONTINUOUS
        return TrafficClass.ON_DEMAND_NON_CONTINUOUS
