"""Traffic-based wakeup table entries.

A scenario's wakeup table holds at most one periodic window per device and
is fixed at load. The coordinator wakes for each window widened by a guard
margin on both sides and sleeps whenever no widened window is open
(`WakeupEntry.guarded_open`), so that, apart from emergency and on-demand
exchanges, it is awake for exactly the union of the guarded windows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import SimTime
from .traffic import TrafficClass


@dataclass(frozen=True)
class WakeupEntry:
    """One node's periodic window: awake [offset + k*period, + window)."""

    node: str
    period: SimTime
    offset: SimTime = 0
    window: SimTime = 0
    cls: TrafficClass = TrafficClass.NORMAL_MEDIUM

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        if not 0 < self.window <= self.period:
            raise ValueError("window must satisfy 0 < window <= period")
        if self.offset < 0:
            raise ValueError("offset must be non-negative")

    def guarded_open(self, now: SimTime, guard: SimTime) -> bool:
        """Whether now lies in a window widened by guard on both sides."""
        k = (now + guard - self.offset) // self.period  # latest one begun
        return k >= 0 and now < self.offset + k * self.period + self.window + guard
