"""Traffic-based wakeup table entries.

A scenario's wakeup table holds at most one periodic window per device and
is fixed at load. The coordinator wakes for each window widened by a guard
margin on both sides and sleeps whenever no widened window is open
(`WakeupEntry.guarded_open`), so that, apart from emergency and on-demand
exchanges, it is awake for exactly the union of the guarded windows.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import SimTime


class WakeupEntry(NamedTuple):
    """One node's periodic window: awake [offset + k*period, + window)."""

    node: str
    period: SimTime
    offset: SimTime = 0
    window: SimTime = 0

    def guarded_open(self, now: SimTime, guard: SimTime) -> bool:
        """Whether now lies in a window widened by guard on both sides."""
        k = (now + guard - self.offset) // self.period  # latest one begun
        return k >= 0 and now < self.offset + k * self.period + self.window + guard
