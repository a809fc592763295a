"""Traffic-based wakeup table entries.

A scenario's wakeup table holds at most one periodic window per device and
is fixed at load. The coordinator holds its data radios awake for each window
widened by a guard margin on both sides, so that, apart from emergency and
on-demand exchanges, it is awake for exactly the union of the guarded
windows.
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
