"""Traffic-based wakeup table.

The coordinator owns the table of per-node periodic wakeup windows. It wakes
for each window widened by a guard margin on both sides and sleeps whenever
no widened window is open (`WakeupEntry.guarded_open`), so that, apart from
emergency and on-demand exchanges, it is awake for exactly the union of the
guarded windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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

    def occurrence_after(self, now: SimTime) -> SimTime:
        """Start of the first window beginning strictly after now."""
        if self.offset > now:
            return self.offset
        k = (now - self.offset) // self.period + 1
        return self.offset + k * self.period

    def guarded_open(self, now: SimTime, guard: SimTime) -> bool:
        """Whether now lies in a window widened by guard on both sides."""
        k = (now + guard - self.offset) // self.period  # latest one begun
        return k >= 0 and now < self.offset + k * self.period + self.window + guard


class TableAction(Enum):
    INSERT = "Insert"
    MODIFY = "Modify"
    REMOVE = "Remove"


class WakeupTable:
    """Single-writer table: only the owning coordinator mutates it."""

    def __init__(self, owner: str = "bnc"):
        self.owner = owner
        self.entries: dict[tuple[str, TrafficClass], WakeupEntry] = {}
        self.revision = 0

    def values(self) -> list[WakeupEntry]:
        return list(self.entries.values())


def table_update(table: WakeupTable, entry: WakeupEntry, action: TableAction,
                 caller: str = "bnc") -> WakeupTable:
    """Apply one table mutation; bumps the revision on success."""
    if caller != table.owner:
        raise PermissionError(f"BNC only: {caller!r} may not modify the table")
    key = (entry.node, entry.cls)
    if action is TableAction.INSERT:
        if key in table.entries:
            raise ValueError(f"duplicate entry for {key}")
        table.entries[key] = entry
    elif action is TableAction.MODIFY:
        if key not in table.entries:
            raise KeyError(f"no such entry: {key}")
        table.entries[key] = entry
    elif action is TableAction.REMOVE:
        if key not in table.entries:
            raise KeyError(f"no such entry: {key}")
        del table.entries[key]
    table.revision += 1
    return table
