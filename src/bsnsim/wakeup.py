"""Traffic-based wakeup table and coordinator pattern derivation.

The coordinator owns the table of per-node periodic wakeup windows and can
merge all windows (plus guard margins) into its own minimal awake pattern
over one hyperperiod, sleeping whenever no node is due.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .core import SimTime
from .traffic import TrafficClass

# LCMs beyond this are treated as overflow and trigger per-event fallback.
MAX_HYPERPERIOD_TICKS = 10**13


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


@dataclass
class BncPattern:
    """Merged awake intervals of the coordinator over one hyperperiod.

    Intervals are disjoint, sorted half-open [start, end) tick spans. They may
    extend past the hyperperiod boundary (no wrapping); execution repeats the
    pattern every hyperperiod. `fallback` flags hyperperiod overflow, in which
    case the coordinator schedules each window individually instead.
    """

    intervals: list[tuple[SimTime, SimTime]] = field(default_factory=list)
    hyperperiod: SimTime = 0
    fallback: bool = False


def merge_intervals(raw: list[tuple[SimTime, SimTime]]) -> list[tuple[SimTime, SimTime]]:
    """Union of half-open intervals, sorted and coalesced (touching merges)."""
    out: list[tuple[SimTime, SimTime]] = []
    for s, e in sorted(raw):
        if e <= s:
            continue
        if out and s <= out[-1][1]:
            if e > out[-1][1]:
                out[-1] = (out[-1][0], e)
        else:
            out.append((s, e))
    return out


def derive_bnc_pattern(table: WakeupTable, guard: SimTime = 0,
                       max_hyperperiod: SimTime = MAX_HYPERPERIOD_TICKS) -> BncPattern:
    """Merge every entry's guard-extended windows over one hyperperiod."""
    entries = table.values()
    if not entries:
        return BncPattern(intervals=[], hyperperiod=0)
    hyper = 1
    for e in entries:
        hyper = math.lcm(hyper, e.period)
        if hyper > max_hyperperiod:
            return BncPattern(intervals=[], hyperperiod=0, fallback=True)
    raw = []
    for e in entries:
        k = 0
        while e.offset + k * e.period < hyper:
            start = e.offset + k * e.period
            raw.append((max(0, start - guard), start + e.window + guard))
            k += 1
    return BncPattern(intervals=merge_intervals(raw), hyperperiod=hyper)
