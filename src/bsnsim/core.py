"""Deterministic discrete-event core: virtual clock, event queue, seeded RNG streams.

Time is an integer tick count, 1 tick = 1 microsecond. All protocol durations
are pre-rounded to ticks when a scenario is loaded, so two runs with the same
master seed replay the exact same event sequence.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from typing import Callable, Optional

SimTime = int  # 1 tick = 1 us

US_PER_S = 1_000_000


def ticks_from_seconds(seconds: float) -> SimTime:
    """Round a duration in seconds to the nearest tick."""
    return int(round(seconds * US_PER_S))


def substream_seed(master_seed: int, label: str) -> int:
    """Derive a stable 64-bit seed for a named substream.

    Hash-based derivation keeps substreams independent: adding a stream
    never perturbs the draws of any other stream.
    """
    digest = hashlib.sha256(f"{master_seed}|{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class Event:
    """A scheduled callback. Dispatch order is (fire_at, seq) lexicographic."""

    __slots__ = ("fire_at", "seq", "kind", "target", "fn", "cancelled", "fired")

    def __init__(self, fire_at: SimTime, seq: int, kind: str, target: str,
                 fn: Callable[[], None]):
        self.fire_at = fire_at
        self.seq = seq
        self.kind = kind
        self.target = target
        self.fn = fn
        self.cancelled = False
        self.fired = False


class Simulator:
    """Single-threaded event loop with seeded, labelled RNG substreams."""

    def __init__(self, master_seed: int = 0, trace: bool = False):
        self.master_seed = master_seed
        self.now: SimTime = 0
        self._heap: list[tuple[SimTime, int, Event]] = []
        self._seq = 0
        self._streams: dict[str, random.Random] = {}
        self.trace_lines: Optional[list[str]] = [] if trace else None

    def stream(self, label: str) -> random.Random:
        """Return the RNG substream for a stable component label."""
        rng = self._streams.get(label)
        if rng is None:
            rng = random.Random(substream_seed(self.master_seed, label))
            self._streams[label] = rng
        return rng

    def schedule_at(self, fire_at: SimTime, kind: str, target: str,
                    fn: Callable[[], None]) -> Event:
        """Put `fn` on the heap at `fire_at`, after every event due then."""
        if fire_at < self.now:
            raise ValueError(f"past event: fire_at={fire_at} < now={self.now}")
        ev = Event(fire_at, self._seq, kind, target, fn)
        self._seq += 1
        heapq.heappush(self._heap, (fire_at, ev.seq, ev))
        return ev

    def cancel(self, event: Event) -> bool:
        """Cancel a pending event. Idempotent; False if already fired/cancelled."""
        if event.fired or event.cancelled:
            return False
        event.cancelled = True
        return True

    def run(self, until: SimTime) -> int:
        """Dispatch every event with fire_at <= until; returns dispatch count."""
        if until < self.now:
            raise ValueError(f"cannot run backwards: until={until} < now={self.now}")
        heap = self._heap
        trace = self.trace_lines
        count = 0
        while heap and heap[0][0] <= until:
            fire_at, seq, ev = heapq.heappop(heap)
            if ev.cancelled:
                continue
            self.now = fire_at
            ev.fired = True
            if trace is not None:
                trace.append(f"{fire_at},{seq},{ev.kind},{ev.target}")
            ev.fn()
            count += 1
        self.now = until
        return count
