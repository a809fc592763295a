"""Simplified S-MAC: synchronized duty cycle, contention inside listen windows.

All nodes share the same phase. Frames arriving in the sleep phase queue up
for the next listen window; transmissions use the slotted CSMA/CA engine the
802.15.4 CAP uses (no RTS/CTS; frames are short), with acknowledgements and
retransmissions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..core import SimTime
from ..frames import Mpdu
from .base import SlottedCsmaMac


@dataclass(frozen=True)
class SmacConfig:
    cycle_ticks: SimTime
    listen_fraction: float

    def __post_init__(self):
        if self.cycle_ticks <= 0:
            raise ValueError("cycle must be positive")
        if not 0.0 < self.listen_fraction <= 1.0:
            raise ValueError("listen_fraction must be in (0, 1]")

    @property
    def listen_ticks(self) -> SimTime:
        return int(self.cycle_ticks * self.listen_fraction)


class SmacPhase(Enum):
    LISTEN = "Listen"
    SLEEP = "Sleep"


def smac_window(now: SimTime, cfg: SmacConfig) -> SmacPhase:
    """Phase at an instant; all nodes are synchronized."""
    if now % cfg.cycle_ticks < cfg.listen_ticks:
        return SmacPhase.LISTEN
    return SmacPhase.SLEEP


class SMac(SlottedCsmaMac):
    """Duty-cycled contention MAC; the coordinator only listens and acks.

    Each listen window is the access period. A frame that loses
    `max_window_attempts` CCAs in a row, or does not fit before the window
    closes, stays in service and contends again in the next window.
    """

    params = SlottedCsmaMac.params + (
        "cycle_s", "listen_fraction", "max_window_attempts")

    def __init__(self, sim, medium, node, network, cfg):
        super().__init__(sim, medium, node, network, cfg)
        self.smac = SmacConfig(cycle_ticks=cfg.get("cycle_ticks", 1_000_000),
                               listen_fraction=cfg.get("listen_fraction", 0.1))
        # a node that keeps losing contention sleeps on the frame until the
        # next listen window instead of burning backoff rounds
        self.busy_limit = cfg.get("max_window_attempts", 2)
        self.radio = node.add_radio(
            "data", cfg["channel"],
            initial_state="listen")
        self.radio.on_frame = self._on_frame

    def start(self) -> None:
        self.sim.schedule_at(0, "smac_listen", self.target,
                             self._enter_listen)

    def _enter_listen(self) -> None:
        if self.node.dead:
            return
        self.new_session()
        self._access_start = self.sim.now
        self._access_end = self.sim.now + self.smac.listen_ticks
        self.radio.set_state("listen")
        self.sim.schedule_at(self._access_end, "smac_sleep",
                             self.target, self._enter_sleep)
        self.sim.schedule_at(self._access_start + self.smac.cycle_ticks,
                             "smac_listen", self.target,
                             self._enter_listen)
        if not self.is_coordinator:
            self._start_service()

    def _enter_sleep(self) -> None:
        if self.node.dead:
            return
        self.new_session()  # cancels any pending contention steps
        if self.radio.state != "tx":
            self.radio.set_state("sleep")

    def _may_contend(self) -> bool:
        return smac_window(self.sim.now, self.smac) is SmacPhase.LISTEN

    def _on_enqueued(self, mpdu: Mpdu) -> None:
        if (not self.is_coordinator and self.in_service is None
                and self._may_contend()):
            self._start_service()
