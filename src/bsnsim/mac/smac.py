"""Simplified S-MAC: synchronized duty cycle, contention inside listen windows.

All nodes share the same phase. Frames arriving in the sleep phase queue up
for the next listen window; transmissions use the slotted CSMA/CA engine the
802.15.4 CAP uses (no RTS/CTS; frames are short), with acknowledgements and
retransmissions.
"""

from __future__ import annotations

from ..core import US_PER_S, ticks_from_seconds
from .base import SlottedCsmaMac


class SMac(SlottedCsmaMac):
    """Duty-cycled contention MAC; the coordinator contends for its own
    frames like any other node, and acks the frames it receives.

    Each listen window is the access period. A frame that loses
    `max_window_attempts` CCAs in a row, or does not fit before the window
    closes, stays in service and contends again in the next window.
    """

    name = "smac"
    params = {**SlottedCsmaMac.params, "cycle_s": (float, 1.0, 1 / US_PER_S),
              "listen_fraction": (float, 0.1, None),
              "max_window_attempts": (int, 2, 1)}

    @classmethod
    def settings(cls, scenario) -> dict:
        out = super().settings(scenario)
        if not 0 < out["listen_fraction"] <= 1:
            raise ValueError("need 0 < listen_fraction <= 1")
        out["cycle_ticks"] = ticks_from_seconds(out["cycle_s"])
        out["listen_ticks"] = int(out["cycle_ticks"] * out["listen_fraction"])
        return out

    def __init__(self, node, network, settings):
        super().__init__(node, network, settings)
        self.cycle_ticks = settings["cycle_ticks"]
        self.listen_ticks = settings["listen_ticks"]
        # a node that keeps losing contention sleeps on the frame until the
        # next listen window instead of burning backoff rounds
        self.busy_limit = settings["max_window_attempts"]
        self.radio = node.add_radio("data", self.channel, "listen",
                                    self._on_frame)

    def start(self) -> None:
        self.node.at(0, "smac_listen", self._enter_listen)

    def _enter_listen(self) -> None:
        self._access_start = self.sim.now
        self._access_end = self.sim.now + self.listen_ticks
        self.radio.set_state("listen")
        self.node.at(self._access_end, "smac_sleep", self._enter_sleep)
        self.node.at(self._access_start + self.cycle_ticks,
                     "smac_listen", self._enter_listen)
        self._start_service()

    def _enter_sleep(self) -> None:
        self.new_session()  # the window's steps and acks end with it
        self.radio.set_state("sleep")

    def _may_contend(self) -> bool:
        return self._access_start <= self.sim.now < self._access_end

    def _on_enqueued(self) -> None:
        if self.in_service is None and self._may_contend():
            self._start_service()
