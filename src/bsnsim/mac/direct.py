"""Minimal service discipline: transmit the head frame as soon as the radio
is free. Used by bridge relay scenarios and link-level harnesses where
contention is not the point. Frames are unacknowledged and never retried."""

from __future__ import annotations

from ..frames import Mpdu
from .base import MacBase


class DirectMac(MacBase):
    name = "direct"

    def __init__(self, sim, medium, node, network, settings):
        super().__init__(sim, medium, node, network, settings)
        self.radio = node.add_radio("data", self.channel,
                                    initial_state="listen")
        self.radio.on_frame = self._on_frame

    def start(self) -> None:
        pass

    def _on_enqueued(self, mpdu: Mpdu) -> None:
        self._pump()

    def _pump(self) -> None:
        if (self.node.dead or self.in_service is not None
                or self.radio.state == "tx" or not len(self.queue)):
            return
        self.send_unacked(self._pump)
