"""Minimal service discipline: transmit the head frame as soon as the radio
is free. Used by bridge relay scenarios and link-level harnesses where
contention is not the point. Frames are unacknowledged and never retried."""

from __future__ import annotations

from .base import MacBase


class DirectMac(MacBase):
    name = "direct"

    def __init__(self, node, network, settings):
        super().__init__(node, network, settings)
        self.radio = node.add_radio("data", self.channel, "listen",
                                    self._on_frame)

    def _on_enqueued(self) -> None:
        self._pump()

    def _pump(self) -> None:
        self.radio.when_free(self._send_head)

    def _send_head(self) -> None:
        if self.in_service is None and len(self.queue) and not self.node.dead:
            self.send_unacked(self._pump)
