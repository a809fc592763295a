"""Routes and MPDU store-and-forward relay across bands/PHYs.

A bridge node owns two or more distinct channels and relays frames between
them unchanged. In-body nodes never talk peer to peer, so any path touching
an in-body endpoint goes through the bridge even when both ends share a
channel.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .channel import DeliveryOutcome
from .frames import Frame, FrameKind, Mpdu
from .mac.base import TURNAROUND_US


class Direct(NamedTuple):
    channel: str  # each channel is its scenario key


class ViaBridge(NamedTuple):
    ingress: str
    bridge: str
    egress: str


def resolve_routes(on: dict[str, list[str]], inbody: set[str],
                   bridge: str) -> dict:
    """The route of every ordered pair of distinct nodes, given the channels
    each node is `on`: `Direct`, `ViaBridge` or None.

    A pair is direct on the channel it shares when neither end is in-body,
    or when one end is the `bridge`: the relay collapses to the single hop
    into or out of it. Otherwise it goes through the bridge when the bridge
    shares a channel with each end. A node off the bridge is on one
    channel, so no order of channels decides a route.
    """
    def shared(a: str, b: str) -> list[str]:
        return [ch for ch in on[a] if ch in on[b]]

    def route(src: str, dst: str):
        both = shared(src, dst)
        if both and (bridge in (src, dst) or not {src, dst} & inbody):
            return Direct(both[0])
        ingress, egress = shared(src, bridge), shared(bridge, dst)
        if ingress and egress:
            return ViaBridge(ingress[0], bridge, egress[0])
        return None

    return {(src, dst): route(src, dst) for src in on for dst in on
            if src != dst}


class Bridge:
    """The relay on the bridge node: its radio on each bridged channel, a
    bounded store, and a pump that forwards one stored frame at a time."""

    def __init__(self, network, node, channels: list[str], capacity: int):
        self.network = network
        self.routes = network.scenario.routes
        self.node = node
        self.capacity = capacity
        self.radios = {}  # channel -> Radio
        for ch in channels:
            radio = next((r for r in node.radios.values() if r.channel == ch
                          and r.label not in ("wakeup_rx", "wakeup_tx")), None)
            if radio is None:  # the MAC does not listen here
                radio = node.add_radio(f"bridge:{ch}", ch, "listen",
                                       self._on_frame)
            self.radios[ch] = radio
        self.store: list[tuple[Mpdu, str]] = []
        self._current: Optional[Mpdu] = None

    def _on_frame(self, frame) -> None:
        if frame.kind is FrameKind.DATA and frame.link_dst == self.node.node_id:
            self.network.handle_data_delivery(self.node, frame.mpdu)

    def relay(self, mpdu: Mpdu) -> None:
        """Store a frame routed through the bridge, or drop it when full.

        The hop is recorded when the frame is stored, so a retransmission of
        a frame the bridge holds or has forwarded is not relayed again.
        """
        route = self.routes.get((mpdu.src, mpdu.dst))
        if (not isinstance(route, ViaBridge)
                or any(hop[0] == self.node.node_id for hop in mpdu.hop_trace)):
            return
        if len(self.store) >= self.capacity:
            self.network.metrics.bridge_drops += 1
            self.network.metrics.on_dropped(mpdu)
            return
        mpdu.hop_trace.append((self.node.node_id, route.egress))
        self.store.append((mpdu, route.egress))
        self._pump()

    def _pump(self) -> None:
        if self._current is not None or self.node.dead or not self.store:
            return
        mpdu, egress = self.store.pop(0)
        self._current = mpdu
        radio = self.radios[egress]
        frame = Frame.data(mpdu, self.node.node_id, mpdu.dst)
        self.node.after(TURNAROUND_US, "bridge_fwd", lambda: radio.when_free(
            lambda: self.network.medium.begin_tx(radio, frame,
                                                 on_result=self._sent)))

    def _sent(self, outcome: DeliveryOutcome) -> None:
        if outcome is not DeliveryOutcome.DELIVERED:
            self.network.metrics.on_dropped(self._current)
        self._current = None
        self._pump()

    def pending(self) -> list[Mpdu]:
        """The frames the bridge still holds, stored or on the air."""
        out = [m for m, _ in self.store]
        if self._current is not None:
            out.append(self._current)
        return out
