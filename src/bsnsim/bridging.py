"""Channel mapping and MPDU store-and-forward relay across bands/PHYs.

A bridge node owns two or more distinct channels and relays frames between
them unchanged. In-body nodes never talk peer to peer, so any path touching
an in-body endpoint goes through the bridge even when both ends share a
channel.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .channel import ChannelId, DeliveryOutcome
from .frames import Frame, FrameKind, Mpdu
from .mac.base import TURNAROUND_US


class Direct(NamedTuple):
    channel: ChannelId


class ViaBridge(NamedTuple):
    ingress: ChannelId
    bridge: str
    egress: ChannelId


def _first(channels: set[ChannelId]) -> ChannelId:
    return min(channels, key=lambda c: (c.band.value, c.phy))


def resolve_routes(members: dict[ChannelId, set[str]], nodes: list[str],
                   inbody: set[str], bridges: set[str]) -> dict:
    """The route of every ordered pair of distinct `nodes`, given each
    channel's `members`: `Direct`, `ViaBridge` or None.

    Channels are taken in `(band, phy)` order and bridges in id order. A
    pair is direct on its first shared channel when neither end is in-body,
    or when one end is itself a bridge: the relay collapses to the single hop
    into or out of the bridge (in-body nodes legitimately hold records to
    bridge nodes). Otherwise it goes through the first bridge that shares a
    channel with each end.
    """
    on = {n: {ch for ch, m in members.items() if n in m} for n in nodes}

    def route(src: str, dst: str):
        shared = on[src] & on[dst]
        if shared and (not {src, dst} & inbody or {src, dst} & bridges):
            return Direct(_first(shared))
        for bridge in sorted(bridges - {src, dst}):
            ingress, egress = on[bridge] & on[src], on[bridge] & on[dst]
            if ingress and egress:
                return ViaBridge(_first(ingress), bridge, _first(egress))
        return None

    return {(src, dst): route(src, dst)
            for src in nodes for dst in nodes if src != dst}


class Bridge:
    """The relay on the bridge node: its radio on each bridged channel, a
    bounded store, and a pump that forwards one stored frame at a time."""

    def __init__(self, network, node, channels: list[ChannelId],
                 capacity: int):
        self.network = network
        self.routes = network.scenario.routes
        self.node = node
        self.capacity = capacity
        self.radios = {}  # ChannelId -> Radio
        for cid in channels:
            radio = next((r for r in node.radios.values() if r.channel == cid
                          and r.label not in ("wakeup_rx", "wakeup_tx")), None)
            if radio is None:  # the MAC does not listen here
                key = network.scenario.channel_key(cid)
                radio = node.add_radio(f"bridge:{key}", cid,
                                       initial_state="listen")
                radio.on_frame = self._on_frame
            self.radios[cid] = radio
        self.store: list[tuple[Mpdu, ChannelId]] = []
        self._current: Optional[Mpdu] = None

    def _on_frame(self, frame, tx) -> None:
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
            lambda: self.network.medium.begin_tx(
                radio, frame, self.node.tx_power_dbm, on_result=self._sent)))

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
