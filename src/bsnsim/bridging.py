"""Channel mapping and MPDU store-and-forward relay across bands/PHYs.

A bridge node owns two or more distinct channels and relays frames between
them unchanged. In-body nodes never talk peer to peer, so any path touching
an in-body endpoint goes through the bridge even when both ends share a
channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .channel import ChannelId, DeliveryOutcome
from .frames import Frame, FrameKind, Mpdu
from .mac.base import TURNAROUND_US


class ConnectionType(Enum):
    SCHEDULED = "Scheduled"
    CONTENTION = "Contention"
    WAKEUP_SERVED = "WakeupServed"


@dataclass(frozen=True)
class ChannelMapRecord:
    """One registered connection: who talks to whom on which channel."""

    network_info: str
    channel: ChannelId
    node_ids: tuple[str, ...]
    connection_id: int
    connection_type: ConnectionType
    src: str
    dst: str


@dataclass(frozen=True)
class Direct:
    channel: ChannelId


@dataclass(frozen=True)
class ViaBridge:
    ingress: ChannelId
    bridge: str
    egress: ChannelId


@dataclass(frozen=True)
class NoRoute:
    pass


class ChannelMap:
    """Registry of connection records plus the route resolution rules."""

    def __init__(self, inbody_nodes: Optional[set[str]] = None,
                 bridge_nodes: Optional[set[str]] = None):
        self.records: dict[int, ChannelMapRecord] = {}
        self.inbody_nodes = set(inbody_nodes or ())
        self.bridge_nodes = set(bridge_nodes or ())
        self._members: dict[ChannelId, set[str]] = {}
        self._routes: dict[tuple[str, str], object] = {}  # (src, dst) -> route

    def register(self, record: ChannelMapRecord) -> "ChannelMap":
        if record.connection_id in self.records:
            raise ValueError(f"duplicate connection_id {record.connection_id}")
        twice = sorted({n for n in record.node_ids
                        if record.node_ids.count(n) > 1})
        if twice:
            raise ValueError(f"nodes listed twice: {', '.join(twice)}")
        members = set(record.node_ids)
        for endpoint in (record.src, record.dst):
            if endpoint not in members and not self._on_some_channel(endpoint):
                raise ValueError(f"unmapped endpoint: {endpoint}")
        self.records[record.connection_id] = record
        self._members.setdefault(record.channel, set()).update(record.node_ids)
        self._routes.clear()
        return self

    def _on_some_channel(self, node: str) -> bool:
        return any(node in m for m in self._members.values())

    def channels_of(self, node: str) -> list[ChannelId]:
        return [ch for ch, members in self._members.items() if node in members]

    def lookup_route(self, src: str, dst: str):
        """The route from `src` to `dst`, resolved once per registered map."""
        route = self._routes.get((src, dst))
        if route is None:
            route = self._routes[(src, dst)] = self._resolve_route(src, dst)
        return route

    def _resolve_route(self, src: str, dst: str):
        """Direct only when both ends share a channel and neither is in-body.

        A pair whose endpoint is itself a bridge is also direct on a shared
        channel: the relay collapses to the single hop into or out of the
        bridge (in-body nodes legitimately hold records to bridge nodes).
        """
        src_ch = set(self.channels_of(src))
        dst_ch = set(self.channels_of(dst))
        shared = src_ch & dst_ch
        inbody = src in self.inbody_nodes or dst in self.inbody_nodes
        endpoint_is_bridge = src in self.bridge_nodes or dst in self.bridge_nodes
        if shared and (not inbody or endpoint_is_bridge):
            return Direct(sorted(shared, key=lambda c: (c.band.value, c.phy))[0])
        for bridge in sorted(self.bridge_nodes):
            if bridge in (src, dst):
                continue
            bridge_ch = set(self.channels_of(bridge))
            ingress = bridge_ch & src_ch
            egress = bridge_ch & dst_ch
            if ingress and egress:
                key = lambda c: (c.band.value, c.phy)
                return ViaBridge(sorted(ingress, key=key)[0], bridge,
                                 sorted(egress, key=key)[0])
        return NoRoute()


def validate_bridge(interfaces: list[ChannelId]) -> None:
    """A bridge needs at least two distinct ChannelIds."""
    if len(set(interfaces)) < 2:
        raise ValueError("bridge requires two or more distinct channel interfaces")


class Bridge:
    """The relay on the bridge node: its radio on each bridged channel, a
    bounded store, and a pump that forwards one stored frame at a time."""

    def __init__(self, network, node, channels: list[ChannelId],
                 capacity: int):
        self.network = network
        self.routes = network.scenario.channel_map
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
        route = self.routes.lookup_route(mpdu.src, mpdu.dst)
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
