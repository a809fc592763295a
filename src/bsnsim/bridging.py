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

from .channel import ChannelId
from .frames import Mpdu


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


class BridgeState:
    """Bounded store-and-forward queue living on the bridge node.

    Conservation holds at every instant:
    frames_in == frames_forwarded + frames_dropped + len(store).
    """

    def __init__(self, node: str, interfaces: list[ChannelId],
                 capacity: int = 16):
        validate_bridge(interfaces)
        self.node = node
        self.interfaces = list(interfaces)
        self.capacity = capacity
        self.store: list[tuple[Mpdu, ChannelId]] = []
        self.frames_in = 0
        self.frames_forwarded = 0
        self.frames_dropped = 0

    def accept(self, mpdu: Mpdu, egress: ChannelId) -> bool:
        """Queue a frame for relay; False (and a counted drop) when full."""
        self.frames_in += 1
        if len(self.store) >= self.capacity:
            self.frames_dropped += 1
            return False
        self.store.append((mpdu, egress))
        return True

    def next_out(self) -> Optional[tuple[Mpdu, ChannelId]]:
        return self.store[0] if self.store else None

    def pop_forwarded(self) -> tuple[Mpdu, ChannelId]:
        mpdu, egress = self.store.pop(0)
        mpdu.hop_trace.append((self.node, egress))
        self.frames_forwarded += 1
        return mpdu, egress
