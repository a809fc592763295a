"""Beacon-enabled 802.15.4-style MAC: superframes, slotted CSMA/CA, GTS.

The coordinator broadcasts beacons every beacon interval; devices track
beacons, contend in the CAP with slotted CSMA/CA (two CCAs one backoff unit
apart), and may hold guaranteed slots at the tail of the active period.
Guaranteed slots expire after a configurable number of idle superframes.
"""

from __future__ import annotations

from typing import Optional

from ..channel import frame_airtime
from ..core import SimTime
from ..frames import BEACON_BYTES, Frame, FrameKind
from ..scenario import ScenarioError
from .base import (TURNAROUND_US, SlottedCsmaMac,
                   require_no_coordinator_traffic, require_one_channel)

BASE_SLOT_US = 960         # one superframe slot at SO=0
NUM_SUPERFRAME_SLOTS = 16


class GtsDescriptor:
    """A granted slot and its inactivity countdown."""

    __slots__ = ("owner", "slot", "inactivity_countdown")

    def __init__(self, owner: str, slot: int, inactivity_countdown: int):
        self.owner = owner
        self.slot = slot
        self.inactivity_countdown = inactivity_countdown


def gts_manage(requests, descriptors: list[GtsDescriptor],
               active_owners: set[str], *, num_gts_slots: int,
               expiry_threshold: int = 4) -> list[GtsDescriptor]:
    """Per-beacon GTS bookkeeping: expire idle descriptors, grant new ones.

    Each request is an owner id asking for one slot. Slots are allocated from
    the top of the active period downward; a request that does not fit is
    denied, and the device, which sends nothing in the CAP, asks again at
    each beacon.
    """
    kept: list[GtsDescriptor] = []
    for d in descriptors:
        if d.owner in active_owners:
            d.inactivity_countdown = expiry_threshold
            kept.append(d)
        else:
            d.inactivity_countdown -= 1
            if d.inactivity_countdown > 0:
                kept.append(d)
    used = {d.slot for d in kept}
    owners = {d.owner for d in kept}
    for owner in requests:
        if owner in owners:
            continue
        if len(used) >= num_gts_slots:
            continue  # denied, not an error
        # every kept slot lies in the GTS range, so one of them is free
        free = [s for s in range(NUM_SUPERFRAME_SLOTS - num_gts_slots,
                                 NUM_SUPERFRAME_SLOTS) if s not in used]
        slot = free[-1]
        used.add(slot)
        owners.add(owner)
        kept.append(GtsDescriptor(owner=owner, slot=slot,
                                  inactivity_countdown=expiry_threshold))
    return kept


class Beacon802154Mac(SlottedCsmaMac):
    """Device and coordinator roles of the beacon-enabled MAC."""

    name = "csma802154"
    profile = "cc2420"
    params = {**SlottedCsmaMac.params, "BO": (int, 6, 0), "SO": (int, 6, 0),
              "num_gts_slots": (int, 2, 0), "macMaxCSMABackoffs": (int, 4, 0),
              "guard_us": (int, 2000, 0), "gts_expiry_superframes": (int, 4, 1),
              "gts_nodes": ([str], [], None)}

    @classmethod
    def settings(cls, scenario) -> dict:
        require_one_channel(scenario)
        require_no_coordinator_traffic(scenario)
        out = super().settings(scenario)
        devices = {n.id for n in scenario.nodes} - {scenario.bnc}
        for node_id in out["gts_nodes"]:
            if node_id not in devices:
                raise ScenarioError(f"protocols.{cls.name}.gts_nodes: unknown "
                                    f"device {node_id!r}")
        # the field table holds each minimum of 0
        if not out["SO"] <= out["BO"] <= 14:
            raise ValueError("need 0 <= SO <= BO <= 14")
        if out["num_gts_slots"] >= NUM_SUPERFRAME_SLOTS:
            raise ValueError("GTS slots must leave room for the CAP")
        out["slot_ticks"] = BASE_SLOT_US << out["SO"]
        out["beacon_interval"] = BASE_SLOT_US * NUM_SUPERFRAME_SLOTS << out["BO"]
        # a device wakes guard_us before each beacon, and it learns when the
        # next one is due only once the current one has ended
        rate = scenario.channels[scenario.node(scenario.bnc).channel][
            "data_rate_bps"]
        latest = out["beacon_interval"] - frame_airtime(BEACON_BYTES, rate)
        if out["guard_us"] > latest:
            raise ValueError(f"guard_us {out['guard_us']} must be at most "
                             f"{latest} us, the beacon interval less the "
                             f"beacon's airtime")
        return out

    def __init__(self, node, network, settings):
        super().__init__(node, network, settings)
        self.slot_ticks = settings["slot_ticks"]
        self.active_ticks = NUM_SUPERFRAME_SLOTS * self.slot_ticks
        self.beacon_interval = settings["beacon_interval"]
        self.num_gts_slots = settings["num_gts_slots"]
        # channel access fails once NB exceeds macMaxCSMABackoffs
        self.busy_limit = settings["macMaxCSMABackoffs"] + 1
        self.guard_us = settings["guard_us"]
        self.gts_expiry = settings["gts_expiry_superframes"]
        self.gts_enabled = node.node_id in settings["gts_nodes"]
        self.radio = node.add_radio(
            "data", self.channel,
            "listen" if self.is_coordinator else "sleep", self._on_frame)
        self.beacon_airtime = frame_airtime(BEACON_BYTES,
                                            self.radio.chan_state.rate)
        # device sync state; the CAP of the last beacon heard is the access
        # period
        self._next_beacon_at: SimTime = 0
        self._beacon_timeout = None
        self._my_gts: Optional[int] = None
        # coordinator state
        self.gts_requests: list[str] = []
        self.descriptors: list[GtsDescriptor] = []
        self._gts_activity: set[str] = set()
        self._gts_region_start: SimTime = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self.is_coordinator:
            self.node.at(0, "beacon_prep", self._coord_beacon)
        else:
            self.node.at(0, "wake_beacon", self._wake_for_beacon)

    # -- coordinator --------------------------------------------------------

    def _coord_beacon(self) -> None:
        self.descriptors = gts_manage(
            self.gts_requests, self.descriptors, self._gts_activity,
            num_gts_slots=self.num_gts_slots,
            expiry_threshold=self.gts_expiry)
        self.gts_requests = []
        self._gts_activity = set()
        sd_start = self.sim.now
        cap_slots = min((d.slot for d in self.descriptors),
                        default=NUM_SUPERFRAME_SLOTS)
        cap_end = sd_start + cap_slots * self.slot_ticks
        self._gts_region_start = cap_end
        info = {
            "sd_start": sd_start,
            "cap_end": cap_end,
            "gts": {d.owner: d.slot for d in self.descriptors},
        }
        beacon = Frame(FrameKind.BEACON, self.node.node_id, None, BEACON_BYTES,
                       info=info)
        self.medium.begin_tx(self.radio, beacon)
        if self.active_ticks < self.beacon_interval:
            self.node.at(sd_start + self.active_ticks, "coord_sleep",
                         lambda: self.radio.set_state("sleep"))
            self.node.at(sd_start + self.beacon_interval - TURNAROUND_US,
                         "coord_wake", lambda: self.radio.set_state("listen"))
        self.node.at(sd_start + self.beacon_interval, "beacon_prep",
                     self._coord_beacon)

    def request_gts(self, owner: str) -> None:
        """Out-of-band GTS request collection, processed at the next beacon."""
        if owner not in self.gts_requests:
            self.gts_requests.append(owner)

    # -- device -------------------------------------------------------------

    def _wake_for_beacon(self) -> None:
        if self.radio.state == "sleep":  # an awake one may be mid-exchange
            self.new_session()
        self.radio.set_state("listen")
        deadline = self._next_beacon_at + self.beacon_airtime + self.guard_us
        self._beacon_timeout = self.at(deadline, "beacon_timeout",
                                       self._beacon_missed)

    def _beacon_missed(self) -> None:
        self._beacon_timeout = None
        self._sleep_until_next_beacon()

    def _sleep_until_next_beacon(self) -> None:
        self.radio.set_state("sleep")
        self._next_beacon_at += self.beacon_interval
        wake_at = max(self.sim.now, self._next_beacon_at - self.guard_us)
        self.node.at(wake_at, "wake_beacon", self._wake_for_beacon)

    def _on_beacon(self, frame: Frame) -> None:
        if self._beacon_timeout is not None:
            self.sim.cancel(self._beacon_timeout)
            self._beacon_timeout = None
        info = frame.info
        self._access_start = self.sim.now
        self._access_end = info["cap_end"]
        self._next_beacon_at = info["sd_start"] + self.beacon_interval
        self._my_gts = info["gts"].get(self.node.node_id)
        self.node.at(self._next_beacon_at - self.guard_us, "wake_beacon",
                     self._wake_for_beacon)
        if self.gts_enabled:
            has_traffic = len(self.queue) or self.in_service is not None
            if self._my_gts is not None and has_traffic:
                self._schedule_gts_tx(info["sd_start"])
            else:
                if has_traffic:
                    self.network.coordinator_mac.request_gts(self.node.node_id)
                self.radio.set_state("sleep")
            return
        if self.in_service is not None or len(self.queue):
            self._start_service()
        else:
            self.radio.set_state("sleep")

    def _on_enqueued(self) -> None:
        if self.gts_enabled:
            if self._my_gts is None:
                self.network.coordinator_mac.request_gts(self.node.node_id)
            return
        # inside the CAP of the last beacon heard, which has ended before a
        # missed beacon's timeout fires
        if self.in_service is None and self.sim.now < self._access_end:
            self.radio.set_state("listen")
            self._start_service()

    # CAP service: the shared slotted CSMA/CA engine, run while synced.

    def _idle(self) -> None:
        # a device that woke for a beacon listens until it arrives or times out
        if self.radio.state == "listen" and self._beacon_timeout is None:
            self.radio.set_state("sleep")

    def _access_failed(self) -> None:
        self.metrics.csma_failures += 1
        self.end_service(drop=True)
        self._start_service()

    # GTS transmission: one unacknowledged frame in the owned slot.

    def _schedule_gts_tx(self, sd_start: SimTime) -> None:
        self.radio.set_state("sleep")
        slot_start = sd_start + self._my_gts * self.slot_ticks
        if slot_start - TURNAROUND_US > self.sim.now:
            self.send_in_slot(slot_start - TURNAROUND_US, slot_start, "gts")

    # -- reception ----------------------------------------------------------

    def _on_control(self, frame: Frame) -> None:
        if frame.kind is FrameKind.BEACON:
            self._on_beacon(frame)

    def _on_data(self, frame: Frame) -> None:
        # only the coordinator holds descriptors; GTS frames go unacknowledged
        in_gts = self.sim.now >= self._gts_region_start and any(
            d.owner == frame.src for d in self.descriptors)
        if not in_gts:
            super()._on_data(frame)
            return
        self.network.handle_data_delivery(self.node, frame.mpdu)
        self._gts_activity.add(frame.src)
