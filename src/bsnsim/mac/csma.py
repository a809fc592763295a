"""Beacon-enabled 802.15.4-style MAC: superframes, slotted CSMA/CA, GTS.

The coordinator broadcasts beacons every beacon interval; devices track
beacons, contend in the CAP with slotted CSMA/CA (two CCAs one backoff unit
apart), and may hold guaranteed slots at the tail of the active period.
Guaranteed slots expire after a configurable number of idle superframes.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..channel import frame_airtime
from ..core import SimTime
from ..frames import BEACON_BYTES, Frame, FrameKind, Mpdu
from ..scenario import ScenarioError
from .base import TURNAROUND_US, SlottedCsmaMac, require_one_channel

BASE_SLOT_US = 960         # one superframe slot at SO=0
NUM_SUPERFRAME_SLOTS = 16


class SuperframeConfig(NamedTuple):
    """Beacon-enabled superframe shape; `Beacon802154Mac.settings` checks it."""

    beacon_order: int
    superframe_order: int
    num_gts_slots: int
    base_slot_ticks: int = BASE_SLOT_US
    num_slots: int = NUM_SUPERFRAME_SLOTS

    @property
    def beacon_interval(self) -> SimTime:
        return self.base_slot_ticks * self.num_slots * (1 << self.beacon_order)

    @property
    def active_duration(self) -> SimTime:
        return self.base_slot_ticks * self.num_slots * (1 << self.superframe_order)

    @property
    def slot_ticks(self) -> SimTime:
        return self.base_slot_ticks * (1 << self.superframe_order)


class GtsDescriptor:
    """A granted slot region and its inactivity countdown."""

    __slots__ = ("owner", "slots", "inactivity_countdown")

    def __init__(self, owner: str, slots: tuple[int, ...],
                 inactivity_countdown: int):
        self.owner = owner
        self.slots = slots
        self.inactivity_countdown = inactivity_countdown


def gts_manage(requests, descriptors: list[GtsDescriptor],
               active_owners: set[str], *, num_gts_slots: int,
               expiry_threshold: int = 4,
               num_slots: int = NUM_SUPERFRAME_SLOTS) -> list[GtsDescriptor]:
    """Per-beacon GTS bookkeeping: expire idle descriptors, grant new ones.

    Each request is an owner id asking for one slot. Slots are allocated from
    the top of the active period downward; a request that does not fit is
    denied (the node falls back to the CAP).
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
    used = {s for d in kept for s in d.slots}
    owners = {d.owner for d in kept}
    for owner in requests:
        if owner in owners:
            continue
        if len(used) >= num_gts_slots:
            continue  # denied, not an error
        # every kept slot lies in the GTS range, so one of them is free
        free = [s for s in range(num_slots - num_gts_slots, num_slots)
                if s not in used]
        slot = free[-1]
        used.add(slot)
        owners.add(owner)
        kept.append(GtsDescriptor(owner=owner, slots=(slot,),
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
        out["superframe"] = SuperframeConfig(
            beacon_order=out["BO"], superframe_order=out["SO"],
            num_gts_slots=out["num_gts_slots"])
        # a device wakes guard_us before each beacon, and it learns when the
        # next one is due only once the current one has ended
        rate = scenario.channel_cfg[scenario.node(scenario.bnc).channel][
            "data_rate_bps"]
        latest = (out["superframe"].beacon_interval
                  - frame_airtime(BEACON_BYTES, rate))
        if out["guard_us"] > latest:
            raise ValueError(f"guard_us {out['guard_us']} must be at most "
                             f"{latest} us, the beacon interval less the "
                             f"beacon's airtime")
        return out

    def __init__(self, sim, medium, node, network, settings):
        super().__init__(sim, medium, node, network, settings)
        self.sf = settings["superframe"]
        # channel access fails once NB exceeds macMaxCSMABackoffs
        self.busy_limit = settings["macMaxCSMABackoffs"] + 1
        self.guard_us = settings["guard_us"]
        self.gts_expiry = settings["gts_expiry_superframes"]
        self.gts_enabled = node.node_id in settings["gts_nodes"]
        self.radio = node.add_radio(
            "data", self.channel,
            initial_state="listen" if self.is_coordinator else "sleep")
        self.radio.on_frame = self._on_frame
        self.beacon_airtime = medium.airtime_ticks(BEACON_BYTES, self.radio.channel)
        # device sync state; the CAP is the access period
        self._synced = False
        self._next_beacon_at: SimTime = 0
        self._beacon_timeout = None
        self._my_gts: Optional[tuple[int, ...]] = None
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
            self._next_beacon_at = 0
            self.node.at(0, "wake_beacon", self._wake_for_beacon)

    # -- coordinator --------------------------------------------------------

    def _coord_beacon(self) -> None:
        self.descriptors = gts_manage(
            self.gts_requests, self.descriptors, self._gts_activity,
            num_gts_slots=self.sf.num_gts_slots,
            expiry_threshold=self.gts_expiry, num_slots=self.sf.num_slots)
        self.gts_requests = []
        self._gts_activity = set()
        sd_start = self.sim.now
        gts_slots_used = sorted(s for d in self.descriptors for s in d.slots)
        cap_slots = (min(gts_slots_used) if gts_slots_used
                     else self.sf.num_slots)
        cap_end = sd_start + cap_slots * self.sf.slot_ticks
        self._gts_region_start = cap_end
        info = {
            "sd_start": sd_start,
            "cap_end": cap_end,
            "gts": {d.owner: d.slots for d in self.descriptors},
        }
        beacon = Frame(FrameKind.BEACON, self.node.node_id, None, BEACON_BYTES,
                       info=info)
        self.medium.begin_tx(self.radio, beacon, self.node.tx_power_dbm)
        if self.sf.superframe_order < self.sf.beacon_order:
            self.node.at(sd_start + self.sf.active_duration, "coord_sleep",
                         lambda: self.radio.set_state("sleep"))
            self.node.at(sd_start + self.sf.beacon_interval - TURNAROUND_US,
                         "coord_wake", lambda: self.radio.set_state("listen"))
        self.node.at(sd_start + self.sf.beacon_interval, "beacon_prep",
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
        self._synced = False
        self._sleep_until_next_beacon()

    def _sleep_until_next_beacon(self) -> None:
        self.radio.set_state("sleep")
        self._next_beacon_at += self.sf.beacon_interval
        wake_at = max(self.sim.now, self._next_beacon_at - self.guard_us)
        self.node.at(wake_at, "wake_beacon", self._wake_for_beacon)

    def _on_beacon(self, frame: Frame) -> None:
        if self._beacon_timeout is not None:
            self.sim.cancel(self._beacon_timeout)
            self._beacon_timeout = None
        info = frame.info
        self._synced = True
        self._access_start = self.sim.now
        self._access_end = info["cap_end"]
        self._next_beacon_at = info["sd_start"] + self.sf.beacon_interval
        self._my_gts = info["gts"].get(self.node.node_id)
        self.node.at(self._next_beacon_at - self.guard_us, "wake_beacon",
                     self._wake_for_beacon)
        if self.gts_enabled:
            has_traffic = len(self.queue) or self.in_service is not None
            if self._my_gts and has_traffic:
                self._schedule_gts_tx(info["sd_start"])
            else:
                if has_traffic and not self._my_gts:
                    self.network.coordinator_mac.request_gts(self.node.node_id)
                self.radio.set_state("sleep")
            return
        if self.in_service is not None or len(self.queue):
            self._start_service()
        else:
            self.radio.set_state("sleep")

    def _on_enqueued(self, mpdu: Mpdu) -> None:
        if self.gts_enabled:
            if not self._my_gts:
                self.network.coordinator_mac.request_gts(self.node.node_id)
            return
        if (self._synced and self.in_service is None
                and self.sim.now < self._access_end):
            self.radio.set_state("listen")
            self._start_service()

    # CAP service: the shared slotted CSMA/CA engine, run while synced.

    def _may_contend(self) -> bool:
        return self._synced

    def _idle(self) -> None:
        # a device that woke for a beacon listens until it arrives or times out
        if self.radio.state == "listen" and self._beacon_timeout is None:
            self.radio.set_state("sleep")

    def _access_failed(self) -> None:
        self.metrics.csma_failures += 1
        self.metrics.on_dropped(self.in_service)
        self.in_service = None
        self._start_service()

    # GTS transmission: one unacknowledged frame per owned slot.

    def _schedule_gts_tx(self, sd_start: SimTime) -> None:
        self.radio.set_state("sleep")
        for slot in self._my_gts:
            slot_start = sd_start + slot * self.sf.slot_ticks
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
