"""Preamble-based TDMA: the coordinator announces the slot map each round.

A node sleeps except for the preamble and its own slots; a missed preamble
skips the whole round. Data slots are unacknowledged and collision-free by
construction when the assignment is unique.
"""

from __future__ import annotations

from ..channel import frame_airtime
from ..core import ticks_from_seconds
from ..frames import Frame, FrameKind
from ..scenario import ScenarioError
from .base import (TICK_MS, TURNAROUND_US, MacBase,
                   require_no_coordinator_traffic, require_one_channel)


class PbTdmaMac(MacBase):
    """Event-driven PB-TDMA node and coordinator."""

    name = "pbtdma"
    params = {"slot_ms": (float, 10.0, TICK_MS),
              "preamble_ms": (float, 10.0, TICK_MS),
              "assignment": ({str: str}, None, None)}  # null: devices in id order

    @classmethod
    def settings(cls, scenario) -> dict:
        require_one_channel(scenario)
        require_no_coordinator_traffic(scenario)
        out = super().settings(scenario)
        devices = [n for n in scenario.nodes if n.id != scenario.bnc]
        if not devices:
            raise ValueError("no devices to give slots to")
        for slot in out["assignment"] or {}:
            if not slot.isdecimal() or slot != str(int(slot)):  # int() takes "-1", "00"
                raise ScenarioError(f"protocols.{cls.name}.assignment: {slot!r} "
                                    f"is not a slot index of 0 or more")
        assignment = out["assignment"] or dict(
            enumerate(sorted(n.id for n in devices)))
        strangers = set(assignment.values()) - {n.id for n in devices}
        if strangers:
            raise ValueError(f"assignment names non-devices "
                             f"{sorted(strangers)}")
        slot = ticks_from_seconds(out["slot_ms"] / 1000.0)
        channel = scenario.channels[devices[0].channel]
        need = TURNAROUND_US + frame_airtime(channel["mtu_bytes"],
                                             channel["data_rate_bps"])
        if slot < need:
            raise ValueError(f"TDMA slot {slot} us cannot fit a frame "
                             f"({need} us)")
        if len(set(assignment.values())) != len(assignment):
            raise ValueError("each node may own at most one slot")
        out["slot_ticks"] = slot
        out["preamble_ticks"] = ticks_from_seconds(out["preamble_ms"] / 1000.0)
        out["slot_of"] = {n: int(s) for s, n in assignment.items()}
        for i, spec in enumerate(scenario.traffic):
            if spec.node not in out["slot_of"]:
                raise ValueError(f"traffic[{i}].node: {spec.node!r} has no "
                                 f"slot to send its frames in")
        out["round_ticks"] = (out["preamble_ticks"]
                              + (max(out["slot_of"].values()) + 1) * slot)
        return out

    def __init__(self, node, network, settings):
        super().__init__(node, network, settings)
        self.slot_ticks = settings["slot_ticks"]
        self.preamble_ticks = settings["preamble_ticks"]
        self.round_ticks = settings["round_ticks"]
        self.slot = settings["slot_of"].get(node.node_id)  # None: no slot
        self.radio = node.add_radio(
            "data", self.channel,
            "listen" if self.is_coordinator else "sleep", self._on_frame)
        self._preamble_timeout = None  # the wait a preamble answers

    def start(self) -> None:
        if self.is_coordinator:
            self.node.at(0, "tdma_round", self._coord_round)
        else:
            self.node.at(0, "tdma_wake", self._wake_for_preamble)

    # Coordinator: broadcast the preamble, listen for the rest of the round.

    def _coord_round(self) -> None:
        start = self.sim.now
        preamble = Frame(FrameKind.PREAMBLE, self.node.node_id, None, 0,
                         info={"round_start": start})
        self.medium.begin_tx(self.radio, preamble, self.preamble_ticks)
        self.node.at(start + self.round_ticks, "tdma_round",
                     self._coord_round)

    # Device: wake for the preamble; on success, serve the owned slot.

    def _wake_for_preamble(self) -> None:
        self.radio.set_state("listen")
        deadline = self.sim.now + self.preamble_ticks + 500
        # a missed preamble skips the whole round
        self._preamble_timeout = self.at(
            deadline, "preamble_timeout", lambda: self.radio.set_state("sleep"))
        self.node.after(self.round_ticks, "tdma_wake", self._wake_for_preamble)

    def _on_preamble(self, frame: Frame) -> None:
        self.sim.cancel(self._preamble_timeout)
        round_start = frame.info["round_start"]
        self.radio.set_state("sleep")
        if not len(self.queue):  # a device with frames has a slot
            return
        slot_at = round_start + self.preamble_ticks + self.slot * self.slot_ticks
        if slot_at >= self.sim.now:
            # the rx/tx turnaround happens inside the owned slot
            self.send_in_slot(slot_at, slot_at + TURNAROUND_US, "tdma_slot")

    def _on_control(self, frame: Frame) -> None:
        if frame.kind is FrameKind.PREAMBLE:
            self._on_preamble(frame)
