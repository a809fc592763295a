"""Preamble-based TDMA: the coordinator announces the slot map each round.

A node sleeps except for the preamble and its own slots; a missed preamble
skips the whole round. Data slots are unacknowledged and collision-free by
construction when the assignment is unique.
"""

from __future__ import annotations

from typing import NamedTuple

from ..channel import frame_airtime
from ..core import SimTime, ticks_from_seconds
from ..frames import Frame, FrameKind
from ..scenario import ScenarioError
from .base import TICK_MS, TURNAROUND_US, MacBase, require_one_channel


class TdmaSchedule(NamedTuple):
    """Static slot map for one round; `PbTdmaMac.settings` checks it."""

    slot_ticks: SimTime
    preamble_ticks: SimTime
    assignment: dict  # slot index -> node id

    @property
    def frame_length(self) -> int:
        return (max(self.assignment) + 1) if self.assignment else 0

    @property
    def round_ticks(self) -> SimTime:
        return self.preamble_ticks + self.frame_length * self.slot_ticks

    def slot_start(self, round_start: SimTime, slot: int) -> SimTime:
        return round_start + self.preamble_ticks + slot * self.slot_ticks

    def slots_of(self, node: str) -> list[int]:
        return [s for s, n in self.assignment.items() if n == node]


class PbTdmaMac(MacBase):
    """Event-driven PB-TDMA node and coordinator."""

    name = "pbtdma"
    params = {"slot_ms": (float, 10.0, TICK_MS),
              "preamble_ms": (float, 10.0, TICK_MS),
              "assignment": ({str: str}, None, None)}  # null: devices in id order

    @classmethod
    def settings(cls, scenario) -> dict:
        require_one_channel(scenario)
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
        rate = scenario.channel_cfg[devices[0].channel]["data_rate_bps"]
        need = TURNAROUND_US + frame_airtime(128, rate)
        if slot < need:
            raise ValueError(f"TDMA slot {slot} us cannot fit a frame "
                             f"({need} us)")
        if len(set(assignment.values())) != len(assignment):
            raise ValueError("each node may own at most one slot")
        out["schedule"] = TdmaSchedule(
            slot_ticks=slot,
            preamble_ticks=ticks_from_seconds(out["preamble_ms"] / 1000.0),
            assignment={int(k): v for k, v in assignment.items()})
        return out

    def __init__(self, sim, medium, node, network, settings):
        super().__init__(sim, medium, node, network, settings)
        self.schedule: TdmaSchedule = settings["schedule"]
        self.round_ticks = self.schedule.round_ticks  # read at every round
        self.radio = node.add_radio(
            "data", self.channel,
            initial_state="listen" if self.is_coordinator else "sleep")
        self.radio.on_frame = self._on_frame
        self._round_start: SimTime = 0
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
        self.medium.begin_tx(self.radio, preamble, self.node.tx_power_dbm,
                             airtime=self.schedule.preamble_ticks)
        self.node.at(start + self.round_ticks, "tdma_round",
                     self._coord_round)

    # Device: wake for the preamble; on success, serve owned slots.

    def _wake_for_preamble(self) -> None:
        self._round_start = self.sim.now
        self.radio.set_state("listen")
        deadline = self.sim.now + self.schedule.preamble_ticks + 500
        # a missed preamble skips the whole round
        self._preamble_timeout = self.at(
            deadline, "preamble_timeout", lambda: self.radio.set_state("sleep"))
        self.node.at(self._round_start + self.round_ticks,
                     "tdma_wake", self._wake_for_preamble)

    def _on_preamble(self, frame: Frame) -> None:
        self.sim.cancel(self._preamble_timeout)
        round_start = frame.info["round_start"]
        self.radio.set_state("sleep")
        if not len(self.queue):
            return
        for slot in self.schedule.slots_of(self.node.node_id):
            slot_at = self.schedule.slot_start(round_start, slot)
            if slot_at >= self.sim.now:
                # the rx/tx turnaround happens inside the owned slot
                self.send_in_slot(slot_at, slot_at + TURNAROUND_US, "tdma_slot")

    def _on_control(self, frame: Frame) -> None:
        if frame.kind is FrameKind.PREAMBLE:
            self._on_preamble(frame)
