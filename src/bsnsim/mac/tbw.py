"""Traffic-Based Wakeup MAC.

Normal traffic is served in table-driven periodic windows: the coordinator
wakes a guard before each window of its table and sleeps once no window is
open, emits a short beacon at each window start, and the node uploads queued
frames with per-frame acks. Emergencies bypass the table entirely: the node
raises a burst on the always-on wakeup channel, the coordinator powers its
data radio and grants immediate access. On-demand requests travel the other
way, either tone addressed (only the target wakes) or broadcast (every node
wakes and the non-targets pay the price).
"""

from __future__ import annotations

from typing import Optional

from ..channel import ChannelId
from ..core import SimTime, ticks_from_seconds
from ..frames import BEACON_BYTES, POLL_BYTES, Frame, FrameKind, Mpdu
from ..traffic import OnDemandRequest, TrafficClass, next_occurrence
from ..wakeup import WakeupEntry
from .base import TICK_MS, TURNAROUND_US, MacBase, ack_wait_ticks

GRANT_BYTES = BEACON_BYTES
POLL_WAIT_US = 20_000


class TbwMac(MacBase):
    """Node and coordinator roles of the traffic-based wakeup mechanism.

    The coordinator serves the scenario's wakeup table as loaded, and each
    device the one entry the table holds for it, if any.
    """

    name = "tbw"
    always_on = False  # whether the coordinator's data radios never sleep
    params = {"guard_ms": (float, 2.0, 0.0),
              "wakeup_signal_ms": (float, 10.0, TICK_MS),
              "wakeup_retry_ms": (float, 50.0, 0.0),
              "wakeup_max_tries": (int, 10, 1), "retry_limit": (int, 3, 0)}

    @classmethod
    def settings(cls, scenario) -> dict:
        if scenario.wakeup_channel is None:
            raise ValueError(f"{cls.name} requires a wakeup_channel in the "
                             f"scenario")
        out = super().settings(scenario)
        for key in ("guard", "wakeup_signal", "wakeup_retry"):
            out[f"{key}_ticks"] = ticks_from_seconds(out[f"{key}_ms"] / 1000.0)
        return out

    def __init__(self, sim, medium, node, network, settings):
        super().__init__(sim, medium, node, network, settings)
        self.guard = settings["guard_ticks"]
        self.signal_ticks = settings["wakeup_signal_ticks"]
        self.retry_timeout = settings["wakeup_retry_ticks"]
        self.max_tries = settings["wakeup_max_tries"]
        self.retry_limit = settings["retry_limit"]
        scenario = network.scenario
        self.wakeup_channel: ChannelId = scenario.channel_id(
            scenario.wakeup_channel)
        self.node_channels: dict[str, ChannelId] = {
            n.id: scenario.channel_id(n.channel) for n in scenario.nodes
            if n.id != scenario.bnc}
        if self.is_coordinator:
            self.table: list[WakeupEntry] = scenario.wakeup_table
            self.data_radios: dict[ChannelId, object] = {}
            # a grant holds its radio for the device's retry wait, or for the
            # granted exchange of an MTU frame with every retry if longer
            self._grant_hold: dict[ChannelId, SimTime] = {}
            for ch in sorted({*self.node_channels.values()},
                             key=lambda c: (c.band.value, c.phy)):
                radio = node.add_radio(f"data:{ch.band.value}:{ch.phy}", ch,
                                       initial_state="listen" if self.always_on
                                       else "sleep")
                radio.on_frame = self._on_frame
                self.data_radios[ch] = radio
                mtu = scenario.channel_cfg[scenario.channel_key(ch)]["mtu_bytes"]
                attempt = (medium.airtime_ticks(mtu, ch)
                           + ack_wait_ticks(medium, ch))
                self._grant_hold[ch] = max(
                    self.retry_timeout, medium.airtime_ticks(GRANT_BYTES, ch)
                    + (self.retry_limit + 1) * attempt)
            # holds keep a data radio awake outside the windows
            self._holds: dict[ChannelId, int] = {ch: 0 for ch in self.data_radios}
        else:
            self.radio = node.add_radio("data", self.channel)
            self.radio.on_frame = self._on_frame
            self.beacon_airtime = medium.airtime_ticks(BEACON_BYTES,
                                                       self.radio.channel)
            self.entry: Optional[WakeupEntry] = next(
                (e for e in scenario.wakeup_table if e.node == node.node_id),
                None)
            self._window_end: SimTime = 0
            self._pending_emergencies: list[Mpdu] = []
            self._emg_active: Optional[Mpdu] = None
            self._emg_tries = 0
            self._od_req: Optional[OnDemandRequest] = None
            # the waits a beacon, a grant and a poll answer, each armed
            # before its frame can arrive
            self._beacon_timeout = self._grant_timeout = self._poll_timeout = None
        self.wakeup_rx = node.add_wakeup_receiver(self.wakeup_channel)
        self.wakeup_rx.on_frame = self._on_wakeup_signal
        self.wakeup_tx = node.add_radio("wakeup_tx", self.wakeup_channel)

    # ------------------------------------------------------------------ #
    # lifecycle                                                          #
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        if self.is_coordinator:
            if not self.always_on:
                for entry in self.table:
                    self._chain_window(entry)
            for entry in self.table:
                self._chain_beacon(entry)
        elif self.entry:
            self._schedule_next_window()

    def radio_for(self, node_id: str):
        if self.is_coordinator:
            return self.data_radios[self.node_channels[node_id]]
        return self.radio

    # ------------------------------------------------------------------ #
    # coordinator: guarded windows and window beacons                    #
    # ------------------------------------------------------------------ #

    def _chain_window(self, entry: WakeupEntry) -> None:
        """Wake every data radio `guard` before each of the entry's windows
        and offer each one sleep (`_sleep_if_idle`) `guard` after it ends."""
        def open_window(occ):
            for radio in self.data_radios.values():
                if radio.state == "sleep":
                    radio.set_state("listen")
            nxt = occ + entry.period
            self.at(nxt - self.guard, "bnc_wake", lambda: open_window(nxt))
            self.at(occ + entry.window + self.guard, "bnc_sleep", close_window)

        def close_window():
            for channel in self.data_radios:
                self._sleep_if_idle(channel)

        now = self.sim.now
        occ = next_occurrence(entry.offset, entry.period,
                              now + self.guard)  # next to open
        if entry.guarded_open(now, self.guard):
            occ -= entry.period  # the one open now
        self.at(max(now, occ - self.guard), "bnc_wake", lambda: open_window(occ))

    def _chain_beacon(self, entry: WakeupEntry) -> None:
        def fire():
            radio = self.radio_for(entry.node)
            if radio.state != "tx":  # half-duplex skip: a late beacon is not sent
                end = self.sim.now + entry.window
                beacon = Frame(FrameKind.BEACON, self.node.node_id, entry.node,
                               BEACON_BYTES, info={"window_end": end})
                self.medium.begin_tx(radio, beacon, self.node.tx_power_dbm)
            self.at(next_occurrence(entry.offset, entry.period, self.sim.now),
                    "window_beacon", fire)

        self.at(next_occurrence(entry.offset, entry.period, self.sim.now - 1),
                "window_beacon", fire)

    def _acquire(self, channel: ChannelId) -> None:
        self._holds[channel] += 1
        radio = self.data_radios[channel]
        if radio.state == "sleep":
            radio.set_state("listen")

    def _release(self, channel: ChannelId) -> None:
        self._holds[channel] -= 1
        self._sleep_if_idle(channel)

    def _sleep_if_idle(self, channel: ChannelId) -> None:
        """Sleep the channel's listening data radio unless a hold is on it or
        a guarded window of the table is open."""
        radio = self.data_radios[channel]
        if (radio.state == "listen" and not self.always_on
                and self._holds[channel] == 0
                and not any(e.guarded_open(self.sim.now, self.guard)
                            for e in self.table)):
            radio.set_state("sleep")

    # ------------------------------------------------------------------ #
    # node: scheduled windows                                            #
    # ------------------------------------------------------------------ #

    def _schedule_next_window(self) -> None:
        entry = self.entry
        occ = next_occurrence(entry.offset, entry.period, self.sim.now)
        self.at(occ, "window_wake", lambda: self._window_wake(occ))

    def _window_wake(self, occ: SimTime) -> None:
        self.radio.set_state("listen")
        deadline = occ + self.beacon_airtime + self.guard + 500
        # a missed beacon closes the window; the node tries the next one
        self._beacon_timeout = self.at(deadline, "beacon_timeout",
                                       self._window_close)

    def _on_window_beacon(self, frame: Frame) -> None:
        if self._od_req is not None or self._emg_active is not None:
            return  # windows resume once the request or emergency is served
        self.sim.cancel(self._beacon_timeout)
        self._window_end = frame.info["window_end"]
        if not len(self.queue):
            # stay reachable until the window closes, then sleep
            self.at(self._window_end, "window_close", self._window_close)
            return
        self._window_send_next()

    def _window_close(self) -> None:
        self.radio.set_state("sleep")
        self._schedule_next_window()

    def _window_send_next(self) -> None:
        if not len(self.queue):
            self._window_close()
            return
        mpdu = self.queue.peek()
        if self.sim.now + self.exchange_ticks(mpdu) > self._window_end:
            self._window_close()  # carry over whatever is left
            return
        self.queue.pop()
        self.serve(mpdu)
        self.send_acked(self.in_session(
            lambda ok, reason: self._window_sent(mpdu, ok, reason)),
            deadline=self._window_end)

    def _window_sent(self, mpdu: Mpdu, ok: bool, reason: str) -> None:
        self.in_service = None
        if not ok:
            if reason == "deadline":
                if not self.queue.push(mpdu):  # carry over to the next window
                    self.metrics.on_dropped(mpdu)
                self._window_close()
                return
            self.metrics.on_dropped(mpdu)
        self._window_send_next()

    # ------------------------------------------------------------------ #
    # emergency: wakeup burst, grant, immediate access                   #
    # ------------------------------------------------------------------ #

    def enqueue(self, mpdu: Mpdu) -> None:
        if mpdu.cls is TrafficClass.EMERGENCY and not self.is_coordinator:
            self._pending_emergencies.append(mpdu)
            if self._emg_active is None:
                self._start_emergency()
            return
        super().enqueue(mpdu)

    def pending_frames(self) -> list[Mpdu]:
        out = super().pending_frames()
        if not self.is_coordinator:
            out.extend(self._pending_emergencies)
            if self._emg_active is not None:
                out.append(self._emg_active)
        return out

    def _requeue_in_service(self) -> None:
        if self.in_service is not None:
            if not self.queue.push(self.in_service):
                self.metrics.on_dropped(self.in_service)
            self.in_service = None

    def _start_emergency(self) -> None:
        self.new_session()  # preempt any window or on-demand service
        self._od_req = None
        self._requeue_in_service()
        self._emg_active = self._pending_emergencies.pop(0)
        self._emg_tries = 0
        self._emergency_signal()

    def _emergency_signal(self) -> None:
        self._emg_tries += 1
        if self._emg_tries > self.max_tries:
            self.metrics.wakeup_failures += 1
            self.metrics.on_dropped(self._emg_active)
            self._finish_emergency()
            return

        def armed(_outcome):
            self.wakeup_tx.set_state("sleep")
            self.radio.set_state("listen")  # await the grant
            # jitter wider than the signal itself so coincident emergencies
            # from different nodes desynchronize within a few retries
            jitter = self.rng.randrange(3 * self.signal_ticks)
            self._grant_timeout = self.after(
                self.retry_timeout + jitter, "grant_timeout", self._signal_again)

        signal = Frame(FrameKind.WAKEUP, self.node.node_id,
                       self.network.bnc_id, 0,
                       info={"purpose": "Emergency"})
        self.medium.begin_tx(self.wakeup_tx, signal, self.node.tx_power_dbm,
                             airtime=self.signal_ticks,
                             on_result=self.in_session(armed))

    def _signal_again(self) -> None:
        self.radio.set_state("sleep")
        self._emergency_signal()

    def _on_grant(self, frame: Frame) -> None:
        if not self.sim.cancel(self._grant_timeout):
            return  # no signal of this node awaits a grant
        self.serve(self._emg_active)
        self.send_acked(self.in_session(self._emergency_done))

    def _emergency_done(self, ok: bool, reason: str) -> None:
        self.in_service = None
        if ok:
            self._finish_emergency()
        else:  # the grant's exchange failed
            self._signal_again()

    def _finish_emergency(self) -> None:
        self._emg_active = None
        self.radio.set_state("sleep")
        if self._pending_emergencies:
            self._start_emergency()
        elif self.entry:
            self._schedule_next_window()

    # coordinator side of the emergency path

    def _coord_on_emergency_signal(self, frame: Frame) -> None:
        src = frame.src
        channel = self.node_channels[src]
        self._acquire(channel)
        radio = self.data_radios[channel]

        def send_grant():
            grant = Frame(FrameKind.GRANT, self.node.node_id, src, GRANT_BYTES)
            self.medium.begin_tx(radio, grant, self.node.tx_power_dbm)
            # hold the radio until the access completes, then re-sleep
            self.node.after(self._grant_hold[channel], "session_release",
                            lambda: self._release(channel))

        radio.set_state("rx")
        self.node.after(TURNAROUND_US, "grant_tx",
                        lambda: radio.when_free(send_grant))

    # ------------------------------------------------------------------ #
    # on-demand: coordinator-initiated wakeup                            #
    # ------------------------------------------------------------------ #

    def issue_request(self, request: OnDemandRequest) -> None:
        """Coordinator sends a wakeup signal and polls the target."""
        channel = self.node_channels[request.target]
        self._acquire(channel)
        signal = Frame(FrameKind.WAKEUP, self.node.node_id, None, 0,
                       info={"purpose": "OnDemand", "request": request})
        radio = self.data_radios[channel]

        def send_poll():
            poll = Frame(FrameKind.POLL, self.node.node_id, None, POLL_BYTES,
                         info={"request": request})
            self.medium.begin_tx(radio, poll, self.node.tx_power_dbm)
            self.node.after(request.duration + 200_000, "session_release",
                            lambda: self._release(channel))

        def after_signal(_outcome):
            self.node.after(TURNAROUND_US, "poll_tx",
                            lambda: radio.when_free(send_poll))
            self.wakeup_tx.set_state("sleep")

        self.medium.begin_tx(self.wakeup_tx, signal, self.node.tx_power_dbm,
                             airtime=self.signal_ticks, on_result=after_signal)

    def _on_wakeup_signal(self, frame: Frame, tx) -> None:
        if frame.kind is not FrameKind.WAKEUP:
            return
        purpose = frame.info.get("purpose")
        if self.is_coordinator:
            if purpose == "Emergency":
                self._coord_on_emergency_signal(frame)
            return
        if purpose != "OnDemand" or self._emg_active is not None:
            return  # an emergency outranks an on-demand wake
        request = frame.info["request"]
        if (request.addressing == "Tone"
                and request.target != self.node.node_id):
            return  # tone-addressed elsewhere; the receiver filters it out
        # broadcast or our tone: power the data radio and wait for the poll
        self.new_session()
        self._requeue_in_service()
        self.radio.set_state("listen")
        self._od_req = request
        self._poll_timeout = self.after(self.signal_ticks + POLL_WAIT_US,
                                        "poll_timeout", self._od_finish)

    def _od_finish(self) -> None:
        self._od_req = None
        self.radio.set_state("sleep")
        if self.entry:
            self._schedule_next_window()

    def _on_poll(self, frame: Frame) -> None:
        # a node that serves its own request ignores the polls of others
        if self._od_req is None or not self.sim.cancel(self._poll_timeout):
            return
        request = frame.info["request"]
        if request.target != self.node.node_id:
            # woke for someone else's request: pay the price and go back down
            self._od_finish()
            return
        offsets = request.response_offsets()
        base = self.sim.now + TURNAROUND_US

        # every response belongs to the poll's session, also when reached
        # from an ack that arrives after the session has ended
        @self.in_session
        def send_kth(k: int):
            if k >= len(offsets):
                self._od_finish()
                return
            mpdu = self.network.new_mpdu(self.node.node_id, self.network.bnc_id,
                                         request.cls)
            self.serve(mpdu)
            self.send_acked(lambda ok, _reason: next_one(k, ok, mpdu))

        def next_one(k: int, ok: bool, mpdu: Mpdu):
            self.in_service = None
            if not ok:
                self.metrics.on_dropped(mpdu)
            nxt = k + 1
            if nxt < len(offsets):
                at = max(self.sim.now, base + offsets[nxt])
                self.at(at, "od_stream", lambda: send_kth(nxt))
            else:
                send_kth(nxt)

        self.at(base, "od_start", lambda: send_kth(0))

    # ------------------------------------------------------------------ #
    # reception                                                          #
    # ------------------------------------------------------------------ #

    def _on_data(self, frame: Frame) -> None:
        self.send_ack_after_turnaround(self.radio_for(frame.src), frame.src,
                                       frame.mpdu)
        super()._on_data(frame)  # a relay of the frame queues behind its ack

    def _on_control(self, frame: Frame) -> None:
        kind = frame.kind
        if kind is FrameKind.POLL:
            self._on_poll(frame)
        elif frame.link_dst == self.node.node_id:
            if kind is FrameKind.BEACON:
                self._on_window_beacon(frame)
            elif kind is FrameKind.GRANT:
                self._on_grant(frame)


class TbwAlwaysOnMac(TbwMac):
    """tbw whose coordinator data radios never sleep: the energy baseline."""

    name = "tbw_alwayson"
    always_on = True
