"""Traffic-Based Wakeup MAC.

Normal traffic is served in table-driven periodic windows: the coordinator
holds its data radios awake from a guard before each window of its table to
a guard after it, sleeps them once no hold is left, and emits a short beacon
at each window start; the node uploads queued frames with per-frame acks.
Emergencies bypass the table entirely: the node raises a burst on the
always-on wakeup channel, the coordinator powers its data radio and grants
immediate access. On-demand requests travel the other way, either tone
addressed (only the target wakes) or broadcast (every node wakes and the
non-targets pay the price).
"""

from __future__ import annotations

from typing import Optional

from ..channel import frame_airtime
from ..core import SimTime, ticks_from_seconds
from ..frames import BEACON_BYTES, POLL_BYTES, Frame, FrameKind, Mpdu
from ..traffic import OnDemandRequest, TrafficClass, next_occurrence
from ..wakeup import WakeupEntry
from .base import (TICK_MS, TURNAROUND_US, MacBase, ack_wait_ticks,
                   require_no_coordinator_traffic)

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
        require_no_coordinator_traffic(scenario)
        # a device sends its normal frames only in its entry's windows, each
        # opened by a beacon: one exchange of each flow's payload must fit
        entry_of = {e.node: j for j, e in enumerate(scenario.wakeup_table)}
        for i, spec in enumerate(scenario.traffic):
            if spec.cls is TrafficClass.EMERGENCY:
                continue
            j = entry_of.get(spec.node)
            if j is None:
                raise ValueError(f"traffic[{i}].node: {spec.node!r} has no "
                                 f"wakeup_table entry to send its frames in")
            rate = scenario.channels[scenario.node(spec.node).channel][
                "data_rate_bps"]
            need = (frame_airtime(BEACON_BYTES, rate) + ack_wait_ticks(rate)
                    + frame_airtime(spec.payload_bytes, rate))
            window = scenario.wakeup_table[j].window
            if window < need:
                raise ValueError(
                    f"wakeup_table[{j}].window_ms: {window} us cannot fit the "
                    f"beacon and one exchange of traffic[{i}] ({need} us)")
        out = super().settings(scenario)
        for key in ("guard", "wakeup_signal", "wakeup_retry"):
            out[f"{key}_ticks"] = ticks_from_seconds(out[f"{key}_ms"] / 1000.0)
        return out

    def __init__(self, node, network, settings):
        super().__init__(node, network, settings)
        self.guard = settings["guard_ticks"]
        self.signal_ticks = settings["wakeup_signal_ticks"]
        self.retry_timeout = settings["wakeup_retry_ticks"]
        self.max_tries = settings["wakeup_max_tries"]
        self.retry_limit = settings["retry_limit"]
        scenario = network.scenario
        self.node_channels: dict[str, str] = {
            n.id: n.channel for n in scenario.nodes if n.id != scenario.bnc}
        if self.is_coordinator:
            self.table: list[WakeupEntry] = scenario.wakeup_table
            self.data_radios: dict[str, object] = {}
            # a grant holds its radio for the device's retry wait, or for the
            # granted exchange of an MTU frame with every retry if longer
            self._grant_hold: dict[str, SimTime] = {}
            for ch, cc in scenario.channels.items():  # in (band, phy) order
                if ch not in self.node_channels.values():
                    continue
                radio = node.add_radio(f"data:{cc['band']}:{cc['phy']}", ch,
                                       "listen" if self.always_on else "sleep",
                                       self._on_frame)
                self.data_radios[ch] = radio
                rate = cc["data_rate_bps"]
                attempt = (frame_airtime(cc["mtu_bytes"], rate)
                           + ack_wait_ticks(rate))
                self._grant_hold[ch] = max(
                    self.retry_timeout, frame_airtime(GRANT_BYTES, rate)
                    + (self.retry_limit + 1) * attempt)
            # a data radio sleeps while no hold is on it: each guarded window,
            # grant and request is a hold, and always_on one that never ends
            self._holds: dict[str, int] = {ch: int(self.always_on)
                                           for ch in self.data_radios}
        else:
            self.radio = node.add_radio("data", self.channel,
                                        on_frame=self._on_frame)
            self.beacon_airtime = frame_airtime(BEACON_BYTES,
                                                self.radio.chan_state.rate)
            # each on-demand answer fills a frame of the channel's MTU
            self.mtu_bytes = scenario.channels[self.channel]["mtu_bytes"]
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
        node.add_wakeup_receiver(scenario.wakeup_channel,
                                 self._on_wakeup_signal)
        self.wakeup_tx = node.add_radio("wakeup_tx", scenario.wakeup_channel)

    # ------------------------------------------------------------------ #
    # lifecycle                                                          #
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        if self.is_coordinator:
            for e in self.table:  # each entry's first window is at its offset
                self.at(max(self.sim.now, e.offset - self.guard), "bnc_wake",
                        lambda e=e: self._open_window(e, e.offset))
        elif self.entry:
            self._schedule_next_window()

    def radio_for(self, node_id: str):
        if self.is_coordinator:
            return self.data_radios[self.node_channels[node_id]]
        return self.radio

    # ------------------------------------------------------------------ #
    # coordinator: guarded windows and window beacons                    #
    # ------------------------------------------------------------------ #

    def _open_window(self, entry: WakeupEntry, occ: SimTime) -> None:
        """Hold every data radio from `guard` before the entry's window at
        `occ` to `guard` after it, send the window's beacon at `occ`, and
        chain the entry's next window."""
        for channel in self.data_radios:
            self._acquire(channel)
        self.at(occ, "window_beacon", lambda: self._window_beacon(entry, occ))
        nxt = occ + entry.period
        self.at(max(self.sim.now, nxt - self.guard), "bnc_wake",
                lambda: self._open_window(entry, nxt))

        def close():
            for channel in self.data_radios:
                self._release(channel)

        self.at(occ + entry.window + self.guard, "bnc_sleep", close)

    def _window_beacon(self, entry: WakeupEntry, occ: SimTime) -> None:
        radio = self.radio_for(entry.node)
        if radio.state != "tx":  # a late beacon is not sent
            self.medium.begin_tx(radio, Frame(
                FrameKind.BEACON, self.node.node_id, entry.node, BEACON_BYTES,
                info={"window_end": occ + entry.window}))

    def _acquire(self, channel: str) -> None:
        self._holds[channel] += 1
        radio = self.data_radios[channel]
        if radio.state == "sleep":
            radio.set_state("listen")

    def _release(self, channel: str) -> None:
        """Drop one hold; a listening data radio sleeps once none is left."""
        self._holds[channel] -= 1
        radio = self.data_radios[channel]
        if radio.state == "listen" and not self._holds[channel]:
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
                                       self._resume)

    def _on_window_beacon(self, frame: Frame) -> None:
        if self._od_req is not None or self._emg_active is not None:
            return  # windows resume once the request or emergency is served
        self.sim.cancel(self._beacon_timeout)
        self._window_end = frame.info["window_end"]
        if not len(self.queue):
            # stay reachable until the window closes, then sleep
            self.at(self._window_end, "window_close", self._resume)
            return
        self._window_send_next()

    def _window_send_next(self) -> None:
        if not len(self.queue):
            self._resume()
            return
        mpdu = self.queue.peek()
        if self.sim.now + self.exchange_ticks(mpdu) > self._window_end:
            self._resume()  # carry over whatever is left
            return
        self.serve(self.queue.pop())
        self.send_acked(self.in_session(self._window_sent),
                        deadline=self._window_end)

    def _window_sent(self, ok: bool, reason: str) -> None:
        if reason == "deadline":
            self._requeue_in_service()  # carry over to the next window
            self._resume()
            return
        self.end_service(drop=not ok)
        self._window_send_next()

    # ------------------------------------------------------------------ #
    # emergency: wakeup burst, grant, immediate access                   #
    # ------------------------------------------------------------------ #

    def enqueue(self, mpdu: Mpdu) -> None:
        if mpdu.cls is TrafficClass.EMERGENCY:  # a coordinator flow is refused
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
            self.end_service(drop=not self.queue.push(self.in_service))

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
            self._resume()
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
                       self.network.bnc_id, 0)
        self.medium.begin_tx(self.wakeup_tx, signal, self.signal_ticks,
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
        self.end_service(drop=False)  # a failed exchange signals again
        if ok:
            self._resume()
        else:  # the grant's exchange failed
            self._signal_again()

    def _resume(self) -> None:
        """End the window, emergency or on-demand service: sleep the data
        radio, then start the next pending emergency or await the next
        window. Window service runs only while neither of the others does."""
        self._emg_active = self._od_req = None
        self.radio.set_state("sleep")
        if self._pending_emergencies:
            self._start_emergency()
        elif self.entry:
            self._schedule_next_window()

    # coordinator side of the emergency path

    def _coord_on_emergency_signal(self, frame: Frame) -> None:
        channel = self.node_channels[frame.src]
        self._acquire(channel)
        self.data_radios[channel].set_state("rx")
        # hold the radio until the access completes, then re-sleep
        self._answer(channel, "grant_tx",
                     Frame(FrameKind.GRANT, self.node.node_id, frame.src,
                           GRANT_BYTES), self._grant_hold[channel])

    def _answer(self, channel: str, kind: str, frame: Frame,
                hold: SimTime) -> None:
        """A turnaround from now, send `frame` on the channel's data radio
        once it is free, and release the channel's hold `hold` after that."""
        radio = self.data_radios[channel]

        def send():
            self.medium.begin_tx(radio, frame)
            self.node.after(hold, "session_release",
                            lambda: self._release(channel))

        self.node.after(TURNAROUND_US, kind, lambda: radio.when_free(send))

    # ------------------------------------------------------------------ #
    # on-demand: coordinator-initiated wakeup                            #
    # ------------------------------------------------------------------ #

    def issue_request(self, request: OnDemandRequest) -> None:
        """Coordinator sends a wakeup signal and polls the target."""
        channel = self.node_channels[request.target]
        self._acquire(channel)
        signal = Frame(FrameKind.WAKEUP, self.node.node_id, None, 0,
                       info={"request": request})

        def after_signal(_outcome):
            self._answer(channel, "poll_tx",
                         Frame(FrameKind.POLL, self.node.node_id, None,
                               POLL_BYTES, info={"request": request}),
                         request.duration + 200_000)
            self.wakeup_tx.set_state("sleep")

        self.wakeup_tx.when_free(lambda: self.medium.begin_tx(
            self.wakeup_tx, signal, self.signal_ticks, on_result=after_signal))

    def _on_wakeup_signal(self, frame: Frame) -> None:
        # emergency signals are unicast to the coordinator, and on-demand
        # ones broadcast by it, so the receiver's role says which one it is
        if frame.kind is not FrameKind.WAKEUP:
            return
        if self.is_coordinator:
            self._coord_on_emergency_signal(frame)
            return
        if self._emg_active is not None:
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
                                        "poll_timeout", self._resume)

    def _on_poll(self, frame: Frame) -> None:
        # a node that serves its own request ignores the polls of others
        if self._od_req is None or not self.sim.cancel(self._poll_timeout):
            return
        request = frame.info["request"]
        if request.target != self.node.node_id:
            # woke for someone else's request: pay the price and go back down
            self._resume()
            return
        offsets = request.response_offsets()
        base = self.sim.now + TURNAROUND_US

        # every response belongs to the poll's session, also when reached
        # from an ack that arrives after the session has ended
        @self.in_session
        def send_kth(k: int):
            if k >= len(offsets):
                self._resume()
                return
            self.serve(self.network.new_mpdu(
                self.node.node_id, self.network.bnc_id, request.cls,
                self.mtu_bytes))
            self.send_acked(lambda ok, _reason: next_one(k, ok))

        def next_one(k: int, ok: bool):
            self.end_service(drop=not ok)
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
