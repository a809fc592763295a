"""Shared MAC machinery: timing constants, priority queues, the session
rule for stale steps, unacknowledged sends, the acknowledged exchange with
its retries, the receive dispatch, and the slotted CSMA/CA engine."""

from __future__ import annotations

from bisect import insort
from typing import Callable, Optional

from ..channel import DeliveryOutcome, frame_airtime
from ..core import US_PER_S, Event, SimTime, Simulator
from ..frames import ACK_BYTES, Frame, FrameKind, Mpdu
from ..traffic import priority

UNIT_BACKOFF_US = 320     # 20 symbols at 250 kb/s
CCA_US = 128              # 8 symbols
TURNAROUND_US = 192       # rx/tx switch, charged at rx power
ACK_WAIT_MARGIN_US = 200
TICK_MS = 1000 / US_PER_S  # one tick: the shortest slot, preamble or signal


def ack_wait_ticks(rate_bps: int) -> SimTime:
    """How long a sender at `rate_bps` waits for an ack."""
    return (TURNAROUND_US + frame_airtime(ACK_BYTES, rate_bps)
            + ACK_WAIT_MARGIN_US)


def require_one_channel(scenario) -> None:
    """Raise ValueError naming each node off the coordinator's channel. A MAC
    whose devices follow the coordinator's beacons or preambles cannot serve
    them: they never hear one."""
    key = scenario.node(scenario.bnc).channel
    strays = sorted(n.id for n in scenario.nodes if n.channel != key)
    if strays:
        raise ValueError(f"nodes not on the coordinator's channel {key!r}: "
                         f"{', '.join(strays)}")


def require_no_coordinator_traffic(scenario) -> None:
    """Raise ValueError naming the coordinator's first flow. A MAC whose
    coordinator only beacons, polls or grants has no way to send it."""
    for i, spec in enumerate(scenario.traffic):
        if spec.node == scenario.bnc:
            raise ValueError(f"traffic[{i}].node: the coordinator "
                             f"{spec.node!r} cannot send frames of its own")


class FrameQueue:
    """Bounded queue ordered by traffic priority, FIFO within a class."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._items: list[tuple[int, int, Mpdu]] = []
        self._seq = 0

    def push(self, mpdu: Mpdu) -> bool:
        if len(self._items) >= self.capacity:
            return False
        self._seq += 1
        # seq is unique, so the comparison never reaches the Mpdu
        insort(self._items, (-priority(mpdu.cls), self._seq, mpdu))
        return True

    def peek(self) -> Optional[Mpdu]:
        return self._items[0][2] if self._items else None

    def pop(self) -> Mpdu:
        return self._items.pop(0)[2]

    def __len__(self) -> int:
        return len(self._items)

    def frames(self) -> list[Mpdu]:
        return [t[2] for t in self._items]


class MacBase:
    """Common plumbing every protocol shares; subclasses drive the radio.
    The shared sends transmit on `self.radio`, which subclasses create.

    Session rule: a scheduled step belongs to the session in which it was
    scheduled and does nothing once `new_session()` has started another one
    or the node has died, so an ack due after its session ended is not sent.
    Its event is still dispatched. A session ends only where a protocol
    period ends; a timeout whose wait is answered is cancelled by name with
    `sim.cancel`. Steps that outlive sessions go through `node.at`/`after`,
    which hold the dead-node half.
    """

    name: str  # the protocol's name in scenarios and on the command line
    profile = "nrf2401"  # power profile of nodes that name none
    params: dict = {}  # the field table of `protocols.<name>` in a scenario
    retry_limit: int  # retransmissions after a missing ack, in acked MACs

    @classmethod
    def settings(cls, scenario) -> dict:
        """The protocol's parameters in `scenario`; subclasses check the rules
        their field table cannot hold and add derived values. The runner hands
        the result to every MAC of a run. Raises ValueError on a scenario the
        protocol rejects."""
        return scenario.protocol_params(cls.name)

    def __init__(self, sim: Simulator, medium, node, network, settings: dict):
        self.sim = sim
        self.medium = medium
        self.node = node
        self.network = network
        self.rng = sim.stream(f"mac:{node.node_id}")
        scenario = network.scenario
        self.queue = FrameQueue(scenario.queue_capacity)
        self.channel = scenario.node(node.node_id).channel
        self.ack_wait = ack_wait_ticks(
            scenario.channels[self.channel]["data_rate_bps"])
        self.target = node.target
        self.in_service: Optional[Mpdu] = None
        self._session = 0
        # the acknowledged exchange of the frame in service
        self._retries = 0
        self._ack_timer: Optional[Event] = None
        self._ack_done: Optional[Callable[[bool, str], None]] = None
        node.mac = self

    @property
    def metrics(self):
        return self.network.metrics

    @property
    def is_coordinator(self) -> bool:
        return self.node.node_id == self.network.bnc_id

    def start(self) -> None:
        """Schedule the first steps, once every MAC of the run is built; a MAC
        that only answers frames and its queue has none."""

    def enqueue(self, mpdu: Mpdu) -> None:
        if not self.queue.push(mpdu):
            self.metrics.on_dropped(mpdu)
            return
        self._on_enqueued()

    def _on_enqueued(self) -> None:
        """A frame joined the queue."""

    def pending_frames(self) -> list[Mpdu]:
        out = self.queue.frames()
        if self.in_service is not None:
            out.append(self.in_service)
        return out

    # Sessions --------------------------------------------------------------

    def new_session(self) -> None:
        """Make every step of the current session stale."""
        self._session += 1

    def in_session(self, fn: Callable) -> Callable:
        """`fn`, run only while this session lasts and the node lives."""
        session = self._session
        node = self.node

        def step(*args):
            if session == self._session and not node.dead:
                fn(*args)
        return step

    def at(self, when: SimTime, kind: str, fn: Callable[[], None]) -> Event:
        return self.sim.schedule_at(when, kind, self.target, self.in_session(fn))

    def after(self, delay: SimTime, kind: str, fn: Callable[[], None]) -> Event:
        return self.at(self.sim.now + delay, kind, fn)

    # Unacknowledged sends --------------------------------------------------

    def send_unacked(self, then: Callable[[], None]) -> None:
        """Send the head frame once on `self.radio`; a frame that is not
        delivered is dropped. `then` runs when the transmission ends."""
        mpdu = self.queue.pop()
        self.serve(mpdu)
        frame = Frame.data(mpdu, self.node.node_id, self.network.link_dst(mpdu))

        def _result(outcome):
            self.end_service(drop=outcome is not DeliveryOutcome.DELIVERED)
            then()

        self.medium.begin_tx(self.radio, frame, on_result=_result)

    def send_in_slot(self, wake_at: SimTime, tx_at: SimTime, kind: str) -> None:
        """Switch to rx at `wake_at`, send one frame unacknowledged at `tx_at`,
        then sleep. The steps' event kinds are `<kind>_wake` and `<kind>_tx`."""
        self.at(wake_at, f"{kind}_wake", lambda: self.radio.set_state("rx"))
        self.at(tx_at, f"{kind}_tx", self._slot_tx)

    def _slot_tx(self) -> None:
        self.send_unacked(lambda: self.radio.set_state("sleep"))

    # Acknowledged exchange -------------------------------------------------

    def exchange_ticks(self, mpdu: Mpdu) -> SimTime:
        """How long one attempt at `mpdu` takes: its airtime on `self.radio`
        plus the ack wait."""
        return (frame_airtime(mpdu.payload_bytes, self.radio.chan_state.rate)
                + self.ack_wait)

    def serve(self, mpdu: Mpdu) -> None:
        """Put `mpdu` in service for an acknowledged exchange, with no
        retries spent."""
        self.in_service = mpdu
        self._retries = 0

    def end_service(self, drop: bool) -> None:
        """Take the frame in service out of service, counting it dropped when
        `drop` is true."""
        if drop:
            self.metrics.on_dropped(self.in_service)
        self.in_service = None

    def send_acked(self, done: Callable[[bool, str], None],
                   resend: Optional[Callable[[], None]] = None,
                   deadline: Optional[SimTime] = None) -> None:
        """Send the frame in service once on `self.radio`, then wait for its
        ack. Without one, `resend()` runs while `_retries` is within
        `retry_limit` and another attempt would end by `deadline`; it calls
        `send_acked` again once the radio may send, and by default it is that
        call with the same arguments. `done(ok, reason)` ends the exchange
        with the reason "acked", "retries" or "deadline". A send due while
        the radio transmits waits for it, within the session."""
        mpdu = self.in_service
        frame = Frame.data(mpdu, self.node.node_id, self.network.link_dst(mpdu))
        self._ack_done = done
        resend = resend or (lambda: self.send_acked(done, None, deadline))

        def _await_ack(outcome):
            self._ack_timer = self.after(
                self.ack_wait, "ack_timeout",
                lambda: self._ack_missed(resend, deadline))

        self.radio.when_free(self.in_session(lambda: self.medium.begin_tx(
            self.radio, frame, on_result=self.in_session(_await_ack))))

    def _ack_missed(self, resend: Callable[[], None],
                    deadline: Optional[SimTime]) -> None:
        self._retries += 1
        if self._retries > self.retry_limit:
            self._ack_done(False, "retries")
        elif (deadline is not None and self.sim.now
              + self.exchange_ticks(self.in_service) > deadline):
            self._ack_done(False, "deadline")
        else:
            resend()

    def _on_ack(self, frame: Frame) -> None:
        # an ack ends its exchange only while its wait is armed: one that
        # comes after the wait has fired would end the retry that followed
        if (frame.link_dst != self.node.node_id
                or frame.mpdu is not self.in_service
                or not self.sim.cancel(self._ack_timer)):
            return
        self._ack_done(True, "acked")

    def send_ack_after_turnaround(self, radio, to: str, mpdu: Mpdu) -> None:
        """Receiver side: switch rx for the turnaround, then transmit the ack
        within the session; each step waits while the radio transmits."""
        ack = Frame.ack(self.node.node_id, to, mpdu)

        def _turnaround():
            radio.set_state("rx")
            self.after(TURNAROUND_US, "ack_tx", lambda: radio.when_free(
                lambda: self.medium.begin_tx(radio, ack)))

        radio.when_free(_turnaround)

    # Reception ---------------------------------------------------------------

    def _on_frame(self, frame: Frame) -> None:
        """The receive hook of the MAC's radios."""
        kind = frame.kind
        if kind is FrameKind.DATA:
            if frame.link_dst == self.node.node_id:
                self._on_data(frame)
        elif kind is FrameKind.ACK:
            self._on_ack(frame)
        else:
            self._on_control(frame)

    def _on_data(self, frame: Frame) -> None:
        """A data frame for this node; the acked MACs also send its ack."""
        self.network.handle_data_delivery(self.node, frame.mpdu)

    def _on_control(self, frame: Frame) -> None:
        """A frame of the MAC's own kinds: beacons, preambles, grants, polls."""


class SlottedCsmaMac(MacBase):
    """Slotted CSMA/CA with acknowledgements and retransmissions.

    Contention runs on a backoff grid anchored at `_access_start`: a backoff
    of [0, 2^BE - 1] units, then two CCAs one unit apart (a busy first CCA
    skips the second), then the frame. A frame and its ack must fit before
    `_access_end`. `busy_limit` busy CCAs in a row end the attempt.

    Subclasses create `self.radio` with `_on_frame` as its receive hook, set
    `busy_limit` and move the access period; contention runs only inside it.
    By default an empty queue, a frame that does not fit and an attempt lost
    to a busy channel all leave the radio as it is; a lost frame stays in
    service until `_start_service` runs again.
    """

    params = {"macMinBE": (int, 3, 0), "aMaxBE": (int, 5, 0),
              "retry_limit": (int, 3, 0)}
    busy_limit: int

    @classmethod
    def settings(cls, scenario) -> dict:
        out = super().settings(scenario)
        if out["macMinBE"] > out["aMaxBE"]:
            raise ValueError("need macMinBE <= aMaxBE")
        return out

    def __init__(self, sim: Simulator, medium, node, network, settings: dict):
        super().__init__(sim, medium, node, network, settings)
        self.min_be = settings["macMinBE"]
        self.max_be = settings["aMaxBE"]
        self.retry_limit = settings["retry_limit"]
        self._access_start: SimTime = 0
        self._access_end: SimTime = 0
        self._nb = 0
        self._be = self.min_be

    def _idle(self) -> None:
        """Nothing to send now, or the frame waits for the next access period."""

    def _access_failed(self) -> None:
        """`busy_limit` busy CCAs in a row."""

    def _start_service(self) -> None:
        if self.in_service is None:
            if not len(self.queue):
                self._idle()
                return
            self.serve(self.queue.pop())
        self._csma_begin()

    def _csma_begin(self) -> None:
        self._nb = 0
        self._be = self.min_be
        self._backoff()

    def _boundary_after(self, t: SimTime) -> SimTime:
        k = -((self._access_start - t) // UNIT_BACKOFF_US)  # ceil division
        return self._access_start + max(0, k) * UNIT_BACKOFF_US

    def _backoff(self) -> None:
        delay_units = self.rng.randrange(1 << self._be)
        b0 = self._boundary_after(self.sim.now) + delay_units * UNIT_BACKOFF_US
        tx_at = b0 + 2 * UNIT_BACKOFF_US
        if tx_at + self.exchange_ticks(self.in_service) > self._access_end:
            self._idle()
            return
        self.at(b0 + CCA_US, "cca", lambda: self._cca_done(b0, False))

    def _cca_done(self, window_start: SimTime, second: bool) -> None:
        if self.medium.cca_busy(self.radio, window_start):
            self._nb += 1
            self._be = min(self._be + 1, self.max_be)
            if self._nb >= self.busy_limit:
                self._access_failed()
            else:
                self._backoff()
            return
        if not second:
            w2 = window_start + UNIT_BACKOFF_US
            self.at(w2 + CCA_US, "cca", lambda: self._cca_done(w2, True))
        else:
            self.at(window_start + UNIT_BACKOFF_US, "tx_start", self._transmit)

    def _transmit(self) -> None:
        if self.radio.state != "tx":  # a CCA-won slot is not used late
            self.send_acked(self._exchange_done, self._csma_begin)

    def _exchange_done(self, ok: bool, reason: str) -> None:
        self.end_service(drop=not ok)
        self._start_service()

    def _on_data(self, frame: Frame) -> None:
        self.send_ack_after_turnaround(self.radio, frame.src, frame.mpdu)
        super()._on_data(frame)  # a relay of the frame queues behind its ack
