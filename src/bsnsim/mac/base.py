"""Shared MAC machinery: timing constants, priority queues, ack exchange,
and the slotted CSMA/CA engine with acks and retransmissions."""

from __future__ import annotations

from typing import Optional

from ..core import SimTime, Simulator
from ..frames import ACK_BYTES, Frame, FrameKind, Mpdu
from ..traffic import priority

UNIT_BACKOFF_US = 320     # 20 symbols at 250 kb/s
CCA_US = 128              # 8 symbols
TURNAROUND_US = 192       # rx/tx switch, charged at rx power
ACK_WAIT_MARGIN_US = 200


class FrameQueue:
    """Bounded queue ordered by traffic priority, FIFO within a class."""

    def __init__(self, capacity: int = 16):
        self.capacity = capacity
        self._items: list[tuple[int, int, Mpdu]] = []
        self._seq = 0

    def push(self, mpdu: Mpdu) -> bool:
        if len(self._items) >= self.capacity:
            return False
        self._seq += 1
        self._items.append((-priority(mpdu.cls), self._seq, mpdu))
        self._items.sort(key=lambda t: (t[0], t[1]))
        return True

    def peek(self) -> Optional[Mpdu]:
        return self._items[0][2] if self._items else None

    def pop(self) -> Mpdu:
        return self._items.pop(0)[2]

    def remove(self, mpdu: Mpdu) -> None:
        self._items = [t for t in self._items if t[2] is not mpdu]

    def __len__(self) -> int:
        return len(self._items)

    def frames(self) -> list[Mpdu]:
        return [t[2] for t in self._items]


class MacBase:
    """Common plumbing every protocol shares; subclasses drive the radio."""

    def __init__(self, sim: Simulator, medium, node, network, cfg: dict):
        self.sim = sim
        self.medium = medium
        self.node = node
        self.network = network
        self.cfg = cfg
        self.rng = sim.stream(f"mac:{node.node_id}")
        self.queue = FrameQueue(capacity=cfg.get("queue_capacity", 16))
        self.target = f"node:{node.node_id}"
        self.in_service: Optional[Mpdu] = None
        node.mac = self

    @property
    def metrics(self):
        return self.network.metrics

    @property
    def is_coordinator(self) -> bool:
        return self.node.node_id == self.network.bnc_id

    def start(self) -> None:
        raise NotImplementedError

    def enqueue(self, mpdu: Mpdu) -> None:
        if self.node.dead:
            return
        if not self.queue.push(mpdu):
            self.metrics.on_dropped(mpdu)
            return
        self._on_enqueued(mpdu)

    def _on_enqueued(self, mpdu: Mpdu) -> None:
        pass

    def pending_frames(self) -> list[Mpdu]:
        out = self.queue.frames()
        if self.in_service is not None:
            out.append(self.in_service)
        return out

    def on_death(self) -> None:
        pass

    # Ack exchange ----------------------------------------------------------

    def send_ack_after_turnaround(self, radio, to: str, mpdu: Mpdu) -> None:
        """Receiver side: switch rx for the turnaround, then transmit the ack."""
        if radio.state == "tx" or self.node.dead:
            return
        radio.set_state("rx")
        ack = Frame.ack(self.node.node_id, to, mpdu.seq, mpdu.src)

        def _tx_ack():
            if self.node.dead or radio.state == "tx":
                return
            self.medium.begin_tx(radio, ack, self.node.tx_power_dbm)

        self.sim.schedule(TURNAROUND_US, "ack_tx", self.target, _tx_ack)

    def ack_wait_ticks(self, channel) -> SimTime:
        return (TURNAROUND_US + self.medium.airtime_ticks(ACK_BYTES, channel)
                + ACK_WAIT_MARGIN_US)

    def is_ack_for_me(self, frame: Frame, mpdu: Mpdu) -> bool:
        return (frame.kind is FrameKind.ACK and frame.link_dst == self.node.node_id
                and mpdu is not None and frame.info.get("seq") == mpdu.seq
                and frame.info.get("of") == mpdu.src)


class SlottedCsmaMac(MacBase):
    """Slotted CSMA/CA with acknowledgements and retransmissions.

    Contention runs on a backoff grid anchored at `_access_start`: a backoff
    of [0, 2^BE - 1] units, then two CCAs one unit apart (a busy first CCA
    skips the second), then the frame. A frame and its ack must fit before
    `_access_end`. `busy_limit` busy CCAs in a row end the attempt.

    Subclasses create `self.radio` with `_on_frame` as its receive hook, set
    `busy_limit`, move the access period, and say when contention may run.
    By default an empty queue, a frame that does not fit and an attempt lost
    to a busy channel all leave the radio as it is; a lost frame stays in
    service until `_start_service` runs again.
    """

    busy_limit: int

    def __init__(self, sim: Simulator, medium, node, network, cfg: dict):
        super().__init__(sim, medium, node, network, cfg)
        self.min_be = cfg.get("macMinBE", 3)
        self.max_be = cfg.get("aMaxBE", 5)
        self.retry_limit = cfg.get("retry_limit", 3)
        self.cca_threshold = cfg.get("cca_threshold_dbm", -85.0)
        self._session = 0           # token invalidating stale scheduled steps
        self._access_start: SimTime = 0
        self._access_end: SimTime = 0
        self._ack_timer = None
        self._retries = 0
        self._nb = 0
        self._be = self.min_be

    def _may_contend(self) -> bool:
        raise NotImplementedError

    def _idle(self) -> None:
        """Nothing to send now, or the frame waits for the next access period."""

    def _access_failed(self) -> None:
        """`busy_limit` busy CCAs in a row."""

    def _start_service(self) -> None:
        if self.in_service is None:
            if not len(self.queue):
                self._idle()
                return
            self.in_service = self.queue.pop()
            self._retries = 0
        self._csma_begin()

    def _csma_begin(self) -> None:
        self._nb = 0
        self._be = self.min_be
        self._backoff()

    def _boundary_after(self, t: SimTime) -> SimTime:
        k = -((self._access_start - t) // UNIT_BACKOFF_US)  # ceil division
        return self._access_start + max(0, k) * UNIT_BACKOFF_US

    def _backoff(self) -> None:
        if self.node.dead or not self._may_contend():
            return
        token = self._session
        delay_units = self.rng.randrange(1 << self._be)
        b0 = self._boundary_after(self.sim.now) + delay_units * UNIT_BACKOFF_US
        tx_at = b0 + 2 * UNIT_BACKOFF_US
        airtime = self.medium.airtime_ticks(self.in_service.payload_bytes,
                                            self.radio.channel)
        if tx_at + airtime + self.ack_wait_ticks(self.radio.channel) > self._access_end:
            self._idle()
            return
        self.sim.schedule_at(b0 + CCA_US, "cca", self.target,
                             lambda: self._cca_done(b0, False, token))

    def _cca_done(self, window_start: SimTime, second: bool, token: int) -> None:
        if token != self._session or self.node.dead:
            return
        if self.medium.cca_busy(self.radio, self.cca_threshold, window_start):
            self._nb += 1
            self._be = min(self._be + 1, self.max_be)
            if self._nb >= self.busy_limit:
                self._access_failed()
            else:
                self._backoff()
            return
        if not second:
            w2 = window_start + UNIT_BACKOFF_US
            self.sim.schedule_at(w2 + CCA_US, "cca", self.target,
                                 lambda: self._cca_done(w2, True, token))
        else:
            tx_at = window_start + UNIT_BACKOFF_US
            self.sim.schedule_at(tx_at, "tx_start", self.target,
                                 lambda: self._transmit(token))

    def _transmit(self, token: int) -> None:
        if token != self._session or self.node.dead or self.radio.state == "tx":
            return
        frame = Frame.data(self.in_service, self.node.node_id,
                           self.network.link_dst(self.in_service))
        self.medium.begin_tx(self.radio, frame, self.node.tx_power_dbm,
                             on_result=lambda outcome: self._await_ack(token))

    def _await_ack(self, token: int) -> None:
        if token != self._session or self.node.dead:
            return
        self._ack_timer = self.sim.schedule(
            self.ack_wait_ticks(self.radio.channel), "ack_timeout",
            self.target, lambda: self._ack_timeout(token))

    def _ack_timeout(self, token: int) -> None:
        if token != self._session or self.node.dead or self.in_service is None:
            return
        self._retries += 1
        if self._retries > self.retry_limit:
            self.metrics.on_dropped(self.in_service)
            self.in_service = None
            self._start_service()
        else:
            self._csma_begin()

    def _on_frame(self, frame: Frame, tx) -> None:
        if frame.kind is FrameKind.DATA and frame.link_dst == self.node.node_id:
            self._on_data(frame)
        elif frame.kind is FrameKind.ACK and self.is_ack_for_me(frame, self.in_service):
            if self._ack_timer is not None:
                self.sim.cancel(self._ack_timer)
                self._ack_timer = None
            self.in_service = None
            self._start_service()

    def _on_data(self, frame: Frame) -> None:
        self.network.handle_data_delivery(self.node, frame.mpdu)
        self.send_ack_after_turnaround(self.radio, frame.src, frame.mpdu)
