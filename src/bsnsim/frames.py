"""Link-layer frames: the MPDU carried end to end, plus MAC control frames."""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

from .core import SimTime
from .traffic import TrafficClass

ACK_BYTES = 11
BEACON_BYTES = 17
POLL_BYTES = 13


class Mpdu:
    """The link-layer data unit relayed unmodified across hops.

    seq is unique per source; hop_trace gains exactly one (node, channel)
    entry per relay hop and stays empty on direct deliveries. `disposed` is
    run bookkeeping: a frame is disposed exactly once (delivered/dropped).
    """

    __slots__ = ("seq", "src", "dst", "cls", "payload_bytes", "created_at",
                 "hop_trace", "disposed")

    def __init__(self, seq: int, src: str, dst: str, cls: TrafficClass,
                 payload_bytes: int, created_at: SimTime,
                 hop_trace: Optional[list] = None,
                 disposed: Optional[str] = None):
        self.seq = seq
        self.src = src
        self.dst = dst
        self.cls = cls
        self.payload_bytes = payload_bytes
        self.created_at = created_at
        self.hop_trace = [] if hop_trace is None else hop_trace
        self.disposed = disposed


class FrameKind(Enum):
    DATA = "data"
    ACK = "ack"
    BEACON = "beacon"
    PREAMBLE = "preamble"
    WAKEUP = "wakeup"
    GRANT = "grant"
    POLL = "poll"


class Frame(NamedTuple):
    """What actually goes on the air for one hop."""

    kind: FrameKind
    src: str
    link_dst: Optional[str]          # None = broadcast
    nbytes: int
    mpdu: Optional[Mpdu] = None      # DATA frames only
    info: Optional[dict] = None      # control frames that carry fields

    @classmethod
    def data(cls, mpdu: Mpdu, src: str, link_dst: str) -> "Frame":
        return cls(FrameKind.DATA, src, link_dst, mpdu.payload_bytes, mpdu)

    @classmethod
    def ack(cls, src: str, link_dst: str, acked_seq: int, acked_src: str) -> "Frame":
        return cls(FrameKind.ACK, src, link_dst, ACK_BYTES,
                   info={"seq": acked_seq, "of": acked_src})
