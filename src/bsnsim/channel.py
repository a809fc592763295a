"""Bands, channels, path loss with shadowing, CCA, and delivery resolution.

Two link modes exist and are never composed: geometric mode (log-distance
path loss, log-normal shadowing, capture-margin collisions) and empirical
mode (per-site packet success probabilities from measurement tables).
An optional interference gate models a nearby microwave oven degrading
otherwise-successful receptions.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Optional

from .core import SimTime, Simulator
from .frames import FrameKind

DEFAULT_MIN_DISTANCE_M = 0.01
MICROWAVE_PASS_PROBABILITY = 0.9685  # measured mean packet success, oven ON

# Transmissions that ended this recently are still visible to CCA lookback.
_RECENT_KEEP_US = 2_000


class Band(Enum):
    MICS_402_405 = "MICS_402_405"
    ISM_2_4 = "ISM_2_4"
    WMTS = "WMTS"
    UWB = "UWB"


class ChannelId(NamedTuple):
    """A channel is the pair (frequency band, PHY technique tag)."""

    band: Band
    phy: int = 0


class Position(NamedTuple):
    x: float
    y: float
    z: float = 0.0

    def distance_to(self, other: "Position") -> float:
        return math.sqrt((self.x - other.x) ** 2 + (self.y - other.y) ** 2
                         + (self.z - other.z) ** 2)


class PathLossParams(NamedTuple):
    """Log-distance model: pl_d0 + 10*exponent*log10(d/d0) + N(0, sigma^2)."""

    pl_d0: float
    d0: float
    exponent: float
    shadow_sigma: float = 0.0


DEFAULT_PATHLOSS = PathLossParams(pl_d0=40.0, d0=0.1, exponent=3.38,
                                  shadow_sigma=4.0)


def mean_path_loss_db(distance: float, params: PathLossParams,
                      min_distance: float = DEFAULT_MIN_DISTANCE_M) -> float:
    """Path loss in dB at the given distance, without shadowing."""
    if distance < min_distance:
        raise ValueError(f"degenerate geometry: distance {distance} < {min_distance}")
    return params.pl_d0 + 10.0 * params.exponent * math.log10(distance / params.d0)


def rx_power_dbm(tx_dbm: float, loss_db: float) -> float:
    return tx_dbm - loss_db


def frame_airtime(nbytes: int, rate_bps: int) -> SimTime:
    """Ticks to send `nbytes` at `rate_bps`, rounded up."""
    return (nbytes * 8 * 1_000_000 + rate_bps - 1) // rate_bps


class DeliveryOutcome(Enum):
    DELIVERED = "Delivered"
    COLLIDED = "Collided"
    BELOW_SENSITIVITY = "BelowSensitivity"
    OFF_CHANNEL = "OffChannel"
    CORRUPTED = "Corrupted"   # interference gate hit
    ABORTED = "Aborted"       # transmitter died mid-frame


class LinkMatrix:
    """Per-posture packet success probabilities between body sites."""

    def __init__(self, entries: dict[tuple[str, str, str], float]):
        for key, p in entries.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"success rate out of [0,1] for {key}: {p}")
        self._entries = dict(entries)

    @classmethod
    def from_csv(cls, path) -> "LinkMatrix":
        """Load from CSV with header posture,src,dst,success_rate."""
        import csv  # only empirical scenarios read a table

        entries = {}
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            expected = {"posture", "src", "dst", "success_rate"}
            if reader.fieldnames is None or set(reader.fieldnames) != expected:
                raise ValueError(f"link matrix CSV must have header {sorted(expected)}")
            for row in reader:
                if None in row.values() or None in row:
                    raise ValueError(f"line {reader.line_num}: expected 4 fields")
                key = (row["posture"].strip().lower(), row["src"].strip(),
                       row["dst"].strip())
                entries[key] = float(row["success_rate"])
        return cls(entries)

    def success_p(self, src_site: str, dst_site: str, posture: str) -> float:
        """Missing entries mean no link (probability 0)."""
        return self._entries.get((posture.lower(), src_site, dst_site), 0.0)

    def keys(self):
        return self._entries.keys()


def _link_success(p: float, rng) -> bool:
    """Bernoulli draw with success probability `p`; none at 0 or 1."""
    if p <= 0.0:
        return False
    if p >= 1.0:
        return True
    return rng.random() < p


class Transmission:
    """One frame on the air on one channel, from `start` up to `end`."""

    __slots__ = ("radio", "frame", "power_dbm", "start", "end", "on_result",
                 "aborted", "loss_cache")

    def __init__(self, radio, frame, power_dbm: float, start: SimTime,
                 end: SimTime, on_result: Optional[Callable] = None):
        self.radio = radio
        self.frame = frame
        self.power_dbm = power_dbm
        self.start = start
        self.end = end
        self.on_result = on_result
        self.aborted = False
        self.loss_cache: dict = {}  # receiving radio -> loss in dB


def geometric_outcome(rx_dbm: float, interferer_dbms: Iterable[float],
                      sensitivity_dbm: float,
                      capture_margin_db: float) -> DeliveryOutcome:
    """Judge one reception given the wanted and interfering powers."""
    if rx_dbm < sensitivity_dbm:
        return DeliveryOutcome.BELOW_SENSITIVITY
    for o_dbm in interferer_dbms:
        if o_dbm >= rx_dbm - capture_margin_db:
            return DeliveryOutcome.COLLIDED
    return DeliveryOutcome.DELIVERED


class _ChannelState:
    """Per-channel registries, interned once so hot paths skip dict hashing."""

    __slots__ = ("channel", "radios", "by_node", "active", "recent", "rate",
                 "params")

    def __init__(self, channel: ChannelId, rate: int, params: PathLossParams):
        self.channel = channel
        self.radios: list = []
        self.by_node: dict[str, list] = {}
        self.active: list[Transmission] = []
        self.recent: list[Transmission] = []
        self.rate = rate
        self.params = params


class _Link:
    """What a run never changes about one (tx radio, rx radio) pair.

    Geometric mode: the mean path loss and the `shadow:` stream (None
    without shadowing). Empirical mode: the matrix's success probability and
    the `link:` stream. Streams are named by node ids, so the radios of one
    node pair share them.
    """

    __slots__ = ("mean_db", "success_p", "rng")

    def __init__(self, mean_db: float = 0.0, success_p: float = 0.0,
                 rng=None):
        self.mean_db = mean_db
        self.success_p = success_p
        self.rng = rng


class Medium:
    """Shared radio medium: tracks live transmissions and resolves receptions.

    Built from a loaded scenario: its channel model, link matrix, and each
    channel's data rate and path loss (`DEFAULT_PATHLOSS` where it names
    none). All mutations happen inside event dispatch of the owning simulator.
    """

    def __init__(self, sim: Simulator, scenario, keep_tx_log: bool = False):
        cm = scenario.channel_model
        self.sim = sim
        self.mode = cm["mode"]
        self.link_matrix = scenario.link_matrix
        self.posture = cm["posture"]
        self.interference_enabled = cm["interference"]["enabled"]
        self.interference_pass_p = cm["interference"]["pass_probability"]
        self.capture_margin_db = cm["capture_margin_db"]
        self.sensitivity_dbm = cm["sensitivity_dbm"]
        self.min_distance_m = cm["min_distance_m"]
        self._chans = {
            cid: _ChannelState(cid, scenario.channel_cfg[key]["data_rate_bps"],
                               scenario.pathloss.get(key, DEFAULT_PATHLOSS))
            for key, cid in scenario.channels.items()}
        self._links: dict[tuple, _Link] = {}  # (tx radio, rx radio) -> link
        self._intf_rngs: dict = {}  # rx radio -> its `intf:` stream
        self.data_collisions = 0
        self.tx_log: Optional[list] = [] if keep_tx_log else None

    def airtime_ticks(self, nbytes: int, channel: ChannelId) -> SimTime:
        return frame_airtime(nbytes, self._chans[channel].rate)

    def register_radio(self, radio) -> None:
        cs = self._chans[radio.channel]
        cs.radios.append(radio)
        cs.by_node.setdefault(radio.nid, []).append(radio)
        radio.chan_state = cs

    # -- transmission lifecycle ------------------------------------------

    def begin_tx(self, radio, frame, power_dbm: float,
                 airtime: Optional[SimTime] = None,
                 on_result: Optional[Callable] = None) -> Transmission:
        cs = radio.chan_state
        if airtime is None:
            bits = frame.nbytes * 8
            airtime = (bits * 1_000_000 + cs.rate - 1) // cs.rate
        now = self.sim.now
        tx = Transmission(radio, frame, power_dbm, now, now + airtime,
                          on_result)
        radio.enter_tx()
        radio.current_tx = tx
        cs.active.append(tx)
        self.sim.schedule(airtime, "tx_end", radio.key,
                          lambda: self._finish_tx(tx, cs))
        return tx

    def abort_tx(self, tx: Transmission) -> None:
        tx.aborted = True

    def _finish_tx(self, tx: Transmission, cs: _ChannelState) -> None:
        cs.active.remove(tx)
        cs.recent.append(tx)
        self._prune_recent(cs)
        tx_radio = tx.radio
        if not tx_radio.dead:
            tx_radio.exit_tx()
        frame = tx.frame
        if tx.aborted:
            if tx.on_result is not None:
                tx.on_result(DeliveryOutcome.ABORTED)
            return
        link_dst = frame.link_dst
        link_result: Optional[DeliveryOutcome] = None
        tx_node = tx_radio.nid
        tx_start = tx.start
        # Unicast frames only matter to their destination; no MAC here reacts
        # to overheard unicasts, and CCA is energy-based, not decode-based.
        candidates = (cs.radios if link_dst is None
                      else cs.by_node.get(link_dst, ()))
        # The transmissions overlapping tx are the same at every receiver
        # (one started by a delivery below starts at tx.end), so they are
        # listed once, at the first receiver that is judged.
        interferers = None
        for radio in candidates:
            node_id = radio.nid
            if node_id == tx_node or radio.dead:
                continue
            if not radio.listening or radio.rx_ok_since > tx_start:
                if node_id == link_dst and link_result is None:
                    link_result = DeliveryOutcome.OFF_CHANNEL
                continue
            if interferers is None:
                tx_end = tx.end
                interferers = [o for pool in (cs.active, cs.recent)
                               for o in pool if o is not tx
                               and o.start < tx_end and o.end > tx_start]
            outcome = self._resolve(tx, radio, cs, interferers)
            if node_id == link_dst and link_result is not DeliveryOutcome.DELIVERED:
                link_result = outcome
            if outcome is DeliveryOutcome.DELIVERED:
                radio.deliver(frame, tx)
        if link_dst is not None and link_result is None:
            link_result = DeliveryOutcome.OFF_CHANNEL
        if (link_result is DeliveryOutcome.COLLIDED
                and frame.kind is FrameKind.DATA):
            self.data_collisions += 1
        if self.tx_log is not None:
            self.tx_log.append((tx.start, tx.end, cs.channel, tx_node,
                                frame.kind, link_dst, link_result))
        if tx.on_result is not None:
            tx.on_result(link_result)

    def _prune_recent(self, cs: _ChannelState) -> None:
        horizon = self.sim.now - _RECENT_KEEP_US
        recent = cs.recent
        while recent and recent[0].end < horizon:
            recent.pop(0)

    # -- reception rules ---------------------------------------------------

    def _link(self, tx_radio, radio, cs: _ChannelState) -> _Link:
        """The pair's link record, built at its first use; in geometric mode
        that is where degenerate geometry is rejected."""
        link = self._links.get((tx_radio, radio))
        if link is None:
            pair = f"{tx_radio.nid}:{radio.nid}"
            if self.mode == "geometric":
                params = cs.params
                link = _Link(mean_db=mean_path_loss_db(
                    tx_radio.position.distance_to(radio.position), params,
                    self.min_distance_m))
                if params.shadow_sigma > 0:
                    link.rng = self.sim.stream(f"shadow:{pair}")
            else:
                link = _Link(success_p=self.link_matrix.success_p(
                    tx_radio.site, radio.site, self.posture),
                    rng=self.sim.stream(f"link:{pair}"))
            self._links[(tx_radio, radio)] = link
        return link

    def _loss_db(self, tx: Transmission, radio, cs: _ChannelState) -> float:
        """The loss `radio` sees from `tx`, shadowing drawn once per pair."""
        loss = tx.loss_cache.get(radio)
        if loss is None:
            link = self._link(tx.radio, radio, cs)
            loss = link.mean_db
            if link.rng is not None:
                loss += link.rng.gauss(0.0, cs.params.shadow_sigma)
            tx.loss_cache[radio] = loss
        return loss

    def _resolve(self, tx: Transmission, radio, cs: _ChannelState,
                 interferers: list) -> DeliveryOutcome:
        """Judge `tx` at a radio that has been receive-capable since its
        start; `interferers` are the transmissions that overlap it."""
        if self.mode == "geometric":
            rx_dbm = rx_power_dbm(tx.power_dbm, self._loss_db(tx, radio, cs))
            outcome = geometric_outcome(
                rx_dbm,
                # the node's own frame drowns any other, with no 0 m link
                (math.inf if o.radio.nid == radio.nid
                 else rx_power_dbm(o.power_dbm, self._loss_db(o, radio, cs))
                 for o in interferers),
                self.sensitivity_dbm, self.capture_margin_db)
            if outcome is not DeliveryOutcome.DELIVERED:
                return outcome
        else:
            if interferers:
                return DeliveryOutcome.COLLIDED
            link = self._link(tx.radio, radio, cs)
            if not _link_success(link.success_p, link.rng):
                return DeliveryOutcome.BELOW_SENSITIVITY
        if self.interference_enabled:
            rng = self._intf_rngs.get(radio)
            if rng is None:
                rng = self._intf_rngs[radio] = self.sim.stream(
                    f"intf:{radio.nid}")
            if rng.random() >= self.interference_pass_p:  # the oven hit it
                return DeliveryOutcome.CORRUPTED
        return DeliveryOutcome.DELIVERED

    def cca_busy(self, radio, threshold_dbm: float,
                 window_start: SimTime) -> bool:
        """Energy detection over [window_start, now] on the radio's channel.

        A transmission that started at or before `now` and was still in the
        air after `window_start` is visible; other channels never are.
        """
        now = self.sim.now
        cs = radio.chan_state
        me = radio.nid
        for pool in (cs.active, cs.recent):
            for tx in pool:
                if tx.radio is radio or tx.radio.nid == me:
                    continue
                if tx.start > now or tx.end <= window_start:
                    continue
                if self.mode == "empirical":
                    return True
                rx = rx_power_dbm(tx.power_dbm, self._loss_db(tx, radio, cs))
                if rx >= threshold_dbm:
                    return True
        return False
