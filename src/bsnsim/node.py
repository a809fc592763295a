"""Power profiles, nodes and radios: state machines, energy accounts, death."""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .channel import Medium, Position
from .core import Event, SimTime, Simulator

J_PER_MW_TICK = 1e-9  # 1 mW for 1 us


class PowerProfile(NamedTuple):
    """Per-state draw in mW; the wakeup receiver is quoted in uW."""

    sleep_mw: float
    idle_listen_mw: float
    rx_mw: float
    tx_mw: float
    wakeup_rx_uw: float = 50.0

    def state_mw(self) -> dict[str, float]:
        return {"sleep": self.sleep_mw, "listen": self.idle_listen_mw,
                "rx": self.rx_mw, "tx": self.tx_mw}


class Radio:
    """One transceiver, fixed to a channel, owned by a node.

    States: sleep, listen (idle receive), rx (turnaround / locked reception),
    tx. The radio keeps its own energy account, ticks per state charged by
    `accrue`; the node owns the budget (`Node.power_changed`). `rx_ok_since`
    marks the start of the current uninterrupted receive-capable stretch,
    which decides whether a frame that began earlier can be decoded.
    A send or a switch asked for while it sends waits: see `when_free`.
    `on_frame(frame)`, given at build, receives each frame delivered to it.
    """

    __slots__ = ("sim", "medium", "node", "label", "channel", "state",
                 "rx_ok_since", "_last_change", "power_mw", "per_state_ticks",
                 "dead", "current_tx", "on_frame", "listening", "_mw",
                 "chan_state", "nid", "key", "_waiting")

    def __init__(self, sim: Simulator, medium: Medium, node: "Node", label: str,
                 channel: str, power_mw: dict[str, float], initial_state: str,
                 on_frame: Optional[Callable]):
        self.sim = sim
        self.medium = medium
        self.node = node
        self.label = label
        self.nid = node.node_id
        self.key = f"{node.node_id}/{label}"
        self.channel = channel
        self.state = initial_state
        self.listening = initial_state in ("listen", "rx")
        self.rx_ok_since: SimTime = sim.now if self.listening else -1
        self._last_change: SimTime = sim.now
        self.power_mw = dict(power_mw)
        self.per_state_ticks: dict[str, int] = {}
        self._mw = power_mw[initial_state]
        self.dead = False
        self.current_tx = None
        self.on_frame = on_frame
        self.chan_state = None  # filled by Medium.register_radio
        self._waiting: list[Callable[[], None]] = []  # steps for `tx` to end
        medium.register_radio(self)

    @property
    def position(self) -> Position:
        return self.node.position

    @property
    def site(self) -> str:
        return self.node.site

    @property
    def consumed_j(self) -> float:
        return sum(ticks * self.power_mw[state] * J_PER_MW_TICK
                   for state, ticks in self.per_state_ticks.items())

    def accrue(self) -> None:
        """Charge the current state up to now, here and in the node's
        running total; a dead radio accrues nothing."""
        if self.dead:
            return
        now = self.sim.now
        elapsed = now - self._last_change
        if elapsed > 0:
            ticks = self.per_state_ticks
            ticks[self.state] = ticks.get(self.state, 0) + elapsed
            self.node.consumed_cache_j += elapsed * self._mw * J_PER_MW_TICK
        self._last_change = now

    def _apply(self, state: str) -> None:
        now = self.sim.now
        prev = self.state
        self.accrue()
        self.state = state
        self._mw = self.power_mw[state]
        self.listening = state in ("listen", "rx")
        if self.listening and prev not in ("listen", "rx"):
            self.rx_ok_since = now
        elif state == "sleep":
            self.rx_ok_since = -1
        self.node.power_changed()

    def set_state(self, state: str) -> None:
        if self.state == "tx":
            self._waiting.append(lambda: self.set_state(state))
        elif not self.dead and state != self.state:
            self._apply(state)

    def when_free(self, fn: Callable[[], None]) -> None:
        """Run `fn` now, or, while the radio transmits, when it stops. Held
        steps and switches run in order, each after any frame sent before."""
        if self.state == "tx":
            self._waiting.append(fn)
        else:
            fn()

    # Medium hooks ---------------------------------------------------------

    def enter_tx(self) -> None:
        self._apply("tx")

    def exit_tx(self) -> None:
        self.current_tx = None
        self._apply("listen")
        while self._waiting and self.state != "tx":
            self._waiting.pop(0)()

    def die(self) -> None:
        """Close the account at the current instant; the radio goes silent."""
        self.accrue()
        self.dead = True
        self._waiting.clear()
        self.state = "sleep"
        self.listening = False
        self.rx_ok_since = -1


class Node:
    """A BAN node: position, body site, radios, and an energy budget."""

    def __init__(self, sim: Simulator, medium: Medium, node_id: str, *,
                 site: str = "", position: Position = Position(0.0, 0.0),
                 profile: PowerProfile,
                 initial_j: Optional[float] = 5.0,
                 tx_power_dbm: float = -5.0,
                 horizon_hint: Optional[SimTime] = None):
        self.sim = sim
        self.medium = medium
        self.node_id = node_id
        self.site = site
        self.position = position
        self.profile = profile
        self.initial_j = initial_j
        self.tx_power_dbm = tx_power_dbm
        self.horizon_hint = horizon_hint
        self.radios: dict[str, Radio] = {}
        self._radio_list: list[Radio] = []  # radios.values(), for hot loops
        self.consumed_cache_j = 0.0  # running total of the radios' accruals
        self.dead = False
        self.death_time: Optional[SimTime] = None
        self.target = f"node:{node_id}"
        # The projected death tick (None: no death in sight), and the one
        # pending death event, never later than that tick.
        self._death_at: Optional[SimTime] = None
        self._death_event: Optional[Event] = None
        self.mac = None

    def add_radio(self, label: str, channel: str, initial_state: str = "sleep",
                  on_frame: Optional[Callable] = None) -> Radio:
        return self._attach(Radio(self.sim, self.medium, self, label, channel,
                                  self.profile.state_mw(), initial_state,
                                  on_frame))

    def add_wakeup_receiver(self, channel: str, on_frame: Callable) -> Radio:
        """Ultra-low-power always-on receiver with its own timeline."""
        power = {"sleep": 0.0, "listen": self.profile.wakeup_rx_uw / 1000.0,
                 "rx": self.profile.wakeup_rx_uw / 1000.0, "tx": 0.0}
        return self._attach(Radio(self.sim, self.medium, self, "wakeup_rx",
                                  channel, power, "listen", on_frame))

    def _attach(self, radio: Radio) -> Radio:
        self.radios[radio.label] = radio
        self._radio_list = list(self.radios.values())
        self.power_changed()
        return radio

    def at(self, when: SimTime, kind: str, fn: Callable[[], None]) -> Event:
        """Schedule `fn` at `when` on this node. It does nothing once the
        node has died; its event is still dispatched."""
        def step():
            if not self.dead:
                fn()
        return self.sim.schedule_at(when, kind, self.target, step)

    def after(self, delay: SimTime, kind: str, fn: Callable[[], None]) -> Event:
        return self.at(self.sim.now + delay, kind, fn)

    def consumed_j(self) -> float:
        """The radios' accounts as of the last `finalize`."""
        return sum(r.consumed_j for r in self.radios.values())

    def power_changed(self) -> None:
        """Project the death at the current total draw.

        The one pending death event is pushed again only when the projection
        moves earlier; when it fires early it moves itself to the projection.
        So a death sorts within its tick like an event scheduled when it was
        last pushed: when its projection moved before the pending event, or
        when that event fired early.
        """
        if self.dead or self.initial_j is None:
            return
        now = self.sim.now
        total_mw = 0.0
        pending_j = 0.0
        for r in self._radio_list:
            total_mw += r._mw
            pending_j += (now - r._last_change) * r._mw * J_PER_MW_TICK
        self._death_at = None
        if total_mw <= 0.0:
            return
        remaining = self.initial_j - self.consumed_cache_j - pending_j
        if remaining < 0.0:
            remaining = 0.0
        fire_at = now + int(remaining / (total_mw * J_PER_MW_TICK))
        if self.horizon_hint is not None and fire_at > self.horizon_hint:
            return
        self._death_at = fire_at
        pending = self._death_event
        if pending is None or fire_at < pending.fire_at:
            if pending is not None:
                self.sim.cancel(pending)
            self._push_death()

    def _push_death(self) -> None:
        self._death_event = self.sim.schedule_at(
            self._death_at, "death", self.target, self._death_due)

    def _death_due(self) -> None:
        event, self._death_event = self._death_event, None
        if self._death_at is None:
            return
        if event.fire_at != self._death_at:
            self._push_death()
            return
        self._die()

    def _die(self) -> None:
        self.dead = True
        self.death_time = self.sim.now
        for radio in self.radios.values():
            if radio.current_tx is not None:
                self.medium.abort_tx(radio.current_tx)
            radio.die()

    def finalize(self) -> None:
        """Accrue every radio's account up to now (end of run)."""
        for radio in self.radios.values():
            radio.accrue()
