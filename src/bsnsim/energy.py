"""Radio-state energy accounting with integer-tick precision.

A ledger tracks one radio's timeline. Energy is recomputed from the tick
map on every query, so consumed_j is exactly the sum it claims to be.
Nodes with several radios (data, wakeup receiver) hold one ledger each and
pool them against the node's budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import SimTime

J_PER_MW_TICK = 1e-9  # 1 mW for 1 us


@dataclass
class PowerProfile:
    """Per-state draw in mW; the wakeup receiver is quoted in uW."""

    sleep_mw: float
    idle_listen_mw: float
    rx_mw: float
    tx_mw: float
    wakeup_rx_uw: float = 50.0

    def __post_init__(self):
        for name in ("sleep_mw", "idle_listen_mw", "rx_mw", "tx_mw", "wakeup_rx_uw"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.sleep_mw > self.idle_listen_mw:
            raise ValueError("sleep power must not exceed idle listen power")

    def state_mw(self) -> dict[str, float]:
        return {"sleep": self.sleep_mw, "listen": self.idle_listen_mw,
                "rx": self.rx_mw, "tx": self.tx_mw}


class EnergyLedger:
    """Accumulates per-state ticks for one radio and converts them to joules.

    The node, not the ledger, owns the energy budget (`Node.power_changed`).
    """

    def __init__(self, node: str, power_mw: dict[str, float]):
        self.node = node
        self.power_mw = dict(power_mw)
        self.per_state_ticks: dict[str, int] = {}

    @property
    def consumed_j(self) -> float:
        return sum(ticks * self.power_mw[state] * J_PER_MW_TICK
                   for state, ticks in self.per_state_ticks.items())

    def account(self, state: str, duration: SimTime) -> None:
        """Charge `duration` ticks in `state`."""
        if duration < 0:
            raise ValueError(f"negative duration: {duration}")
        if duration:
            self.per_state_ticks[state] = self.per_state_ticks.get(state, 0) + duration
