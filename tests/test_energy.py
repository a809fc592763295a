"""Energy ledger arithmetic and budget death."""

import pytest

from bsnsim.channel import Band, ChannelId, Medium
from bsnsim.core import Simulator
from bsnsim.energy import EnergyLedger, PowerProfile
from bsnsim.frames import Frame, FrameKind
from bsnsim.node import Node
from bsnsim.scenario import load_scenario

POWER = {"sleep": 0.001, "listen": 54.0, "rx": 54.0, "tx": 30.0}
PROFILE = PowerProfile(sleep_mw=0.001, idle_listen_mw=54.0, rx_mw=54.0,
                       tx_mw=30.0)
ISM = ChannelId(Band.ISM_2_4, 0)


def _node(initial_j):
    sim = Simulator()
    return Node(sim, Medium(sim), "n", profile=PROFILE, initial_j=initial_j)


def test_zero_duration_changes_nothing():
    led = EnergyLedger("n", POWER)
    led.account("tx", 0)
    assert led.consumed_j == 0.0
    assert led.per_state_ticks == {}


def test_hand_computed_tx_energy():
    # 30 mW for 4096 us = 0.030 W * 0.004096 s = 1.2288e-4 J
    led = EnergyLedger("n", POWER)
    led.account("tx", 4096)
    assert led.consumed_j == pytest.approx(1.2288e-4, rel=1e-12)


def test_negative_duration_rejected():
    led = EnergyLedger("n", POWER)
    with pytest.raises(ValueError, match="negative"):
        led.account("tx", -1)


def test_fresh_node_has_full_budget():
    node = _node(5.0)
    node.add_radio("data", ISM, initial_state="listen")
    assert node.consumed_j() == 0.0
    # the whole 5 J at 54 mW: floor(5 / 5.4e-8) = 92592592 us
    node.sim.run(92_592_591)
    assert not node.dead
    node.sim.run(92_592_592)
    assert node.death_time == 92_592_592


def test_budget_crossing_prorates_and_dies():
    # 1e-5 J left; a 4096-us tx would cost 1.2288e-4 J.
    # The node affords floor(1e-5 / 3e-8) = 333 ticks of tx, then dies.
    node = _node(1e-5)
    radio = node.add_radio("data", ISM, initial_state="listen")
    node.medium.begin_tx(radio, Frame(FrameKind.DATA, "n", None, 128), 0.0)
    node.sim.run(4096)
    assert node.death_time == 333
    assert radio.ledger.per_state_ticks == {"tx": 333}
    assert node.consumed_j() <= node.initial_j
    # dead radios accrue nothing further
    node.sim.run(10_000)
    assert radio.ledger.per_state_ticks == {"tx": 333}


def test_exhaustion_to_zero_remaining():
    node = _node(5.0)
    radio = node.add_radio("data", ISM, initial_state="listen")
    node.sim.run(10**9)
    assert node.dead
    assert node.consumed_j() == pytest.approx(5.0, abs=1e-7)
    assert node.consumed_j() <= 5.0
    assert radio.ledger.total_ticks() == node.death_time


def test_ledger_identity():
    led = EnergyLedger("n", POWER)
    led.account("tx", 4096)
    led.account("listen", 250_000)
    led.account("sleep", 10_000_000)
    total = sum(t * POWER[s] * 1e-9 for s, t in led.per_state_ticks.items())
    assert led.consumed_j == total  # recomputed from the same map: exact


def test_profile_validation():
    with pytest.raises(ValueError):
        PowerProfile(sleep_mw=100.0, idle_listen_mw=1.0, rx_mw=1.0, tx_mw=1.0)
    with pytest.raises(ValueError):
        PowerProfile(sleep_mw=-1.0, idle_listen_mw=1.0, rx_mw=1.0, tx_mw=1.0)
    # the wakeup receiver draw is orders of magnitude below the main rx
    for profile in load_scenario("paper_fig2").power_profiles.values():
        assert profile.wakeup_rx_uw / 1000.0 < profile.rx_mw / 100.0
