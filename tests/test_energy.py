"""Per-radio energy accounts and budget death."""

import pytest
from hypothesis import example, given, strategies as st

from bsnsim.channel import Band, ChannelId, Medium
from bsnsim.core import Simulator
from bsnsim.frames import Frame, FrameKind
from bsnsim.node import Node, PowerProfile
from tests.conftest import make_scenario

POWER = {"sleep": 0.001, "listen": 54.0, "rx": 54.0, "tx": 30.0}
PROFILE = PowerProfile(sleep_mw=0.001, idle_listen_mw=54.0, rx_mw=54.0,
                       tx_mw=30.0)
ISM = ChannelId(Band.ISM_2_4, 0)
SCENARIO = make_scenario({})  # one ism channel


def _node(initial_j):
    sim = Simulator()
    return Node(sim, Medium(sim, SCENARIO), "n", profile=PROFILE,
                initial_j=initial_j)


def _switch(radio, state):
    """Put `radio` in `state` as the medium and the MACs do: into tx only
    through `enter_tx`, and out of it through `exit_tx`, the frame's end. A
    switch asked for while the radio is in tx would wait for that end."""
    if state == "tx":
        radio.enter_tx()
        return
    if radio.state == "tx":
        radio.exit_tx()
    radio.set_state(state)


def _charged(changes, until):
    """A radio on a node without a budget, put in each (tick, state) of
    `changes` in turn and finalized at `until`."""
    node = _node(None)
    radio = node.add_radio("data", ISM, initial_state="listen")
    for at, state in changes:
        node.sim.run(at)
        _switch(radio, state)
    node.sim.run(until)
    node.finalize()
    return node, radio


def test_zero_duration_changes_nothing():
    node, radio = _charged([(0, "tx"), (0, "listen"), (0, "tx")], 0)
    assert radio.per_state_ticks == {}
    assert radio.consumed_j == 0.0
    assert node.consumed_j() == 0.0


def test_hand_computed_tx_energy():
    # 30 mW for 4096 us = 0.030 W * 0.004096 s = 1.2288e-4 J
    node, radio = _charged([(0, "tx")], 4096)
    assert radio.per_state_ticks == {"tx": 4096}
    assert radio.consumed_j == pytest.approx(1.2288e-4, rel=1e-12)
    assert node.consumed_cache_j == radio.consumed_j


def test_ledger_identity():
    node, radio = _charged([(0, "tx"), (4096, "listen"), (254_096, "sleep")],
                           10_254_096)
    assert radio.per_state_ticks == {"tx": 4096, "listen": 250_000,
                                     "sleep": 10_000_000}
    total = sum(t * POWER[s] * 1e-9 for s, t in radio.per_state_ticks.items())
    assert radio.consumed_j == total  # recomputed from the same map: exact
    assert node.consumed_j() == total


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
    assert radio.per_state_ticks == {"tx": 333}
    assert node.consumed_j() <= node.initial_j
    # dead radios accrue nothing further
    node.sim.run(10_000)
    node.finalize()
    assert radio.per_state_ticks == {"tx": 333}


def test_exhaustion_to_zero_remaining():
    node = _node(5.0)
    radio = node.add_radio("data", ISM, initial_state="listen")
    node.sim.run(10**9)
    assert node.dead
    assert node.consumed_j() == pytest.approx(5.0, abs=1e-7)
    assert node.consumed_j() <= 5.0
    assert sum(radio.per_state_ticks.values()) == node.death_time


def test_state_toggles_keep_one_pending_death_event():
    node = _node(5.0)
    radio = node.add_radio("data", ISM, initial_state="listen")
    peak = len(node.sim._heap)
    for _ in range(5_000):
        for state in ("tx", "listen"):
            node.sim.run(node.sim.now + 1)
            _switch(radio, state)
            peak = max(peak, len(node.sim._heap))
    assert peak <= 2


def test_reprojected_death_keeps_its_order_within_the_tick():
    # Leaving listen and coming back at once projects the same death tick,
    # later in sequence than an event scheduled in between for that tick.
    node = _node(5.0)
    radio = node.add_radio("data", ISM, initial_state="listen")
    seen = []
    node.sim.schedule_at(92_592_592, "probe", "test",
                         lambda: seen.append(node.dead))
    radio.enter_tx()
    radio.exit_tx()
    node.sim.run(92_592_592)
    assert seen == [False]
    assert node.death_time == 92_592_592


# Budget and horizon sized so that listen (54 mW), rx (40 mW) and tx
# (30 mW) project deaths around the horizon and sleep (0 mW) none at all.
DEATH_PROFILE = PowerProfile(sleep_mw=0.0, idle_listen_mw=54.0, rx_mw=40.0,
                             tx_mw=30.0)
DEATH_J = 1e-4
DEATH_HORIZON = 5_000
STATES = ("sleep", "listen", "rx", "tx")


def _projected_death(now, consumed_j, mw):
    """The death tick projected at a state change, None past the horizon."""
    if mw <= 0.0:
        return None
    remaining = DEATH_J - consumed_j
    if remaining < 0.0:
        remaining = 0.0
    fire_at = now + int(remaining / (mw * 1e-9))
    return None if fire_at > DEATH_HORIZON else fire_at


@given(st.sampled_from(STATES),
       st.lists(st.tuples(st.integers(0, 1_500), st.sampled_from(STATES)),
                max_size=25))
# tx, then listen: earlier than the pending event
@example("tx", [(100, "listen")])
# later (tx), earlier again (listen) but after the pending event
@example("listen", [(100, "tx"), (200, "listen")])
# no draw (sleep), past the horizon (tx late in the run) and back (listen)
@example("listen", [(100, "sleep"), (1_800, "tx"), (50, "listen")])
# no draw, a death (rx), no draw, then an earlier death (listen)
@example("sleep", [(500, "rx"), (300, "sleep"), (300, "listen")])
# a death projected past the horizon (listen from 3,200), then a change
# once the budget is spent (tx at 5,200): no death, not one in the past
@example("sleep", [(3_200, "listen"), (2_000, "tx")])
def test_death_time_is_the_projection_at_the_last_state_change(initial,
                                                              steps):
    sim = Simulator()
    node = Node(sim, Medium(sim, SCENARIO), "n", profile=DEATH_PROFILE,
                initial_j=DEATH_J, horizon_hint=DEATH_HORIZON)
    radio = node.add_radio("data", ISM, initial_state=initial)
    mw = DEATH_PROFILE.state_mw()
    state, since, consumed = initial, 0, 0.0
    projected = _projected_death(0, consumed, mw[state])
    for delay, new in steps:
        at = sim.now + delay
        if projected is not None and projected <= at:
            break
        sim.run(at)
        assert not node.dead
        if new != state:
            consumed += (at - since) * mw[state] * 1e-9
            state, since = new, at
            _switch(radio, new)
            projected = _projected_death(at, consumed, mw[new])
    sim.run(max(sim.now, DEATH_HORIZON) + 1_000_000)
    assert node.death_time == projected
