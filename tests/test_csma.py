"""The shared slotted CSMA/CA engine, run by 802.15.4 and S-MAC, and GTS
management against enumeration oracles."""

import json

import pytest

from bsnsim.channel import Medium
from bsnsim.frames import Frame, FrameKind
from bsnsim.mac.base import UNIT_BACKOFF_US
from bsnsim.mac.csma import SuperframeConfig, gts_manage
from bsnsim.runner import build_network, run_one
from bsnsim.scenario import _build, bundled_scenario_path
from bsnsim.traffic import TrafficClass
from tests.conftest import make_scenario

BI_BO3 = 15360 * 8  # beacon interval at BO=3


def _network(protocol, period_s, offset_s, horizon_s, protocols):
    """A coordinator and one device n1 sending NormalHigh frames."""
    sc = make_scenario({
        "horizon_s": horizon_s,
        "nodes": [
            {"id": "bnc", "kind": "bnc", "channel": "ism", "pos": [0.5, 0.5],
             "initial_j": None},
            {"id": "n1", "kind": "onbody", "channel": "ism", "pos": [0.5, 0.8],
             "initial_j": None},
        ],
        "traffic": [{"node": "n1", "class": "NormalHigh", "period_s": period_s,
                     "offset_s": offset_s}],
        "protocols": protocols,
    })
    network, _macs = build_network(sc, protocol, seed=21, keep_tx_log=True)
    return network, sc.horizon


def _patch_cca(monkeypatch, busy):
    """Replace energy detection on the medium; returns the CCA log."""
    calls = []

    def cca_busy(medium, radio, threshold_dbm, window_start):
        calls.append((medium.sim.now, window_start))
        return busy(medium.sim.now)

    monkeypatch.setattr(Medium, "cca_busy", cca_busy)
    return calls


def _record_draws(monkeypatch, mac):
    """Log the range of every backoff draw the MAC makes."""
    draws = []
    randrange = mac.rng.randrange

    def logged(n):
        draws.append(n)
        return randrange(n)

    monkeypatch.setattr(mac.rng, "randrange", logged)
    return draws


def test_superframe_config_invariants():
    sf = SuperframeConfig(beacon_order=6, superframe_order=6, num_gts_slots=2)
    assert sf.beacon_interval == 960 * 16 * 64 == 983_040
    assert sf.active_duration == sf.beacon_interval
    assert sf.slot_ticks == 61_440
    # Beacon802154Mac.settings holds its bounds at load: rows of
    # test_scenario.test_bad_field_rejected_at_load


def test_backoff_delay_range_for_be3(monkeypatch):
    # BE=3 -> backoff in {0..7} units, then two CCA units: the frame starts
    # 2..9 units after the grid boundary that follows its arrival
    _patch_cca(monkeypatch, lambda now: False)
    offset = 5_000
    network, horizon = _network(
        "csma802154", BI_BO3 / 1e6, offset / 1e6, 200 * BI_BO3 / 1e6, {"csma802154": {"BO": 3, "SO": 3}})
    network.sim.run(horizon)
    log = network.medium.tx_log
    beacon_ends = [end for (_s, end, _c, _src, kind, *_r) in log
                   if kind is FrameKind.BEACON]
    data = [start for (start, _e, _c, src, kind, *_r) in log
            if kind is FrameKind.DATA and src == "n1"]
    assert len(data) == horizon // BI_BO3
    seen = set()
    for k, start in enumerate(data):
        arrival = k * BI_BO3 + offset
        anchor = max(end for end in beacon_ends if end <= arrival)
        boundary = anchor - (anchor - arrival) // UNIT_BACKOFF_US * UNIT_BACKOFF_US
        units, rest = divmod(start - boundary, UNIT_BACKOFF_US)
        assert rest == 0
        assert 2 <= units <= 9
        seen.add(units)
    assert seen == set(range(2, 10))


def _always_busy_802154(monkeypatch):
    """Two frames, 0.5 s apart, against a channel that is always busy."""
    calls = _patch_cca(monkeypatch, lambda now: True)
    network, horizon = _network(
        "csma802154", 0.5, 0.03, 1.0,
        {"csma802154": {"BO": 3, "SO": 3}})
    draws = _record_draws(monkeypatch, network.nodes["n1"].mac)
    network.sim.run(horizon)
    return network, calls, draws


def test_busy_channel_defers_with_be_growth(monkeypatch):
    _, _, draws = _always_busy_802154(monkeypatch)
    # BE grows 3, 4, 5 and stays clamped at aMaxBE
    assert draws == [8, 16, 32, 32, 32] * 2


def test_channel_access_failure_after_five_attempts(monkeypatch):
    network, _, _ = _always_busy_802154(monkeypatch)
    metrics = network.metrics
    assert metrics.csma_failures == 2
    assert metrics.counts[TrafficClass.NORMAL_HIGH].dropped == 2
    assert not [t for t in network.medium.tx_log if t[4] is FrameKind.DATA]


def test_first_cca_busy_skips_second(monkeypatch):
    _, calls, _ = _always_busy_802154(monkeypatch)
    # macMaxCSMABackoffs + 1 = 5 backoff rounds per frame, one CCA each
    assert len(calls) == 10
    assert len({window for _now, window in calls}) == 10


def test_backoff_once_contention_has_closed_schedules_no_cca(monkeypatch):
    # n1 loses its beacon sync, as a missed beacon leaves it, while its first
    # CCA finds the channel busy: the backoff that follows schedules no CCA,
    # fails no access and keeps the frame for the next superframe
    network, _ = _network("csma802154", 10.0, 0.03, 1.0,
                          {"csma802154": {"BO": 3, "SO": 3}})
    mac = network.nodes["n1"].mac

    def busy(now):
        if now < BI_BO3:
            mac._synced = False
            return True
        return False

    calls = _patch_cca(monkeypatch, busy)
    network.sim.run(BI_BO3 - 1)
    assert len(calls) == 1
    assert mac.in_service is not None
    assert network.metrics.csma_failures == 0
    network.sim.run(2 * BI_BO3)
    data = [t for t in network.medium.tx_log if t[4] is FrameKind.DATA]
    assert len(data) == 1 and BI_BO3 < data[0][0] < 2 * BI_BO3
    assert network.metrics.counts[TrafficClass.NORMAL_HIGH].delivered == 1


def test_frame_in_the_beacon_guard_keeps_the_device_listening():
    # the frame arrives 1 ms before the second beacon, inside the guard, and
    # cannot fit before it: the device keeps listening, so it hears that
    # beacon and sends the frame in its superframe, not one superframe later
    network, _ = _network("csma802154", 10.0, (BI_BO3 - 1000) / 1e6, 1.0,
                          {"csma802154": {"BO": 3, "SO": 3}})
    network.sim.run(BI_BO3 + BI_BO3 // 2)
    assert network.metrics.counts[TrafficClass.NORMAL_HIGH].delivered == 1
    assert network.nodes["n1"].mac._synced


def test_wake_for_beacon_waits_for_the_frame_on_the_air():
    # n1 wakes guard_us before the second beacon; a frame it started just
    # before keeps its radio in tx until the frame ends
    network, _ = _network("csma802154", 10.0, 5.0, 1.0,
                          {"csma802154": {"BO": 3, "SO": 3}})
    radio = network.nodes["n1"].mac.radio
    wake = BI_BO3 - 2000
    network.sim.schedule_at(wake - 100, "test_tx", "test",
                            lambda: network.medium.begin_tx(
                                radio, Frame.ack("n1", "bnc", 0, "n1"), 0.0))
    network.sim.run(wake)
    assert radio.state == "tx"
    network.sim.run(wake + 1000)
    assert radio.state == "listen"


def _fig2(horizon_s, **csma):
    """paper_fig2 over `horizon_s` with `csma` set on its csma802154 section."""
    raw = json.loads(bundled_scenario_path("paper_fig2").read_text())
    raw["horizon_s"] = horizon_s
    raw["protocols"]["csma802154"].update(csma)
    return raw


def test_beacon_wake_cuts_no_exchange_whatever_the_guard():
    # a device that wakes for a beacon while it is still in an exchange goes
    # on with it, so the guard moves only the wake, and not what is delivered
    # or when
    results = set()
    for guard in (2000, 400_000, 982_496):
        m = run_one(_build(_fig2(60.0, guard_us=guard)), "csma802154",
                    1000).metric_values()
        results.add((m["pdr", "all"], m["latency_mean_us", "all"]))
    assert len(results) == 1, results


@pytest.mark.parametrize("bo, asleep", [(7, 29_520_000), (8, 44_268_480)])
def test_coordinator_sleeps_through_each_inactive_period(bo, asleep):
    # BI - SD - 192 us of each beacon interval: it sleeps at the end of the
    # active period and wakes a turnaround before the next beacon
    raw = _fig2(60.0, BO=bo, SO=6)
    raw["traffic"] = []
    network, _ = build_network(_build(raw), "csma802154", seed=1)
    network.sim.run(network.scenario.horizon)
    radio = network.coordinator_mac.radio
    radio.node.finalize()
    assert radio.per_state_ticks["sleep"] == asleep


def test_smac_busy_window_keeps_frame_for_next_window(monkeypatch):
    # busy through the first listen window [0, 100 ms), idle afterwards
    cycle = 500_000
    calls = _patch_cca(monkeypatch, lambda now: now < cycle)
    network, horizon = _network(
        "smac", 10.0, 0.01, 0.7,
        {"smac": {"cycle_s": 0.5, "listen_fraction": 0.2}})
    mac = network.nodes["n1"].mac
    network.sim.run(cycle - 1)
    assert len(calls) == mac.busy_limit == 2  # max_window_attempts
    assert mac.in_service is not None
    assert network.metrics.csma_failures == 0
    assert network.metrics.counts[TrafficClass.NORMAL_HIGH].dropped == 0
    network.sim.run(horizon)
    data = [t for t in network.medium.tx_log if t[4] is FrameKind.DATA]
    assert len(data) == 1
    assert cycle <= data[0][0] < cycle + 100_000
    assert network.metrics.counts[TrafficClass.NORMAL_HIGH].delivered == 1
    assert network.metrics.csma_failures == 0


def test_smac_frame_arriving_as_its_window_opens_draws_once(monkeypatch):
    # each arrival (1, 2 and 3 s) is dispatched just before its window opens
    network, horizon = _network("smac", 1.0, 1.0, 3.5,
                                {"smac": {"cycle_s": 1.0}})
    draws = _record_draws(monkeypatch, network.nodes["n1"].mac)
    network.sim.run(horizon)
    assert len(draws) == 3
    assert network.metrics.counts[TrafficClass.NORMAL_HIGH].delivered == 3


def test_smac_full_duty_cycle_sends_without_waiting():
    network, horizon = _network(
        "smac", 0.25, 0.3, 1.0,
        {"smac": {"cycle_s": 1.0, "listen_fraction": 1.0}})
    network.sim.run(horizon)
    starts = [t[0] for t in network.medium.tx_log if t[4] is FrameKind.DATA]
    # backoff of at most 7 units and two CCA units after the next boundary
    for start, arrival in zip(starts, (300_000, 550_000, 800_000), strict=True):
        assert 0 < start - arrival <= 10 * UNIT_BACKOFF_US


def enumeration_collision_probability() -> float:
    """Independent oracle: enumerate all 8x8 backoff pairs.

    With perfect carrier sensing, the later node's second CCA always covers
    the earlier node's transmission start, so only equal draws collide.
    """
    collisions = sum(1 for a in range(8) for b in range(8) if a == b)
    return collisions / 64


def test_enumeration_oracle_is_one_eighth():
    assert enumeration_collision_probability() == 1 / 8


# GTS management --------------------------------------------------------------

def test_gts_empty_in_empty_out():
    assert gts_manage([], [], set(), num_gts_slots=2) == []


def test_gts_grant_and_slot_allocation():
    descriptors = gts_manage(["n1", "n2"], [], set(), num_gts_slots=2)
    owners = {d.owner for d in descriptors}
    assert owners == {"n1", "n2"}
    slots = [s for d in descriptors for s in d.slots]
    assert len(set(slots)) == 2
    assert all(14 <= s <= 15 for s in slots)  # top of the active period


def test_gts_denied_when_full_not_an_error():
    descriptors = gts_manage(["n1", "n2", "n3"], [], set(), num_gts_slots=2)
    assert len(descriptors) == 2  # third request simply denied


def test_gts_expires_after_four_idle_superframes():
    descriptors = gts_manage(["n1"], [], set(), num_gts_slots=2,
                             expiry_threshold=4)
    for i in range(3):
        descriptors = gts_manage([], descriptors, set(), num_gts_slots=2,
                                 expiry_threshold=4)
        assert len(descriptors) == 1, f"still held after {i+1} idle superframes"
    descriptors = gts_manage([], descriptors, set(), num_gts_slots=2,
                             expiry_threshold=4)
    assert descriptors == []  # fourth idle superframe revokes


def test_gts_active_descriptor_retained_indefinitely():
    descriptors = gts_manage(["n1"], [], set(), num_gts_slots=2)
    for _ in range(50):
        descriptors = gts_manage([], descriptors, {"n1"}, num_gts_slots=2)
    assert len(descriptors) == 1
    assert descriptors[0].inactivity_countdown == 4
