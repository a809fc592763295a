"""Traffic-based wakeup: the table, windows, emergencies, on-demand."""

import pytest
from hypothesis import example, given, settings, strategies as st

from bsnsim.core import US_PER_S
from bsnsim.frames import ACK_BYTES, BEACON_BYTES, Frame, FrameKind
from bsnsim.mac.base import ACK_WAIT_MARGIN_US, TURNAROUND_US
from bsnsim.mac.tbw import GRANT_BYTES
from bsnsim.runner import build_network, run_one
from bsnsim.scenario import ScenarioError
from bsnsim.traffic import OnDemandMode, OnDemandRequest, TrafficClass
from tests.conftest import make_scenario

S = US_PER_S

# timing constants at 250 kb/s
FRAME_AIR = 4096
BEACON_AIR = BEACON_BYTES * 8 * 4      # 544
ACK_AIR = ACK_BYTES * 8 * 4            # 352
ACK_WAIT = TURNAROUND_US + ACK_AIR + ACK_WAIT_MARGIN_US
FRAME_CYCLE = FRAME_AIR + TURNAROUND_US + ACK_AIR
# delay of a clean emergency access: signal + turnaround + grant + data
SIGNAL = 10_000
CLEAN_EMERGENCY_DELAY = SIGNAL + TURNAROUND_US + BEACON_AIR + FRAME_AIR


def tbw_scenario(extra=None, nodes=None, horizon_s=10.0):
    cfg = {
        "horizon_s": horizon_s,
        "channels": {
            "ism": {"band": "ISM_2_4", "phy": 0},
            "mics": {"band": "MICS_402_405", "phy": 0},
            "wakeup": {"band": "ISM_2_4", "phy": 99},
        },
        "wakeup_channel": "wakeup",
        "channel_model": {
            "mode": "geometric",
            "pathloss": {
                "ism": {"pl_d0": 40.0, "d0": 0.1, "exponent": 2.0,
                        "shadow_sigma": 0.0},
                "mics": {"pl_d0": 47.0, "d0": 0.05, "exponent": 2.0,
                         "shadow_sigma": 0.0},
                "wakeup": {"pl_d0": 40.0, "d0": 0.1, "exponent": 2.0,
                           "shadow_sigma": 0.0},
            },
        },
        "nodes": nodes or [
            {"id": "bnc", "kind": "bnc", "channel": "ism", "pos": [0.5, 0.5],
             "initial_j": None},
            {"id": "n1", "kind": "onbody", "channel": "ism", "pos": [0.5, 0.8]},
            {"id": "n2", "kind": "onbody", "channel": "ism", "pos": [0.3, 0.4]},
        ],
        "traffic": [],
        "protocols": {"tbw": {}, "tbw_alwayson": {}},
    }
    if extra:
        cfg.update(extra)
    return make_scenario(cfg)


def run_net(scenario, protocol, seed, keep_tx_log=False):
    network, macs = build_network(scenario, protocol, seed,
                                  keep_tx_log=keep_tx_log)
    network.sim.run(scenario.horizon)
    return network


# Scheduled windows -----------------------------------------------------------

def test_single_queued_frame_served_in_window():
    sc = tbw_scenario(extra={
        "traffic": [{"node": "n1", "class": "NormalHigh", "period_s": 5.0,
                     "offset_s": 0.9}],
        "wakeup_table": [{"node": "n1", "class": "NormalHigh", "period_s": 5.0,
                          "offset_s": 1.0, "window_ms": 100.0}],
    }, horizon_s=4.0)
    m = run_one(sc, "tbw", seed=1)
    cc = m.counts[TrafficClass.NORMAL_HIGH]
    assert (cc.generated, cc.delivered) == (1, 1)
    lat = m.latency_us[TrafficClass.NORMAL_HIGH][0]
    # generated at 0.9 s, served right after the 1.0 s window beacon
    assert lat == 100_000 + BEACON_AIR + FRAME_AIR


def test_window_fits_two_of_three_frames():
    # window sized from the MAC arithmetic: beacon + 2 frame cycles fit,
    # the third check (now + FRAME_AIR + ACK_WAIT) exceeds the window end
    window_us = 12_000
    first_done = BEACON_AIR + FRAME_CYCLE      # 5184
    second_done = first_done + FRAME_CYCLE     # 9824
    assert second_done + FRAME_AIR + ACK_WAIT > window_us >= \
        first_done + FRAME_AIR + ACK_WAIT
    sc = tbw_scenario(extra={
        "traffic": [{"node": "n1", "class": "NormalHigh", "period_s": 0.3,
                     "offset_s": 0.2}],
        "wakeup_table": [{"node": "n1", "class": "NormalHigh", "period_s": 5.0,
                          "offset_s": 1.0,
                          "window_ms": window_us / 1000.0}],
    }, horizon_s=1.05)
    m = run_one(sc, "tbw", seed=2)
    cc = m.counts[TrafficClass.NORMAL_HIGH]
    assert cc.generated == 3          # arrivals at 0.2, 0.5, 0.8 s
    assert cc.delivered == 2          # window fits exactly two
    assert cc.in_flight == 1          # third carried over past the horizon


def test_empty_queue_node_listens_until_window_end():
    sc = tbw_scenario(extra={
        "wakeup_table": [{"node": "n1", "class": "NormalHigh", "period_s": 5.0,
                          "offset_s": 1.0, "window_ms": 100.0}],
    }, horizon_s=4.0)
    net = run_net(sc, "tbw", seed=3)
    m = net.metrics
    assert m.pdr() is None  # nothing generated
    node = net.nodes["n1"]
    node.finalize()
    listen = node.radios["data"].per_state_ticks.get("listen", 0)
    # one window at 1.0 s: awake for the whole 100 ms window, nothing more
    assert 100_000 <= listen < 110_000


def test_bnc_sleeps_outside_pattern_and_alwayson_does_not():
    sc = tbw_scenario(extra={
        "traffic": [{"node": "n1", "class": "NormalHigh", "period_s": 5.0,
                     "offset_s": 0.9}],
        "wakeup_table": [{"node": "n1", "class": "NormalHigh", "period_s": 5.0,
                          "offset_s": 1.0, "window_ms": 100.0}],
    }, horizon_s=5.0)
    a = run_one(sc, "tbw", seed=4)
    b = run_one(sc, "tbw_alwayson", seed=4)
    da = sum(c.delivered for c in a.counts.values())
    db = sum(c.delivered for c in b.counts.values())
    assert da == db == 1
    assert a.node_energy_j["bnc"] < b.node_energy_j["bnc"] / 10


def test_window_past_the_table_period_keeps_the_next_window_awake():
    # n1's guarded window [9.948, 10.152) s runs into n2's next one,
    # [10.118, 10.222) s: the coordinator must not sleep at 10.152 s, inside
    # the window that serves n2's frames
    sc = tbw_scenario(extra={
        "traffic": [{"node": "n2", "class": "NormalHigh", "period_s": 1.0,
                     "offset_s": 0.1}],
        "wakeup_table": [
            {"node": "n1", "class": "NormalHigh", "period_s": 10.0,
             "offset_s": 9.95, "window_ms": 200.0},
            {"node": "n2", "class": "NormalHigh", "period_s": 10.0,
             "offset_s": 0.12, "window_ms": 100.0}],
    }, horizon_s=60.0)
    for protocol in ("tbw", "tbw_alwayson"):
        cc = run_one(sc, protocol, seed=1).counts[TrafficClass.NORMAL_HIGH]
        # every frame generated before the 50.12 s window is delivered
        assert (cc.generated, cc.delivered, cc.dropped) == (60, 51, 0)


WAKEUP_ENTRY = st.fixed_dictionaries({
    "node": st.sampled_from(["bnc", "n1", "n2", "n3"]),  # n3 is no node
    "class": st.sampled_from(["NormalHigh", "NormalLow"]),
    "period_s": st.sampled_from([0.25, 0.5, 1.0]),
    "offset_s": st.integers(0, 1000).map(lambda ms: ms / 1000),
    "window_ms": st.sampled_from([20.0, 50.0, 100.0]),
})


@settings(max_examples=40, deadline=None)
@given(st.lists(WAKEUP_ENTRY, min_size=1, max_size=4))
def test_a_table_loads_only_with_one_entry_per_device(table):
    # the first entry that names no device, or a device named before, is
    # the load error; any other table runs with every frame accounted for
    seen, bad = set(), None
    for i, entry in enumerate(table):
        if entry["node"] not in ("n1", "n2") or entry["node"] in seen:
            bad = i
            break
        seen.add(entry["node"])
    extra = {"wakeup_table": table,
             "traffic": [{"node": n, "class": "NormalHigh", "period_s": 0.3}
                         for n in ("n1", "n2")]}
    if bad is not None:
        path = rf"^wakeup_table\[{bad}\]\.node: "
        with pytest.raises(ScenarioError, match=path):
            tbw_scenario(extra=extra, horizon_s=2.0)
        return
    m = run_one(tbw_scenario(extra=extra, horizon_s=2.0), "tbw", seed=4)
    # run_one's finalize asserts frame conservation
    assert m.counts[TrafficClass.NORMAL_HIGH].generated > 0


# Emergency --------------------------------------------------------------------

def implant_scenario(extra=None, horizon_s=5.0):
    nodes = [
        {"id": "bnc", "kind": "bnc", "channel": "ism", "pos": [0.5, 0.5],
         "initial_j": None},
        {"id": "imp1", "kind": "inbody", "channel": "mics",
         "pos": [0.48, 0.6, 0.05]},
        {"id": "imp2", "kind": "inbody", "channel": "mics",
         "pos": [0.52, 0.42, 0.05]},
    ]
    return tbw_scenario(extra=extra, nodes=nodes, horizon_s=horizon_s)


def test_clean_emergency_access_delay_is_exact():
    sc = implant_scenario()
    net, macs = build_network(sc, "tbw", seed=6)

    def raise_emergency():
        mpdu = net.new_mpdu("imp1", "bnc", TrafficClass.EMERGENCY)
        net.nodes["imp1"].mac.enqueue(mpdu)

    net.sim.schedule_at(1 * S, "test_emergency", "test", raise_emergency)
    net.sim.run(sc.horizon)
    assert (net.metrics.emergency_access_delays_us.tolist()
            == [CLEAN_EMERGENCY_DELAY])
    assert CLEAN_EMERGENCY_DELAY < 1_000_000  # well under the 1 s bound


def test_coincident_emergencies_retry_and_both_arrive():
    sc = implant_scenario(horizon_s=8.0)
    net, macs = build_network(sc, "tbw", seed=7)

    def raise_both():
        for nid in ("imp1", "imp2"):
            mpdu = net.new_mpdu(nid, "bnc", TrafficClass.EMERGENCY)
            net.nodes[nid].mac.enqueue(mpdu)

    net.sim.schedule_at(1 * S, "test_emergency", "test", raise_both)
    net.sim.run(sc.horizon)
    delays = sorted(net.metrics.emergency_access_delays_us)
    assert len(delays) == 2
    assert net.metrics.wakeup_failures == 0
    # both first signals collide; retries are 50 ms + jitter apart
    for d in delays:
        assert d > CLEAN_EMERGENCY_DELAY
        assert d < 1_000_000
    assert delays[0] >= CLEAN_EMERGENCY_DELAY + 50_000


def test_all_signals_lost_reports_failure():
    sc = implant_scenario(extra={
        "channel_model": {
            "mode": "geometric",
            "pathloss": {
                "ism": {"pl_d0": 40.0, "d0": 0.1, "exponent": 2.0,
                        "shadow_sigma": 0.0},
                "mics": {"pl_d0": 47.0, "d0": 0.05, "exponent": 2.0,
                         "shadow_sigma": 0.0},
                # wakeup channel bricked: nothing ever gets through
                "wakeup": {"pl_d0": 300.0, "d0": 0.1, "exponent": 2.0,
                           "shadow_sigma": 0.0},
            },
        },
    }, horizon_s=5.0)
    net, macs = build_network(sc, "tbw", seed=8)

    def raise_emergency():
        mpdu = net.new_mpdu("imp1", "bnc", TrafficClass.EMERGENCY)
        net.nodes["imp1"].mac.enqueue(mpdu)

    net.sim.schedule_at(1 * S, "test_emergency", "test", raise_emergency)
    net.sim.run(sc.horizon)
    m = net.metrics
    assert m.wakeup_failures == 1
    assert m.emergency_access_delays_us.tolist() == []
    assert m.counts[TrafficClass.EMERGENCY].dropped == 1


# On-demand ---------------------------------------------------------------------

def _paired_energy(addressing, request_mode=OnDemandMode.NON_CONTINUOUS,
                   duration=0, period=S, extra=None):
    """Energy per node with and without an on-demand request at 2 s."""
    results = {}
    for with_request in (False, True):
        sc = tbw_scenario(extra=extra, horizon_s=6.0)
        net, macs = build_network(sc, "tbw", seed=9)
        if with_request:
            req = OnDemandRequest(target="n1", mode=request_mode,
                                  duration=duration, stream_period=period,
                                  addressing=addressing)
            net.sim.schedule_at(
                2 * S, "test_od", "test",
                lambda: net.coordinator_mac.issue_request(req))
        net.sim.run(sc.horizon)
        for node in net.nodes.values():
            node.finalize()
        results[with_request] = (
            {nid: n.consumed_j() for nid, n in net.nodes.items()},
            net.metrics)
    return results


def test_tone_addressing_wakes_only_the_target():
    res = _paired_energy("Tone")
    base, _ = res[False]
    with_od, metrics = res[True]
    # non-target: exactly its sleep baseline, bit for bit
    assert with_od["n2"] == base["n2"]
    assert with_od["n1"] > base["n1"]
    cc = metrics.counts[TrafficClass.ON_DEMAND_NON_CONTINUOUS]
    assert (cc.generated, cc.delivered) == (1, 1)


def test_broadcast_addressing_costs_every_node():
    res = _paired_energy("Broadcast")
    base, _ = res[False]
    with_od, metrics = res[True]
    assert with_od["n2"] > base["n2"]  # woke, heard the poll, went back down
    assert with_od["n1"] > base["n1"]
    cc = metrics.counts[TrafficClass.ON_DEMAND_NON_CONTINUOUS]
    assert (cc.generated, cc.delivered) == (1, 1)


def test_continuous_on_demand_streams_expected_count():
    # the stream runs from about 2 s to 4 s; the second case puts the
    # target's own table window at 3.5 s, inside it
    window = {"node": "n1", "class": "NormalHigh", "period_s": 10.0,
              "offset_s": 3.5, "window_ms": 50.0}
    for table in ([], [window]):
        res = _paired_energy("Tone", request_mode=OnDemandMode.CONTINUOUS,
                             duration=3 * S, period=S,
                             extra={"wakeup_table": table})
        _, metrics = res[True]
        cc = metrics.counts[TrafficClass.ON_DEMAND_CONTINUOUS]
        assert (cc.generated, cc.delivered) == (3, 3)


def test_a_tone_poll_for_another_node_leaves_a_stream_alone():
    # n1 streams 8 frames from 1 s; the poll of n2's tone request at 2.2 s
    # also reaches n1's data radio, which goes on as if it had not
    stream = {"at_s": 1.0, "target": "n1", "mode": "Continuous",
              "duration_s": 4.0, "period_s": 0.5}
    ticks = []
    for requests in ([stream], [stream, {"at_s": 2.2, "target": "n2"}]):
        net = run_net(tbw_scenario(extra={"on_demand": requests},
                                   horizon_s=8.0), "tbw", seed=3)
        cc = net.metrics.counts[TrafficClass.ON_DEMAND_CONTINUOUS]
        assert (cc.generated, cc.delivered) == (8, 8)
        radio = net.nodes["n1"].mac.radio
        radio.accrue()
        ticks.append(radio.per_state_ticks)
    assert ticks[0] == ticks[1]


def test_a_poll_due_during_a_window_beacon_waits_for_it():
    # the poll falls due while the data radio sends the 2.5 s window beacon;
    # it goes out when the beacon ends, and the request's hold is released
    sc = tbw_scenario(extra={
        "wakeup_table": [{"node": "n1", "class": "NormalHigh", "period_s": 1.0,
                          "offset_s": 0.5, "window_ms": 50.0}],
        "on_demand": [{"at_s": 2.490008, "target": "n2"}],
    }, horizon_s=6.0)
    net = run_net(sc, "tbw", seed=9)
    cc = net.metrics.counts[TrafficClass.ON_DEMAND_NON_CONTINUOUS]
    assert (cc.generated, cc.delivered) == (1, 1)
    bnc = net.coordinator_mac
    assert set(bnc._holds.values()) == {0}
    radio = bnc.data_radios[sc.channel_id("ism")]
    net.nodes["bnc"].finalize()
    # six guarded windows plus the request, not the whole run from 2.5 s on
    assert radio.per_state_ticks["listen"] < 0.6 * S


# a poll falls due a wakeup signal and a turnaround after its request
POLL_DELAY_S = (SIGNAL + TURNAROUND_US) / S
ON_DEMAND = st.fixed_dictionaries({
    "at_s": st.one_of(
        st.integers(10_000, 3_000_000).map(lambda us: us / S),
        # the poll falls due inside the window beacon at k + 0.5 s
        st.tuples(st.integers(0, 2), st.integers(0, BEACON_AIR - 1)).map(
            lambda kb: kb[0] + 0.5 - POLL_DELAY_S + kb[1] / S)),
    "target": st.sampled_from(["n1", "n2"]),
    "mode": st.sampled_from(["NonContinuous", "Continuous"]),
    "addressing": st.sampled_from(["Tone", "Broadcast"]),
    "duration_s": st.integers(0, 1000).map(lambda ms: ms / 1000),
    "period_s": st.sampled_from([0.1, 0.25, 1.0]),
})


@settings(max_examples=50, deadline=None)
@given(st.lists(ON_DEMAND, min_size=1, max_size=4),
       st.sampled_from(["tbw", "tbw_alwayson"]))
@example([{"at_s": 2.490008, "target": "n2", "mode": "NonContinuous",
           "addressing": "Tone", "duration_s": 0.0, "period_s": 1.0}], "tbw")
# a second wakeup signal reaches n1 while its data radio sends
@example([{"at_s": at_s, "target": "n1", "mode": mode, "addressing": "Tone",
           "duration_s": duration_s, "period_s": 0.1}
          for at_s, mode, duration_s in [
              (0.01, "NonContinuous", 0.0), (0.01, "NonContinuous", 0.0),
              (0.285649, "Continuous", 0.201),
              (0.489808, "NonContinuous", 0.0)]],
         "tbw")
def test_every_hold_is_released_after_a_quiet_tail(requests, protocol):
    # a request holds its data radio for its duration plus 200 ms after the
    # poll; the run ends a quiet tail longer than that after the last poll
    hold_s = max(r["duration_s"] for r in requests) + 0.2
    horizon_s = max(r["at_s"] for r in requests) + POLL_DELAY_S + hold_s + 0.5
    sc = tbw_scenario(extra={
        "wakeup_table": [{"node": "n1", "class": "NormalHigh", "period_s": 1.0,
                          "offset_s": 0.5, "window_ms": 50.0}],
        "on_demand": requests,
    }, horizon_s=horizon_s)
    net = run_net(sc, protocol, seed=9)
    assert set(net.coordinator_mac._holds.values()) == {0}


def test_windows_resume_after_an_emergency_cuts_an_on_demand_stream():
    sc = tbw_scenario(extra={
        "traffic": [{"node": "n1", "class": "NormalHigh", "period_s": 1.0,
                     "offset_s": 0.3}],
        "wakeup_table": [{"node": "n1", "class": "NormalHigh", "period_s": 1.0,
                          "offset_s": 0.5, "window_ms": 50.0}],
    }, horizon_s=8.0)
    net, macs = build_network(sc, "tbw", seed=12)
    req = OnDemandRequest(target="n1", mode=OnDemandMode.CONTINUOUS,
                          duration=3 * S, stream_period=S, addressing="Tone")
    net.sim.schedule_at(2 * S, "test_od", "test",
                        lambda: net.coordinator_mac.issue_request(req))

    def raise_emergency():
        net.nodes["n1"].mac.enqueue(
            net.new_mpdu("n1", "bnc", TrafficClass.EMERGENCY))

    net.sim.schedule_at(int(2.6 * S), "test_emergency", "test", raise_emergency)
    net.sim.run(sc.horizon)
    m = net.metrics
    assert m.counts[TrafficClass.EMERGENCY].delivered == 1
    # every frame generated before the last window is served in a window
    cc = m.counts[TrafficClass.NORMAL_HIGH]
    assert (cc.generated, cc.delivered) == (8, 8)


def test_emergency_preempts_window_without_losing_frames():
    sc = tbw_scenario(extra={
        "traffic": [{"node": "n1", "class": "NormalHigh", "period_s": 0.05,
                     "offset_s": 0.5}],
        "wakeup_table": [{"node": "n1", "class": "NormalHigh", "period_s": 2.0,
                          "offset_s": 1.0, "window_ms": 200.0}],
    }, horizon_s=6.0)
    net, macs = build_network(sc, "tbw", seed=30)

    def raise_emergency():
        mpdu = net.new_mpdu("n1", "bnc", TrafficClass.EMERGENCY)
        net.nodes["n1"].mac.enqueue(mpdu)

    # strikes while the first window is mid-service
    net.sim.schedule_at(int(1.002 * S), "test_emergency", "test",
                        raise_emergency)
    net.sim.run(sc.horizon)
    m = net.metrics
    leftovers = []
    for node in net.nodes.values():
        leftovers.extend(node.mac.pending_frames())
        node.finalize()
    m.finalize(leftovers)  # conservation must hold despite the preemption
    assert m.counts[TrafficClass.EMERGENCY].delivered == 1
    assert m.emergency_access_delays_us[0] < 1_000_000
    normal = m.counts[TrafficClass.NORMAL_HIGH]
    assert normal.delivered > 0  # later windows kept serving the queue


# n1 sends at -60 dBm: the bnc, 0.3 m away, hears none of its frames
QUIET_NODES = [
    {"id": "bnc", "kind": "bnc", "channel": "ism", "pos": [0.5, 0.5],
     "initial_j": None},
    {"id": "n1", "kind": "onbody", "channel": "ism", "pos": [0.5, 0.8],
     "tx_power_dbm": -60.0},
    {"id": "n2", "kind": "onbody", "channel": "ism", "pos": [0.3, 0.4]},
]


def _silent_n1_emergencies(interrupt):
    """n1 raises emergencies at 1.001 s and 4.001 s, but its signals are too
    weak for the bnc to hear; `interrupt` adds a 20 ms window every 0.25 s
    or a tone-addressed request at 1.03 s, between two tries."""
    extra = {
        "window": {"wakeup_table": [{"node": "n1", "class": "NormalHigh",
                                     "period_s": 0.25, "offset_s": 0.0,
                                     "window_ms": 20.0}]},
        "tone": {"on_demand": [{"at_s": 1.03, "target": "n1"}]},
    }.get(interrupt)
    sc = tbw_scenario(extra=extra, nodes=QUIET_NODES, horizon_s=6.0)
    net, _macs = build_network(sc, "tbw", seed=1)
    mac = net.nodes["n1"].mac
    for at_s in (1.001, 4.001):
        net.sim.schedule_at(int(at_s * S), "test_emergency", "test",
                            lambda: mac.enqueue(net.new_mpdu(
                                "n1", "bnc", TrafficClass.EMERGENCY)))
    net.sim.run(sc.horizon)
    return net, mac


@pytest.mark.parametrize("interrupt", [None, "window", "tone"])
def test_a_window_or_wake_between_tries_leaves_the_emergency_alone(interrupt):
    # the emergency outranks both: each one is dropped after its 10 tries,
    # as with no interruption
    net, mac = _silent_n1_emergencies(interrupt)
    assert net.metrics.counts[TrafficClass.EMERGENCY].dropped == 2
    assert net.metrics.wakeup_failures == 2
    assert mac._emg_active is None and mac._pending_emergencies == []


def test_a_grant_that_no_signal_awaits_is_ignored():
    # a second grant reaches n1 while it waits for the ack of the data the
    # first grant let it send; n1 sends no second data frame
    sc = tbw_scenario(horizon_s=2.0)
    net, _macs = build_network(sc, "tbw", seed=1, keep_tx_log=True)
    mac = net.nodes["n1"].mac
    net.sim.schedule_at(1 * S, "test_emergency", "test",
                        lambda: mac.enqueue(net.new_mpdu(
                            "n1", "bnc", TrafficClass.EMERGENCY)))
    grant = Frame(FrameKind.GRANT, "bnc", "n1", GRANT_BYTES)
    ack_wait_at = 1 * S + CLEAN_EMERGENCY_DELAY + TURNAROUND_US
    net.sim.schedule_at(ack_wait_at, "test_grant", "test",
                        lambda: mac._on_frame(grant, None))
    net.sim.run(sc.horizon)
    assert net.metrics.emergency_access_delays_us.tolist() == [
        CLEAN_EMERGENCY_DELAY]
    data = [r for r in net.medium.tx_log
            if r[3] == "n1" and r[4] is FrameKind.DATA]
    assert len(data) == 1


@pytest.mark.parametrize("offset_us", [-5000, 0, 5000])
def test_an_emergency_signal_overlapping_a_broadcast_wake_runs(offset_us):
    # n1's wakeup_tx sends while its wakeup_rx hears the bnc's broadcast
    # signal for n2 on the same channel, in geometric mode
    sc = tbw_scenario(extra={"on_demand": [
        {"at_s": 1.0, "target": "n2", "addressing": "Broadcast"}]},
        horizon_s=3.0)
    net, _macs = build_network(sc, "tbw", seed=1)
    mac = net.nodes["n1"].mac
    net.sim.schedule_at(1 * S + offset_us, "test_emergency", "test",
                        lambda: mac.enqueue(net.new_mpdu(
                            "n1", "bnc", TrafficClass.EMERGENCY)))
    net.sim.run(sc.horizon)
    assert net.metrics.counts[TrafficClass.EMERGENCY].delivered == 1


def _raise_emergencies(net, node_id, *at_s):
    for at in at_s:
        net.sim.schedule_at(int(at * S), "test_emergency", "test",
                            lambda: net.nodes[node_id].mac.enqueue(
                                net.new_mpdu(node_id, "bnc",
                                             TrafficClass.EMERGENCY)))


@pytest.mark.parametrize("retry_ms", [1.0, 3.0, 5.0, 50.0])
def test_an_emergency_arrives_whatever_the_retry_wait(retry_ms):
    # the coordinator holds its data radio through the granted exchange,
    # also when the device's retry wait is shorter than grant plus data
    sc = tbw_scenario(extra={"protocols": {"tbw": {
        "wakeup_retry_ms": retry_ms}}}, horizon_s=3.0)
    for seed in range(1, 11):
        net, _macs = build_network(sc, "tbw", seed=seed)
        _raise_emergencies(net, "n1", 1.0)
        net.sim.run(sc.horizon)
        assert net.metrics.counts[TrafficClass.EMERGENCY].delivered == 1, seed


def test_a_second_emergency_waits_for_the_first_and_then_starts():
    # both are raised at 1 s; the second signal starts when the first
    # exchange ends with its ack
    sc = tbw_scenario(horizon_s=2.0)
    net, _macs = build_network(sc, "tbw", seed=1)
    _raise_emergencies(net, "n1", 1.0, 1.0)
    net.sim.run(sc.horizon)
    first_done = CLEAN_EMERGENCY_DELAY + TURNAROUND_US + ACK_AIR
    assert net.metrics.emergency_access_delays_us.tolist() == [
        CLEAN_EMERGENCY_DELAY, first_done + CLEAN_EMERGENCY_DELAY]


def test_a_granted_exchange_that_fails_signals_again():
    # the bnc hears n1's wakeup signals (20 dB less path loss on the wakeup
    # channel) but none of its data: each grant's exchange fails after
    # retry_limit retries, and n1 signals again until wakeup_max_tries
    pl = {"pl_d0": 40.0, "d0": 0.1, "exponent": 2.0, "shadow_sigma": 0.0}
    sc = tbw_scenario(extra={"channel_model": {"mode": "geometric", "pathloss": {
        "ism": pl, "mics": pl, "wakeup": dict(pl, pl_d0=20.0)}}},
        nodes=QUIET_NODES, horizon_s=2.0)
    net, _macs = build_network(sc, "tbw", seed=1, keep_tx_log=True)
    _raise_emergencies(net, "n1", 1.0)
    net.sim.run(sc.horizon)
    sent = [r[4] for r in net.medium.tx_log if r[3] == "n1"]
    assert sent.count(FrameKind.WAKEUP) == 10
    assert sent.count(FrameKind.DATA) == 10 * (3 + 1)
    assert net.metrics.wakeup_failures == 1
    assert net.metrics.counts[TrafficClass.EMERGENCY].dropped == 1


@pytest.mark.parametrize("emergency", [False, True])
def test_a_frame_that_cannot_go_back_to_a_full_queue_is_dropped(emergency):
    # n1's first frame (0.5 s) is in service from the 1.0 s window beacon,
    # unheard, when its second (1.002 s) fills the one-frame queue; the
    # first is dropped at the window's deadline, or when an emergency at
    # 1.003 s preempts the window
    sc = tbw_scenario(extra={
        "queue_capacity": 1,
        "traffic": [{"node": "n1", "class": "NormalHigh", "period_s": 0.502,
                     "offset_s": 0.5}],
        "wakeup_table": [{"node": "n1", "class": "NormalHigh", "period_s": 5.0,
                          "offset_s": 1.0, "window_ms": 10.0}],
    }, nodes=QUIET_NODES, horizon_s=1.5)
    net, _macs = build_network(sc, "tbw", seed=1)
    if emergency:
        _raise_emergencies(net, "n1", 1.003)
    net.sim.run(sc.horizon)
    cc = net.metrics.counts[TrafficClass.NORMAL_HIGH]
    assert (cc.generated, cc.delivered, cc.dropped) == (2, 0, 1)
    assert [m.seq for m in net.nodes["n1"].mac.queue.frames()] == [1]


def test_an_unacked_on_demand_response_is_dropped():
    sc = tbw_scenario(extra={"on_demand": [{"at_s": 1.0, "target": "n1"}]},
                      nodes=QUIET_NODES, horizon_s=2.0)
    net = run_net(sc, "tbw", seed=1, keep_tx_log=True)
    cc = net.metrics.counts[TrafficClass.ON_DEMAND_NON_CONTINUOUS]
    assert (cc.generated, cc.delivered, cc.dropped) == (1, 0, 1)
    data = [r for r in net.medium.tx_log
            if r[3] == "n1" and r[4] is FrameKind.DATA]
    assert len(data) == 3 + 1  # the first send and retry_limit retries


def test_a_wakeup_receiver_ignores_frames_that_are_not_wakeup_signals():
    # n2's data radio is on the wakeup channel, so its window beacons, data
    # and acks reach every wakeup receiver; none of them wakes n1
    nodes = [
        {"id": "bnc", "kind": "bnc", "channel": "ism", "pos": [0.5, 0.5],
         "initial_j": None},
        {"id": "n1", "kind": "onbody", "channel": "ism", "pos": [0.5, 0.8]},
        {"id": "n2", "kind": "onbody", "channel": "wakeup", "pos": [0.3, 0.4]},
    ]
    sc = tbw_scenario(extra={
        "traffic": [{"node": "n2", "class": "NormalHigh", "period_s": 0.5,
                     "offset_s": 0.1}],
        "wakeup_table": [{"node": "n2", "class": "NormalHigh", "period_s": 1.0,
                          "offset_s": 0.5, "window_ms": 50.0}],
    }, nodes=nodes, horizon_s=3.0)
    net = run_net(sc, "tbw", seed=1)
    cc = net.metrics.counts[TrafficClass.NORMAL_HIGH]
    assert (cc.generated, cc.delivered) == (6, 5)  # the last waits for 3.5 s
    radio = net.nodes["n1"].mac.radio
    radio.accrue()
    assert set(radio.per_state_ticks) == {"sleep"}
