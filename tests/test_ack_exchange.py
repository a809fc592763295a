"""The acknowledged exchange every acked MAC shares (`MacBase.send_acked`),
run with the coordinator's acks suppressed: a frame goes on the air once
plus `retry_limit` retries, and under tbw a retry that would end past the
window is carried over to the next window instead of being dropped."""

import pytest

from bsnsim.core import US_PER_S
from bsnsim.frames import FrameKind
from bsnsim.runner import build_network
from bsnsim.traffic import TrafficClass
from tests.conftest import make_scenario
from tests.test_tbw import tbw_scenario

ONE_FRAME = [{"node": "n1", "class": "NormalHigh", "period_s": 10.0,
              "offset_s": 0.5}]


def _run_without_acks(scenario, protocol):
    network, _macs = build_network(scenario, protocol, seed=1,
                                   keep_tx_log=True)
    network.coordinator_mac.send_ack_after_turnaround = \
        lambda radio, to, mpdu: None
    network.sim.run(scenario.horizon)
    return network


def _data_starts(network, node_id):
    return [start for start, _end, _ch, nid, kind, _dst, _result
            in network.medium.tx_log
            if nid == node_id and kind is FrameKind.DATA]


def _one_frame(protocol, retry_limit):
    params = {"retry_limit": retry_limit}
    if protocol == "tbw":
        # n1's window opens at 1.0 s and fits every attempt
        return tbw_scenario(extra={
            "traffic": ONE_FRAME,
            "wakeup_table": [{"node": "n1",
                              "period_s": 5.0, "offset_s": 1.0,
                              "window_ms": 100.0}],
            "protocols": {"tbw": params}}, horizon_s=2.0)
    return make_scenario({"horizon_s": 2.0, "traffic": ONE_FRAME,
                          "protocols": {protocol: params}})


@pytest.mark.parametrize("retry_limit", [0, 2])
@pytest.mark.parametrize("protocol", ["csma802154", "smac", "tbw"])
def test_unacked_frame_is_sent_retry_limit_plus_one_times(protocol,
                                                          retry_limit):
    network = _run_without_acks(_one_frame(protocol, retry_limit), protocol)
    assert len(_data_starts(network, "n1")) == retry_limit + 1
    # the coordinator got the frame, but n1 never learns it and gives up
    assert network.nodes["n1"].mac.pending_frames() == []


def test_tbw_retry_past_the_window_waits_for_the_next_window():
    # a 12 ms window fits the beacon and two attempts of frame plus ack
    # wait, fewer than the 1 + 3 the retry limit allows
    sc = tbw_scenario(extra={
        "traffic": ONE_FRAME,
        "wakeup_table": [{"node": "n1",
                          "period_s": 1.0, "offset_s": 1.0,
                          "window_ms": 12.0}]}, horizon_s=2.5)
    network = _run_without_acks(sc, "tbw")
    windows = [start // US_PER_S for start in _data_starts(network, "n1")]
    assert windows == [1, 1, 2, 2]
    assert len(network.nodes["n1"].mac.pending_frames()) == 1


@pytest.mark.parametrize("protocol", ["csma802154", "smac"])
def test_an_ack_after_its_wait_has_fired_does_not_end_the_retry(protocol):
    # the coordinator's first ack is held back by one ack wait, so it
    # arrives after n1's wait has fired and while the retry contends: the
    # retry goes on with the frame in service, and its own ack ends it
    network, _macs = build_network(_one_frame(protocol, 3), protocol, seed=1,
                                   keep_tx_log=True)
    coordinator, n1 = network.coordinator_mac, network.nodes["n1"].mac
    send_ack = coordinator.send_ack_after_turnaround
    held = []

    def late_first_ack(radio, to, mpdu):
        if held:
            send_ack(radio, to, mpdu)
            return
        held.append(mpdu)
        coordinator.node.after(n1.ack_wait, "late_ack",
                               lambda: send_ack(radio, to, mpdu))

    coordinator.send_ack_after_turnaround = late_first_ack
    network.sim.run(network.scenario.horizon)
    assert len(_data_starts(network, "n1")) == 2
    counts = network.metrics.counts[TrafficClass.NORMAL_HIGH]
    assert (counts.delivered, counts.dropped) == (1, 0)
    assert n1.pending_frames() == []
