"""Bridge relay behavior inside full runs."""

import json

from bsnsim.channel import DeliveryOutcome
from bsnsim.core import ticks_from_seconds
from bsnsim.frames import FrameKind
from bsnsim.mac.base import TURNAROUND_US
from bsnsim.runner import build_network, run_one
from bsnsim.scenario import _build, bundled_scenario_path, load_scenario
from bsnsim.traffic import TrafficClass


def _run_capture(scenario, seed, protocol="direct"):
    """Run and capture every final delivery (mpdu, at)."""
    net, macs = build_network(scenario, protocol, seed)
    delivered = []
    orig = net.metrics.on_delivered

    def capture(mpdu, at):
        ok = orig(mpdu, at)
        if ok:
            delivered.append(mpdu)
        return ok

    net.metrics.on_delivered = capture
    net.sim.run(scenario.horizon)
    return net, delivered


def test_inbody_deliveries_always_carry_a_bridge_hop():
    sc = load_scenario("bridge_inbody")
    net, delivered = _run_capture(sc, seed=21)
    inbody = {"imp1", "imp2"}
    assert delivered
    saw_inbody = saw_direct = False
    for mpdu in delivered:
        if mpdu.src in inbody or mpdu.dst in inbody:
            saw_inbody = True
            assert len(mpdu.hop_trace) >= 1
            assert mpdu.hop_trace[0][0] == "bnc"
        elif mpdu.src in ("chest", "ankle") and mpdu.dst in ("chest", "ankle"):
            saw_direct = True
            assert mpdu.hop_trace == []  # on-body peers go direct
    assert saw_inbody and saw_direct


def test_relay_transparency_payload_and_class():
    sc = load_scenario("bridge_inbody")
    net, delivered = _run_capture(sc, seed=22)
    relayed = [m for m in delivered if m.hop_trace]
    assert relayed
    for mpdu in relayed:
        assert mpdu.payload_bytes == 128
        assert mpdu.cls in (TrafficClass.NORMAL_MEDIUM, TrafficClass.NORMAL_LOW)
        assert len(mpdu.hop_trace) == 1  # single-bridge topology


def test_inbody_peer_frames_relayed_on_same_channel():
    sc = load_scenario("bridge_inbody")
    net, delivered = _run_capture(sc, seed=23)
    peer = [m for m in delivered if m.src == "imp2" and m.dst == "imp1"]
    assert peer
    for mpdu in peer:
        assert mpdu.hop_trace == [("bnc", "mics")]


def test_retransmitted_frame_is_relayed_once():
    # under an acked MAC a lost ingress ack makes the sender send the same
    # frame again; the bridge relays it the first time only
    sc = load_scenario("bridge_inbody")
    net, delivered = _run_capture(sc, seed=3, protocol="smac")
    relayed = [m for m in delivered if m.hop_trace]
    assert relayed
    assert all(len(m.hop_trace) == 1 for m in relayed)


def test_the_bridge_acks_a_frame_before_it_relays_it():
    # imp2 -> imp1 enters and leaves the bridge on mics, on bnc's smac radio:
    # the forward waits for the ack to end instead of pre-empting it
    sc = load_scenario("bridge_inbody")
    sc.horizon = ticks_from_seconds(10.0)
    net, _macs = build_network(sc, "smac", seed=1000, keep_tx_log=True)
    net.sim.run(sc.horizon)
    log = net.medium.tx_log
    received = [end for _start, end, _ch, nid, kind, dst, result in log
                if nid == "imp2" and kind is FrameKind.DATA and dst == "bnc"
                and result is DeliveryOutcome.DELIVERED]
    acks = {start for start, _end, _ch, nid, kind, dst, _result in log
            if nid == "bnc" and kind is FrameKind.ACK and dst == "imp2"}
    assert received
    assert [end for end in received if end + TURNAROUND_US not in acks] == []


def test_a_tbw_device_acks_a_relayed_frame_on_its_data_radio():
    # bridge_inbody's imp2 -> imp1 flow under tbw, in geometric mode: imp2
    # sends in its window at k + 0.52 s, inside imp1's window, and imp1
    # acks each frame the bridge relays to it
    pl = {"pl_d0": 47.0, "d0": 0.05, "exponent": 2.0, "shadow_sigma": 0.0}
    raw = json.loads(bundled_scenario_path("bridge_inbody").read_text())
    raw["channels"]["wakeup"] = {"band": "WMTS", "phy": 0}
    window = {"period_s": 1.0, "window_ms": 100.0}
    raw.update(
        horizon_s=10.0, wakeup_channel="wakeup", protocols={"tbw": {}},
        channel_model={"mode": "geometric", "pathloss": {
            key: pl for key in ("mics", "ism", "wakeup")}},
        traffic=[t for t in raw["traffic"] if t["node"] == "imp2"],
        wakeup_table=[dict(window, node="imp1", offset_s=0.5),
                      dict(window, node="imp2", offset_s=0.52)])
    sc = _build(raw)
    net, _macs = build_network(sc, "tbw", seed=1, keep_tx_log=True)
    net.sim.run(sc.horizon)
    log = net.medium.tx_log
    relayed = [end for _start, end, _ch, nid, kind, dst, result in log
               if nid == "bnc" and kind is FrameKind.DATA and dst == "imp1"
               and result is DeliveryOutcome.DELIVERED]
    acks = [start for start, _end, ch, nid, kind, dst, _result in log
            if nid == "imp1" and kind is FrameKind.ACK and dst == "bnc"
            and ch == "mics"]
    assert net.metrics.counts[TrafficClass.NORMAL_LOW].delivered == 5
    assert acks == [end + TURNAROUND_US for end in relayed] != []


def test_an_ack_due_after_the_smac_window_closed_is_not_sent():
    # the bridge forwards to chest near the end of chest's listen window; the
    # ack falls due after the window closed, in an ended session, so chest
    # sends none from sleep and sleeps through every sleep phase
    sc = load_scenario("bridge_inbody")
    sc.horizon = ticks_from_seconds(10.0)
    net, _macs = build_network(sc, "smac", seed=1000, keep_tx_log=True)
    net.sim.run(sc.horizon)
    chest = net.nodes["chest"]
    chest.finalize()
    mac = chest.mac
    acks = [start for start, _end, _ch, nid, kind, _dst, _result
            in net.medium.tx_log if nid == "chest" and kind is FrameKind.ACK]
    assert acks
    assert [t for t in acks if t % mac.cycle_ticks >= mac.listen_ticks] == []
    sleep = 10 * (mac.cycle_ticks - mac.listen_ticks)
    assert chest.radios["data"].per_state_ticks["sleep"] == sleep == 9_000_000


def test_store_overflow_drops_and_counts():
    sc = load_scenario("bridge_inbody")
    sc.bridge["store_capacity"] = 4
    # egress channel four times slower than the ingress arrival rate
    sc.channels["ism"]["data_rate_bps"] = 62_500
    sc.traffic = [t._replace(period=4500) for t in sc.traffic
                  if t.node == "imp1"]
    sc.horizon = ticks_from_seconds(5.0)
    m = run_one(sc, "direct", seed=25)
    assert m.bridge_drops > 0
    dropped = m.counts[TrafficClass.NORMAL_MEDIUM].dropped
    assert dropped >= m.bridge_drops  # store drops are terminal drops


def test_two_hop_loss_product():
    # hops at 0.9 (MICS in) and 0.8 (ISM out), no retries: e2e ~ 0.72
    sc = load_scenario("bridge_inbody")
    sc.traffic = [t for t in sc.traffic if t.node == "imp1"]
    # statistics harness, not a lifetime study
    sc.nodes = [n._replace(initial_j=None) for n in sc.nodes]
    sc.horizon = ticks_from_seconds(1000.0)  # 20k frames at 50 ms
    m = run_one(sc, "direct", seed=26)
    cc = m.counts[TrafficClass.NORMAL_MEDIUM]
    assert cc.generated == 20_000
    assert abs(cc.delivered / cc.generated - 0.72) < 0.02
