"""End-to-end protocol behavior on small networks."""

import dataclasses

import pytest

from bsnsim.frames import FrameKind
from bsnsim.mac import PROTOCOLS, mac_class
from bsnsim.mac.base import TURNAROUND_US
from bsnsim.runner import build_network, run_one
from bsnsim.traffic import TrafficClass
from tests.conftest import make_scenario
from tests.test_golden_trace import _bundled, _dying, _on_demand


def run_net(scenario, protocol, seed, keep_tx_log=False):
    network, macs = build_network(scenario, protocol, seed,
                                  keep_tx_log=keep_tx_log)
    network.sim.run(scenario.horizon)
    return network


def finalize(network, macs=None):
    m = network.metrics
    leftovers = []
    for node in network.nodes.values():
        if node.mac is not None:
            leftovers.extend(node.mac.pending_frames())
        node.finalize()
    if network.bridge is not None:
        leftovers.extend(network.bridge.pending())
    m.finalize(leftovers)
    return m


# registry ---------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_every_registered_name_loads_the_class_of_that_name(name):
    assert mac_class(name).name == name


def test_an_unknown_protocol_lists_the_choices():
    with pytest.raises(ValueError, match=r"unknown protocol: 'csma'; choose "
                       r"from \['csma802154', 'direct', 'pbtdma', 'smac', "
                       r"'tbw', 'tbw_alwayson'\]"):
        mac_class("csma")


@pytest.mark.parametrize("protocol, idle_listen_mw", [("csma802154", 56.0),
                                                      ("smac", 54.0)])
def test_a_node_that_names_no_profile_draws_its_macs(protocol,
                                                     idle_listen_mw):
    # csma802154 declares cc2420; every other MAC keeps nrf2401
    sc = _fig2_like()
    assert sc.protocol_profiles[protocol] is None
    net, _ = build_network(sc, protocol, seed=1)
    for node in net.nodes.values():
        assert node.profile.idle_listen_mw == idle_listen_mw
        assert node.radios["data"].power_mw["listen"] == idle_listen_mw


# 802.15.4 ---------------------------------------------------------------

def _fig2_like(extra=None, horizon_s=5.0):
    cfg = {
        "horizon_s": horizon_s,
        "nodes": [
            {"id": "bnc", "kind": "bnc", "channel": "ism", "pos": [0.5, 0.5],
             "initial_j": None},
            {"id": "n1", "kind": "onbody", "channel": "ism", "pos": [0.5, 0.8]},
            {"id": "n2", "kind": "onbody", "channel": "ism", "pos": [0.3, 0.4]},
        ],
        "traffic": [
            {"node": "n1", "class": "NormalHigh", "period_s": 0.2,
             "offset_s": 0.03},
            {"node": "n2", "class": "NormalMedium", "period_s": 0.5,
             "offset_s": 0.11},
        ],
        "protocols": {"csma802154": {"BO": 3, "SO": 3}},
    }
    if extra:
        cfg.update(extra)
    return make_scenario(cfg)


def test_csma802154_delivers_with_acks():
    sc = _fig2_like()
    m = run_one(sc, "csma802154", seed=1)
    assert m.pdr() is not None and m.pdr() > 0.95
    assert m.counts[TrafficClass.NORMAL_HIGH].delivered > 20


def test_csma802154_all_data_inside_cap():
    sc = _fig2_like()
    net = run_net(sc, "csma802154", seed=2, keep_tx_log=True)
    bi = 15360 * 8  # BO=3
    for (start, end, chan, src, kind, link_dst, outcome) in net.medium.tx_log:
        if kind is FrameKind.DATA:
            # data never overlaps the beacon at the superframe head
            assert start % bi >= 544


def test_csma802154_gts_grant_transmit_and_expiry():
    sc = _fig2_like(extra={
        "traffic": [
            {"node": "n1", "class": "NormalHigh", "period_s": 10.0,
             "offset_s": 0.5},
            {"node": "n2", "class": "NormalMedium", "period_s": 0.4,
             "offset_s": 0.11},
        ],
        "protocols": {"csma802154": {"BO": 3, "SO": 3, "num_gts_slots": 2,
                                     "gts_nodes": ["n1"],
                                     "gts_expiry_superframes": 4}},
    })
    net = run_net(sc, "csma802154", seed=3, keep_tx_log=True)
    m = finalize(net)
    bi = 15360 * 8
    slot = 960 * 8
    gts_txs = [t for t in net.medium.tx_log
               if t[3] == "n1" and t[4] is FrameKind.DATA]
    assert gts_txs, "the GTS node never transmitted"
    for (start, *_rest) in gts_txs:
        # GTS slots sit at the top of the active period (slot 15 here)
        assert start % bi == 15 * slot
    assert m.counts[TrafficClass.NORMAL_HIGH].delivered >= 1
    # single frame at 0.5 s, then idle: the descriptor must have expired
    assert net.coordinator_mac.descriptors == []


def _data_starts(net, node_id):
    """The start of each data frame `node_id` sent, as (superframe index,
    slot index) at BO = SO = 3."""
    bi, slot = 15360 * 8, 960 * 8
    return [(t[0] // bi, t[0] % bi // slot) for t in net.medium.tx_log
            if t[3] == node_id and t[4] is FrameKind.DATA]


def test_a_gts_device_denied_a_slot_asks_again_at_each_beacon():
    # one GTS slot, two GTS devices with a frame each at 0.5 s: n1 is granted
    # the slot at the beacon of superframe 5 and n2 is denied; n2 asks again
    # at every beacon and is granted the slot once n1's descriptor has
    # expired, four idle superframes after n1 sent in superframe 5
    sc = _fig2_like(extra={
        "traffic": [{"node": n, "class": "NormalHigh", "period_s": 10.0,
                     "offset_s": 0.5} for n in ("n1", "n2")],
        "protocols": {"csma802154": {"BO": 3, "SO": 3, "num_gts_slots": 1,
                                     "gts_nodes": ["n1", "n2"]}},
    }, horizon_s=2.0)
    net = run_net(sc, "csma802154", seed=3, keep_tx_log=True)
    assert _data_starts(net, "n1") == [(5, 15)]
    assert _data_starts(net, "n2") == [(10, 15)]
    assert net.metrics.counts[TrafficClass.NORMAL_HIGH].delivered == 2


def test_a_gts_device_sleeps_from_its_beacon_to_its_slot():
    # n1 asks for a slot at 0.5 s and is granted slot 15 by the beacon of
    # superframe 5: it sleeps from that beacon's end until a turnaround
    # before the slot, and sends in the slot
    sc = _fig2_like(extra={
        "traffic": [{"node": "n1", "class": "NormalHigh", "period_s": 10.0,
                     "offset_s": 0.5}],
        "protocols": {"csma802154": {"BO": 3, "SO": 3, "num_gts_slots": 1,
                                     "gts_nodes": ["n1"]}},
    }, horizon_s=1.0)
    net, _macs = build_network(sc, "csma802154", seed=3, keep_tx_log=True)
    radio = net.nodes["n1"].mac.radio
    bi, slot = 15360 * 8, 960 * 8
    beacon_end = 5 * bi + 544
    slot_start = 5 * bi + 15 * slot
    net.sim.run(beacon_end)
    assert radio.state == "sleep"
    net.sim.run(slot_start - TURNAROUND_US - 1)
    assert radio.state == "sleep"
    net.sim.run(sc.horizon)
    assert _data_starts(net, "n1") == [(5, 15)]


def test_a_gts_owner_that_asks_again_keeps_its_one_slot():
    # n1's second frame arrives while the beacon that grants its first
    # request is on the air (614,400-614,944 us), so n1 asks again for the
    # slot it already holds; the coordinator keeps the one descriptor and
    # n1 goes on sending in slot 15
    sc = _fig2_like(extra={
        "traffic": [{"node": "n1", "class": "NormalHigh", "period_s": 0.1145,
                     "offset_s": 0.5}],
        "protocols": {"csma802154": {"BO": 3, "SO": 3, "num_gts_slots": 2,
                                     "gts_nodes": ["n1"]}},
    }, horizon_s=1.5)
    net = run_net(sc, "csma802154", seed=3, keep_tx_log=True)
    assert _data_starts(net, "n1") == [(sf, 15) for sf in range(5, 12)]
    assert [d.slot for d in net.coordinator_mac.descriptors] == [15]


def test_beacon_order_shapes_interval():
    sc = _fig2_like(extra={"protocols": {"csma802154": {"BO": 4, "SO": 4}}})
    net = run_net(sc, "csma802154", seed=4, keep_tx_log=True)
    beacons = [t[0] for t in net.medium.tx_log if t[4] is FrameKind.BEACON]
    assert beacons[0] == 0
    assert all(b % (15360 * 16) == 0 for b in beacons)


# PB-TDMA ------------------------------------------------------------------

def test_pbtdma_slots_and_collision_freedom():
    sc = _fig2_like(extra={
        "protocols": {"pbtdma": {"slot_ms": 6.0, "preamble_ms": 5.0}}})
    net = run_net(sc, "pbtdma", seed=5, keep_tx_log=True)
    m = finalize(net)
    assert net.medium.data_collisions == 0
    for (start, end, chan, src, kind, link_dst, outcome) in net.medium.tx_log:
        if kind is FrameKind.DATA:
            mac = net.nodes[src].mac
            assert start % mac.round_ticks == (
                mac.preamble_ticks + mac.slot * mac.slot_ticks + TURNAROUND_US)
    assert m.pdr() > 0.9


def test_pbtdma_device_without_a_slot_sends_nothing():
    # n1 owns slot 2 of a three-slot round and n2 owns none, so n2 may have
    # no flow (a load error, test_scenario.py): n1 sends only in slot 2
    sc = _fig2_like(extra={
        "protocols": {"pbtdma": {"slot_ms": 6.0, "preamble_ms": 5.0,
                                 "assignment": {"2": "n1"}}},
        "traffic": [{"node": "n1", "class": "NormalHigh", "period_s": 0.2,
                     "offset_s": 0.03}]})
    net = run_net(sc, "pbtdma", seed=5, keep_tx_log=True)
    sent = {n: [t[0] for t in net.medium.tx_log
                if t[3] == n and t[4] is FrameKind.DATA] for n in ("n1", "n2")}
    assert net.nodes["n1"].mac.round_ticks == 5_000 + 3 * 6_000
    assert len(sent["n1"]) == 25
    assert {t % 23_000 for t in sent["n1"]} == {
        5_000 + 2 * 6_000 + TURNAROUND_US}
    assert sent["n2"] == []


def test_pbtdma_throughput_capped_at_one_frame_per_round():
    sc = _fig2_like(extra={
        "horizon_s": 4.0,
        "traffic": [{"node": "n1", "class": "NormalHigh", "period_s": 0.01,
                     "offset_s": 0.005}],
        "protocols": {"pbtdma": {"slot_ms": 6.0, "preamble_ms": 5.0}}})
    net = run_net(sc, "pbtdma", seed=6)
    m = finalize(net)
    cc = m.counts[TrafficClass.NORMAL_HIGH]
    rounds = sc.horizon // net.nodes["n1"].mac.round_ticks
    assert cc.delivered <= rounds + 1
    assert cc.dropped > 0  # queue overflow under 100 frames/s offered
    assert len(net.nodes["n1"].mac.queue) == 16  # full at the default capacity


# S-MAC ----------------------------------------------------------------------

def test_smac_never_transmits_in_sleep_phase():
    sc = _fig2_like(extra={
        "protocols": {"smac": {"cycle_s": 0.5, "listen_fraction": 0.2}}})
    net = run_net(sc, "smac", seed=7, keep_tx_log=True)
    m = finalize(net)
    cycle = 500_000
    listen = 100_000
    for (start, end, chan, src, kind, link_dst, outcome) in net.medium.tx_log:
        assert start % cycle < listen, f"tx started in sleep at {start}"
        assert (end - 1) % cycle < listen, f"tx overran the window at {end}"
    assert m.pdr() > 0.8


def test_smac_sleep_arrivals_wait_for_next_window():
    sc = _fig2_like(extra={
        "horizon_s": 2.0,
        "traffic": [{"node": "n1", "class": "NormalHigh", "period_s": 10.0,
                     "offset_s": 0.3}],  # arrives mid-sleep
        "protocols": {"smac": {"cycle_s": 1.0, "listen_fraction": 0.1}}})
    net = run_net(sc, "smac", seed=8, keep_tx_log=True)
    finalize(net)
    data = [t for t in net.medium.tx_log if t[4] is FrameKind.DATA]
    assert len(data) == 1
    assert data[0][0] >= 1_000_000  # served in the next listen window


# Determinism across identical seeds (runner level) ---------------------------

def test_run_twice_identical_metrics():
    sc = _fig2_like()
    a = run_one(sc, "csma802154", seed=11)
    b = run_one(sc, "csma802154", seed=11)
    assert a.metric_values() == b.metric_values()
    c = run_one(sc, "csma802154", seed=12)
    assert c.metric_values() != a.metric_values()


# Energy integration -----------------------------------------------------------

def test_ledger_closure_every_radio():
    sc = _fig2_like(horizon_s=3.0)
    for proto in ("csma802154", "pbtdma", "smac"):
        net = run_net(sc, proto, seed=13)
        for node in net.nodes.values():
            node.finalize()
            lifetime = (node.death_time if node.death_time is not None
                        else sc.horizon)
            for radio in node.radios.values():
                assert sum(radio.per_state_ticks.values()) == lifetime, \
                    f"{proto}/{node.node_id}/{radio.label}"
                recomputed = sum(t * radio.power_mw[s] * 1e-9
                                 for s, t in radio.per_state_ticks.items())
                assert radio.consumed_j == recomputed


def test_death_mid_transmission_kills_the_frame():
    listen_j = 10_000 * 54.0 * 1e-9          # idle until the arrival
    sc = make_scenario({
        "horizon_s": 1.0,
        "nodes": [
            {"id": "bnc", "kind": "bnc", "channel": "ism", "pos": [0.5, 0.5],
             "initial_j": None},
            {"id": "n1", "kind": "onbody", "channel": "ism", "pos": [0.5, 0.8],
             "initial_j": listen_j + 3e-5},  # dies ~1150 us into the frame
        ],
        "traffic": [{"node": "n1", "class": "NormalHigh", "period_s": 5.0,
                     "offset_s": 0.01}],
    })
    m = run_one(sc, "direct", seed=14)
    cc = m.counts[TrafficClass.NORMAL_HIGH]
    assert cc.generated == 1
    assert cc.delivered == 0
    assert cc.dropped == 1
    assert m.node_death_us["n1"] is not None
    assert m.node_energy_j["n1"] <= listen_j + 3e-5 + 1e-12


def _sender_dies():
    """n1 sends every 50 ms and dies at ~0.185 s of 54 mW listening."""
    return make_scenario({
        "horizon_s": 2.0,
        "nodes": [
            {"id": "bnc", "kind": "bnc", "channel": "ism", "pos": [0.5, 0.5],
             "initial_j": None},
            {"id": "n1", "kind": "onbody", "channel": "ism", "pos": [0.5, 0.8],
             "initial_j": 0.01},
        ],
        "traffic": [{"node": "n1", "class": "NormalHigh", "period_s": 0.05,
                     "offset_s": 0.02}],
    })


def _coordinator_dies_before_request():
    """The on-demand golden case with a coordinator that dies at ~2.2 s,
    before the request due at 4.1 s."""
    sc = _on_demand()
    return dataclasses.replace(sc, nodes=[
        n._replace(initial_j=0.01) if n.id == sc.bnc else n
        for n in sc.nodes])


DEATH_CASES = {
    "direct": (_sender_dies, "direct", 15),
    "on-demand-tbw": (_coordinator_dies_before_request, "tbw", 9),
    "fig2-dying-csma802154":
        (lambda: _dying(_bundled("paper_fig2", 30)), "csma802154", 1001),
    "fig2-dying-pbtdma":
        (lambda: _dying(_bundled("paper_fig2", 30)), "pbtdma", 1001),
    "fig2-dying-smac": (lambda: _dying(_bundled("paper_fig2", 30)), "smac", 1001),
}


@pytest.mark.parametrize("case", sorted(DEATH_CASES))
def test_no_transmission_starts_after_its_node_dies(case):
    build, protocol, seed = DEATH_CASES[case]
    net = run_net(build(), protocol, seed, keep_tx_log=True)
    deaths = {nid: node.death_time for nid, node in net.nodes.items()}
    assert any(t is not None for t in deaths.values())
    for start, _end, _channel, src, kind, *_rest in net.medium.tx_log:
        assert deaths[src] is None or start <= deaths[src], \
            f"{src} starts a {kind.value} at {start} after dying at {deaths[src]}"


def test_dead_node_stops_generating_and_receiving():
    # that it sends nothing after death is the "direct" case above
    net = run_net(_sender_dies(), "direct", seed=15)
    m = finalize(net)
    death = net.nodes["n1"].death_time
    assert death is not None
    cc = m.counts[TrafficClass.NORMAL_HIGH]
    # no frames generated after death
    assert cc.generated <= death // 50_000 + 1


# Empirical link mode, full stack ------------------------------------------------

def test_empirical_mode_full_stack_tracks_matrix():
    from bsnsim.scenario import load_scenario
    sc = load_scenario("table1_links")
    m = run_one(sc, "direct", seed=2000)
    # chest->waist 0.99 and ankle->waist 0.72 while standing
    chest = m.counts[TrafficClass.NORMAL_MEDIUM]
    # both flows share a class; split via latency is overkill, check total:
    # expected aggregate = (0.99 + 0.72) / 2 over equal offered loads
    assert chest.generated > 1000
    assert abs(m.pdr() - (0.99 + 0.72) / 2) < 0.03
