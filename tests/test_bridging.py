"""Route resolution at load, and the relay store."""

from bsnsim.bridging import Direct, ViaBridge
from bsnsim.core import ticks_from_seconds
from bsnsim.runner import build_network
from bsnsim.scenario import load_scenario
from bsnsim.traffic import TrafficClass
from tests.conftest import make_scenario

MICS, ISM = "mics", "ism"  # the channel keys of `BSN`


def _node(node_id, kind, channel, x):
    return {"id": node_id, "kind": kind, "channel": channel, "pos": [x, 0.0]}


# two implants on MICS and two on-body nodes on ISM, bridged by the bnc
BSN = {
    "channels": {"mics": {"band": "MICS_402_405", "phy": 0},
                 "ism": {"band": "ISM_2_4", "phy": 0}},
    "channel_model": {"mode": "geometric", "pathloss": {}},
    "nodes": [_node("bnc", "bnc", "mics", 0.0),
              _node("imp1", "inbody", "mics", 0.1),
              _node("imp2", "inbody", "mics", 0.2),
              _node("chest", "onbody", "ism", 0.3),
              _node("ankle", "onbody", "ism", 0.4)],
    "bridge": {"node": "bnc", "interfaces": ["mics", "ism"]}}


def _routes(**overrides):
    return make_scenario({**BSN, **overrides}).routes


def test_every_ordered_pair_resolved_once_at_load():
    routes = _routes()
    assert len(routes) == 5 * 4
    assert all(src != dst for src, dst in routes)
    assert make_scenario({}).routes == {}  # no bridge, no routes


def test_direct_route_between_onbody_peers():
    assert _routes()[("chest", "ankle")] == Direct(ISM)


def test_inbody_to_onbody_goes_via_bridge():
    assert _routes()[("imp1", "chest")] == ViaBridge(MICS, "bnc", ISM)


def test_inbody_peers_relayed_even_on_shared_channel():
    assert _routes()[("imp1", "imp2")] == ViaBridge(MICS, "bnc", MICS)


def test_routes_do_not_follow_the_channel_listing():
    swapped = dict(reversed(BSN["channels"].items()))
    assert list(swapped) == ["ism", "mics"]
    assert _routes(channels=swapped) == _routes()


def test_no_route_without_shared_infrastructure():
    # wrist is on a third channel, where the bridge has no interface
    routes = _routes(
        channels={**BSN["channels"], "uwb": {"band": "UWB", "phy": 0}},
        nodes=BSN["nodes"] + [_node("wrist", "onbody", "uwb", 0.5)])
    assert routes[("wrist", "bnc")] is routes[("bnc", "wrist")] is None
    assert routes[("chest", "wrist")] is routes[("imp1", "wrist")] is None
    assert routes[("chest", "bnc")] == Direct(ISM)


# The relay -------------------------------------------------------------------

def _quiet_bridge(capacity=16):
    """build_network's Bridge on bridge_inbody, with no traffic of its own."""
    sc = load_scenario("bridge_inbody")
    sc.traffic = []
    sc.bridge["store_capacity"] = capacity
    network, macs = build_network(sc, "direct", seed=1)
    return network, macs


def _frame(network):
    return network.new_mpdu("imp1", "chest", TrafficClass.NORMAL_MEDIUM)


def test_store_bounded_and_drop_counted():
    network, macs = _quiet_bridge(capacity=16)
    bridge = network.bridge
    frames = [_frame(network) for _ in range(20)]
    for i, m in enumerate(frames):
        bridge.relay(m)
        assert len(bridge.store) <= 16
        # the first frame is on its way out, the next 16 wait in the store
        assert network.metrics.bridge_drops == max(0, i - 16)
    assert network.metrics.counts[TrafficClass.NORMAL_MEDIUM].dropped == 3
    assert [m.disposed for m in frames[17:]] == ["dropped"] * 3
    assert len(bridge.pending()) == 17
    network.sim.run(ticks_from_seconds(1.0))
    assert bridge.pending() == []
    leftovers = [m for mac in macs for m in mac.pending_frames()]
    network.metrics.finalize(leftovers)  # asserts frame conservation


def test_forwarding_extends_hop_trace_once():
    network, _ = _quiet_bridge()
    m = _frame(network)
    network.bridge.relay(m)
    network.sim.run(ticks_from_seconds(1.0))
    assert m.hop_trace == [("bnc", ISM)]
    # payload and class untouched by the relay
    assert m.payload_bytes == 128
    assert m.cls is TrafficClass.NORMAL_MEDIUM


def test_bridge_endpoint_pairs_are_single_hop():
    routes = _routes()
    assert routes[("imp1", "bnc")] == Direct(MICS)
    assert routes[("bnc", "imp1")] == Direct(MICS)
    assert routes[("bnc", "chest")] == Direct(ISM)
