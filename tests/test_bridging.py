"""Channel map registration, route resolution, and the relay store."""

import pytest

from bsnsim.bridging import (ChannelMap, ChannelMapRecord, ConnectionType,
                             Direct, NoRoute, ViaBridge, validate_bridge)
from bsnsim.channel import Band, ChannelId
from bsnsim.core import ticks_from_seconds
from bsnsim.runner import build_network
from bsnsim.scenario import load_scenario
from bsnsim.traffic import TrafficClass

MICS = ChannelId(Band.MICS_402_405, 0)
ISM = ChannelId(Band.ISM_2_4, 0)


def _record(cid, channel, nodes, src, dst,
            ctype=ConnectionType.CONTENTION):
    return ChannelMapRecord(network_info="bsn0", channel=channel,
                            node_ids=tuple(nodes), connection_id=cid,
                            connection_type=ctype, src=src, dst=dst)


def _bsn_map():
    cmap = ChannelMap(inbody_nodes={"imp1", "imp2"}, bridge_nodes={"bnc"})
    cmap.register(_record(1, MICS, ["imp1", "imp2", "bnc"], "imp1", "bnc",
                          ConnectionType.WAKEUP_SERVED))
    cmap.register(_record(2, MICS, ["imp1", "imp2", "bnc"], "imp2", "bnc",
                          ConnectionType.WAKEUP_SERVED))
    cmap.register(_record(3, ISM, ["chest", "ankle", "bnc"], "chest", "bnc"))
    cmap.register(_record(4, ISM, ["chest", "ankle", "bnc"], "ankle", "chest"))
    return cmap


def test_register_first_record():
    cmap = ChannelMap()
    cmap.register(_record(1, MICS, ["imp1", "bnc"], "imp1", "bnc"))
    assert len(cmap.records) == 1


def test_duplicate_connection_id_rejected():
    cmap = ChannelMap()
    cmap.register(_record(1, MICS, ["imp1", "bnc"], "imp1", "bnc"))
    with pytest.raises(ValueError, match="duplicate connection_id"):
        cmap.register(_record(1, ISM, ["a", "b"], "a", "b"))


def test_unmapped_endpoint_rejected():
    cmap = ChannelMap()
    with pytest.raises(ValueError, match="unmapped endpoint"):
        cmap.register(_record(1, MICS, ["imp1", "bnc"], "ghost", "bnc"))


def test_mics_record_for_implant():
    rec = _record(1, MICS, ["pacemaker", "bnc"], "pacemaker", "bnc",
                  ConnectionType.WAKEUP_SERVED)
    assert rec.channel.band is Band.MICS_402_405


def test_direct_route_between_onbody_peers():
    route = _bsn_map().lookup_route("chest", "ankle")
    assert route == Direct(ISM)


def test_inbody_to_onbody_goes_via_bridge():
    route = _bsn_map().lookup_route("imp1", "chest")
    assert route == ViaBridge(MICS, "bnc", ISM)


def test_inbody_peers_relayed_even_on_shared_channel():
    route = _bsn_map().lookup_route("imp1", "imp2")
    assert route == ViaBridge(MICS, "bnc", MICS)


def test_no_route_without_shared_infrastructure():
    cmap = ChannelMap(bridge_nodes=set())
    cmap.register(_record(1, MICS, ["imp1", "bnc"], "imp1", "bnc"))
    cmap.register(_record(2, ISM, ["chest"], "chest", "chest"))
    assert cmap.lookup_route("imp1", "chest") == NoRoute()


def test_new_record_re_resolves_a_looked_up_route():
    cmap = ChannelMap(bridge_nodes=set())
    cmap.register(_record(1, MICS, ["imp1", "bnc"], "imp1", "bnc"))
    cmap.register(_record(2, ISM, ["chest"], "chest", "chest"))
    assert cmap.lookup_route("imp1", "chest") == NoRoute()
    cmap.register(_record(3, ISM, ["imp1", "chest"], "imp1", "chest"))
    assert cmap.lookup_route("imp1", "chest") == Direct(ISM)


def test_validate_bridge():
    validate_bridge([MICS, ISM])  # ok
    validate_bridge([ChannelId(Band.ISM_2_4, 1), ChannelId(Band.ISM_2_4, 2)])
    with pytest.raises(ValueError):
        validate_bridge([ISM])
    with pytest.raises(ValueError):
        validate_bridge([ISM, ChannelId(Band.ISM_2_4, 0)])  # same pair twice


def test_channel_id_equality_is_the_pair():
    assert ChannelId(Band.ISM_2_4, 1) != ChannelId(Band.ISM_2_4, 2)
    assert ChannelId(Band.ISM_2_4, 1) == ChannelId(Band.ISM_2_4, 1)


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
    cmap = _bsn_map()
    assert cmap.lookup_route("imp1", "bnc") == Direct(MICS)
    assert cmap.lookup_route("bnc", "imp1") == Direct(MICS)
