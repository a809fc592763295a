"""Channel map registration, route resolution, and the relay store."""

import pytest

from bsnsim.bridging import (BridgeState, ChannelMap, ChannelMapRecord,
                             ConnectionType, Direct, NoRoute, ViaBridge,
                             validate_bridge)
from bsnsim.channel import Band, ChannelId
from bsnsim.frames import Mpdu
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


# Bridge store ----------------------------------------------------------------

def _mpdu(seq):
    return Mpdu(seq=seq, src="imp1", dst="chest",
                cls=TrafficClass.NORMAL_MEDIUM, payload_bytes=128, created_at=0)


def test_store_bounded_and_drop_counted():
    b = BridgeState("bnc", [MICS, ISM], capacity=16)
    for i in range(16):
        assert b.accept(_mpdu(i), ISM) is True
    assert b.accept(_mpdu(16), ISM) is False  # 17th dropped
    assert b.frames_dropped == 1
    assert len(b.store) == 16


def test_conservation_counter_identity():
    b = BridgeState("bnc", [MICS, ISM], capacity=4)
    for i in range(6):
        b.accept(_mpdu(i), ISM)
        assert b.frames_in == b.frames_forwarded + b.frames_dropped + len(b.store)
    while b.store:
        b.pop_forwarded()
        assert b.frames_in == b.frames_forwarded + b.frames_dropped + len(b.store)


def test_forwarding_extends_hop_trace_once():
    b = BridgeState("bnc", [MICS, ISM])
    m = _mpdu(0)
    b.accept(m, ISM)
    out, egress = b.pop_forwarded()
    assert out is m
    assert egress == ISM
    assert m.hop_trace == [("bnc", ISM)]
    # payload and class untouched by the relay
    assert m.payload_bytes == 128
    assert m.cls is TrafficClass.NORMAL_MEDIUM


def test_single_interface_bridge_rejected_at_construction():
    with pytest.raises(ValueError):
        BridgeState("bnc", [ISM])


def test_bridge_endpoint_pairs_are_single_hop():
    cmap = _bsn_map()
    assert cmap.lookup_route("imp1", "bnc") == Direct(MICS)
    assert cmap.lookup_route("bnc", "imp1") == Direct(MICS)
