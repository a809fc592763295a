"""PB-TDMA round arithmetic and the S-MAC coordinator's own frames; the
S-MAC and PB-TDMA parameter checks are rows of
test_scenario.test_bad_protocol_value_rejected_at_load."""

import pytest

from bsnsim.mac.tdma import PbTdmaMac
from bsnsim.runner import run_one
from bsnsim.traffic import TrafficClass
from tests.conftest import make_scenario
from tests.test_scenario import BNC_FLOW


def test_round_length_arithmetic():
    # 9 nodes, one 5 ms slot each, 5 ms preamble -> 50 ms round
    sc = make_scenario({
        "nodes": [{"id": "bnc", "kind": "bnc", "pos": [0.5, 0.5],
                   "channel": "ism", "initial_j": None}]
        + [{"id": f"n{i}", "kind": "onbody", "pos": [0.1 * i, 0.8],
            "channel": "ism"} for i in range(9)],
        "protocols": {"pbtdma": {"slot_ms": 5.0, "preamble_ms": 5.0}}})
    s = PbTdmaMac.settings(sc)
    assert s["slot_of"] == {f"n{i}": i for i in range(9)}
    assert s["round_ticks"] == 50_000
    assert s["preamble_ticks"] + s["slot_of"]["n0"] * s["slot_ticks"] == 5_000
    assert s["preamble_ticks"] + s["slot_of"]["n8"] * s["slot_ticks"] == 45_000


def test_duplicate_slot_owner_rejected():
    # PbTdmaMac.settings holds the one-slot rule at load
    with pytest.raises(ValueError, match="each node may own at most one slot"):
        make_scenario({"protocols": {"pbtdma": {
            "assignment": {"0": "n1", "1": "n1"}}}})


def test_the_smac_coordinator_contends_for_its_own_frames():
    # the bnc sends to n1 every 0.5 s from 0.5 s; each frame goes out in
    # the next listen window, as a device's would, the last in [4.0, 4.1) s
    sc = make_scenario({**BNC_FLOW, "horizon_s": 4.1,
                        "protocols": {"smac": {}}})
    m = run_one(sc, "smac", seed=1)
    counts = m.counts[TrafficClass.NORMAL_HIGH]
    assert (counts.generated, counts.delivered, counts.dropped,
            counts.in_flight) == (8, 8, 0, 0)
