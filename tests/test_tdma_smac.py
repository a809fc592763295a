"""PB-TDMA round arithmetic; the S-MAC and PB-TDMA parameter checks are
rows of test_scenario.test_bad_protocol_value_rejected_at_load."""

import pytest

from bsnsim.mac.tdma import PbTdmaMac
from tests.conftest import make_scenario


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
