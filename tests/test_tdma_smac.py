"""PB-TDMA schedule arithmetic; the S-MAC and PB-TDMA parameter checks are
rows of test_scenario.test_bad_protocol_value_rejected_at_load."""

import pytest

from bsnsim.mac.tdma import TdmaSchedule
from tests.conftest import make_scenario


def nine_node_schedule(slot_ms=5.0, preamble_ms=5.0):
    return TdmaSchedule(slot_ticks=int(slot_ms * 1000),
                        preamble_ticks=int(preamble_ms * 1000),
                        assignment={i: f"n{i}" for i in range(9)})


def test_round_length_arithmetic():
    # 9 nodes, one 5 ms slot each, 5 ms preamble -> 50 ms round
    sched = nine_node_schedule()
    assert sched.frame_length == 9
    assert sched.round_ticks == 50_000
    assert sched.slot_start(0, 0) == 5_000
    assert sched.slot_start(0, 8) == 45_000


def test_duplicate_slot_owner_rejected():
    # PbTdmaMac.settings holds the one-slot rule at load
    with pytest.raises(ValueError, match="each node may own at most one slot"):
        make_scenario({"protocols": {"pbtdma": {
            "assignment": {"0": "n1", "1": "n1"}}}})
