"""PB-TDMA schedule arithmetic; the S-MAC and PB-TDMA parameter checks are
rows of test_scenario.test_bad_protocol_value_rejected_at_load."""

import pytest

from bsnsim.mac.tdma import TdmaSchedule


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
    with pytest.raises(ValueError):
        TdmaSchedule(slot_ticks=5000, preamble_ticks=5000,
                     assignment={0: "n0", 1: "n0"})
