"""PB-TDMA schedule arithmetic and S-MAC duty-cycle validation."""

import pytest

from bsnsim.core import US_PER_S
from bsnsim.mac.smac import SmacConfig
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


def test_nonpositive_durations_rejected():
    with pytest.raises(ValueError):
        TdmaSchedule(slot_ticks=0, preamble_ticks=5000, assignment={0: "a"})


def test_smac_config_validation():
    with pytest.raises(ValueError):
        SmacConfig(cycle_ticks=0, listen_fraction=0.1)
    with pytest.raises(ValueError):
        SmacConfig(cycle_ticks=US_PER_S, listen_fraction=0.0)
    with pytest.raises(ValueError):
        SmacConfig(cycle_ticks=US_PER_S, listen_fraction=1.5)
