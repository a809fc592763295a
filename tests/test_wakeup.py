"""Wakeup table entries, and the coordinator's awake spans in a run."""

from bsnsim.core import US_PER_S
from bsnsim.traffic import TrafficClass
from bsnsim.wakeup import WakeupEntry
from tests.conftest import (coordinator_awake, guarded_windows, table_scenario,
                            union)

S = US_PER_S


def _entry(node, period_s, offset_s=0.0, window_s=0.2,
           cls=TrafficClass.NORMAL_HIGH):
    return WakeupEntry(node=node, period=int(period_s * S),
                       offset=int(offset_s * S), window=int(window_s * S),
                       cls=cls)


# the coordinator's awake spans in a tbw run --------------------------------

def _spans(entries, guard, horizon):
    spans, _ = coordinator_awake(table_scenario(entries, guard, horizon))
    return spans


def test_guarded_open():
    e = _entry("n", 10.0, offset_s=2.0, window_s=1.0)
    assert not e.guarded_open(2 * S - 1001, 1000)
    assert e.guarded_open(2 * S - 1000, 1000)
    assert e.guarded_open(3 * S + 999, 1000)
    assert not e.guarded_open(3 * S + 1000, 1000)
    assert e.guarded_open(12 * S, 0)  # every period
    assert not _entry("n", 10.0, window_s=10.0).guarded_open(-1, 0)


def test_empty_table_empty_pattern():
    assert _spans([], 2000, 10 * S) == []


def test_overlapping_windows_merge_hand_case():
    # (10 s, offset 0, window 1 s) and (10 s, offset 0.5 s, window 1 s),
    # guard 0 -> awake [0, 1.5 s) in every 10 s
    spans = _spans([(10 * S, 0, S), (10 * S, S // 2, S)], 0, 20 * S)
    assert spans == [(0, int(1.5 * S)), (10 * S, int(11.5 * S))]


def test_disjoint_windows_hand_case():
    # offsets 0 and 5 s, window 1 s, period 10 s -> two spans, 2 s awake
    spans = _spans([(10 * S, 0, S), (10 * S, 5 * S, S)], 0, 10 * S)
    assert spans == [(0, 1 * S), (5 * S, 6 * S)]


def test_mixed_periods_unroll_over_hyperperiod():
    spans = _spans([(2 * S, 0, S // 2), (4 * S, S, S // 2)], 0, 4 * S)
    assert spans == [(0, S // 2), (S, int(1.5 * S)), (2 * S, int(2.5 * S))]


def test_guard_extends_and_merges():
    spans = _spans([(10 * S, S, S)], 2000, 20 * S)
    assert spans == [(1 * S - 2000, 2 * S + 2000),
                     (11 * S - 2000, 12 * S + 2000)]


def test_window_near_the_origin_wakes_a_guard_early_every_period():
    # offset 1 ms under a 2 ms guard: only the first window is clipped at 0
    spans = _spans([(S, 1000, 100_000)], 2000, int(2.5 * S))
    assert spans == [(0, 103_000), (S - 1000, S + 103_000),
                     (2 * S - 1000, 2 * S + 103_000)]


def test_thousand_second_periods_wake_a_guard_early():
    # three ~1000 s periods whose least common multiple is about 10**21
    # ticks; the coordinator still wakes a guard before every window
    entries = [(999_983_000, 0, S), (999_979_000, 0, S), (999_961_000, 0, S)]
    horizon = 2100 * S
    spans = _spans(entries, 2000, horizon)
    assert spans == [(0, S + 2000),
                     (999_961_000 - 2000, 999_983_000 + S + 2000),
                     (2 * 999_961_000 - 2000, 2 * 999_983_000 + S + 2000)]
    assert spans == union(guarded_windows(entries, 2000, horizon)[1])


def test_merge_intervals_oracle():
    assert union([(5, 7), (1, 3), (2, 4), (7, 9)]) == [(1, 4), (5, 9)]
    assert union([(1, 1), (2, 2)]) == []  # empty spans vanish
