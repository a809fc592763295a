"""Wakeup table mutations and coordinator pattern derivation."""

import pytest
from hypothesis import given, settings, strategies as st

from bsnsim.core import US_PER_S
from bsnsim.traffic import TrafficClass
from bsnsim.wakeup import (TableAction, WakeupEntry, WakeupTable,
                           derive_bnc_pattern, merge_intervals, table_update)
from tests.conftest import pattern_awake, pattern_covers

S = US_PER_S


def _entry(node, period_s, offset_s=0.0, window_s=0.2,
           cls=TrafficClass.NORMAL_HIGH):
    return WakeupEntry(node=node, period=int(period_s * S),
                       offset=int(offset_s * S), window=int(window_s * S),
                       cls=cls)


def test_insert_bumps_revision():
    t = WakeupTable()
    table_update(t, _entry("ecg", 900.0), TableAction.INSERT)
    assert len(t.entries) == 1
    assert t.revision == 1


def test_remove_absent_entry_errors():
    t = WakeupTable()
    with pytest.raises(KeyError, match="no such entry"):
        table_update(t, _entry("ghost", 10.0), TableAction.REMOVE)


def test_modify_absent_entry_errors():
    t = WakeupTable()
    with pytest.raises(KeyError):
        table_update(t, _entry("ghost", 10.0), TableAction.MODIFY)


def test_duplicate_insert_rejected():
    t = WakeupTable()
    table_update(t, _entry("ecg", 900.0), TableAction.INSERT)
    with pytest.raises(ValueError, match="duplicate"):
        table_update(t, _entry("ecg", 900.0), TableAction.INSERT)


def test_non_coordinator_caller_rejected():
    t = WakeupTable(owner="bnc")
    with pytest.raises(PermissionError, match="BNC only"):
        table_update(t, _entry("ecg", 900.0), TableAction.INSERT, caller="n3")


def test_modify_replaces_and_bumps_revision():
    t = WakeupTable()
    table_update(t, _entry("ecg", 900.0), TableAction.INSERT)
    table_update(t, _entry("ecg", 1800.0), TableAction.MODIFY)
    assert t.revision == 2
    assert t.entries[("ecg", TrafficClass.NORMAL_HIGH)].period == 1800 * S


def test_entry_validation():
    with pytest.raises(ValueError):
        WakeupEntry(node="n", period=0, window=1)
    with pytest.raises(ValueError):
        WakeupEntry(node="n", period=10, window=11)  # window > period
    with pytest.raises(ValueError):
        WakeupEntry(node="n", period=10, window=0)


def test_occurrence_after():
    e = _entry("n", 10.0, offset_s=2.0)
    assert e.occurrence_after(0) == 2 * S
    assert e.occurrence_after(2 * S) == 12 * S  # strictly after
    assert e.occurrence_after(15 * S) == 22 * S


# pattern derivation ----------------------------------------------------------

def test_empty_table_empty_pattern():
    p = derive_bnc_pattern(WakeupTable())
    assert p.intervals == []
    assert pattern_awake(p) == 0


def test_overlapping_windows_merge_hand_case():
    # (10 s, offset 0, window 1 s) and (10 s, offset 0.5 s, window 1 s),
    # guard 0 -> single merged interval [0, 1.5 s) per hyperperiod
    t = WakeupTable()
    table_update(t, _entry("a", 10.0, 0.0, 1.0), TableAction.INSERT)
    table_update(t, _entry("b", 10.0, 0.5, 1.0), TableAction.INSERT)
    p = derive_bnc_pattern(t, guard=0)
    assert p.hyperperiod == 10 * S
    assert p.intervals == [(0, int(1.5 * S))]


def test_disjoint_windows_hand_case():
    # offsets 0 and 5 s, window 1 s, period 10 s -> two intervals, 2 s awake
    t = WakeupTable()
    table_update(t, _entry("a", 10.0, 0.0, 1.0), TableAction.INSERT)
    table_update(t, _entry("b", 10.0, 5.0, 1.0), TableAction.INSERT)
    p = derive_bnc_pattern(t, guard=0)
    assert p.intervals == [(0, 1 * S), (5 * S, 6 * S)]
    assert pattern_awake(p) == 2 * S


def test_mixed_periods_unroll_over_hyperperiod():
    t = WakeupTable()
    table_update(t, _entry("a", 2.0, 0.0, 0.5), TableAction.INSERT)
    table_update(t, _entry("b", 4.0, 1.0, 0.5), TableAction.INSERT)
    p = derive_bnc_pattern(t, guard=0)
    assert p.hyperperiod == 4 * S
    assert p.intervals == [(0, S // 2), (S, int(1.5 * S)),
                           (2 * S, int(2.5 * S))]


def test_guard_extends_and_merges():
    t = WakeupTable()
    table_update(t, _entry("a", 10.0, 1.0, 1.0), TableAction.INSERT)
    p = derive_bnc_pattern(t, guard=2000)
    assert p.intervals == [(1 * S - 2000, 2 * S + 2000)]


def test_hyperperiod_overflow_falls_back():
    t = WakeupTable()
    table_update(t, _entry("a", 999.983, 0.0, 1.0), TableAction.INSERT)
    table_update(t, _entry("b", 999.979, 0.0, 1.0), TableAction.INSERT)
    table_update(t, _entry("c", 999.961, 0.0, 1.0), TableAction.INSERT)
    p = derive_bnc_pattern(t, max_hyperperiod=10**13)
    assert p.fallback is True
    assert p.intervals == []


def test_merge_intervals_oracle():
    assert merge_intervals([(5, 7), (1, 3), (2, 4), (7, 9)]) == [(1, 4), (5, 9)]
    assert merge_intervals([(1, 1), (2, 2)]) == []  # empty spans vanish


# Property: pattern covers every window and is minimal (union measure).

def sweep_union_measure(intervals):
    """Independent sweep-line union measure used as the oracle."""
    total = 0
    last_end = None
    for s, e in sorted(intervals):
        if last_end is None or s > last_end:
            total += e - s
            last_end = e
        elif e > last_end:
            total += e - last_end
            last_end = e
    return total


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from([2, 4, 8, 16]),       # period (s)
              st.integers(0, 15),                   # offset (s, < period ok'd below)
              st.integers(1, 2000)),                # window (ms)
    min_size=1, max_size=6),
    st.integers(0, 5000))
def test_pattern_superset_and_minimality(raw_entries, guard_us):
    t = WakeupTable()
    windows = []
    for i, (period_s, offset_s, window_ms) in enumerate(raw_entries):
        offset_s = offset_s % period_s
        window = min(window_ms * 1000, period_s * S)
        e = WakeupEntry(node=f"n{i}", period=period_s * S,
                        offset=offset_s * S, window=window,
                        cls=TrafficClass.NORMAL_HIGH)
        table_update(t, e, TableAction.INSERT)
    p = derive_bnc_pattern(t, guard=guard_us)
    assert not p.fallback
    hyper = p.hyperperiod
    guarded = []
    for e in t.values():
        k = 0
        while e.offset + k * e.period < hyper:
            start = e.offset + k * e.period
            windows.append((start, start + e.window))
            guarded.append((max(0, start - guard_us),
                            start + e.window + guard_us))
            k += 1
    # superset: every node window fully inside some pattern interval
    for w in windows:
        assert pattern_covers(p, *w), f"window {w} escapes the pattern"
    # minimality: total awake equals the union measure of guarded windows
    assert pattern_awake(p) == sweep_union_measure(guarded)
