"""Traffic generators and the class priority order."""

import random

import pytest
from hypothesis import given, strategies as st

from bsnsim.core import US_PER_S
from bsnsim.traffic import (OnDemandMode, OnDemandRequest, TrafficClass,
                            TrafficSpec, next_emergency, next_occurrence,
                            priority)


S = US_PER_S


def _spec(period_s, offset_s=0.0, cls=TrafficClass.NORMAL_HIGH):
    return TrafficSpec(node="n1", cls=cls, period=int(period_s * US_PER_S),
                       start_offset=int(offset_s * US_PER_S))


def _next_arrival(spec, now):
    return next_occurrence(spec.start_offset, spec.period, now)


def test_ecg_four_per_hour_first_arrival():
    # 4/hour -> period 900 s = 9e8 ticks; offset 0, now 0 -> arrival at 9e8
    spec = _spec(900.0)
    assert spec.period == 900_000_000
    assert _next_arrival(spec, 0) == 900_000_000


def test_four_per_day_period():
    spec = _spec(21600.0, cls=TrafficClass.NORMAL_LOW)
    assert spec.period == 21_600_000_000
    assert _next_arrival(spec, 0) == 21_600_000_000


# the next normal arrival (offset, period) and the next start of a wakeup
# window (offset, period) follow the one rule
@pytest.mark.parametrize("offset, period, now, expected", [
    (S // 4, S, 0, S // 4),                  # a traffic offset still ahead
    (S // 4, S, S // 4, S // 4 + S),         # on an arrival: the next one
    (2 * S, 10 * S, 0, 2 * S),               # a window offset still ahead
    (2 * S, 10 * S, 2 * S, 12 * S),          # on a window start: the next one
    (2 * S, 10 * S, 15 * S, 22 * S),         # between two windows
], ids=["arrival-ahead", "arrival-on-instant", "window-ahead",
        "window-on-start", "window-between"])
def test_next_occurrence_is_strictly_after_now(offset, period, now, expected):
    assert next_occurrence(offset, period, now) == expected


def test_cbr_count_over_horizon():
    spec = _spec(1.0, offset_s=0.5)
    horizon = 10 * US_PER_S
    count = 0
    t = _next_arrival(spec, 0)
    while t <= horizon:
        count += 1
        t = _next_arrival(spec, t)
    # arrivals at 0.5, 1.5, ..., 9.5 -> floor((10-0.5)/1)+1 = 10
    assert count == (horizon - spec.start_offset) // spec.period + 1 == 10


def test_emergency_rate_zero_never_fires():
    assert next_emergency(0.0, random.Random(1), 0) is None


def test_emergency_mean_interarrival_lln():
    # lambda = 1/60 per second -> mean gap 60 s, +-2 s over 1e4 draws
    rng = random.Random(42)
    n = 10_000
    total = 0
    now = 0
    for _ in range(n):
        t = next_emergency(1.0 / 60.0, rng, now)
        total += t - now
        now = t
    mean_s = total / n / US_PER_S
    assert abs(mean_s - 60.0) < 2.0


def test_emergency_draws_deterministic_for_seed():
    a = [next_emergency(0.5, random.Random(9), 0) for _ in range(5)]
    b = [next_emergency(0.5, random.Random(9), 0) for _ in range(5)]
    assert a == b


def test_on_demand_non_continuous_single_frame():
    req = OnDemandRequest(target="n1", mode=OnDemandMode.NON_CONTINUOUS)
    assert req.response_offsets() == [0]
    assert req.cls is TrafficClass.ON_DEMAND_NON_CONTINUOUS


def test_on_demand_continuous_count_oracle():
    # duration 10 s at 1 frame/s -> 10 frames
    req = OnDemandRequest(target="n1", mode=OnDemandMode.CONTINUOUS,
                          duration=10 * US_PER_S, stream_period=US_PER_S)
    assert len(req.response_offsets()) == 10
    assert req.cls is TrafficClass.ON_DEMAND_CONTINUOUS


def test_on_demand_zero_duration_continuous_is_empty():
    req = OnDemandRequest(target="n1", mode=OnDemandMode.CONTINUOUS,
                          duration=0)
    assert req.response_offsets() == []


def test_priority_total_order():
    assert priority(TrafficClass.EMERGENCY) == 5
    assert priority(TrafficClass.ON_DEMAND_CONTINUOUS) == 4
    assert priority(TrafficClass.ON_DEMAND_NON_CONTINUOUS) == 3
    assert priority(TrafficClass.NORMAL_HIGH) == 2
    assert priority(TrafficClass.NORMAL_MEDIUM) == 1
    assert priority(TrafficClass.NORMAL_LOW) == 0


def test_priority_pairings_from_taxonomy():
    assert priority(TrafficClass.EMERGENCY) > priority(TrafficClass.NORMAL_HIGH)
    assert priority(TrafficClass.NORMAL_HIGH) > priority(TrafficClass.NORMAL_LOW)
    assert priority(TrafficClass.NORMAL_HIGH) == priority(TrafficClass.NORMAL_HIGH)


@given(st.sampled_from(list(TrafficClass)), st.sampled_from(list(TrafficClass)))
def test_priority_is_total_and_antisymmetric(a, b):
    pa, pb = priority(a), priority(b)
    assert (pa == pb) == (a is b) or (pa == pb and a is not b) is False
    if a is not b:
        assert pa != pb
