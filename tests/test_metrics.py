"""Run metrics: PDR, percentile, aggregation, frame conservation."""

import dataclasses
import math
import pickle
from array import array

import pytest
from hypothesis import given, strategies as st

from bsnsim.core import US_PER_S
from bsnsim.frames import Mpdu
from bsnsim.metrics import RunMetrics, aggregate, percentile
from bsnsim.runner import run_one
from bsnsim.scenario import load_scenario
from bsnsim.traffic import TrafficClass


def _mpdu(seq, cls=TrafficClass.NORMAL_HIGH):
    return Mpdu(seq=seq, src="n1", dst="bnc", cls=cls, payload_bytes=128,
                created_at=0)


def test_pdr_absent_when_nothing_generated():
    m = RunMetrics(seed=1)
    assert m.pdr() is None


def test_pdr_all_delivered():
    m = RunMetrics(seed=1)
    for i in range(100):
        f = _mpdu(i)
        m.on_generated(f)
        m.on_delivered(f, at=5000)
    assert m.pdr() == 1.0


def test_pdr_scale_free():
    a = RunMetrics(seed=1)
    b = RunMetrics(seed=1)
    for i in range(10):
        f = _mpdu(i)
        a.on_generated(f)
        if i < 7:
            a.on_delivered(f, at=5000)
    for i in range(20):
        f = _mpdu(i)
        b.on_generated(f)
        if i < 14:
            b.on_delivered(f, at=5000)
    assert a.pdr() == b.pdr() == 0.7


def test_duplicate_disposition_is_ignored():
    m = RunMetrics(seed=1)
    f = _mpdu(0)
    m.on_generated(f)
    assert m.on_delivered(f, at=4096) is True
    assert m.on_delivered(f, at=9000) is False   # retransmission duplicate
    assert m.on_dropped(f) is False              # late drop after delivery
    cc = m.counts[TrafficClass.NORMAL_HIGH]
    assert (cc.generated, cc.delivered, cc.dropped) == (1, 1, 0)


def test_conservation_holds_with_full_census():
    m = RunMetrics(seed=1)
    frames = [_mpdu(i) for i in range(5)]
    for f in frames:
        m.on_generated(f)
    m.on_delivered(frames[0], at=4096)
    m.on_dropped(frames[1])
    m.finalize(leftover=frames[2:])  # the rest still queued
    cc = m.counts[TrafficClass.NORMAL_HIGH]
    assert (cc.generated, cc.delivered, cc.dropped, cc.in_flight) == (5, 1, 1, 3)


def test_conservation_violation_is_caught():
    m = RunMetrics(seed=1)
    frames = [_mpdu(i) for i in range(5)]
    for f in frames:
        m.on_generated(f)
    m.on_delivered(frames[0], at=4096)
    with pytest.raises(AssertionError, match="conservation"):
        m.finalize(leftover=frames[2:4])  # frames 1 and 4 leaked


def test_latency_sample_at_least_airtime():
    m = RunMetrics(seed=1)
    f = _mpdu(0)
    m.on_generated(f)
    m.on_delivered(f, at=4096)  # created at 0, delivered at first possible end
    assert m.latency_us[TrafficClass.NORMAL_HIGH].tolist() == [4096]


def test_emergency_delay_recorded():
    m = RunMetrics(seed=1)
    f = _mpdu(0, cls=TrafficClass.EMERGENCY)
    m.on_generated(f)
    m.on_delivered(f, at=14832)
    assert m.emergency_access_delays_us.tolist() == [14832]


def _bundled_run(name, protocol, horizon_s, dying=False):
    sc = load_scenario(name)
    sc.horizon = int(horizon_s * US_PER_S)
    if dying:  # staggered budgets, so that some nodes die mid-run
        sc.nodes = [dataclasses.replace(n, initial_j=0.005 * (i + 1))
                    for i, n in enumerate(sc.nodes)]
    return run_one(sc, protocol, seed=sc.seed_base)


def test_a_run_result_survives_a_pickle_round_trip():
    m = _bundled_run("paper_fig2", "csma802154", 20, dying=True)
    back = pickle.loads(pickle.dumps(m))
    assert back.metric_values() == m.metric_values()
    assert back.node_death_us == m.node_death_us
    assert any(t is not None for t in m.node_death_us.values())
    assert back.latency_us == m.latency_us
    for samples in back.latency_us.values():
        assert type(samples) is array and samples.typecode == "q"


def test_emergency_delays_are_the_emergency_samples():
    m = _bundled_run("tbw_emergency", "tbw", 30)
    assert m.counts[TrafficClass.EMERGENCY].delivered == 3
    delays = m.emergency_access_delays_us
    assert delays.readonly
    assert delays.tolist() == m.latency_us[TrafficClass.EMERGENCY].tolist()
    quiet = _bundled_run("paper_fig2", "csma802154", 5)
    assert TrafficClass.EMERGENCY not in quiet.latency_us
    assert quiet.emergency_access_delays_us.tolist() == []
    assert "emergency_delay_max_us" not in {k for k, _ in quiet.metric_values()}


# percentile -----------------------------------------------------------------

def test_percentile_nearest_rank_hand_case():
    assert percentile([1, 2, 3, 4, 5], 50) == 3


def test_percentile_boundaries():
    s = [5, 1, 4, 2, 3]
    assert percentile(s, 100) == 5
    assert percentile(s, 0) == 1  # rank clamped to 1


def test_percentile_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        percentile([], 50)


@given(st.lists(st.integers(0, 1000), min_size=1, max_size=50),
       st.floats(min_value=0, max_value=100))
def test_percentile_is_an_element_and_monotone(samples, p):
    v = percentile(samples, p)
    assert v in samples
    assert percentile(samples, 0) <= v <= percentile(samples, 100)


# aggregation ----------------------------------------------------------------

def _run_with_pdr(seed, delivered, generated=10):
    m = RunMetrics(seed=seed)
    for i in range(generated):
        f = _mpdu(i)
        m.on_generated(f)
        if i < delivered:
            m.on_delivered(f, at=4096)
        else:
            m.on_dropped(f)
    m.finalize([])
    return m


def test_aggregate_single_run():
    agg = aggregate([_run_with_pdr(1, 9)])
    s = agg.get("pdr", "all")
    assert s.mean == 0.9
    assert s.std == 0.0
    assert s.n == 1


def test_aggregate_hand_case():
    # pdr values 0.9 and 1.0: mean 0.95, sample std sqrt(0.005) ~ 0.070711
    agg = aggregate([_run_with_pdr(1, 9), _run_with_pdr(2, 10)])
    s = agg.get("pdr", "all")
    assert s.mean == pytest.approx(0.95)
    assert s.std == pytest.approx(math.sqrt(0.005))
    assert (s.min, s.max) == (0.9, 1.0)


def test_aggregate_identical_runs_zero_std():
    agg = aggregate([_run_with_pdr(s, 8) for s in range(5)])
    assert agg.get("pdr", "all").std == 0.0


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        aggregate([])
