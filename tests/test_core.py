"""Event engine: ordering, cancellation, determinism, RNG substreams."""

import pytest

from bsnsim.core import Simulator, substream_seed, ticks_from_seconds


def test_zero_delay_event_fires_before_later_events():
    sim = Simulator()
    order = []
    sim.schedule_at(5, "b", "t", lambda: order.append("later"))
    sim.schedule_at(0, "a", "t", lambda: order.append("now"))
    sim.run(10)
    assert order == ["now", "later"]


def test_equal_fire_time_dispatches_in_insertion_order():
    sim = Simulator()
    order = []
    sim.schedule_at(7, "a", "t", lambda: order.append(1))
    sim.schedule_at(7, "b", "t", lambda: order.append(2))
    sim.schedule_at(7, "c", "t", lambda: order.append(3))
    count = sim.run(7)
    assert order == [1, 2, 3]
    assert count == 3


def test_scheduling_into_the_past_is_rejected():
    sim = Simulator()
    sim.schedule_at(1, "a", "t", lambda: None)
    sim.run(5)
    with pytest.raises(ValueError, match="past event"):
        sim.schedule_at(4, "late", "t", lambda: None)


def test_run_on_empty_queue_advances_clock():
    sim = Simulator()
    assert sim.run(10**6) == 0
    assert sim.now == 10**6


def test_three_events_dispatch_count_and_tie_break():
    sim = Simulator()
    seen = []
    sim.schedule_at(1, "x", "t", lambda: seen.append("x"))
    sim.schedule_at(1, "y", "t", lambda: seen.append("y"))
    sim.schedule_at(2, "z", "t", lambda: seen.append("z"))
    assert sim.run(2) == 3
    assert seen == ["x", "y", "z"]


def test_cancel_semantics():
    sim = Simulator()
    fired = []
    ev = sim.schedule_at(5, "a", "t", lambda: fired.append("a"))
    assert sim.cancel(ev) is True
    assert sim.cancel(ev) is False  # idempotent
    sim.run(10)
    assert fired == []

    ev2 = sim.schedule_at(12, "b", "t", lambda: fired.append("b"))
    sim.run(20)
    assert fired == ["b"]
    assert sim.cancel(ev2) is False  # already fired


def test_clock_never_runs_backwards():
    sim = Simulator()
    sim.run(100)
    with pytest.raises(ValueError):
        sim.run(50)


def test_identical_seed_identical_dispatch_trace():
    def build_and_run(seed):
        sim = Simulator(master_seed=seed, trace=True)
        rng = sim.stream("gen")

        def recur():
            if sim.now < 5000:
                sim.schedule_at(sim.now + rng.randrange(1, 50), "step", "t",
                                recur)

        sim.schedule_at(0, "start", "t", recur)
        sim.run(10_000)
        return list(sim.trace_lines)

    t1 = build_and_run(42)
    t2 = build_and_run(42)
    t3 = build_and_run(43)
    assert t1 == t2
    assert t1 != t3


def test_substreams_are_stable_and_independent():
    # equal (seed, label) -> identical sequences
    s1 = Simulator(master_seed=7).stream("mac:n1")
    s2 = Simulator(master_seed=7).stream("mac:n1")
    assert [s1.random() for _ in range(10)] == [s2.random() for _ in range(10)]

    # adding another stream never perturbs an existing one
    sim_a = Simulator(master_seed=7)
    a = sim_a.stream("mac:n1")
    seq_alone = [a.random() for _ in range(10)]
    sim_b = Simulator(master_seed=7)
    sim_b.stream("mac:n2").random()
    b = sim_b.stream("mac:n1")
    assert [b.random() for _ in range(10)] == seq_alone

    # distinct labels give distinct sequences
    assert substream_seed(7, "mac:n1") != substream_seed(7, "mac:n2")


def test_ticks_from_seconds():
    assert ticks_from_seconds(1.0) == 1_000_000
    assert ticks_from_seconds(0.004096) == 4096
    assert ticks_from_seconds(900.0) == 900_000_000
