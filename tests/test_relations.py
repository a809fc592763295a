"""Relations between runs: rules of the simulator that fix how two runs
compare, each asserted exactly and with no model of either run."""

import dataclasses

import pytest

from bsnsim.core import US_PER_S
from bsnsim.runner import run_one
from bsnsim.scenario import load_scenario
from tests.test_golden_trace import _on_demand


@pytest.mark.parametrize("build, seeds", [
    (lambda: load_scenario("tbw_emergency"), range(3000, 3006)),  # 300 s
    (_on_demand, range(1, 6)),
], ids=["tbw_emergency", "on_demand"])
def test_a_coordinator_that_sleeps_loses_nothing(build, seeds):
    # tbw and tbw_alwayson differ only in whether the coordinator's data
    # radios sleep; its wake rule keeps one awake whenever a window is open
    # or a grant or request holds it, so only the coordinator's energy moves
    sc = build()
    for seed in seeds:
        asleep, awake = (run_one(sc, protocol, seed).metric_values()
                         for protocol in ("tbw", "tbw_alwayson"))
        assert (asleep.pop(("consumed_j", "bnc"))
                < awake.pop(("consumed_j", "bnc")))
        assert asleep == awake


T1, T2 = 20 * US_PER_S, 60 * US_PER_S


def _dispatches(sc, protocol, seed, horizon):
    """(tick, kind, target) of each event a run to `horizon` dispatches,
    and its node death times."""
    m = run_one(dataclasses.replace(sc, horizon=horizon), protocol, seed,
                trace=True)
    lines = [line.split(",") for line in m.trace_lines]
    return ([(int(tick), kind, target) for tick, _seq, kind, target in lines],
            m.node_death_us)


@pytest.mark.parametrize("name, protocol, seed, step_j", [
    ("paper_fig2", "csma802154", 1000, 0.002),
    ("paper_fig2", "pbtdma", 1000, 0.03),
    ("paper_fig2", "smac", 1000, 0.03),
    ("tbw_emergency", "tbw", 3000, 0.002),
    ("tbw_emergency", "tbw_alwayson", 3000, 0.002),
    ("bridge_inbody", "direct", 4000, 0.5),
    ("bridge_inbody", "smac", 4000, 0.05),
])
def test_a_runs_prefix_does_not_depend_on_its_horizon(name, protocol, seed,
                                                       step_j):
    # The horizon hint keeps a death past the horizon off the heap, and the
    # runner keeps traffic and requests past it off too, so only sequence
    # numbers may differ. Device i has a budget of i * step_j and the
    # coordinator none, sized so that some device dies between T1 and T2.
    sc = load_scenario(name)
    sc = dataclasses.replace(sc, nodes=[
        n._replace(initial_j=None if n.id == sc.bnc else i * step_j)
        for i, n in enumerate(sc.nodes)])
    short, _ = _dispatches(sc, protocol, seed, T1)
    long, deaths = _dispatches(sc, protocol, seed, T2)
    assert short == [d for d in long if d[0] <= T1]
    assert any(t is not None and T1 < t for t in deaths.values())
