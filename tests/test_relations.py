"""Relations between runs: rules of the simulator that fix how two runs
compare, each asserted exactly and with no model of either run."""

import dataclasses
import json

import pytest

from bsnsim.core import US_PER_S
from bsnsim.node import PowerProfile
from bsnsim.runner import run_one
from bsnsim.scenario import _build, load_scenario
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

# Budgets that make some device die between T1 and T2: device i has
# i * step_j and the coordinator none.
CASES = [
    ("paper_fig2", "csma802154", 1000, 0.002),
    ("paper_fig2", "pbtdma", 1000, 0.03),
    ("paper_fig2", "smac", 1000, 0.03),
    ("tbw_emergency", "tbw", 3000, 0.002),
    ("tbw_emergency", "tbw_alwayson", 3000, 0.002),
    ("bridge_inbody", "direct", 4000, 0.5),
    ("bridge_inbody", "smac", 4000, 0.05),
]
BUDGETED = pytest.mark.parametrize("name, protocol, seed, step_j", CASES)


def _budgeted(name, step_j):
    sc = load_scenario(name)
    return dataclasses.replace(sc, nodes=[
        n._replace(initial_j=None if n.id == sc.bnc else i * step_j)
        for i, n in enumerate(sc.nodes)])


def _dispatches(sc, protocol, seed, horizon):
    """(tick, kind, target) of each event a run to `horizon` dispatches,
    and its node death times."""
    m = run_one(dataclasses.replace(sc, horizon=horizon), protocol, seed,
                trace=True)
    lines = [line.split(",") for line in m.trace_lines]
    return ([(int(tick), kind, target) for tick, _seq, kind, target in lines],
            m.node_death_us)


@BUDGETED
def test_a_runs_prefix_does_not_depend_on_its_horizon(name, protocol, seed,
                                                       step_j):
    # The horizon hint keeps a death past the horizon off the heap, and the
    # runner keeps traffic and requests past it off too, so only sequence
    # numbers may differ.
    sc = _budgeted(name, step_j)
    short, _ = _dispatches(sc, protocol, seed, T1)
    long, deaths = _dispatches(sc, protocol, seed, T2)
    assert short == [d for d in long if d[0] <= T1]
    assert any(t is not None and T1 < t for t in deaths.values())


@BUDGETED
def test_energy_scales_with_every_draw_and_budget(name, protocol, seed, step_j):
    # A radio's account is its ticks per state times that state's draw, and a
    # node dies where its budget runs out at its total draw. Scaling every
    # draw and every budget by a power of two, which a float multiplies
    # exactly, scales each node's joules and moves nothing else.
    sc = dataclasses.replace(_budgeted(name, step_j), horizon=T2)
    base = run_one(sc, protocol, seed)
    assert any(t is not None for t in base.node_death_us.values())
    for k in (2.0, 0.5):
        scaled = run_one(dataclasses.replace(
            sc, power_profiles={key: PowerProfile(*(v * k for v in profile))
                                for key, profile in sc.power_profiles.items()},
            nodes=[n._replace(initial_j=None if n.initial_j is None
                              else n.initial_j * k) for n in sc.nodes]),
            protocol, seed)
        assert scaled.node_death_us == base.node_death_us
        assert scaled.metric_values() == {
            key: v * k if key[0] == "consumed_j" else v
            for key, v in base.metric_values().items()}


# pbtdma gives every device a slot, so a device that sends nothing still
# lengthens the round and moves every metric
@pytest.mark.parametrize("name, protocol, seed, step_j",
                         [c for c in CASES if c[1] != "pbtdma"])
def test_a_device_that_sends_nothing_changes_nothing_else(name, protocol,
                                                          seed, step_j):
    # A device with no traffic never contends, and its streams are named by
    # its id, so adding one moves only its own joules
    raw = json.loads(load_scenario(name).serialize())
    raw["horizon_s"] = T2 / US_PER_S
    for i, n in enumerate(raw["nodes"]):
        n["initial_j"] = None if n["id"] == raw["bnc"] else i * step_j
    base = run_one(_build(raw), protocol, seed)
    bnc = next(n for n in raw["nodes"] if n["id"] == raw["bnc"])
    x, y, z = bnc["pos"]
    raw["nodes"].append({"id": "quiet", "kind": "onbody", "site": bnc["site"],
                         "channel": bnc["channel"], "pos": [x + 0.3, y, z],
                         "initial_j": None})
    quiet = run_one(_build(raw), protocol, seed)
    assert any(t is not None for t in base.node_death_us.values())
    assert quiet.node_death_us.pop("quiet") is None
    assert quiet.node_death_us == base.node_death_us
    values = quiet.metric_values()
    assert values.pop(("consumed_j", "quiet")) > 0
    assert values == base.metric_values()
