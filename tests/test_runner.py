"""Replication driver: the pool path returns what the serial path returns."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bsnsim
from bsnsim import runner
from bsnsim.runner import compare_protocols, run_replications
from bsnsim.scenario import Scenario, load_scenario

# 80 jobs on 2 workers is the smallest batch the pool sends in chunks of 2.
JOBS = 80


def record(m):
    return (m.seed, m.protocol, m.metric_values(), dict(m.node_death_us))


@pytest.fixture(scope="module")
def scenario():
    return load_scenario("tbw_emergency")


def test_run_replications_pool_matches_serial(scenario):
    seeds = scenario.seeds(JOBS)
    serial = run_replications(scenario, "tbw", seeds=seeds, workers=1)
    pooled = run_replications(scenario, "tbw", seeds=seeds, workers=2)
    assert [m.seed for m in pooled] == seeds
    assert [record(m) for m in pooled] == [record(m) for m in serial]


def test_compare_protocols_pool_matches_serial(scenario):
    protocols = ["tbw", "tbw_alwayson"]
    reps = JOBS // len(protocols)
    serial = compare_protocols(scenario, protocols, reps=reps, workers=1)
    pooled = compare_protocols(scenario, protocols, reps=reps, workers=2)
    assert pooled["seeds"] == serial["seeds"] == scenario.seeds(reps)
    for protocol in protocols:
        runs = pooled["runs"][protocol]
        assert [m.seed for m in runs] == pooled["seeds"]
        assert [m.protocol for m in runs] == [protocol] * reps
        assert [record(m) for m in runs] == \
            [record(m) for m in serial["runs"][protocol]]
    assert pooled["ordering"] == serial["ordering"]


def test_pool_never_pickles_the_scenario(scenario, monkeypatch):
    def refuse(self, protocol):
        raise AssertionError("scenario pickled")

    monkeypatch.setattr(Scenario, "__reduce_ex__", refuse)
    runs = run_replications(scenario, "tbw", seeds=scenario.seeds(JOBS),
                            workers=2)
    assert len(runs) == JOBS
    out = compare_protocols(scenario, ["tbw", "tbw_alwayson"], reps=4,
                            workers=2)
    assert all(len(runs) == 4 for runs in out["runs"].values())


def test_an_empty_batch_starts_no_pool(scenario):
    assert run_replications(scenario, "tbw", seeds=[], workers=2) == []
    with pytest.raises(ValueError, match="need at least one run"):
        compare_protocols(scenario, ["tbw", "tbw_alwayson"], reps=0,
                          workers=2)


def test_a_protocol_listed_twice_is_rejected_before_any_run(scenario,
                                                            monkeypatch):
    def refuse(*args):
        raise AssertionError("a batch ran")

    monkeypatch.setattr(runner, "_run_jobs", refuse)
    with pytest.raises(ValueError, match="listed more than once: tbw$"):
        compare_protocols(scenario, ["tbw", "tbw_alwayson", "tbw"], reps=1)


@pytest.mark.parametrize("protocols", [[], ["tbw"]])
def test_fewer_than_two_protocols_are_rejected_before_any_run(
        scenario, monkeypatch, protocols):
    def refuse(*args):
        raise AssertionError("a batch ran")

    monkeypatch.setattr(runner, "_run_jobs", refuse)
    with pytest.raises(ValueError, match="^need >= 2 protocols to compare$"):
        compare_protocols(scenario, protocols, reps=1)


def test_a_fresh_interpreter_loads_only_the_mac_it_runs():
    """Loading a scenario and building one network imports the MAC that runs
    and the base it shares, no other MAC, not multiprocessing, which only
    a pool needs, and not csv, which only an empirical link table needs."""
    code = ("import json, sys\n"
            "from bsnsim.runner import build_network\n"
            "from bsnsim.scenario import load_scenario\n"
            "build_network(load_scenario('tbw_emergency'), 'tbw', 1)\n"
            "print(json.dumps(sorted(m for m in sys.modules if m == 'csv' or "
            "m.startswith(('multiprocessing', 'bsnsim.mac')))))")
    env = {**os.environ, "PYTHONPATH": str(Path(bsnsim.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == ["bsnsim.mac", "bsnsim.mac.base",
                               "bsnsim.mac.tbw"]
