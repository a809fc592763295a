"""The session rule in MacBase: a scheduled step runs only while the session
it was scheduled in lasts and its node is alive; its event is dispatched
either way. A step scheduled through the node outlives sessions and runs
only while the node is alive."""

import os
import sys
from collections import Counter, defaultdict

from bsnsim.mac.base import MacBase
from bsnsim.runner import build_network, run_one
from tests.conftest import make_scenario
from tests.test_golden_trace import _bundled, _on_demand


def _bare(initial_j=5.0):
    """A coordinator and one idle direct-MAC node n1: no traffic, no events."""
    sc = make_scenario({"nodes": [
        {"id": "bnc", "kind": "bnc", "channel": "ism", "pos": [0.5, 0.5],
         "initial_j": None},
        {"id": "n1", "kind": "onbody", "channel": "ism", "pos": [0.5, 0.8],
         "initial_j": initial_j},
    ]})
    net, _macs = build_network(sc, "direct", seed=1, trace=True)
    return net, net.nodes["n1"].mac


def _schedule_probes(net, mac, ran):
    """One step each from `at`, `after` and `in_session`, from 1 ms on."""
    mac.at(1000, "probe", lambda: ran.append("at"))
    mac.after(2000, "probe", lambda: ran.append("after"))
    step = mac.in_session(lambda who: ran.append(who))
    net.sim.schedule_at(3000, "probe", mac.target, lambda: step("in_session"))


def _probes_dispatched(net):
    return sum(1 for line in net.sim.trace_lines if line.split(",")[2] == "probe")


def test_steps_run_while_their_session_is_current():
    net, mac = _bare()
    ran = []
    _schedule_probes(net, mac, ran)
    assert net.sim.run(10_000) == 3
    assert ran == ["at", "after", "in_session"]


def test_steps_are_noops_after_new_session():
    net, mac = _bare()
    ran = []
    _schedule_probes(net, mac, ran)
    mac.new_session()
    assert net.sim.run(10_000) == 3  # still dispatched
    assert ran == []
    assert _probes_dispatched(net) == 3


def test_steps_of_a_new_session_run():
    net, mac = _bare()
    ran = []
    mac.at(1000, "probe", lambda: ran.append("old"))
    mac.new_session()
    mac.at(2000, "probe", lambda: ran.append("new"))
    net.sim.run(10_000)
    assert ran == ["new"]


def test_steps_are_noops_after_the_node_dies():
    # 1 uJ at 54 mW idle listening lasts about 19 us, well before 1 ms
    net, mac = _bare(initial_j=1e-6)
    ran = []
    _schedule_probes(net, mac, ran)
    net.sim.run(10_000)
    assert net.nodes["n1"].dead and net.nodes["n1"].death_time < 1000
    assert ran == []
    assert _probes_dispatched(net) == 3



def _node_probes(net, ran):
    """One step each from the node's `at` and `after`, from 1 ms on; returns
    the (tick, kind, target) every dispatched probe should have."""
    node = net.nodes["n1"]
    node.at(1000, "node_probe", lambda: ran.append("at"))
    node.after(2000, "node_probe", lambda: ran.append("after"))
    return [("1000", "node_probe", "node:n1"), ("2000", "node_probe", "node:n1")]


def _dispatched_node_probes(net):
    fields = (line.split(",") for line in net.sim.trace_lines)
    return [(f[0], f[2], f[3]) for f in fields if f[2] == "node_probe"]


def test_node_steps_outlive_sessions():
    net, mac = _bare()
    ran = []
    expected = _node_probes(net, ran)
    mac.new_session()
    net.sim.run(10_000)
    assert ran == ["at", "after"]
    assert _dispatched_node_probes(net) == expected


def test_node_steps_are_noops_after_the_node_dies():
    net, _mac = _bare(initial_j=1e-6)
    ran = []
    expected = _node_probes(net, ran)
    net.sim.run(10_000)
    assert net.nodes["n1"].dead and net.nodes["n1"].death_time < 1000
    assert ran == []
    assert _dispatched_node_probes(net) == expected  # still dispatched


# Which steps each new_session() cuts -------------------------------------

# the protocol periods whose end abandons the MAC's pending steps; every
# other pending step is cancelled by name, where its wait is answered
PERIOD_ENDS = {
    ("smac.py", "_enter_sleep"),         # the S-MAC listen window
    ("csma.py", "_wake_for_beacon"),     # the superframe, on a sleeping radio
    ("tbw.py", "_start_emergency"),      # the emergency preemption
    ("tbw.py", "_on_wakeup_signal"),     # the on-demand wake
}

SESSION_RUNS = [
    (lambda: _bundled("paper_fig2", 120), "csma802154", 1000),
    (lambda: _bundled("paper_fig2", 120), "pbtdma", 1000),
    (lambda: _bundled("paper_fig2", 120), "smac", 1000),
    (lambda: _bundled("bridge_inbody", 60), "smac", 1000),
    (lambda: _bundled("tbw_emergency", 300), "tbw", 3000),
    (lambda: _bundled("tbw_emergency", 300), "tbw_alwayson", 3000),
    (_on_demand, "tbw", 9),
]


def _session_cuts(monkeypatch):
    """Wrap `MacBase.at` and `new_session`. Returns the calls of each site,
    (MAC module, function), and the kinds of the live steps they made stale."""
    pending = defaultdict(list)  # mac -> [(session, event)] since its last cut
    calls, cuts = Counter(), defaultdict(Counter)
    at, new_session = MacBase.at, MacBase.new_session

    def counting_at(self, when, kind, fn):
        event = at(self, when, kind, fn)
        pending[self].append((self._session, event))
        return event

    def counting_new_session(self):
        code = sys._getframe(1).f_code
        site = (os.path.basename(code.co_filename), code.co_name)
        calls[site] += 1
        if not self.node.dead:
            cuts[site].update(e.kind for s, e in pending.pop(self, ())
                              if s == self._session
                              and not (e.fired or e.cancelled))
        new_session(self)

    monkeypatch.setattr(MacBase, "at", counting_at)
    monkeypatch.setattr(MacBase, "new_session", counting_new_session)
    return calls, cuts


def test_only_a_protocol_periods_end_cuts_pending_steps(monkeypatch):
    calls, cuts = _session_cuts(monkeypatch)
    for build, protocol, seed in SESSION_RUNS:
        run_one(build(), protocol, seed)
    assert {site for site, kinds in cuts.items() if kinds} <= PERIOD_ENDS, cuts
    assert set(calls) == PERIOD_ENDS  # each period ends in these runs
