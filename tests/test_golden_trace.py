"""Golden determinism pins: short runs of every protocol must reproduce the
same metrics, death times and event trace, byte for byte.

Each case hashes `metric_values()` (by repr), the death times and the full
`run_one(..., trace=True)` event trace (tick, seq, kind, target per
dispatch). A refactor must leave every hash as it is; a change that alters
results on purpose updates the pins and says why.
"""

import dataclasses
import hashlib

import pytest

from bsnsim.core import US_PER_S
from bsnsim.runner import run_one
from bsnsim.scenario import load_scenario
from tests.conftest import make_scenario


def _bundled(name, horizon_s):
    sc = load_scenario(name)
    sc.horizon = int(horizon_s * US_PER_S)
    return sc


def _dying(sc):
    """Small staggered budgets, the coordinator's too, so that nodes die
    mid-run and their pending steps go stale."""
    nodes = [dataclasses.replace(
        n, initial_j=0.4 if n.id == sc.bnc else 0.002 * (i + 1))
        for i, n in enumerate(sc.nodes)]
    return dataclasses.replace(sc, nodes=nodes)


def _gts():
    """One GTS node (n1, one frame at 0.5 s) and one CAP node (n2)."""
    return make_scenario({
        "horizon_s": 5.0,
        "nodes": [
            {"id": "bnc", "kind": "bnc", "channel": "ism", "pos": [0.5, 0.5],
             "initial_j": None},
            {"id": "n1", "kind": "onbody", "channel": "ism", "pos": [0.5, 0.8]},
            {"id": "n2", "kind": "onbody", "channel": "ism", "pos": [0.3, 0.4]},
        ],
        "traffic": [
            {"node": "n1", "class": "NormalHigh", "period_s": 10.0,
             "offset_s": 0.5},
            {"node": "n2", "class": "NormalMedium", "period_s": 0.4,
             "offset_s": 0.11},
        ],
        "protocols": {"csma802154": {"BO": 3, "SO": 3, "num_gts_slots": 2,
                                     "gts_nodes": ["n1"],
                                     "gts_expiry_superframes": 4}},
    })


def _on_demand():
    """Windows for n1 and n2, a broadcast request for n1 and a tone-addressed
    continuous stream from n2."""
    pl = {"pl_d0": 40.0, "d0": 0.1, "exponent": 2.0, "shadow_sigma": 0.0}
    return make_scenario({
        "horizon_s": 10.0,
        "channels": {
            "ism": {"band": "ISM_2_4", "phy": 0},
            "wakeup": {"band": "ISM_2_4", "phy": 99},
        },
        "wakeup_channel": "wakeup",
        "channel_model": {"mode": "geometric",
                          "pathloss": {"ism": pl, "wakeup": pl}},
        "nodes": [
            {"id": "bnc", "kind": "bnc", "channel": "ism", "pos": [0.5, 0.5],
             "initial_j": None},
            {"id": "n1", "kind": "onbody", "channel": "ism", "pos": [0.5, 0.8]},
            {"id": "n2", "kind": "onbody", "channel": "ism", "pos": [0.3, 0.4]},
        ],
        "traffic": [
            {"node": "n1", "class": "NormalHigh", "period_s": 1.0,
             "offset_s": 0.3},
            {"node": "n2", "class": "NormalMedium", "period_s": 2.0,
             "offset_s": 0.7},
        ],
        "wakeup_table": [
            {"node": "n1", "class": "NormalHigh", "period_s": 1.0,
             "offset_s": 0.5, "window_ms": 50.0},
            {"node": "n2", "class": "NormalMedium", "period_s": 2.0,
             "offset_s": 1.0, "window_ms": 50.0},
        ],
        "on_demand": [
            {"at_s": 2.2, "target": "n1", "addressing": "Broadcast"},
            {"at_s": 4.1, "target": "n2", "addressing": "Tone",
             "mode": "Continuous", "duration_s": 3.0, "period_s": 1.0},
        ],
        "protocols": {"tbw": {}},
    })


CASES = {
    "fig2-csma802154": (lambda: _bundled("paper_fig2", 30), "csma802154", 1000),
    "fig2-pbtdma": (lambda: _bundled("paper_fig2", 30), "pbtdma", 1000),
    "fig2-smac": (lambda: _bundled("paper_fig2", 30), "smac", 1000),
    "fig2-dying-csma802154":
        (lambda: _dying(_bundled("paper_fig2", 30)), "csma802154", 1001),
    "fig2-dying-pbtdma":
        (lambda: _dying(_bundled("paper_fig2", 30)), "pbtdma", 1001),
    "fig2-dying-smac": (lambda: _dying(_bundled("paper_fig2", 30)), "smac", 1001),
    "emergency-tbw": (lambda: _bundled("tbw_emergency", 300), "tbw", 3000),
    "emergency-tbw_alwayson":
        (lambda: _bundled("tbw_emergency", 300), "tbw_alwayson", 3000),
    "emergency-dying-tbw":
        (lambda: _dying(_bundled("tbw_emergency", 300)), "tbw", 3001),
    "emergency-dying-tbw_alwayson":
        (lambda: _dying(_bundled("tbw_emergency", 300)), "tbw_alwayson", 3001),
    "bridge-direct": (lambda: _bundled("bridge_inbody", 60), "direct", 4000),
    "gts-csma802154": (_gts, "csma802154", 3),
    "on-demand-tbw": (_on_demand, "tbw", 9),
}

GOLDEN = {
    "fig2-csma802154":
        "0590777858a32aa25b7385f730ec68ae9fcf5b1969c0122e473e5fe4b900999b",
    "fig2-pbtdma":
        "422abd443d3b3032b5c3789047637ab14277db90c9ca3f0c4e0e16cc69af5af1",
    "fig2-smac":
        "729bb9f6adf43d173ff16789fc4f8f7083c0317dcb90205b6fcc7b04a24ec01c",
    "fig2-dying-csma802154":
        "9cf116cba56065042be2d8da1dca22fd2524d441796c33824349f824ade78a7d",
    "fig2-dying-pbtdma":
        "363cf4ef3bb23f8defe7670ff46fa0754f74195ef11a538de28271563ba9942f",
    "fig2-dying-smac":
        "af46777621f13554a132b0c37aae89001e7dd9518c7f2d3a2bd578716997c6ab",
    "emergency-tbw":
        "fbb4e74029b1a7b7f87bfb0763d8ddcf1e7be8047efa6bf27ea53fa03ba0e142",
    "emergency-tbw_alwayson":
        "1d287b27d22cef9681535facd6a5fc2042d00b01e293fed4247da0d4f66eab65",
    "emergency-dying-tbw":
        "5b4866b2b0be4bb97537227fe4c859cd93ee91846639494300de4941bd666a59",
    "emergency-dying-tbw_alwayson":
        "d71bc84120d01f0952b497677bd4ec2f899315f0893c8fe35f02472ce3d975f2",
    "bridge-direct":
        "4f43240beeeebc1402b9979de0e402f12e7866697f2504a409d61406e6ca30dd",
    "gts-csma802154":
        "e53022054d1fa01cb06d9e83b4cd65597d6f30e4819d15b9f2ed6df53e544195",
    "on-demand-tbw":
        "02e75a820ceed44593565b7c1f439ea07ce914023b64bb1b194c7edef49074b0",
}


def run_digest(scenario, protocol, seed) -> str:
    m = run_one(scenario, protocol, seed, trace=True)
    h = hashlib.sha256()
    h.update(repr(sorted(m.metric_values().items())).encode())
    h.update(repr(sorted(m.node_death_us.items())).encode())
    h.update("\n".join(m.trace_lines).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_trace(case):
    build, protocol, seed = CASES[case]
    assert run_digest(build(), protocol, seed) == GOLDEN[case]
