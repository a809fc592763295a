"""Golden determinism pins: short runs of every protocol must reproduce the
same metrics, death times and event trace, byte for byte.

Each case pins two hashes: a results hash of `metric_values()` (by repr)
and the death times, and a trace hash of the full `run_one(..., trace=True)`
event trace (tick, seq, kind, target per dispatch). A refactor must leave
every hash as it is. A change that only moves engine bookkeeping may re-pin
a trace hash with its results hash unchanged; a change that alters results
on purpose updates both and says why.
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
    nodes = [n._replace(initial_j=0.4 if n.id == sc.bnc else 0.002 * (i + 1))
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
            {"node": "n1", "period_s": 1.0,
             "offset_s": 0.5, "window_ms": 50.0},
            {"node": "n2", "period_s": 2.0,
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

# case -> (results hash, trace hash)
GOLDEN = {
    "fig2-csma802154": (
        "c2eb31ae4280869290900d3c1780c3e7998e4001fed252b62dc0271448e5437e",
        "f3fb75018ddc707b9b3498812b5ccabda88ffd623479d66542eb67f77dc3455f"),
    "fig2-pbtdma": (
        "20a76d2be30900a5ee0a2daa1c46fa1faab44cbf523609c5e66fc5f2cafb8f30",
        "b81c9631ca65a99e7be74c534c3e935b901dc562570c386008bc730327922cda"),
    "fig2-smac": (
        "94172b25a5df1c10e7caff58b56eca21de8ffb3f0fc2d47fbe1f44c00fa828bb",
        "bd6c662bb2c977794b234b269a4c441cc52a452cd27987e3bff039fc52d87911"),
    "fig2-dying-csma802154": (
        "b586b2a72ab9acf97d1734a9f12dc999961fb52862b1d0bc8b866b752fa3fa98",
        "cbbe2ff45a5199f32c5ee08c78e0fb2c22fcf649ac9f4c90740f1141754dbde8"),
    "fig2-dying-pbtdma": (
        "567ee26cd59276133dbf9879d957f46aab9db682238a46e76a26c1398fb98f78",
        "896af4381a5019ba297237813b8802e1b536cf7df20478ddec0823d2dd0a0a3f"),
    "fig2-dying-smac": (
        "2e468bd30226feb712a9d2f9d1a40f96cd1f5e9ccecf80797d848b3dd1888264",
        "bc2c9c1c831cb0c22b401935f0a69d949641822dc8a667aaf7903eeb6ae17696"),
    "emergency-tbw": (
        "a64dcf12ccee32454a9b86c5c64a716bbda8d2059baeee02728737ac524ae22c",
        "e6081fe5141d0efa2442d59bf925661174202523f19d7f91bd52bccf415e32a3"),
    "emergency-tbw_alwayson": (
        "53bb2dd7beb78228a08f2776e0a45df167edde8cc1a81bc2e6b8c97cb3a8e6e8",
        "9075b21c849898aead9fe6930bdbed0e343a0c04f6f46bebf9e69615ffe0caa1"),
    "emergency-dying-tbw": (
        "be18e313bbbe98367a8f998d4fe9dacde5857dfcf81c51528f5afb10bb5f6425",
        "5d9753054ec7c1d1d8a2a884057902bbb54975c32dd3810a8ed5c24497065a4f"),
    "emergency-dying-tbw_alwayson": (
        "354940263c0319bf503221e7f658fec75d45ac24f9fdd9dff75cfd43b342aee3",
        "759badcff238c1b789c1050ba18d94c29507f98aa2faeb0f9f6a4b07d7eb9870"),
    "bridge-direct": (
        "26315512053a2d8abed221fd62b173f0ec141b7dcb18689f33275199d936171d",
        "d1c80da7bc42a09371b26ef638acc03c35236cb101db9c093f37e52df82c3122"),
    "gts-csma802154": (
        "74b38ff4c6a0426902adf40048edcbf11c5e3ba495f676e874fb729d78953a8f",
        "06f58c9e46e81f158dd7fbdf494ed129bc3d97cf3dac8558feaef8fe06b5fffa"),
    "on-demand-tbw": (
        "35c862249af438f646f85e91dd8a6001e3c7ca6da5aa9f6aee79a9caa0bcaa6c",
        "0a2b167454121f13598a56ef28c6c3feeece9b7a1783f43580ea70529084a08c"),
}


def run_digests(scenario, protocol, seed) -> tuple[str, str]:
    """(results hash, trace hash) of one traced run."""
    m = run_one(scenario, protocol, seed, trace=True)
    results = hashlib.sha256()
    results.update(repr(sorted(m.metric_values().items())).encode())
    results.update(repr(sorted(m.node_death_us.items())).encode())
    trace = hashlib.sha256("\n".join(m.trace_lines).encode())
    return results.hexdigest(), trace.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_trace(case):
    build, protocol, seed = CASES[case]
    results, trace = run_digests(build(), protocol, seed)
    assert results == GOLDEN[case][0], "metrics or death times changed"
    assert trace == GOLDEN[case][1], "event trace changed"
