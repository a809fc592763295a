"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import copy
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from bsnsim.channel import (DeliveryOutcome, LinkMatrix, Medium,
                            PathLossParams, Position, rx_power_dbm)
from bsnsim.cli import main as cli_main
from bsnsim.core import US_PER_S, Simulator, ticks_from_seconds
from bsnsim.frames import Frame, FrameKind
from bsnsim.node import Node
from bsnsim.metrics import percentile
from bsnsim.runner import build_network, compare_protocols, run_one, \
    run_replications
from bsnsim.scenario import _build, bundled_data_path, load_scenario
from bsnsim.traffic import TrafficClass
from tests.conftest import (coordinator_awake, empirical_outcome,
                            gated_outcomes, guarded_windows, path_loss_db,
                            table_scenario, union)

WORKERS = 2


def report(num: int, name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {name}: PASS  ({detail})")


# ---------------------------------------------------------------------------
# 1. Delivery-ratio ordering on the 9-node star scenario
# ---------------------------------------------------------------------------

def test_01_fig2_ordering():
    sc = load_scenario("paper_fig2")
    assert sc.horizon >= 600 * US_PER_S
    assert len(sc.seeds()) == 20
    t0 = time.monotonic()
    result = compare_protocols(sc, ["csma802154", "pbtdma", "smac"],
                               workers=WORKERS)
    wall = time.monotonic() - t0
    means = {p: result["aggregates"][p].get("pdr", "all").mean
             for p in ("csma802154", "pbtdma", "smac")}
    assert means["csma802154"] > means["smac"], means
    assert means["csma802154"] > means["pbtdma"], means
    assert wall < 60.0, f"wall time {wall:.1f}s exceeds 60s"
    report(1, "fig2-ordering",
           f"pdr csma={means['csma802154']:.4f} > tdma={means['pbtdma']:.4f}, "
           f"smac={means['smac']:.4f}; wall {wall:.1f}s")


# ---------------------------------------------------------------------------
# 2. Emergency latency bound under the traffic-based wakeup MAC
# ---------------------------------------------------------------------------

def test_02_emergency_latency_bound():
    sc = load_scenario("tbw_emergency")
    t0 = time.monotonic()
    runs = run_replications(sc, "tbw", reps=20, workers=WORKERS)
    wall = time.monotonic() - t0
    delays = [d for r in runs for d in r.emergency_access_delays_us]
    assert len(delays) > 100, "too few emergencies to judge"
    assert max(delays) < US_PER_S, f"max delay {max(delays)} us >= 1 s"
    med = percentile(delays, 50)
    assert med < 50_000, f"median {med} us >= 50 ms"
    assert wall < 30.0, f"wall time {wall:.1f}s exceeds 30s"
    report(2, "emergency-latency",
           f"{len(delays)} delivered, max {max(delays)/1000:.1f} ms, "
           f"median {med/1000:.2f} ms; wall {wall:.1f}s")


# ---------------------------------------------------------------------------
# 3. Measured link-matrix reproduction, every directed entry, both postures
# ---------------------------------------------------------------------------

def test_03_link_matrix_reproduction():
    matrix = LinkMatrix.from_csv(bundled_data_path("table1.csv"))
    spot = {("standing", "Waist", "Ankle"): 0.50,
            ("sitting", "Waist", "Ankle"): 0.47,
            ("sitting", "Ankle", "Waist"): 0.27,
            ("standing", "Chest", "Waist"): 0.99}
    for key, expected in spot.items():
        assert matrix.success_p(key[1], key[2], key[0]) == expected
    n = 100_000
    worst = 0.0
    for (posture, src, dst) in matrix.keys():
        p = matrix.success_p(src, dst, posture)
        rng = random.Random(f"accept3:{posture}:{src}:{dst}")
        hits = sum(empirical_outcome(src, dst, posture, matrix, rng)
                   for _ in range(n))
        err = abs(hits / n - p)
        worst = max(worst, err)
        assert err < 0.01, f"{posture} {src}->{dst}: {hits/n} vs {p}"
    report(3, "link-matrix", f"12 directed links x {n} frames, "
                             f"worst abs error {worst:.4f} < 0.01")


# ---------------------------------------------------------------------------
# 4. Microwave interference gate reproduction
# ---------------------------------------------------------------------------

def test_04_interference_gate():
    # frames a clear link would deliver, judged by the medium's gate
    n = 100_000
    on = gated_outcomes(n, {"enabled": True}, seed=4)
    rate = on.count(DeliveryOutcome.DELIVERED) / n
    assert abs(rate - 0.9685) < 0.005, rate
    assert set(on) == {DeliveryOutcome.DELIVERED, DeliveryOutcome.CORRUPTED}
    off = gated_outcomes(n, {"enabled": False}, seed=4)
    assert off.count(DeliveryOutcome.DELIVERED) == n  # disabled: exactly 1.0
    report(4, "interference-gate",
           f"enabled rate {rate:.4f} (target 0.9685 +- 0.005); disabled 1.0")


# ---------------------------------------------------------------------------
# 5. PB-TDMA collision freedom with a unique slot assignment
# ---------------------------------------------------------------------------

def test_05_tdma_collision_freedom():
    sc = load_scenario("paper_fig2")
    m = run_one(sc, "pbtdma", seed=sc.seed_base)
    assert m.collisions == 0
    delivered = sum(c.delivered for c in m.counts.values())
    assert delivered > 1000  # the run actually carried traffic
    report(5, "tdma-collision-freedom",
           f"{delivered} frames delivered over 600 s, 0 collisions")


# ---------------------------------------------------------------------------
# 6. CCA blindness at 3 m and same-piconet detection at 0.5 m (exact)
# ---------------------------------------------------------------------------

def test_06_cca_blindness():
    scenario = load_scenario("tbw_emergency")
    mics = scenario.channel_id("mics")
    params = PathLossParams(pl_d0=46.0, d0=0.05, exponent=2.0, shadow_sigma=0.0)
    loss_3m = path_loss_db(3.0, params)
    assert loss_3m >= 81.0
    raw = copy.deepcopy(scenario.normalized)
    raw["channel_model"]["pathloss"]["mics"] = params._asdict()
    sim = Simulator()
    medium = Medium(sim, _build(raw))
    profile = scenario.power_profiles["nrf2401"]
    radios = {}
    for node_id, x in (("sender", 0.0), ("far", 3.0), ("near", 0.5)):
        node = Node(sim, medium, node_id, position=Position(x, 0.0),
                    profile=profile, initial_j=None)
        radios[node_id] = node.add_radio("data", mics, initial_state="listen")
    medium.begin_tx(radios["sender"], Frame(FrameKind.DATA, "sender", None, 128),
                    -5.0)
    sim.run(100)
    assert not medium.cca_busy(radios["far"], -85.0, 100)
    assert medium.cca_busy(radios["near"], -85.0, 100)
    report(6, "cca-blindness",
           f"in-body loss {loss_3m:.2f} dB at 3 m -> Idle; "
           f"rx {rx_power_dbm(-5.0, path_loss_db(0.5, params)):.1f} dBm "
           f"at 0.5 m -> Busy")


# ---------------------------------------------------------------------------
# 7. Energy ledger closure for every node in every run
# ---------------------------------------------------------------------------

def test_07_energy_ledger_closure():
    checked = 0
    jobs = [("paper_fig2", "csma802154", 5 * US_PER_S),
            ("paper_fig2", "pbtdma", 5 * US_PER_S),
            ("paper_fig2", "smac", 5 * US_PER_S),
            ("tbw_emergency", "tbw", 60 * US_PER_S),
            ("bridge_inbody", "direct", 60 * US_PER_S)]
    for name, proto, horizon in jobs:
        sc = load_scenario(name)
        sc.horizon = horizon
        net, macs = build_network(sc, proto, seed=sc.seed_base)
        net.sim.run(sc.horizon)
        for node in net.nodes.values():
            node.finalize()
            lifetime = (node.death_time if node.death_time is not None
                        else sc.horizon)
            for radio in node.radios.values():
                assert sum(radio.per_state_ticks.values()) == lifetime, \
                    f"{name}/{proto}/{node.node_id}/{radio.label}"
                recomputed = sum(t * radio.power_mw[s] * 1e-9
                                 for s, t in radio.per_state_ticks.items())
                consumed = radio.consumed_j
                if consumed > 0:
                    assert abs(consumed - recomputed) / consumed < 1e-9
                else:
                    assert recomputed == 0.0
                checked += 1
    report(7, "ledger-closure", f"{checked} radio ledgers closed exactly")


# ---------------------------------------------------------------------------
# 8. Coordinator awake time optimality (1000 randomized tables, tbw runs)
# ---------------------------------------------------------------------------

_pattern_cases = [0]


# each family of periods (s) keeps the hyperperiod at most 12 or 16 s
@settings(max_examples=1000, deadline=None)
@given(st.sampled_from([(2, 3, 4, 6, 12), (2, 4, 8, 16)]).flatmap(
           lambda periods: st.lists(st.tuples(st.sampled_from(periods),
                                              st.integers(0, 15),
                                              st.integers(1, 3000)),
                                    min_size=1, max_size=7)),
       st.integers(0, 5000))
def test_08_bnc_pattern_optimality(raw, guard):
    _pattern_cases[0] += 1
    entries = [(period_s * US_PER_S, offset_s % period_s * US_PER_S,
                min(window_ms * 1000, period_s * US_PER_S))
               for period_s, offset_s, window_ms in raw]
    # two hyperperiods, so that windows wrap past the first one's end
    horizon = 2 * math.lcm(*(period for period, _, _ in entries))
    spans, radio = coordinator_awake(table_scenario(entries, guard, horizon))
    windows, guarded = guarded_windows(entries, guard, horizon)
    for start, end in windows:
        assert any(s <= start and end <= e for s, e in spans), \
            f"window {(start, end)} not awake"
    awake = sum(radio.per_state_ticks.get(state, 0)
                for state in ("listen", "rx", "tx"))
    assert awake == sum(e - s for s, e in union(guarded))


def test_08_report():
    assert _pattern_cases[0] >= 1000, "property did not run 1000 cases"
    report(8, "bnc-pattern-optimality",
           f"{_pattern_cases[0]} randomized tables run over two "
           f"hyperperiods: every window awake + exact union measure")


# ---------------------------------------------------------------------------
# 9. Coordinator energy saving against an always-on baseline (paired seeds)
# ---------------------------------------------------------------------------

def test_09_tbw_energy_saving():
    sc = load_scenario("tbw_emergency")
    seeds = sc.seeds(5)
    tbw = run_replications(sc, "tbw", seeds=seeds)
    always = run_replications(sc, "tbw_alwayson", seeds=seeds)
    ratios = []
    for a, b in zip(tbw, always):
        da = sum(c.delivered for c in a.counts.values())
        db = sum(c.delivered for c in b.counts.values())
        assert abs(da - db) <= 1, f"delivered diverged: {da} vs {db}"
        assert a.node_energy_j["bnc"] < b.node_energy_j["bnc"]
        ratios.append(a.node_energy_j["bnc"] / b.node_energy_j["bnc"])
    report(9, "tbw-energy-saving",
           f"5 paired seeds, coordinator energy ratio "
           f"{min(ratios):.4f}..{max(ratios):.4f} (< 1 everywhere)")


# ---------------------------------------------------------------------------
# 10. Bridging invariants: relay hops, loss product, transparency
# ---------------------------------------------------------------------------

def test_10_bridging_invariants():
    # (a) + (c): every in-body delivery relays through the bridge, unchanged
    sc = load_scenario("bridge_inbody")
    net, macs = build_network(sc, "direct", seed=sc.seed_base)
    delivered = []
    orig = net.metrics.on_delivered

    def capture(mpdu, at):
        ok = orig(mpdu, at)
        if ok:
            delivered.append(mpdu)
        return ok

    net.metrics.on_delivered = capture
    net.sim.run(sc.horizon)
    inbody = {"imp1", "imp2"}
    inbody_frames = [m for m in delivered
                     if m.src in inbody or m.dst in inbody]
    assert inbody_frames
    for mpdu in inbody_frames:
        assert len(mpdu.hop_trace) >= 1, "in-body delivery without bridge hop"
        assert mpdu.payload_bytes == 128
        assert mpdu.cls in (TrafficClass.NORMAL_MEDIUM, TrafficClass.NORMAL_LOW)

    # (b): independent hop losses 0.9 and 0.8, no retries -> 0.72 +- 0.02
    sc2 = load_scenario("bridge_inbody")
    # arrivals at 5 ms .. 500 s inclusive
    sc2.traffic = [t._replace(period=5_000, start_offset=5_000)
                   for t in sc2.traffic if t.node == "imp1"]
    # loss-statistics harness, not a lifetime study
    sc2.nodes = [n._replace(initial_j=None) for n in sc2.nodes]
    sc2.horizon = ticks_from_seconds(500.0)
    m = run_one(sc2, "direct", seed=77)
    cc = m.counts[TrafficClass.NORMAL_MEDIUM]
    assert cc.generated == 100_000
    pdr = cc.delivered / cc.generated
    assert abs(pdr - 0.72) < 0.02, pdr
    report(10, "bridging-invariants",
           f"{len(inbody_frames)} relayed deliveries all bridged+unchanged; "
           f"two-hop pdr {pdr:.4f} over 1e5 frames (0.72 +- 0.02)")


# ---------------------------------------------------------------------------
# 11. Determinism: identical seed, byte-identical trace and CSVs
# ---------------------------------------------------------------------------

def test_11_determinism(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        rc = cli_main(["trace", "--scenario", "paper_fig2",
                       "--protocol", "csma802154", "--seed", "42",
                       "--until", "5", "--out", str(out)])
        assert rc == 0
        outs.append(out)
    trace_a = (outs[0] / "trace_csma802154_42.txt").read_bytes()
    trace_b = (outs[1] / "trace_csma802154_42.txt").read_bytes()
    assert trace_a == trace_b
    csv_a = (outs[0] / "run_csma802154_42.csv").read_bytes()
    csv_b = (outs[1] / "run_csma802154_42.csv").read_bytes()
    assert csv_a == csv_b
    report(11, "determinism",
           f"trace ({len(trace_a)} bytes) and run CSV byte-identical")


# ---------------------------------------------------------------------------
# 12. Two-node backoff collision probability vs the enumeration oracle
# ---------------------------------------------------------------------------

def test_12_backoff_collision_oracle():
    # oracle: perfect carrier sensing defers any later draw, so exactly the
    # equal pairs of the 8x8 backoff grid collide
    oracle = sum(1 for a in range(8) for b in range(8) if a == b) / 64
    assert oracle == 1 / 8

    # engine corroboration: two synchronized contenders in full superframes
    sc = _two_contender_scenario()
    m = run_one(sc, "csma802154", seed=1234)
    trials = sc.horizon // (15360 * 2)
    engine_freq = m.collisions / 2 / trials
    assert abs(engine_freq - oracle) < 0.03, engine_freq
    report(12, "backoff-oracle",
           f"engine {engine_freq:.4f} vs enumeration {oracle:.4f}")


def _two_contender_scenario():
    from tests.conftest import make_scenario
    bi_s = 15360 * 2 / US_PER_S  # BO=SO=1
    return make_scenario({
        "horizon_s": 2000 * bi_s,
        "nodes": [
            {"id": "bnc", "kind": "bnc", "channel": "ism", "pos": [0.5, 0.5],
             "initial_j": None},
            {"id": "a", "kind": "onbody", "channel": "ism", "pos": [0.5, 0.6],
             "initial_j": None},
            {"id": "b", "kind": "onbody", "channel": "ism", "pos": [0.5, 0.4],
             "initial_j": None},
        ],
        "traffic": [
            {"node": "a", "class": "NormalHigh", "period_s": bi_s,
             "offset_s": 0.005},
            {"node": "b", "class": "NormalHigh", "period_s": bi_s,
             "offset_s": 0.005},
        ],
        "protocols": {"csma802154": {"BO": 1, "SO": 1, "retry_limit": 0}},
    })
