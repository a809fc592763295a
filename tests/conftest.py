"""Shared helpers for building small in-memory scenarios, and oracles for
the coordinator's awake time, path loss, empirical links and frames that
drain once traffic stops; frames sent through a medium with its
interference gate set."""

from __future__ import annotations

import copy
import dataclasses
from unittest import mock

import pytest

from bsnsim.channel import (DEFAULT_MIN_DISTANCE_M, LinkMatrix, Medium,
                            PathLossParams, _link_success, frame_airtime,
                            mean_path_loss_db)
from bsnsim.core import US_PER_S, Simulator
from bsnsim.frames import Frame, FrameKind
from bsnsim.metrics import RunMetrics
from bsnsim.node import Node, Radio
from bsnsim.runner import build_network, protocol_settings
from bsnsim.scenario import Scenario, _build


def make_scenario(overrides: dict) -> Scenario:
    """Build a Scenario from a raw dict with sensible small-network defaults."""
    base = {
        "name": "test",
        "horizon_s": 10.0,
        "replications": 1,
        "seed_base": 1,
        "channels": {
            "ism": {"band": "ISM_2_4", "phy": 0, "data_rate_bps": 250000},
        },
        "channel_model": {
            "mode": "geometric",
            "pathloss": {"ism": {"pl_d0": 40.0, "d0": 0.1, "exponent": 2.0,
                                 "shadow_sigma": 0.0}},
        },
        "nodes": [
            {"id": "bnc", "site": "Waist", "kind": "bnc", "pos": [0.5, 0.5],
             "channel": "ism", "initial_j": None},
            {"id": "n1", "site": "Chest", "kind": "onbody", "pos": [0.5, 0.8],
             "channel": "ism"},
        ],
        "bnc": "bnc",
        "traffic": [],
        "protocols": {},
    }
    merged = copy.deepcopy(base)
    merged.update(copy.deepcopy(overrides))
    return _build(merged)


def table_scenario(entries, guard: int, horizon: int) -> Scenario:
    """A tbw scenario with no traffic whose wakeup table holds one entry per
    (period, offset, window) of `entries`, in ticks, for node n<i> (n0 is
    there also when the table is empty)."""
    pl = {"pl_d0": 40.0, "d0": 0.1, "exponent": 2.0, "shadow_sigma": 0.0}
    return make_scenario({
        "horizon_s": horizon / US_PER_S,
        "channels": {"ism": {"band": "ISM_2_4", "phy": 0},
                     "wakeup": {"band": "ISM_2_4", "phy": 99}},
        "wakeup_channel": "wakeup",
        "channel_model": {"mode": "geometric",
                          "pathloss": {"ism": pl, "wakeup": pl}},
        "nodes": [{"id": "bnc", "kind": "bnc", "channel": "ism",
                   "pos": [0.5, 0.5], "initial_j": None}] + [
            {"id": f"n{i}", "kind": "onbody", "channel": "ism",
             "pos": [0.1 * i, 0.9]} for i in range(max(1, len(entries)))],
        "wakeup_table": [
            {"node": f"n{i}", "period_s": p / US_PER_S,
             "offset_s": o / US_PER_S, "window_ms": w / 1000}
            for i, (p, o, w) in enumerate(entries)],
        "protocols": {"tbw": {"guard_ms": guard / 1000}},
    })


def coordinator_awake(scenario: Scenario):
    """Run `scenario` under tbw and return the spans [start, end) in which
    the coordinator's one data radio was awake (listen, rx or tx), with that
    radio, its account closed at the horizon."""
    network, _ = build_network(scenario, "tbw", seed=1)
    radio, = network.coordinator_mac.data_radios.values()
    spans: list[tuple[int, int]] = []
    since = None if radio.state == "sleep" else 0
    apply = Radio._apply

    def record(r, state):
        nonlocal since
        if r is radio and (state == "sleep") != (since is None):
            if since is None:
                since = network.sim.now
            else:
                spans.append((since, network.sim.now))
                since = None
        apply(r, state)

    with mock.patch.object(Radio, "_apply", record):
        network.sim.run(scenario.horizon)
    if since is not None and since < scenario.horizon:
        spans.append((since, scenario.horizon))
    radio.node.finalize()
    return spans, radio


def union(intervals) -> list[tuple[int, int]]:
    """Sweep-line union of half-open intervals, sorted; touching ones merge
    and empty ones vanish."""
    out: list[tuple[int, int]] = []
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if out and s <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], e))
        else:
            out.append((s, e))
    return out


def guarded_windows(entries, guard: int, horizon: int):
    """Every window [start, end) of `entries` ((period, offset, window) in
    ticks) that begins before `horizon`, and every window widened by `guard`
    on both sides that begins before it; both clipped to [0, horizon]."""
    windows, guarded = [], []
    for period, offset, window in entries:
        start = offset
        while start - guard < horizon:
            if start < horizon:
                windows.append((start, min(horizon, start + window)))
            guarded.append((max(0, start - guard),
                            min(horizon, start + window + guard)))
            start += period
    return windows, guarded


# the settings that hold each periodic MAC's period, in ticks
PERIOD_KEYS = {"csma802154": "beacon_interval", "smac": "cycle_ticks",
               "pbtdma": "round_ticks"}


def drain_ticks(scenario: Scenario, protocol: str) -> int:
    """How long a frame may still wait once traffic stops: a period to reach
    the next service, then a period for each try of each frame that a full
    queue and the bridge's store hold. The period is the protocol's longest:
    the beacon interval, the S-MAC cycle, the PB-TDMA round or the longest
    wakeup period plus its window; direct sends back to back, so its period
    is an MTU frame's airtime on the slowest channel."""
    settings = protocol_settings(scenario, protocol)
    if protocol in PERIOD_KEYS:
        period = settings[PERIOD_KEYS[protocol]]
    elif protocol == "direct":
        period = max(frame_airtime(c["mtu_bytes"], c["data_rate_bps"])
                     for c in scenario.channels.values())
    else:  # tbw and tbw_alwayson
        period = max(e.period + e.window for e in scenario.wakeup_table)
    frames = scenario.queue_capacity + (scenario.bridge["store_capacity"]
                                        if scenario.bridge else 0)
    return period * (1 + frames * (settings.get("retry_limit", 0) + 1))


def assert_drains(scenario: Scenario, protocol: str, seed: int,
                  t_stop: int) -> RunMetrics:
    """Generate traffic until tick `t_stop`, then cancel the pending
    `traffic_*` events and run on for `drain_ticks`: by then each frame must
    have been delivered or dropped, with none in flight in any class.
    Returns the run's metrics, finalized."""
    end = t_stop + drain_ticks(scenario, protocol)
    network, macs = build_network(dataclasses.replace(scenario, horizon=end),
                                  protocol, seed)
    sim = network.sim
    sim.run(t_stop)
    for _, _, event in sim._heap:
        if event.kind.startswith("traffic_"):
            sim.cancel(event)
    sim.run(end)
    leftovers = [m for mac in macs for m in mac.pending_frames()]
    if network.bridge is not None:
        leftovers += network.bridge.pending()
    metrics = network.metrics
    metrics.finalize(leftovers)
    stuck = {cls.value: cc.in_flight for cls, cc in metrics.counts.items()
             if cc.in_flight}
    assert not stuck, (f"{protocol}, seed {seed}: in flight {end - t_stop} "
                       f"us after traffic stopped at {t_stop} us: {stuck}")
    return metrics


def path_loss_db(distance: float, params: PathLossParams, rng=None,
                 min_distance: float = DEFAULT_MIN_DISTANCE_M) -> float:
    """Path loss in dB at `distance`, with a shadowing draw when sigma > 0:
    the loss `Medium` applies to one transmission."""
    loss = mean_path_loss_db(distance, params, min_distance)
    if params.shadow_sigma > 0:
        if rng is None:
            raise ValueError("shadowing requires an RNG stream")
        loss += rng.gauss(0.0, params.shadow_sigma)
    return loss


def empirical_outcome(src_site: str, dst_site: str, posture: str,
                      matrix: LinkMatrix, rng) -> bool:
    """One draw against the matrix entry, as `Medium` makes it in empirical
    mode; True means success."""
    return _link_success(matrix.success_p(src_site, dst_site, posture), rng)


def gated_outcomes(n: int, interference: dict, seed: int = 0) -> list:
    """The outcomes of `n` 128-byte unicasts from n1 to the bnc, one after
    another, through a medium whose `channel_model.interference` is
    `interference`. Each would be delivered without the gate."""
    scenario = make_scenario({"channel_model": {
        "pathloss": {"ism": {"pl_d0": 40.0, "d0": 0.1, "exponent": 2.0,
                             "shadow_sigma": 0.0}},
        "interference": interference}})
    medium = Medium(Simulator(master_seed=seed), scenario)
    radios = {}
    for spec in scenario.nodes:
        node = Node(medium.sim, medium, spec.id, position=spec.position,
                    profile=scenario.power_profiles["nrf2401"], initial_j=None)
        radios[spec.id] = node.add_radio("data", "ism", initial_state="listen")
    frame = Frame(FrameKind.DATA, "n1", "bnc", 128)
    outcomes = []

    def send(outcome=None):
        if outcome is not None:
            outcomes.append(outcome)
        if len(outcomes) < n:
            medium.begin_tx(radios["n1"], frame, on_result=send)
    send()
    medium.sim.run(n * medium.airtime_ticks(128, "ism"))
    return outcomes


@pytest.fixture
def two_node_scenario():
    return make_scenario({})
