"""Scenario loading, validation diagnostics, and round-trip stability."""

import json
from pathlib import Path

import pytest

from bsnsim.bridging import ViaBridge
from bsnsim.mac import PROTOCOLS, mac_class
from bsnsim.runner import build_network
from bsnsim.scenario import (ScenarioError, _build, bundled_scenario_path,
                             load_scenario)
from bsnsim.traffic import TrafficClass
from tests.conftest import make_scenario
from tests.test_golden_trace import _on_demand


def test_bundled_scenarios_load():
    fig2 = load_scenario("paper_fig2")
    assert len(fig2.nodes) == 10  # 9 BNs + BNC
    assert fig2.horizon == 600_000_000
    assert all(n.tx_power_dbm == -5.0 for n in fig2.nodes)
    assert all(n.initial_j == 5.0 for n in fig2.nodes if n.kind != "bnc")
    assert {t.payload_bytes for t in fig2.traffic} == {128}

    table1 = load_scenario("table1_links")
    assert table1.channel_model["mode"] == "empirical"
    assert table1.channel_model["link_matrix_csv"] == "table1"

    tbw = load_scenario("tbw_emergency")
    assert tbw.wakeup_channel == "wakeup"
    assert len(tbw.wakeup_table) == 6

    bridge = load_scenario("bridge_inbody")
    assert bridge.bridge["interfaces"] == ["mics", "ism"]
    assert len(bridge.routes) == 5 * 4

    # the wakeup receiver draw is orders of magnitude below the main rx
    for profile in fig2.power_profiles.values():
        assert profile.wakeup_rx_uw / 1000.0 < profile.rx_mw / 100.0


def test_two_bncs_rejected():
    with pytest.raises(ScenarioError, match="exactly one"):
        make_scenario({"nodes": [
            {"id": "bnc", "kind": "bnc", "channel": "ism", "pos": [0, 0]},
            {"id": "bnc2", "kind": "bnc", "channel": "ism", "pos": [1, 1]},
        ]})


def test_unknown_channel_reference_diagnosed_with_path():
    with pytest.raises(ScenarioError, match=r"nodes\[1\].channel"):
        make_scenario({"nodes": [
            {"id": "bnc", "kind": "bnc", "channel": "ism", "pos": [0, 0]},
            {"id": "n1", "kind": "onbody", "channel": "uwb9", "pos": [1, 1]},
        ]})


def test_unknown_traffic_node_rejected():
    with pytest.raises(ScenarioError, match=r"traffic\[0\].node"):
        make_scenario({"traffic": [
            {"node": "ghost", "class": "NormalHigh", "period_s": 1.0}]})


def test_a_node_or_channel_the_scenario_lacks_is_a_key_error():
    sc = make_scenario({})
    assert sc.node("n1").id == "n1"
    with pytest.raises(KeyError, match="ghost"):
        sc.node("ghost")


def test_co_located_nodes_rejected_in_geometric_mode():
    # path loss is undefined below min_distance_m, so this would crash mid-run
    with pytest.raises(ScenarioError,
                       match=r"nodes\[1\]\.pos: 0\.0 m from 'bnc'"):
        make_scenario({
            "nodes": [
                {"id": "bnc", "kind": "bnc", "channel": "ism",
                 "pos": [0.5, 0.5], "initial_j": None},
                {"id": "n1", "kind": "onbody", "channel": "ism",
                 "pos": [0.5, 0.5]},
            ],
            "traffic": [{"node": "n1", "class": "NormalHigh",
                         "period_s": 1.0}]})


def test_star_topology_enforced_without_bridge():
    with pytest.raises(ScenarioError, match="star topology"):
        make_scenario({
            "nodes": [
                {"id": "bnc", "kind": "bnc", "channel": "ism", "pos": [0, 0]},
                {"id": "n1", "kind": "onbody", "channel": "ism", "pos": [1, 0]},
                {"id": "n2", "kind": "onbody", "channel": "ism", "pos": [0, 1]},
            ],
            "traffic": [{"node": "n1", "class": "NormalHigh",
                         "period_s": 1.0, "dst": "n2"}]})


def test_single_interface_bridge_rejected():
    with pytest.raises(ScenarioError, match="two or more"):
        make_scenario({"bridge": {"node": "bnc", "interfaces": ["ism"]}})


def test_inbody_to_onbody_on_a_shared_channel_goes_via_bridge():
    routes = make_scenario({
        "channels": {
            "mics": {"band": "MICS_402_405", "phy": 0},
            "ism": {"band": "ISM_2_4", "phy": 0},
        },
        "channel_model": {"mode": "geometric", "pathloss": {}},
        "nodes": [
            {"id": "bnc", "kind": "bnc", "channel": "mics", "pos": [0, 0]},
            {"id": "imp", "kind": "inbody", "channel": "mics", "pos": [0.1, 0]},
            {"id": "n1", "kind": "onbody", "channel": "mics", "pos": [0.2, 0]},
        ],
        "bridge": {"node": "bnc", "interfaces": ["mics", "ism"]}}).routes
    assert routes[("imp", "n1")] == ViaBridge("mics", "bnc", "mics")


def test_mtu_mismatch_across_bridge_rejected():
    with pytest.raises(ScenarioError, match="MTU"):
        make_scenario({
            "channels": {
                "mics": {"band": "MICS_402_405", "phy": 0, "mtu_bytes": 64},
                "ism": {"band": "ISM_2_4", "phy": 0, "mtu_bytes": 128},
            },
            "bridge": {"node": "bnc", "interfaces": ["mics", "ism"]}})


def test_misspelt_protocol_parameter_rejected_with_path():
    with pytest.raises(ScenarioError,
                       match=r"^protocols\.csma802154\.macMaxCSMABackofs: "
                             r"unknown field$"):
        make_scenario({"protocols": {"csma802154": {"macMaxCSMABackofs": 9}}})


def test_unknown_protocol_rejected_with_path():
    with pytest.raises(ScenarioError, match=r"^protocols\.csmaa: unknown protocol$"):
        make_scenario({"protocols": {"csmaa": {}}})


def test_protocol_parameters_accepted_per_protocol():
    # a key one protocol accepts is unknown to another
    make_scenario({"protocols": {"smac": {"cycle_s": 0.5,
                                          "max_window_attempts": 3}}})
    with pytest.raises(ScenarioError, match=r"protocols\.pbtdma\.cycle_s"):
        make_scenario({"protocols": {"pbtdma": {"cycle_s": 0.5}}})
    with pytest.raises(ScenarioError, match=r"protocols\.direct\.ack"):
        make_scenario({"protocols": {"direct": {"ack": True}}})


COORDINATOR_ONLY = {"nodes": [{"id": "bnc", "kind": "bnc", "channel": "ism",
                               "pos": [0.5, 0.5], "initial_j": None}]}
WAKEUP_CHANNEL = {"channels": {"ism": {"band": "ISM_2_4", "phy": 0},
                               "wakeup": {"band": "ISM_2_4", "phy": 99}},
                  "wakeup_channel": "wakeup"}
# the bnc bridges ism and an empty mics channel, so a flow may leave it
BNC_FLOW = {
    "channels": {"ism": {"band": "ISM_2_4", "phy": 0},
                 "mics": {"band": "MICS_402_405", "phy": 0},
                 "wakeup": {"band": "ISM_2_4", "phy": 99}},
    "wakeup_channel": "wakeup",
    "bridge": {"node": "bnc", "interfaces": ["ism", "mics"]},
    "traffic": [{"node": "bnc", "class": "NormalHigh", "period_s": 0.5,
                 "dst": "n1"}]}
# n1 sends normal frames: with no window, and with one too short for them
N1_FLOW = {**WAKEUP_CHANNEL, "traffic": [{"node": "n1", "class": "NormalHigh",
                                          "period_s": 0.5}]}
SHORT_WINDOW = {**N1_FLOW, "wakeup_table": [{"node": "n1", "period_s": 0.5,
                                             "window_ms": 5.383}]}
# n1 sends, and an assignment that gives n2 the one slot leaves n1 none
NO_SLOT = {"nodes": [{"id": "bnc", "kind": "bnc", "channel": "ism",
                      "pos": [0.5, 0.5], "initial_j": None}] + [
    {"id": f"n{i}", "kind": "onbody", "channel": "ism", "pos": [0.5, 0.4 * i]}
    for i in (1, 2)],
    "traffic": [{"node": "n1", "class": "NormalHigh", "period_s": 0.5}]}
MTU_255 = {"channels": {"ism": {"band": "ISM_2_4", "phy": 0, "mtu_bytes": 255}},
           "traffic": [{"node": "n1", "class": "NormalHigh",
                        "payload_bytes": 255, "period_s": 0.5}]}


@pytest.mark.parametrize("name, params, message", [
    ("csma802154", {"BO": 20}, "SO <= BO <= 14"),
    ("smac", {"listen_fraction": 0}, "listen_fraction"),
    ("pbtdma", {"slot_ms": 1.0}, "cannot fit a frame"),
    ("smac", {"cycle_s": "fast"}, "cycle_s: 'fast' is not a number"),
    ("pbtdma", {"assignment": {"0": "n1", "1": "n1"}}, "at most one slot"),
    ("csma802154", {"retry_limit": "3"}, "retry_limit: '3' is not an integer"),
    ("pbtdma", {"assignment": {"0": "n1", "1": "ghost"}},
     "assignment names non-devices ['ghost']"),
    ("pbtdma", {"assignment": {"0": "bnc"}}, "non-devices ['bnc']"),
    ("pbtdma", {}, "no devices"),  # on COORDINATOR_ONLY
    # below a field's minimum, or against a rule between two fields
    ("csma802154", {"macMinBE": -1},
     "protocols.csma802154.macMinBE: -1 is below the minimum 0"),
    ("csma802154", {"guard_us": -3000},
     "protocols.csma802154.guard_us: -3000 is below the minimum 0"),
    ("csma802154", {"retry_limit": -1},
     "protocols.csma802154.retry_limit: -1 is below the minimum 0"),
    ("csma802154", {"macMaxCSMABackoffs": -1},
     "protocols.csma802154.macMaxCSMABackoffs: -1 is below the minimum 0"),
    ("csma802154", {"macMinBE": 6, "aMaxBE": 2},
     "protocols.csma802154: need macMinBE <= aMaxBE"),
    ("tbw", {"wakeup_signal_ms": 0},
     "protocols.tbw.wakeup_signal_ms: 0.0 is below the minimum 0.001"),
    ("tbw", {"guard_ms": -5},
     "protocols.tbw.guard_ms: -5.0 is below the minimum 0.0"),
    ("tbw", {"wakeup_retry_ms": -60},
     "protocols.tbw.wakeup_retry_ms: -60.0 is below the minimum 0.0"),
    ("tbw", {"wakeup_max_tries": 0},
     "protocols.tbw.wakeup_max_tries: 0 is below the minimum 1"),
    ("smac", {"max_window_attempts": 0},
     "protocols.smac.max_window_attempts: 0 is below the minimum 1"),
    # a string would be searched as a substring of each node id
    ("csma802154", {"gts_nodes": "n1x"},
     "protocols.csma802154.gts_nodes: 'n1x' is not a list"),
    ("csma802154", {"gts_nodes": ["ghost"]},
     "protocols.csma802154.gts_nodes: unknown device 'ghost'"),
    ("csma802154", {"gts_nodes": ["bnc"]},
     "protocols.csma802154.gts_nodes: unknown device 'bnc'"),
    ("pbtdma", {"assignment": {"-1": "n1"}},
     "protocols.pbtdma.assignment: '-1' is not a slot index of 0 or more"),
    ("pbtdma", {"assignment": {"x": "n1"}},
     "protocols.pbtdma.assignment: 'x' is not a slot index of 0 or more"),
    ("smac", {"cycle_s": 0},
     "protocols.smac.cycle_s: 0.0 is below the minimum 1e-06"),
    ("smac", {"listen_fraction": 1.5},
     "protocols.smac: need 0 < listen_fraction <= 1"),
    ("pbtdma", {"slot_ms": 0},
     "protocols.pbtdma.slot_ms: 0.0 is below the minimum 0.001"),
    ("pbtdma", {"preamble_ms": 0},
     "protocols.pbtdma.preamble_ms: 0.0 is below the minimum 0.001"),
    # "00" and "0" are one slot to int(), so {"0": a, "00": b} would drop a
    ("pbtdma", {"assignment": {"00": "n1"}},
     "protocols.pbtdma.assignment: '00' is not a slot index of 0 or more"),
    # a wake due before the last beacon has ended: 983040 us less 544 us
    ("csma802154", {"guard_us": 982497},
     "protocols.csma802154: guard_us 982497 must be at most 982496 us"),
    # on MTU_255: a 255-byte frame takes 8160 us at 250 kb/s
    ("pbtdma", {"slot_ms": 5.0}, "slot 5000 us cannot fit a frame (8352 us)"),
    # on BNC_FLOW: only smac and direct serve the coordinator's own queue
    *[(name, {}, "traffic[0].node: the coordinator 'bnc' cannot send frames "
                 "of its own") for name in ("csma802154", "pbtdma", "tbw",
                                           "tbw_alwayson")],
    # on N1_FLOW: n1's frames are sent only in windows of its entry
    ("tbw", {}, "traffic[0].node: 'n1' has no wakeup_table entry"),
    # on SHORT_WINDOW: a 544 us beacon, 4096 us for 128 bytes and a 744 us
    # ack wait
    ("tbw", {}, "wakeup_table[0].window_ms: 5383 us cannot fit the beacon "
                "and one exchange of traffic[0] (5384 us)"),
    # on NO_SLOT: n1's frames would wait in its queue for the whole run
    ("pbtdma", {"assignment": {"0": "n2"}},
     "traffic[0].node: 'n1' has no slot to send its frames in"),
])
def test_bad_protocol_value_rejected_at_load(name, params, message):
    base = (COORDINATOR_ONLY if message == "no devices"
            else MTU_255 if "(8352 us)" in message
            else BNC_FLOW if "'bnc' cannot send" in message
            else N1_FLOW if "no wakeup_table entry" in message
            else SHORT_WINDOW if "(5384 us)" in message
            else NO_SLOT if "no slot" in message
            else WAKEUP_CHANNEL if name == "tbw" else {})
    with pytest.raises(ScenarioError, match=rf"^protocols\.{name}[.:]") as err:
        make_scenario({**base, "protocols": {name: params}})
    assert message in str(err.value)


def test_guard_up_to_the_beacon_interval_less_its_airtime_loads():
    sc = make_scenario({"protocols": {"csma802154": {"guard_us": 982496}}})
    assert sc.protocol_params("csma802154")["guard_us"] == 982496


PATHLOSS = {"ism": {"pl_d0": 40.0, "d0": 0.1, "exponent": 2.0,
                    "shadow_sigma": 0.0}}


def _n1(**fields):
    """make_scenario's two nodes, with `fields` set on n1."""
    return {"nodes": [
        {"id": "bnc", "kind": "bnc", "channel": "ism", "pos": [0.5, 0.5],
         "initial_j": None},
        {"id": "n1", "kind": "onbody", "channel": "ism", "pos": [0.5, 0.8],
         **fields}]}


def _pathloss(**fields):
    return {"channel_model": {"pathloss": {"ism": {**PATHLOSS["ism"],
                                                   **fields}}}}


def _profile(**fields):
    return {"power_profiles": {"p": {"sleep_mw": 0.001, "idle_listen_mw": 1.0,
                                     "rx_mw": 1.0, "tx_mw": 1.0, **fields}}}


def _flow(cls="NormalHigh", **fields):
    return {"traffic": [{"node": "n1", "class": cls, "period_s": 1.0,
                         **fields}]}


def _window(**fields):
    return {"wakeup_table": [{"node": "n1", "period_s": 1.0,
                              "window_ms": 50.0, **fields}]}


def _unrouted_request():
    """bridge_inbody, whose keys replace each of make_scenario's, with a
    wakeup channel and one on-demand request, which imp1 would answer with
    no route to the bnc: imp1 is on a third channel, where the bridge has no
    interface."""
    raw = json.loads(bundled_scenario_path("bridge_inbody").read_text())
    raw["channels"]["wakeup"] = {"band": "WMTS", "phy": 0}
    raw["channels"]["uwb"] = {"band": "UWB", "phy": 0}
    raw["nodes"][1]["channel"] = "uwb"
    raw.update(wakeup_channel="wakeup", traffic=[], protocols={"tbw": {}},
               horizon_s=3.0, on_demand=[{"at_s": 1.0, "target": "imp1"}])
    return raw


def _bnc_flow_to_chest():
    """bridge_inbody with a flow from the bnc, its bridge, to chest: the
    route is direct on ism, but the bnc's MAC sends on mics."""
    raw = json.loads(bundled_scenario_path("bridge_inbody").read_text())
    raw["traffic"].append({"node": "bnc", "class": "NormalHigh",
                           "period_s": 0.5, "dst": "chest"})
    return raw


POWER_FIELDS = ("sleep_mw", "idle_listen_mw", "rx_mw", "tx_mw", "wakeup_rx_uw")


@pytest.mark.parametrize("override, message", [
    ({"horizn_s": 10.0}, "horizn_s: unknown field"),
    ({"channel_model": {"pathloss": PATHLOSS, "capture_margin_DB": 3.0}},
     "channel_model.capture_margin_DB: unknown field"),
    (_n1(tx_power_dBm=0.0), "nodes[1].tx_power_dBm: unknown field"),
    ({"traffic": [{"node": "n1", "class": "NormalHigh", "perod": 1.0}]},
     "traffic[0].perod: unknown field"),
    ({"channels": {"ism": {"band": "ISM_2_4", "rate": 250000}}},
     "channels.ism.rate: unknown field"),
    ({"channel_model": {"pathloss": PATHLOSS,
                        "interference": {"enabeld": True}}},
     "channel_model.interference.enabeld: unknown field"),
    ({"protocol_profiles": {"csmaa": "cc2420"}},
     "protocol_profiles.csmaa: unknown field"),
    (_n1(initial_j=-1), "nodes[1].initial_j: -1.0 is below the minimum 0.0"),
    (_n1(initial_j="five"), "nodes[1].initial_j: 'five' is not a number"),
    ({"horizon_s": -1}, "horizon_s: -1.0 is below the minimum"),
    ({"replications": 0}, "replications: 0 is below the minimum 1"),
    ({"queue_capacity": 0}, "queue_capacity: 0 is below the minimum 1"),
    ({"on_demand": [{"at_s": 1.0, "target": "n1", "duration_s": -1}]},
     "on_demand[0].duration_s: -1.0 is below the minimum 0.0"),
    ({"channel_model": {"pathloss": PATHLOSS, "sensitivity_dbm": "low"}},
     "channel_model.sensitivity_dbm: 'low' is not a number"),
    (_window(**{"class": "NormalHigh"}), "wakeup_table[0].class: unknown field"),
    ({"channel_model": {"pathloss": {"ism": {"pl_d0": 40.0,
                                             "exponnet": 2.0}}}},
     "channel_model.pathloss.ism.exponnet: unknown field"),
    (_n1(pos=[0.5]), "nodes[1].pos: needs 2 or 3 coordinates"),
    ([], "scenario: must be an object"),  # the document itself
    # rules that no field table holds: an exclusive minimum and a maximum
    ({"channel_model": {"pathloss": PATHLOSS, "min_distance_m": 0}},
     "channel_model.min_distance_m: 0.0 is not above 0"),
    ({"channel_model": {"pathloss": PATHLOSS,
                        "interference": {"pass_probability": 1.5}}},
     "channel_model.interference.pass_probability: 1.5 is above the maximum 1"),
    # routes come from the nodes' channels and the bridge's interfaces
    ({"channel_map": []}, "channel_map: unknown field"),
    ({"bridge": {"node": "ghost", "interfaces": ["ism", "mics"]}},
     "bridge.node: unknown node 'ghost'"),
    ({"on_demand": [{"at_s": 1.0, "target": "bnc"}]},
     "on_demand[0].target: unknown device 'bnc'"),
    # the queue and the CCA threshold are the scenario's, not a protocol's
    ({"protocols": {"direct": {"queue_capacity": -3}}},
     "protocols.direct.queue_capacity: unknown field"),
    ({"protocols": {"pbtdma": {"cca_threshold_dbm": -80.0}}},
     "protocols.pbtdma.cca_threshold_dbm: unknown field"),
    ({"on_demand": [{"at_s": 1.0, "target": "ghost"}]},
     "on_demand[0].target: unknown device 'ghost'"),
    ({"channels": {"ism": {"band": "ISM_2_4", "phy": 0},
                   "ism2": {"band": "ISM_2_4", "phy": 0,
                            "data_rate_bps": 1_000_000}}},
     "channels.ism2: same band and phy as 'ism'"),
    # frames of an on-demand class answer on_demand requests; no traffic
    # record makes them
    ({"traffic": [{"node": "n1", "class": "OnDemandContinuous",
                   "period_s": 1.0}]},
     "traffic[0].class: 'OnDemandContinuous' is not one of"),
    # a bridge joins two or more distinct channels
    ({"bridge": {"node": "bnc", "interfaces": ["ism"]}},
     "bridge.interfaces: bridge requires two or more distinct channel "
     "interfaces"),
    ({"bridge": {"node": "bnc", "interfaces": ["ism", "ism"]}},
     "bridge.interfaces: bridge requires two or more distinct channel "
     "interfaces"),
    # an on-demand request is answered to the bnc, through the bridge's routes
    (_unrouted_request(), "on_demand[0]: no route from 'imp1' to 'bnc'"),
    ({"nodes": _n1()["nodes"] + [{"id": "n1", "channel": "ism",
                                  "pos": [0.2, 0.2]}]},
     "nodes[2].id: duplicate node id 'n1'"),
    ({"traffic": [{"node": "n1", "period_s": 1.0}]},
     "traffic[0].class: required field missing"),
    # the ranges of path loss, power, traffic and wakeup windows
    (_pathloss(d0=0), "channel_model.pathloss.ism.d0: 0.0 is not above 0"),
    (_pathloss(exponent=-1),
     "channel_model.pathloss.ism.exponent: -1.0 is below the minimum 0.0"),
    (_pathloss(shadow_sigma=-0.5),
     "channel_model.pathloss.ism.shadow_sigma: -0.5 is below the minimum 0.0"),
    *[(_profile(**{key: -1.0}),
       f"power_profiles.p.{key}: -1.0 is below the minimum 0.0")
      for key in POWER_FIELDS],
    (_profile(sleep_mw=100.0), "power_profiles.p.sleep_mw: above idle_listen_mw"),
    (_flow(period_s=None), "traffic[0].period_s: required for class NormalHigh"),
    (_flow("NormalLow", period_s=0),
     "traffic[0].period_s: 0.0 is below the minimum 1e-06"),
    (_flow("NormalLow", payload_bytes=0),
     "traffic[0].payload_bytes: 0 is below the minimum 1"),
    (_flow("Emergency", rate_per_s=-1.0),
     "traffic[0].rate_per_s: -1.0 is below the minimum 0.0"),
    (_window(period_s=0),
     "wakeup_table[0].period_s: 0.0 is below the minimum 1e-06"),
    (_window(window_ms=1000.5), "wakeup_table[0].window_ms: longer than period_s"),
    (_window(window_ms=0),
     "wakeup_table[0].window_ms: 0.0 is below the minimum 0.001"),
    (_window(offset_s=-1),
     "wakeup_table[0].offset_s: -1.0 is below the minimum 0.0"),
    # the superframe's bounds, held by Beacon802154Mac.settings
    ({"protocols": {"csma802154": {"SO": 7}}},  # above the default BO 6
     "protocols.csma802154: need 0 <= SO <= BO <= 14"),
    ({"protocols": {"csma802154": {"BO": 15, "SO": 15}}},
     "protocols.csma802154: need 0 <= SO <= BO <= 14"),
    ({"protocols": {"csma802154": {"num_gts_slots": 16}}},
     "protocols.csma802154: GTS slots must leave room for the CAP"),
    ({"channel_model": {"mode": "empirical", "pathloss": PATHLOSS}},
     "channel_model.link_matrix_csv: required in empirical mode"),
    (_flow("NormalLow", payload_bytes=600),
     "traffic[0].payload_bytes: 600 is above the mtu_bytes 128 of its channel"),
    # a flow's dst defaults to the bnc, so a bnc flow needs another dst
    ({"traffic": [{"node": "bnc", "class": "NormalHigh", "period_s": 0.5}]},
     "traffic[0].dst: 'bnc' is the flow's own node"),
    (_bnc_flow_to_chest(), "traffic[4]: the route from 'bnc' to 'chest' "
                           "starts on 'ism', but 'bnc' sends on 'mics'"),
])
def test_bad_field_rejected_at_load(override, message):
    with pytest.raises(ScenarioError) as err:
        if isinstance(override, dict):
            make_scenario(override)
        else:
            _build(override)
    assert str(err.value).startswith(message)


def test_window_as_long_as_its_period_loads():
    sc = make_scenario(_window(period_s=0.5, window_ms=500.0))
    assert sc.wakeup_table[0].window == sc.wakeup_table[0].period == 500_000


@pytest.mark.parametrize("protocol", ["csma802154", "pbtdma"])
def test_nodes_off_the_coordinators_channel_rejected(protocol):
    # chest and ankle are on ism and never hear the beacon or preamble the
    # coordinator sends on mics
    message = "nodes not on the coordinator's channel 'mics': ankle, chest"
    raw = json.loads(bundled_scenario_path("bridge_inbody").read_text())
    raw["protocols"] = {protocol: {}}
    with pytest.raises(ScenarioError) as err:
        _build(raw)
    assert str(err.value) == f"protocols.{protocol}: {message}"
    # not listed: the scenario loads and the run is refused before it starts
    with pytest.raises(ValueError, match=message):
        build_network(load_scenario("bridge_inbody"), protocol, seed=3)


def test_readme_parameter_table_matches_params():
    def value(cell):  # a JSON value, or None for "-" and words
        try:
            return json.loads(cell.strip("`"))
        except ValueError:
            return None

    readme = Path(__file__).resolve().parent.parent / "README.md"
    documented = {}
    for line in readme.read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 6 and cells[1].startswith("`"):
            for name in cells[0].split(", "):
                documented[name, cells[1].strip("`")] = (value(cells[3]),
                                                         value(cells[4]))
    declared = {(name, key): (default, minimum) for name in PROTOCOLS
                for key, (_, default, minimum)
                in mac_class(name).params.items()}
    assert documented == declared


def test_parse_error_reported(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ScenarioError, match="parse error"):
        load_scenario(p)
    # text that is not UTF-8 is no JSON either; a directory is not read
    p.write_bytes(b'{"name": "caf\xe9"}')
    with pytest.raises(ScenarioError, match="parse error: 'utf-8' codec"):
        load_scenario(p)
    with pytest.raises(ScenarioError) as err:
        load_scenario(tmp_path)
    assert str(err.value).startswith(f"{tmp_path}: cannot read: ")


def test_missing_scenario_reported():
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario("no_such_scenario")


LINKS_HEADER = "posture,src,dst,success_rate\n"


def _links_scenario(tmp_path, csv_text):
    """table1_links pointed at links.csv holding `csv_text` (None: no file)."""
    csv_path = tmp_path / "links.csv"
    if csv_text is not None:
        csv_path.write_text(csv_text)
    raw = json.loads(bundled_scenario_path("table1_links").read_text())
    raw["channel_model"]["link_matrix_csv"] = str(csv_path)
    path = tmp_path / "links.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize("csv_text, message", [
    (None, "not found"),
    ("posture,from,to,rate\nstanding,Chest,Waist,0.5\n", "must have header"),
    (LINKS_HEADER + "standing,Chest,Waist,high\n", "could not convert"),
    (LINKS_HEADER + "standing,Chest,Waist,1.7\n", r"out of \[0,1\]"),
    (LINKS_HEADER + "standing,Chest,Waist\n", "expected 4 fields"),
], ids=["missing", "header", "unparsable", "out-of-range", "short-row"])
def test_bad_link_matrix_rejected_at_load(tmp_path, csv_text, message):
    with pytest.raises(ScenarioError,
                       match=r"^channel_model\.link_matrix_csv: .*" + message):
        load_scenario(_links_scenario(tmp_path, csv_text))


def test_link_matrix_loaded_once_with_the_scenario(tmp_path):
    path = _links_scenario(tmp_path, LINKS_HEADER + "standing,Chest,Waist,0.25\n")
    sc = load_scenario(path)
    assert sc.link_matrix.success_p("Chest", "Waist", "standing") == 0.25
    (tmp_path / "links.csv").unlink()  # runs read the scenario's copy
    net, _ = build_network(sc, "direct", seed=1)
    assert net.medium.link_matrix is sc.link_matrix


def test_relative_link_matrix_resolved_against_the_scenario_file(
        tmp_path, monkeypatch):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "links.csv").write_text(LINKS_HEADER + "standing,Chest,Waist,0.25\n")
    raw = json.loads(bundled_scenario_path("table1_links").read_text())
    raw["channel_model"]["link_matrix_csv"] = "links.csv"
    (sub / "rel.json").write_text(json.dumps(raw))
    monkeypatch.chdir(tmp_path)
    sc = load_scenario("sub/rel.json")
    assert sc.link_matrix.success_p("Chest", "Waist", "standing") == 0.25


def _own_power_profile():
    """A power profile of the scenario's own, named by a protocol and a node;
    no bundled scenario sets `power_profiles` or `protocol_profiles`."""
    return make_scenario({
        "power_profiles": {"tiny": {"sleep_mw": 0.0005, "idle_listen_mw": 20.0,
                                    "rx_mw": 20.0, "tx_mw": 15.0}},
        "protocol_profiles": {"direct": "tiny"},
        **_n1(profile="tiny")})


def test_round_trip_serialization_is_fixed_point(tmp_path):
    firsts = [load_scenario(name) for name in (
        "paper_fig2", "table1_links", "tbw_emergency", "bridge_inbody")]
    for i, first in enumerate(firsts + [_on_demand(), _own_power_profile()]):
        dumped = first.serialize()
        p = tmp_path / f"{i}.json"
        p.write_text(dumped)
        second = load_scenario(p)
        assert second.serialize() == dumped
        assert second.normalized == first.normalized


def test_an_on_demand_mode_loads_as_its_traffic_class():
    sc = _on_demand()
    assert [r.cls for r in sc.on_demand] == [
        TrafficClass.ON_DEMAND_NON_CONTINUOUS,  # the default mode
        TrafficClass.ON_DEMAND_CONTINUOUS]
    assert [od["mode"] for od in sc.normalized["on_demand"]] == [
        "NonContinuous", "Continuous"]


def test_durations_converted_to_ticks():
    sc = make_scenario({"horizon_s": 1.5, "traffic": [
        {"node": "n1", "class": "NormalHigh", "period_s": 0.08,
         "offset_s": 0.013}]})
    assert sc.horizon == 1_500_000
    assert sc.traffic[0].period == 80_000
    assert sc.traffic[0].start_offset == 13_000
