"""Scenario loading, validation diagnostics, and round-trip stability."""

import json
from pathlib import Path

import pytest

from bsnsim.mac import PROTOCOLS
from bsnsim.mac.base import MacBase
from bsnsim.runner import build_network
from bsnsim.scenario import ScenarioError, bundled_scenario_path, load_scenario
from tests.conftest import make_scenario


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
    assert len(bridge.channel_map) == 4


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


def test_inbody_direct_record_to_non_bridge_rejected():
    with pytest.raises(ScenarioError, match="cannot hold a direct connection"):
        make_scenario({
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
            "bridge": {"node": "bnc", "interfaces": ["mics", "ism"]},
            "channel_map": [
                {"network": "b", "channel": "mics", "nodes": ["imp", "n1", "bnc"],
                 "connection_id": 1, "src": "imp", "dst": "n1"}]})


def test_mtu_mismatch_across_bridge_rejected():
    with pytest.raises(ScenarioError, match="MTU"):
        make_scenario({
            "channels": {
                "mics": {"band": "MICS_402_405", "phy": 0, "mtu_bytes": 64},
                "ism": {"band": "ISM_2_4", "phy": 0, "mtu_bytes": 128},
            },
            "bridge": {"node": "bnc", "interfaces": ["mics", "ism"]}})


def test_duplicate_connection_id_rejected():
    with pytest.raises(ScenarioError, match="duplicate connection_id"):
        make_scenario({
            "channel_map": [
                {"network": "b", "channel": "ism", "nodes": ["bnc", "n1"],
                 "connection_id": 7, "src": "n1", "dst": "bnc"},
                {"network": "b", "channel": "ism", "nodes": ["bnc", "n1"],
                 "connection_id": 7, "src": "bnc", "dst": "n1"}],
            "bridge": None})


def test_misspelt_protocol_parameter_rejected_with_path():
    with pytest.raises(ScenarioError,
                       match=r"^protocols\.csma802154\.macMaxCSMABackofs: "
                             r"unknown parameter$"):
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
])
def test_bad_protocol_value_rejected_at_load(name, params, message):
    nodes = COORDINATOR_ONLY if message == "no devices" else {}
    with pytest.raises(ScenarioError, match=rf"^protocols\.{name}: ") as err:
        make_scenario({**nodes, "protocols": {name: params}})
    assert message in str(err.value)


def test_readme_parameter_table_matches_params():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    documented = set()
    for line in readme.read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[1].startswith("`"):
            documented |= {(name, cells[1].strip("`"))
                           for name in cells[0].split(", ")}
    declared = {(name, key) for name, cls in PROTOCOLS.items()
                for key in cls.params if key not in MacBase.params}
    assert documented == declared


def test_parse_error_reported(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ScenarioError, match="parse error"):
        load_scenario(p)


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


def test_round_trip_serialization_is_fixed_point(tmp_path):
    for name in ("paper_fig2", "table1_links", "tbw_emergency", "bridge_inbody"):
        first = load_scenario(name)
        dumped = first.serialize()
        p = tmp_path / f"{name}.json"
        p.write_text(dumped)
        second = load_scenario(p)
        assert second.serialize() == dumped
        assert second.normalized == first.normalized


def test_durations_converted_to_ticks():
    sc = make_scenario({"horizon_s": 1.5, "traffic": [
        {"node": "n1", "class": "NormalHigh", "period_s": 0.08,
         "offset_s": 0.013}]})
    assert sc.horizon == 1_500_000
    assert sc.traffic[0].period == 80_000
    assert sc.traffic[0].start_offset == 13_000
