"""CLI surface: run, compare, dump-routes, trace; exit codes and outputs."""

import json

import pytest

from bsnsim.cli import main
from bsnsim.scenario import bundled_scenario_path
from tests.conftest import make_scenario
from tests.test_scenario import BNC_FLOW


def test_run_writes_csvs(tmp_path, capsys):
    rc = main(["run", "--scenario", "table1_links", "--protocol", "direct",
               "--seed", "2000", "--until", "5", "--out", str(tmp_path)])
    assert rc == 0
    run_csv = tmp_path / "run_direct_2000.csv"
    assert run_csv.exists()
    lines = run_csv.read_text().splitlines()
    assert lines[0] == "metric,class,value"
    assert any(line.startswith("pdr,all,") for line in lines)
    assert (tmp_path / "aggregate_direct.csv").exists()


def test_run_with_no_traffic_says_so(tmp_path, capsys):
    # table1_links' first frame is due at 10 ms
    rc = main(["run", "--scenario", "table1_links", "--protocol", "direct",
               "--seed", "2000", "--until", "0.005", "--out", str(tmp_path)])
    assert rc == 0
    assert "direct: no traffic generated" in capsys.readouterr().out
    lines = (tmp_path / "run_direct_2000.csv").read_text().splitlines()
    assert not any(line.startswith("pdr,") for line in lines)


@pytest.mark.parametrize("error", [ValueError, RuntimeError])
def test_an_error_inside_a_run_exits_1(tmp_path, capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("the run broke")

    monkeypatch.setattr("bsnsim.runner.build_network", fail)
    rc = main(["run", "--scenario", "table1_links", "--protocol", "direct",
               "--seed", "2000", "--until", "1", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: the run broke" in err
    assert "Traceback" not in err


def _refused_compare(tmp_path, capsys, protocols: str) -> str:
    """Run a compare that must be a usage error; its stderr."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--scenario", "table1_links", "--protocols",
              protocols, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    return capsys.readouterr().err


def test_compare_requires_two_protocols(tmp_path, capsys):
    err = _refused_compare(tmp_path, capsys, "direct")
    assert "argument --protocols: need >= 2 protocols to compare, got 1" in err


def test_compare_with_no_protocols_is_refused(tmp_path, capsys):
    err = _refused_compare(tmp_path, capsys, ",")
    assert "argument --protocols: need >= 2 protocols to compare, got 0" in err


def test_compare_emits_aggregate_and_report(tmp_path, capsys):
    rc = main(["compare", "--scenario", "paper_fig2",
               "--protocols", "csma802154,pbtdma", "--reps", "2",
               "--until", "4", "--out", str(tmp_path)])
    assert rc == 0
    agg = (tmp_path / "aggregate.csv").read_text().splitlines()
    assert agg[0] == "protocol,metric,class,mean,std,min,max,n"
    assert any(row.startswith("csma802154,pdr,all,") for row in agg)
    assert any(row.startswith("pbtdma,pdr,all,") for row in agg)
    report = (tmp_path / "report.txt").read_text()
    assert "ordering:" in report
    blocks = {b.split("\n", 1)[0]: b for b in report.split("\n\n")}
    for row in agg[1:]:  # each statistic of the CSV row, under its protocol
        protocol, metric, cls, mean, std, lo, hi, _ = row.split(",")
        assert (f"  {metric}[{cls}]:\n    mean: {mean}\n    std: {std}\n"
                f"    min: {lo}\n    max: {hi}") in blocks[f"protocol: {protocol}"]


BRIDGE_INBODY_ROUTES = [
    "src,dst,route_kind,ingress,bridge,egress",
    "bnc,imp1,direct,mics,,mics",
    "bnc,imp2,direct,mics,,mics",
    "bnc,chest,direct,ism,,ism",
    "bnc,ankle,direct,ism,,ism",
    "imp1,bnc,direct,mics,,mics",
    "imp1,imp2,via_bridge,mics,bnc,mics",
    "imp1,chest,via_bridge,mics,bnc,ism",
    "imp1,ankle,via_bridge,mics,bnc,ism",
    "imp2,bnc,direct,mics,,mics",
    "imp2,imp1,via_bridge,mics,bnc,mics",
    "imp2,chest,via_bridge,mics,bnc,ism",
    "imp2,ankle,via_bridge,mics,bnc,ism",
    "chest,bnc,direct,ism,,ism",
    "chest,imp1,via_bridge,ism,bnc,mics",
    "chest,imp2,via_bridge,ism,bnc,mics",
    "chest,ankle,direct,ism,,ism",
    "ankle,bnc,direct,ism,,ism",
    "ankle,imp1,via_bridge,ism,bnc,mics",
    "ankle,imp2,via_bridge,ism,bnc,mics",
    "ankle,chest,direct,ism,,ism",
]


def _add_wrist(raw):
    """Add an on-body wrist node on a third channel, where the bridge has
    no interface."""
    raw["channels"]["uwb"] = {"band": "UWB", "phy": 0}
    raw["nodes"].append({"id": "wrist", "site": "Wrist", "kind": "onbody",
                         "pos": [0.3, 0.5], "channel": "uwb"})


def test_dump_routes_csv(tmp_path, capsys):
    rc = main(["dump-routes", "--scenario", "bridge_inbody"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == BRIDGE_INBODY_ROUTES
    # a node off the bridge's channels has no route to or from anyone
    raw = json.loads(bundled_scenario_path("bridge_inbody").read_text())
    _add_wrist(raw)
    path = tmp_path / "wrist.json"
    path.write_text(json.dumps(raw))
    assert main(["dump-routes", "--scenario", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "wrist,bnc,no_route,,," in out
    assert [r for r in out if "wrist" not in r] == BRIDGE_INBODY_ROUTES


def test_trace_determinism_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        rc = main(["trace", "--scenario", "paper_fig2",
                   "--protocol", "csma802154", "--seed", "7",
                   "--until", "3", "--out", str(out)])
        assert rc == 0
        trace = out / "trace_csma802154_7.txt"
        lines = len(trace.read_text().splitlines())  # one per dispatch
        assert capsys.readouterr().out == f"wrote {trace} ({lines} dispatches)\n"
    t1 = (out1 / "trace_csma802154_7.txt").read_bytes()
    t2 = (out2 / "trace_csma802154_7.txt").read_bytes()
    assert t1 == t2
    c1 = (out1 / "run_csma802154_7.csv").read_bytes()
    c2 = (out2 / "run_csma802154_7.csv").read_bytes()
    assert c1 == c2


def test_unknown_scenario_exit_code(tmp_path, capsys):
    rc = main(["run", "--scenario", "nope", "--protocol", "direct"])
    assert rc == 2
    assert "scenario error" in capsys.readouterr().err
    # nor can a directory or a file that is not UTF-8 be read as a scenario
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"name": "caf\xe9"}')
    for path, message in ((tmp_path, "cannot read"), (latin, "parse error")):
        assert main(["dump-routes", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"scenario error: {path}: {message}: " in err
        assert "Traceback" not in err


def test_unknown_protocol_parameter_exit_code(tmp_path, capsys):
    raw = json.loads(bundled_scenario_path("table1_links").read_text())
    raw["protocols"] = {"csma802154": {"macMaxCSMABackofs": 9}}
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(raw))
    rc = main(["run", "--scenario", str(path), "--protocol", "csma802154",
               "--until", "1", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "protocols.csma802154.macMaxCSMABackofs: unknown field" in err


def test_bad_protocol_value_exit_code(tmp_path, capsys):
    raw = json.loads(bundled_scenario_path("paper_fig2").read_text())
    raw["protocols"]["csma802154"]["BO"] = 20
    path = tmp_path / "bad_bo.json"
    path.write_text(json.dumps(raw))
    rc = main(["run", "--scenario", str(path), "--protocol", "csma802154",
               "--until", "1", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "protocols.csma802154: need 0 <= SO <= BO <= 14" in err


@pytest.mark.parametrize("scenario, protocol, params, message", [
    ("paper_fig2", "csma802154", {"macMinBE": -1},
     "protocols.csma802154.macMinBE: -1 is below the minimum 0"),
    ("paper_fig2", "csma802154", {"gts_nodes": "bpecg"},
     "protocols.csma802154.gts_nodes: 'bpecg' is not a list"),
    ("paper_fig2", "pbtdma", {"assignment": {"-1": "bp"}},
     "protocols.pbtdma.assignment: '-1' is not a slot index of 0 or more"),
    ("tbw_emergency", "tbw", {"guard_ms": -5},
     "protocols.tbw.guard_ms: -5.0 is below the minimum 0.0"),
    # ecg's slot alone: emg's flow, traffic[1], could never be sent
    ("paper_fig2", "pbtdma", {"assignment": {"0": "ecg"}},
     "protocols.pbtdma: traffic[1].node: 'emg' has no slot to send its "
     "frames in"),
])
def test_a_bad_protocol_value_exits_2_and_writes_nothing(
        tmp_path, capsys, scenario, protocol, params, message):
    raw = json.loads(bundled_scenario_path(scenario).read_text())
    raw["protocols"][protocol].update(params)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(path), "--protocol", protocol,
               "--reps", "1", "--until", "20", "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_co_located_nodes_exit_code(tmp_path, capsys):
    raw = json.loads(bundled_scenario_path("paper_fig2").read_text())
    raw["nodes"][1]["pos"] = list(raw["nodes"][0]["pos"])
    path = tmp_path / "co_located.json"
    path.write_text(json.dumps(raw))
    rc = main(["run", "--scenario", str(path), "--protocol", "csma802154",
               "--until", "1", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "nodes[1].pos:" in err
    assert "Traceback" not in err


def test_bad_link_matrix_exit_code(tmp_path, capsys):
    csv_path = tmp_path / "links.csv"
    csv_path.write_text("posture,src,dst,success_rate\nstanding,Chest,Waist,1.7\n")
    raw = json.loads(bundled_scenario_path("table1_links").read_text())
    raw["channel_model"]["link_matrix_csv"] = str(csv_path)
    path = tmp_path / "bad_links.json"
    path.write_text(json.dumps(raw))
    rc = main(["run", "--scenario", str(path), "--protocol", "direct",
               "--reps", "1", "--until", "1", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "channel_model.link_matrix_csv:" in err
    assert "out of [0,1]" in err
    assert "Traceback" not in err


WINDOW = {"node": "ecg", "period_s": 2.0,
          "offset_s": 1.0, "window_ms": 100.0}


@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw.update(horizn_s=600.0), "horizn_s: unknown field"),
    (lambda raw: raw["channel_model"].update(sensitivity_dbm="low"),
     "channel_model.sensitivity_dbm: 'low' is not a number"),
    (lambda raw: raw.update(wakeup_table=[
        WINDOW, dict(WINDOW, period_s=3.0)]),
     "wakeup_table[1].node: 'ecg' already has an entry at wakeup_table[0]"),
    (lambda raw: raw.update(wakeup_table=[dict(WINDOW, node="bnc")]),
     "wakeup_table[0].node: unknown device 'bnc'"),
    (lambda raw: raw["traffic"][0].update({"class": "OnDemandContinuous"}),
     "traffic[0].class: 'OnDemandContinuous' is not one of"),
    (lambda raw: raw.update(wakeup_table=[dict(WINDOW, window_ms=2500.0)]),
     "wakeup_table[0].window_ms: longer than period_s"),
    (lambda raw: raw["traffic"][0].update(payload_bytes=600),
     "traffic[0].payload_bytes: 600 is above the mtu_bytes 128 of its channel"),
    (lambda raw: raw["traffic"][0].update(dst=raw["traffic"][0]["node"]),
     "traffic[0].dst: 'ecg' is the flow's own node"),
    # routes come from the nodes' channels, and no rule reads a window's class
    (lambda raw: raw.update(channel_map=[]), "channel_map: unknown field"),
    (lambda raw: raw.update(wakeup_table=[dict(WINDOW, **{"class": "NormalLow"})]),
     "wakeup_table[0].class: unknown field"),
], ids=["misspelt-key", "wrong-kind", "repeated-wakeup-entry",
        "wakeup-entry-for-the-bnc", "on-demand-traffic-class",
        "window-longer-than-period", "payload-above-mtu", "flow-to-own-node",
        "channel-map-section", "wakeup-entry-class"])
def test_bad_field_exit_code(tmp_path, capsys, edit, message):
    raw = json.loads(bundled_scenario_path("paper_fig2").read_text())
    edit(raw)
    path = tmp_path / "bad_field.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(path), "--protocol", "csma802154",
               "--reps", "1", "--until", "1", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


def _add_unrouted_flow(raw):
    _add_wrist(raw)
    raw["traffic"].append({"node": "wrist", "class": "NormalLow",
                           "period_s": 2.0, "dst": "bnc"})


def _add_unrouted_request(raw):
    _add_wrist(raw)
    raw["on_demand"] = [{"at_s": 1.0, "target": "wrist"}]


def _add_bnc_flow_to_chest(raw):
    # the bnc is the bridge: its route to chest is direct on ism, but its
    # MAC sends on mics
    raw["traffic"].append({"node": "bnc", "class": "NormalHigh",
                           "period_s": 0.5, "dst": "chest"})


@pytest.mark.parametrize("edit, message", [
    (_add_unrouted_flow, "traffic[4]: no route from 'wrist' to 'bnc'"),
    (_add_unrouted_request, "on_demand[0]: no route from 'wrist' to 'bnc'"),
    (_add_bnc_flow_to_chest, "traffic[4]: the route from 'bnc' to 'chest' "
                             "starts on 'ism', but 'bnc' sends on 'mics'"),
], ids=["unrouted-flow", "unrouted-request",
        "route-off-the-source-channel"])
def test_bad_bridge_scenario_exit_code(tmp_path, capsys, edit, message):
    raw = json.loads(bundled_scenario_path("bridge_inbody").read_text())
    edit(raw)
    path = tmp_path / "bad_bridge.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(path), "--protocol", "direct",
               "--reps", "1", "--until", "1", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("protocol", ["csma802154", "pbtdma", "smac", "direct"])
def test_on_demand_under_a_mac_without_it_exit_code(tmp_path, capsys,
                                                     protocol):
    raw = json.loads(bundled_scenario_path("paper_fig2").read_text())
    raw["on_demand"] = [{"at_s": 0.5, "target": "ecg"}]
    path = tmp_path / "on_demand.json"
    path.write_text(json.dumps(raw))
    rc = main(["run", "--scenario", str(path), "--protocol", protocol,
               "--until", "1", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{protocol} cannot serve the scenario's on-demand requests" in err
    assert "Traceback" not in err


def test_unknown_protocol_exit_code(tmp_path, capsys):
    rc = main(["run", "--scenario", "table1_links", "--protocol", "bogus",
               "--until", "1", "--out", str(tmp_path)])
    assert rc == 2
    assert "unknown protocol" in capsys.readouterr().err


@pytest.mark.parametrize("protocol, message", [
    ("csma802154", "nodes not on the coordinator's channel 'mics': ankle, "
                   "chest"),
    ("pbtdma", "nodes not on the coordinator's channel 'mics': ankle, chest"),
    ("tbw", "tbw requires a wakeup_channel in the scenario"),
    ("nosuch", "unknown protocol: 'nosuch'"),
], ids=["csma802154", "pbtdma", "tbw", "nosuch"])
@pytest.mark.parametrize("command", ["run", "compare", "trace"])
def test_a_protocol_that_cannot_run_the_scenario_exits_2_before_any_run(
        tmp_path, capsys, monkeypatch, command, protocol, message):
    def refuse(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr("bsnsim.runner.build_network", refuse)
    out = tmp_path / "out"
    names = (["--protocols", f"direct,{protocol}"] if command == "compare"
             else ["--protocol", protocol, "--seed", "1"])
    rc = main([command, "--scenario", "bridge_inbody", *names, "--until", "1",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"scenario error: {protocol}: {message}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--reps", "0"), ("--workers", "0"),
                                        ("--workers", "-1"), ("--reps", "x")])
@pytest.mark.parametrize("command", [
    ["run", "--protocol", "tbw"],
    ["compare", "--protocols", "tbw,tbw_alwayson"],
])
def test_counts_below_one_are_usage_errors(tmp_path, capsys, command, flag,
                                           value):
    argv = command + ["--scenario", "tbw_emergency", "--out", str(tmp_path),
                      "--workers", "2", "--reps", "2", flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    expected = (f"not an integer: {value!r}" if value == "x"
                else f"must be at least 1, got {value}")
    assert f"argument {flag}: {expected}" in err
    assert "Number of processes" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["0", "-1", "4e-7", "nan", "inf", "x"])
@pytest.mark.parametrize("command", [
    ["run", "--protocol", "tbw"],
    ["compare", "--protocols", "tbw,tbw_alwayson"],
    ["trace", "--protocol", "tbw", "--seed", "1"],
])
def test_horizons_below_one_tick_are_usage_errors(tmp_path, capsys, command,
                                                 value):
    argv = command + ["--scenario", "tbw_emergency", "--out", str(tmp_path),
                      "--until", value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    expected = (f"not a number: {value!r}" if value == "x"
                else f"must be at least 1e-06, got {value}")
    assert f"argument --until: {expected}" in err
    assert not list(tmp_path.iterdir())


def test_a_protocol_listed_twice_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--scenario", "tbw_emergency",
              "--protocols", "tbw,tbw_alwayson, tbw", "--reps", "1",
              "--until", "1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --protocols: listed more than once: tbw" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("listed, named, message", [
    ("tbw", "tbw", "protocols.tbw: traffic[0].node: the coordinator 'bnc' "
                   "cannot send frames of its own"),
    ("smac", "pbtdma", "pbtdma: traffic[0].node: the coordinator 'bnc' "
                       "cannot send frames of its own"),
], ids=["listed", "named"])
def test_a_coordinator_flow_exits_2_under_a_mac_that_cannot_send_it(
        tmp_path, capsys, listed, named, message):
    raw = json.loads(make_scenario(BNC_FLOW).serialize())
    raw["protocols"] = {listed: {}}
    path = tmp_path / "bnc_flow.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    rc = main(["run", "--scenario", str(path), "--protocol", named,
               "--reps", "1", "--until", "1", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"scenario error: {message}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_run_takes_a_seed_or_a_count_of_reps_not_both(tmp_path, capsys):
    # with both, the seed's one run was all that ran
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", "table1_links", "--protocol", "direct",
              "--seed", "7", "--reps", "5", "--until", "1",
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --reps: not allowed with argument --seed" in err
    assert not list(tmp_path.iterdir())
