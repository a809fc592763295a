"""CLI surface: run, compare, dump-routes, trace; exit codes and outputs."""

import json

import pytest

from bsnsim.cli import main
from bsnsim.scenario import bundled_scenario_path


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
    assert "pdr[all]:" in report


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


# an on-body node on ism that no channel-map record lists
WRIST = {"id": "wrist", "site": "Wrist", "kind": "onbody", "pos": [0.3, 0.5],
         "channel": "ism"}


def test_dump_routes_csv(tmp_path, capsys):
    rc = main(["dump-routes", "--scenario", "bridge_inbody"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == BRIDGE_INBODY_ROUTES
    # a node that is in no record has no route to or from anyone
    raw = json.loads(bundled_scenario_path("bridge_inbody").read_text())
    raw["nodes"].append(WRIST)
    path = tmp_path / "wrist.json"
    path.write_text(json.dumps(raw))
    assert main(["dump-routes", "--scenario", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "wrist,bnc,no_route,,," in out
    assert [r for r in out if "wrist" not in r] == BRIDGE_INBODY_ROUTES


def test_trace_determinism_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        rc = main(["trace", "--scenario", "paper_fig2",
                   "--protocol", "csma802154", "--seed", "7",
                   "--until", "3", "--out", str(out)])
        assert rc == 0
    t1 = (out1 / "trace_csma802154_7.txt").read_bytes()
    t2 = (out2 / "trace_csma802154_7.txt").read_bytes()
    assert t1 == t2
    c1 = (out1 / "run_csma802154_7.csv").read_bytes()
    c2 = (out2 / "run_csma802154_7.csv").read_bytes()
    assert c1 == c2


def test_unknown_scenario_exit_code(capsys):
    rc = main(["run", "--scenario", "nope", "--protocol", "direct"])
    assert rc == 2
    assert "scenario error" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["run", "dump-routes"])
def test_unmapped_endpoint_exit_code(tmp_path, capsys, command):
    # chest is on no channel when the first record is registered
    raw = json.loads(bundled_scenario_path("bridge_inbody").read_text())
    raw["channel_map"][0]["src"] = "chest"
    path = tmp_path / "unmapped.json"
    path.write_text(json.dumps(raw))
    run_args = ["--protocol", "direct", "--reps", "1", "--until", "1",
                "--out", str(tmp_path)]
    rc = main([command, "--scenario", str(path),
               *(run_args if command == "run" else [])])
    assert rc == 2
    err = capsys.readouterr().err
    assert "channel_map[0]: unmapped endpoint: chest" in err
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


WINDOW = {"node": "ecg", "class": "NormalHigh", "period_s": 2.0,
          "offset_s": 1.0, "window_ms": 100.0}


@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw.update(horizn_s=600.0), "horizn_s: unknown field"),
    (lambda raw: raw["channel_model"].update(sensitivity_dbm="low"),
     "channel_model.sensitivity_dbm: 'low' is not a number"),
    (lambda raw: raw.update(wakeup_table=[
        WINDOW, dict(WINDOW, **{"class": "NormalLow", "period_s": 3.0})]),
     "wakeup_table[1].node: 'ecg' already has an entry at wakeup_table[0]"),
    (lambda raw: raw.update(wakeup_table=[dict(WINDOW, node="bnc")]),
     "wakeup_table[0].node: unknown device 'bnc'"),
    (lambda raw: raw["traffic"][0].update({"class": "OnDemandContinuous"}),
     "traffic[0].class: 'OnDemandContinuous' is not one of"),
    (lambda raw: raw.update(wakeup_table=[dict(WINDOW, window_ms=2500.0)]),
     "wakeup_table[0].window_ms: longer than period_s"),
], ids=["misspelt-key", "wrong-kind", "repeated-wakeup-entry",
        "wakeup-entry-for-the-bnc", "on-demand-traffic-class",
        "window-longer-than-period"])
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


def _mislay_ism_records(raw):
    for record in raw["channel_map"][2:]:
        record["channel"] = "mics"


def _add_unrouted_flow(raw):
    raw["nodes"].append(WRIST)
    raw["traffic"].append({"node": "wrist", "class": "NormalLow",
                           "period_s": 2.0, "dst": "bnc"})


def _add_unrouted_request(raw):
    raw["nodes"].append(WRIST)
    raw["on_demand"] = [{"at_s": 1.0, "target": "wrist"}]


@pytest.mark.parametrize("edit, message", [
    (_mislay_ism_records, "channel_map[2].nodes: 'chest' has no radio on 'mics'"),
    (_add_unrouted_flow, "traffic[4]: no route from 'wrist' to 'bnc'"),
    (_add_unrouted_request, "on_demand[0]: no route from 'wrist' to 'bnc'"),
], ids=["mislaid-record", "unrouted-flow", "unrouted-request"])
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
