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


def test_compare_requires_two_protocols(tmp_path, capsys):
    rc = main(["compare", "--scenario", "table1_links",
               "--protocols", "direct", "--out", str(tmp_path)])
    assert rc != 0
    err = capsys.readouterr().err
    assert ">= 2" in err


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


def test_dump_routes_csv(capsys):
    rc = main(["dump-routes", "--scenario", "bridge_inbody"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "src,dst,route_kind,ingress,bridge,egress"
    rows = {tuple(r.split(",")[:3]) for r in out[1:]}
    assert ("imp1", "chest", "via_bridge") in rows
    assert ("imp1", "imp2", "via_bridge") in rows
    assert ("chest", "ankle", "direct") in rows
    full = {r for r in out[1:]}
    assert "imp1,chest,via_bridge,mics,bnc,ism" in full
    assert "imp1,imp2,via_bridge,mics,bnc,mics" in full


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
    assert "protocols.csma802154.macMaxCSMABackofs: unknown parameter" in err


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


@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw.update(horizn_s=600.0), "horizn_s: unknown field"),
    (lambda raw: raw["channel_model"].update(sensitivity_dbm="low"),
     "channel_model.sensitivity_dbm: 'low' is not a number"),
], ids=["misspelt-key", "wrong-kind"])
def test_bad_field_exit_code(tmp_path, capsys, edit, message):
    raw = json.loads(bundled_scenario_path("paper_fig2").read_text())
    edit(raw)
    path = tmp_path / "bad_field.json"
    path.write_text(json.dumps(raw))
    rc = main(["run", "--scenario", str(path), "--protocol", "csma802154",
               "--reps", "1", "--until", "1", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("protocol", ["csma802154", "pbtdma", "smac", "direct"])
def test_on_demand_under_a_mac_without_it_exit_code(tmp_path, capsys,
                                                     protocol):
    raw = json.loads(bundled_scenario_path("paper_fig2").read_text())
    raw["on_demand"] = [{"at_s": 0.5, "target": "ecg"}]
    path = tmp_path / "on_demand.json"
    path.write_text(json.dumps(raw))
    rc = main(["run", "--scenario", str(path), "--protocol", protocol,
               "--until", "1", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{protocol} cannot serve the scenario's on-demand requests" in err
    assert "Traceback" not in err


def test_unknown_protocol_exit_code(tmp_path, capsys):
    rc = main(["run", "--scenario", "table1_links", "--protocol", "bogus",
               "--until", "1", "--out", str(tmp_path)])
    assert rc == 1
    assert "unknown protocol" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--reps", "0"), ("--workers", "0"),
                                        ("--workers", "-1")])
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
    assert f"argument {flag}: must be at least 1, got {value}" in err
    assert "Number of processes" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["0", "-1", "4e-7", "nan", "inf"])
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
    assert f"argument --until: must be at least 1e-06, got {value}" in err
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
