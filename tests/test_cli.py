import json

import pytest

from retroflow.cli import main
from retroflow.oscm import Solution
from retroflow import fixtures
from retroflow.fixtures import data_path
from retroflow.solvers import solve_retroflow

TOPO = data_path("att25.json")
PLACEMENT = data_path("att_table2.json")


class TestRun:
    def test_single_scenario_csv(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["run", "--topology", TOPO, "--placement", PLACEMENT,
                     "--failures", "20,", "--q-fraction", "1.0",
                     "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("scenario,")
        assert text.count("\n") == 1 + 3
        stdout = capsys.readouterr().out
        assert "exact_feasible_scenarios: 1" in stdout
        assert "nodes: 25" in stdout

    def test_enumerated_failures_json(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["run", "--topology", TOPO, "--placement", PLACEMENT,
                     "--failures", "1", "--format", "json",
                     "--algorithms", "retroflow,nearest", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["records"]) == 6 * 2

    def test_infeasible_only_exit_code(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["run", "--topology", TOPO, "--placement", PLACEMENT,
                     "--failures", "13,22", "--q-fraction", "1.0",
                     "--algorithms", "exact", "--out", str(out)])
        assert code == 1

    def test_bad_algorithm_is_input_error(self, capsys):
        code = main(["run", "--topology", TOPO, "--placement", PLACEMENT,
                     "--failures", "1", "--algorithms", "magic"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, capsys):
        code = main(["run", "--topology", "/nonexistent.json",
                     "--placement", PLACEMENT, "--failures", "1"])
        assert code == 2

    def test_bare_failure_count_is_never_an_id(self, capsys, tmp_path):
        # six controllers: 13 is out of range as a count, even though
        # controller 13 exists; the id needs a comma
        assert main(["run", "--topology", TOPO, "--placement", PLACEMENT,
                     "--failures", "13", "--algorithms", "nearest"]) == 2
        assert "failure cardinality 13 out of range" in capsys.readouterr().err
        out = tmp_path / "report.csv"
        assert main(["run", "--topology", TOPO, "--placement", PLACEMENT,
                     "--failures", "13,", "--algorithms", "nearest",
                     "--out", str(out)]) == 0
        assert out.read_text().split("\n")[1].startswith("C13,")

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["run", "--topology", TOPO, "--placement", PLACEMENT,
                         "--failures", "2", "--q-fraction", "0.9",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestValidateCommand:
    def _write_pair(self, tmp_path, feasible=True):
        inst = fixtures.toy_recovery_instance()
        sol = solve_retroflow(inst)
        if not feasible:
            sol = Solution(x=dict(sol.x), assigned=dict(sol.assigned),
                           y=frozenset(), objective=sol.objective)
        ipath = tmp_path / "inst.json"
        spath = tmp_path / "sol.json"
        ipath.write_text(inst.to_json())
        spath.write_text(sol.to_json())
        return str(ipath), str(spath)

    def test_feasible_solution(self, capsys, tmp_path):
        ipath, spath = self._write_pair(tmp_path)
        assert main(["validate", "--instance", ipath, "--solution", spath]) == 0
        out = capsys.readouterr().out
        assert "feasible: True" in out
        assert "capacity: pass" in out

    def test_infeasible_solution(self, capsys, tmp_path):
        ipath, spath = self._write_pair(tmp_path, feasible=False)
        assert main(["validate", "--instance", ipath, "--solution", spath]) == 1
        assert "quota: FAIL" in capsys.readouterr().out

    def test_malformed_instance(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        sol = tmp_path / "sol.json"
        sol.write_text("{}")
        assert main(["validate", "--instance", str(bad), "--solution", str(sol)]) == 2


    @pytest.mark.parametrize("text", [
        "[]",
        '{"x": 5, "assigned": {}, "y": [], "objective": 0.0}',
        '{"x": {}, "assigned": null, "y": [], "objective": 0.0}',
    ])
    def test_malformed_solution(self, capsys, tmp_path, text):
        ipath, spath = self._write_pair(tmp_path)
        with open(spath, "w") as fh:
            fh.write(text)
        assert main(["validate", "--instance", ipath, "--solution", spath]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed solution document")
        assert "Traceback" not in err

    def test_nan_delay_instance(self, capsys, tmp_path):
        ipath, spath = self._write_pair(tmp_path)
        doc = json.loads(open(ipath).read())
        doc["delay_ms"][next(iter(doc["delay_ms"]))] = float("nan")
        with open(ipath, "w") as fh:
            json.dump(doc, fh)
        assert main(["validate", "--instance", ipath, "--solution", spath]) == 2
        captured = capsys.readouterr()
        assert "feasible" not in captured.out
        assert "must be finite" in captured.err


    def test_fractional_load_instance(self, capsys, tmp_path):
        ipath, spath = self._write_pair(tmp_path)
        doc = json.loads(open(ipath).read())
        doc["loads"]["20"] = 2.5
        with open(ipath, "w") as fh:
            json.dump(doc, fh)
        assert main(["validate", "--instance", ipath, "--solution", spath]) == 2
        captured = capsys.readouterr()
        assert "feasible" not in captured.out
        assert "load of switch 20 must be a whole number" in captured.err


class TestBadNumbers:
    def _run(self, topo, placement):
        return main(["run", "--topology", str(topo), "--placement", str(placement),
                     "--failures", "1", "--algorithms", "nearest"])

    def test_nan_distance(self, capsys, tmp_path):
        doc = json.loads(open(TOPO).read())
        doc["links"][0]["distance_km"] = float("nan")
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps(doc))
        assert self._run(topo, PLACEMENT) == 2
        assert "finite and nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["1e400", "0.5"])
    def test_bad_node_id(self, capsys, tmp_path, raw):
        # 1e400 parses as infinity; 0.5 would otherwise truncate to node 0
        doc = json.loads(open(TOPO).read())
        doc["nodes"][0]["id"] = "ID"
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps(doc).replace('"ID"', raw))
        assert self._run(topo, PLACEMENT) == 2
        err = capsys.readouterr().err
        assert "node id must be a whole number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("where, field, raw", [
        ("nodes", "lat", "null"), ("nodes", "lon", "[1]"),
        ("links", "distance_km", "[1]"), ("links", "distance_km", "{}"),
    ])
    def test_bad_number_type(self, capsys, tmp_path, where, field, raw):
        doc = json.loads(open(TOPO).read())
        doc[where][0][field] = "VALUE"
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps(doc).replace('"VALUE"', raw))
        assert self._run(topo, PLACEMENT) == 2
        err = capsys.readouterr().err
        assert f"{field} must be a number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field", ["node", "switches"])
    @pytest.mark.parametrize("raw", ["2.5", "null", "1e400"])
    def test_bad_placement_id(self, capsys, tmp_path, field, raw):
        # 2.5 would otherwise truncate to node 2; null and 1e400 would
        # escape as TypeError and OverflowError
        doc = json.loads(open(PLACEMENT).read())
        rec = doc["controllers"][0]
        if field == "node":
            rec["node"] = "ID"
        else:
            rec["switches"][0] = "ID"
        placement = tmp_path / "placement.json"
        placement.write_text(json.dumps(doc).replace('"ID"', raw))
        assert self._run(TOPO, placement) == 2
        err = capsys.readouterr().err
        assert "must be a whole number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("count", [-5, 2.7])
    def test_bad_flow_count(self, capsys, tmp_path, count):
        doc = json.loads(open(PLACEMENT).read())
        doc["flow_counts"]["13"] = count
        placement = tmp_path / "placement.json"
        placement.write_text(json.dumps(doc))
        assert self._run(TOPO, placement) == 2
        assert "flow count of switch 13" in capsys.readouterr().err


class TestEnumerateCommand:
    def test_pairs(self, capsys):
        assert main(["enumerate", "--topology", TOPO, "--placement", PLACEMENT,
                     "--failures", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 15
        assert lines[0] == "C2+C5"

    def test_out_of_range(self, capsys):
        assert main(["enumerate", "--topology", TOPO, "--placement", PLACEMENT,
                     "--failures", "6"]) == 2


class TestProtocolTraceCommand:
    def test_bundled_script_ends_legacy(self, capsys):
        script = data_path("master_loss_events.json")
        assert main(["protocol-trace", "--script", script]) == 0
        out = capsys.readouterr().out
        assert "broadcast_role_request" in out
        assert "activate_legacy_routing" in out
        assert "final: mode=LEGACY phase=STABLE master=None" in out

    @pytest.mark.parametrize("doc", [
        [],
        {"switch": None, "master": 1, "backups": [2], "events": []},
        {"switch": float("inf"), "master": 1, "backups": [2], "events": []},
        {"switch": 1, "master": 1, "backups": [2], "events": [5]},
        {"master": 1, "backups": [2], "events": []},
    ])
    def test_malformed_script(self, capsys, tmp_path, doc):
        script = tmp_path / "script.json"
        script.write_text(json.dumps(doc))
        assert main(["protocol-trace", "--script", str(script)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed script document")
        assert "Traceback" not in err
