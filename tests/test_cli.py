import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from retroflow import cli
from retroflow.cli import main
from retroflow.domains import FailureScenario
from retroflow.oscm import Solution, build_instance
from retroflow import fixtures
from retroflow.fixtures import data_path
from retroflow.solvers import solve_retroflow

from _oracles import TWICE_LISTED, load_perfbench_workloads, written_floats

TOPO = data_path("att25.json")
PLACEMENT = data_path("att_table2.json")
# the tests' own documents
DATA = Path(__file__).parent / "data"

# sha256 of the att25 CSV report per failure count and quota fraction
REPORT_SHA256 = {
    (1, "0.9"): "ed51eef6703fca25dfe3a4d490b9278a689b23f930fb435d028339f0cad7fe54",
    (1, "1.0"): "e978ec0ec1acfefbea61b9d1238ab2761fb92c0ec49ae02323930c74a56da7a7",
    (2, "0.9"): "2343b49327245fddc995a718f0d580448f85017395bd449ce9725637012aed5d",
    (2, "1.0"): "7e172469290316ffab77cfe4b3c35d80667447da5cfbd3361771e558a72c2a5f",
}


def _world_args(tmp_path, topology, placement):
    """Write the two documents into tmp_path; the run options that name them."""
    args = []
    for name, doc in (("topology", topology), ("placement", placement)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        args += [f"--{name}", str(path)]
    return args


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

    def test_budget_exhausted_keeps_the_report(self, capsys, tmp_path):
        # a budget that ends an exact search with no incumbent was exit 2
        # with no report; the exit code now follows the feasible outcomes
        out = tmp_path / "report.csv"
        argv = ["run", "--topology", TOPO, "--placement", PLACEMENT, "--failures", "4",
                "--q-fraction", "0.9", "--time-limit", "1e-9", "--out", str(out)]
        assert main(argv) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 15 * 3
        assert any(",exact,budget_exhausted," in row for row in rows)
        assert capsys.readouterr().err == ""
        # exact alone: the greedy meets no quota at k=4, and the limit is
        # read at the first node, so every search ends without an incumbent
        assert main(argv + ["--algorithms", "exact"]) == 1
        statuses = {row.split(",")[5] for row in out.read_text().splitlines()[1:]}
        assert statuses == {"budget_exhausted"}

    def test_bad_algorithm_is_input_error(self, capsys, monkeypatch):
        # refused before the world build: an empty list was refused only
        # by the first scenario
        monkeypatch.setattr(cli, "make_world", None)
        for value, message in [("magic", "unknown algorithm 'magic'"),
                               ("exact,bogus", "unknown algorithm 'bogus'"),
                               ("greedy,greedy", "duplicate algorithm 'greedy'"),
                               (",", "at least one algorithm required")]:
            code = main(["run", "--topology", TOPO, "--placement", PLACEMENT,
                         "--failures", "1", "--algorithms", value])
            assert code == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_summary_reads_each_algorithms_own_rows(self, capsys):
        # without Nearest in the run, and without --out, so the summary
        # goes to stderr beside the report on stdout
        assert main(["run", "--topology", TOPO, "--placement", PLACEMENT,
                     "--failures", "1", "--algorithms", "exact,retroflow"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("scenario,") and out.count("\n") == 1 + 6 * 2
        assert "exact_feasible_scenarios: 6" in err.splitlines()

    def test_no_quota_met_exits_1(self, capsys, tmp_path):
        # one controller survives each scenario, and the greedy strands
        # the switches heavier than its residual
        out = tmp_path / "report.csv"
        assert main(["run", "--topology", TOPO, "--placement", PLACEMENT,
                     "--failures", "5", "--algorithms", "retroflow", "--out", str(out)]) == 1
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == 6
        assert {row["status"] for row in rows} == {"quota_unmet"}
        assert "retroflow_feasible_scenarios: 0" in capsys.readouterr().out

    def test_world_of_topology_zoo_size(self, capsys, tmp_path):
        # the benchmark generator's 20x20 grid of seed 1 with its k-center
        # placement: 400 nodes, 159,600 flows, and a quota met everywhere
        workloads = load_perfbench_workloads()
        topo = workloads.grid_topology(20, random.Random(1))
        place = workloads.kcenter_placement(topo, workloads.grid_topology(20),
                                            workloads.CONTROLLERS, workloads.SLACK)
        world = _world_args(tmp_path, topo, place)
        out = tmp_path / "report.csv"
        assert main(["run", *world, "--failures", "1", "--q-fraction", "0.9",
                     "--algorithms", "retroflow,nearest", "--out", str(out)]) == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == 6 * 2
        assert {row["status"] for row in rows} == {"ok"}
        assert "nodes: 400" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("option, value, message", [
        ("--algorithms", "retroflow,retroflow,nearest", "error: duplicate algorithm 'retroflow'"),
        ("--algorithms", "exact, nearest,exact", "error: duplicate algorithm 'exact'"),
        ("--failures", "13,13,22", "error: duplicate failed controller 13"),
        ("--failures", "13, 13", "error: duplicate failed controller 13"),
    ])
    def test_duplicate_entry_is_input_error(self, capsys, option, value, message):
        # a repeated algorithm wrote its report rows twice; a repeated
        # failed controller was silently dropped
        args = {"--failures": "1", "--algorithms": "nearest", option: value}
        argv = ["run", "--topology", TOPO, "--placement", PLACEMENT]
        for name, arg in args.items():
            argv += [name, arg]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"

    @pytest.mark.parametrize("form", ["csv", "json"])
    def test_overflowing_penalty_is_input_error(self, capsys, form):
        # the adjusted overheads were written as inf and their ratios as
        # nan (Infinity and NaN in JSON, which is then not JSON), exit 0
        assert main(["run", "--topology", TOPO, "--placement", PLACEMENT, "--failures", "1",
                     "--queue-penalty", "1e308", "--algorithms", "retroflow,nearest",
                     "--format", form]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: scenario C2: nearest's adjusted overhead is inf at "
                                "queue penalty 1e+308 ms per excess flow\n")

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

    @pytest.mark.parametrize("k, q", sorted(REPORT_SHA256))
    def test_report_bytes_golden(self, tmp_path, k, q):
        # pins every digit of the report: the overhead columns are float
        # sums, and adding the same terms in another order can change them
        out = tmp_path / "report.csv"
        assert main(["run", "--topology", TOPO, "--placement", PLACEMENT,
                     "--failures", str(k), "--q-fraction", q, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT_SHA256[k, q]

    def test_report_bytes_on_a_world_with_tied_delays(self, tmp_path):
        # test_flows' random topology 16, nine nodes with zero-length links:
        # most sources tie delays, so hops and node sequences decide its
        # paths and masks. The report was recorded before the search
        # handed tied sources to the full-order search; CI runs the
        # installed script on the same world against the same file
        out = tmp_path / "report.csv"
        assert main(["run", "--topology", str(DATA / "tied9_topology.json"),
                     "--placement", str(DATA / "tied9_placement.json"),
                     "--failures", "1", "--format", "csv", "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / "tied9_failures1.csv").read_bytes()

    @pytest.mark.parametrize("penalty", ["0.1", "0"])
    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_ratio_past_the_float_range(self, capsys, tmp_path, format, penalty):
        # Nearest maps switch 3 to controller 1, a 1e-310 km link away, so
        # the greedy's overhead over Nearest's overflowed to inf: CSV wrote
        # it, and JSON, which cannot, exited 2. The ratio is null in both
        out = tmp_path / f"report.{format}"
        assert main(["run", "--topology", str(DATA / "subnormal_ring_topology.json"),
                     "--placement", str(DATA / "subnormal_ring_placement.json"),
                     "--failures", "0,", "--algorithms", "retroflow,nearest",
                     "--queue-penalty", penalty, "--format", format, "--out", str(out)]) == 0
        text = out.read_text()
        floats = written_floats(text, format)
        assert floats and all(map(math.isfinite, floats))
        rows = (json.loads(text)["records"] if format == "json"
                else list(csv.DictReader(io.StringIO(text))))
        assert rows[0]["algorithm"] == "retroflow"
        assert rows[0]["norm_raw_overhead"] in (None, "")
        assert "inf" not in capsys.readouterr().out


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

    def test_world_built_instance(self, capsys, tmp_path, att_world):
        # att25 with C13 and C22 failed, at q=0.9: an instance built from
        # the world, and the greedy's solution, read back through the
        # checked constructor
        w = att_world
        inst = build_instance(w.topology, w.beta, w.placement,
                              FailureScenario(frozenset({13, 22})), 0.9, world=w)
        ipath, spath = tmp_path / "inst.json", tmp_path / "sol.json"
        ipath.write_text(inst.to_json())
        spath.write_text(solve_retroflow(inst).to_json())
        assert main(["validate", "--instance", str(ipath), "--solution", str(spath)]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[-1] == "feasible: True"
        assert err == ""

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
        doc = json.loads(Path(ipath).read_text())
        doc["delay_ms"][next(iter(doc["delay_ms"]))] = float("nan")
        with open(ipath, "w") as fh:
            json.dump(doc, fh)
        assert main(["validate", "--instance", ipath, "--solution", spath]) == 2
        captured = capsys.readouterr()
        assert "feasible" not in captured.out
        assert "must be finite" in captured.err

    def test_overflowing_overhead_instance(self, capsys, tmp_path):
        # switch 20's load is 3, so its overhead at controller 1 is inf
        ipath, spath = self._write_pair(tmp_path)
        doc = json.loads(Path(ipath).read_text())
        doc["delay_ms"]["20,1"] = 1e308
        with open(ipath, "w") as fh:
            json.dump(doc, fh)
        assert main(["validate", "--instance", ipath, "--solution", spath]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: switch 20: the dearest overheads up to this switch "
                                "sum to inf; overheads must stay finite\n")


    def test_fractional_load_instance(self, capsys, tmp_path):
        ipath, spath = self._write_pair(tmp_path)
        doc = json.loads(Path(ipath).read_text())
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
        doc = json.loads(Path(TOPO).read_text())
        doc["links"][0]["distance_km"] = float("nan")
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps(doc))
        assert self._run(topo, PLACEMENT) == 2
        assert "finite and nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value, message", [
        ("--queue-penalty", "nan", "queue penalty must be finite and nonnegative"),
        ("--queue-penalty", "inf", "queue penalty must be finite and nonnegative"),
        ("--time-limit", "nan", "budget limits must be finite and positive"),
        ("--time-limit", "inf", "budget limits must be finite and positive"),
        ("--time-limit", "-1", "budget limits must be finite and positive"),
    ])
    def test_non_finite_option(self, capsys, option, value, message):
        code = main(["run", "--topology", TOPO, "--placement", PLACEMENT,
                     "--failures", "1", f"{option}={value}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("raw", ["1e400", "0.5"])
    def test_bad_node_id(self, capsys, tmp_path, raw):
        # 1e400 parses as infinity; 0.5 would otherwise truncate to node 0
        doc = json.loads(Path(TOPO).read_text())
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
        doc = json.loads(Path(TOPO).read_text())
        doc[where][0][field] = "VALUE"
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps(doc).replace('"VALUE"', raw))
        assert self._run(topo, PLACEMENT) == 2
        err = capsys.readouterr().err
        assert f"{field} must be a number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("raw, field", [
        (raw, field) for field in ("node", "switches") for raw in ("2.5", "null", "1e400")
    ] + [("5", "record"), ("null", "switch_list")])
    def test_bad_placement_id(self, capsys, tmp_path, raw, field):
        # 2.5 would otherwise truncate to node 2; null and 1e400 would
        # escape as TypeError and OverflowError, and so would a record that
        # is not a mapping or a switch list that is not a list
        doc = json.loads(Path(PLACEMENT).read_text())
        rec = doc["controllers"][0]
        if field == "node":
            rec["node"] = "ID"
        elif field == "switches":
            rec["switches"][0] = "ID"
        elif field == "switch_list":
            rec["switches"] = "ID"
        else:
            doc["controllers"][0] = "ID"
        placement = tmp_path / "placement.json"
        placement.write_text(json.dumps(doc).replace('"ID"', raw))
        assert self._run(TOPO, placement) == 2
        err = capsys.readouterr().err
        assert {"record": "must be a mapping",
                "switch_list": "must be a list"}.get(field, "must be a whole number") in err
        assert "Traceback" not in err

    def test_controller_listed_twice(self, capsys, tmp_path):
        placement = tmp_path / "placement.json"
        placement.write_text(json.dumps(TWICE_LISTED))
        assert self._run(TOPO, placement) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: duplicate controller id 2\n"

    @pytest.mark.parametrize("count", [-5, 2.7])
    def test_bad_flow_count(self, capsys, tmp_path, count):
        doc = json.loads(Path(PLACEMENT).read_text())
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


class TestScenarioCeiling:
    """A placement of 60 controllers asks for C(60, 30) scenarios at
    --failures 30. The CLI runs in a child process under a 1 GiB
    address-space limit and a timeout, so a missing count check fails
    fast instead of exhausting the machine."""

    CHILD = ("import resource, sys; "
             "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
             "from retroflow.cli import main; sys.exit(main(sys.argv[1:]))")

    @pytest.mark.parametrize("command", ["run", "enumerate"])
    def test_too_many_scenarios(self, tmp_path, command):
        n = 60
        topo = {"nodes": [{"id": v, "lat": 0.0, "lon": v * 0.1} for v in range(n)],
                "links": [{"a": v, "b": (v + 1) % n} for v in range(n)]}
        place = {"capacity": 10**6,
                 "controllers": [{"node": v, "switches": [v]} for v in range(n)]}
        world = _world_args(tmp_path, topo, place)
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", self.CHILD, command, *world, "--failures", "30"],
            capture_output=True, text=True, timeout=60, env=env)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == ("error: failure cardinality 30 of 60 controllers gives "
                               "118264581564861424 scenarios, above the ceiling of 1000000\n")


class TestMaskCeiling:
    """A 2,100-node ring needs 1.16 GB of masks, above
    flows.MAX_MASK_BYTES. The CLI runs in a child process under a 1 GiB
    address-space limit, so a missing check fails fast (at about 9 s, of
    MemoryError) instead of exhausting the machine."""

    def test_too_many_mask_bytes(self, tmp_path):
        n = 2100
        topo = {"nodes": [{"id": v, "lat": 0.0, "lon": 0.0} for v in range(n)],
                "links": [{"a": v, "b": (v + 1) % n, "distance_km": 100.0} for v in range(n)]}
        place = {"capacity": 10**9,
                 "controllers": [{"node": 0, "switches": list(range(n // 2))},
                                 {"node": n // 2, "switches": list(range(n // 2, n))}]}
        world = _world_args(tmp_path, topo, place)
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", TestScenarioCeiling.CHILD, "run", *world, "--failures", "1"],
            capture_output=True, text=True, timeout=60, env=env)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == ("error: a world of 2100 nodes needs 1157073750 bytes of masks, "
                               "above the ceiling of 1073741824\n")


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
        # fractions would otherwise truncate to switch 1 and master 2
        {"switch": 1.5, "master": 2.9, "backups": [3], "events": []},
        {"switch": 1, "master": 2.9, "backups": [3], "events": []},
        {"switch": 1, "master": 2, "backups": [3.5], "events": []},
        {"switch": 1, "master": 2, "backups": [3], "events": [
            {"kind": "master_connection_lost"},
            {"kind": "role_reply_accept", "controller": 3.5}]},
    ])
    def test_malformed_script(self, capsys, tmp_path, doc):
        script = tmp_path / "script.json"
        script.write_text(json.dumps(doc))
        assert main(["protocol-trace", "--script", str(script)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed script document")
        assert "Traceback" not in err


    @pytest.mark.parametrize("path, value, message", [
        (["events", 0, "kind"], "master_conection_lost",
         "unknown event kind 'master_conection_lost'; expected one of "
         "['master_connection_lost', 'role_reply_reject_legacy', 'role_reply_accept', 'adopt']"),
        (["events", 0, "kind"], ["adopt"], "unknown event kind ['adopt']"),
        (["backups"], [1, 1], "backups [1, 1] name a controller twice"),
        (["backups"], [2, 3, 2], "backups [2, 3, 2] name a controller twice"),
        (["backups"], [2, 1], "master 1 is also a backup"),
        (["events", 1], {"kind": "role_reply_reject_legacy"},
         "role_reply_reject_legacy event needs a controller"),
        (["events", 2], {"kind": "role_reply_accept", "controller": None},
         "role_reply_accept event needs a controller"),
        (["events", 2], {"kind": "adopt"}, "adopt event needs a controller"),
        # two faults in one record: the kind is named, not the fraction
        (["events", 1], {"kind": "adoptt", "controller": 1.5},
         "unknown event kind 'adoptt'; expected one of"),
    ], ids=["kind-typo", "kind-list", "backups-master-twice", "backups-twice",
            "backups-master", "reject-no-controller", "accept-null-controller",
            "adopt-no-controller", "kind-typo-fractional-controller"])
    def test_bad_script_exits_before_replay(self, capsys, tmp_path, path, value, message):
        """A script that only says the replay is wrong never replays: one
        error line, nothing on stdout, exit 2."""
        script = _edited(tmp_path, data_path("master_loss_events.json"), path, value)
        assert main(["protocol-trace", "--script", script]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: malformed script document: {message}")
        assert err.count("\n") == 1


def _edited(tmp_path, source, path, value):
    """Write a copy of the JSON document at source with the entry at path
    (keys and list indexes) set to value; a new key is added at the end."""
    doc = json.loads(Path(source).read_text())
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    out = tmp_path / "edited.json"
    out.write_text(json.dumps(doc))
    return str(out)


class TestStrictReaders:
    """Strings and booleans are never numbers, object keys naming ids
    must be canonical decimal, and keyed entries must name ids the
    document knows: every case below used to load."""

    def _exit_2(self, capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [True, "7", " 7 "])
    def test_script_switch(self, capsys, tmp_path, value):
        script = _edited(tmp_path, data_path("master_loss_events.json"), ["switch"], value)
        self._exit_2(capsys, ["protocol-trace", "--script", script],
                     "error: malformed script document: switch must be a whole number")

    @pytest.mark.parametrize("path, value, message", [
        (["events", 1], {"kind": "role_reply_reject_legacy", "controler": 2},
         "event has unknown fields: ['controler']"),
        (["mastr"], 1, "script has unknown fields: ['mastr']"),
    ], ids=["event-field", "top-field"])
    def test_script_unknown_field(self, capsys, tmp_path, path, value, message):
        script = _edited(tmp_path, data_path("master_loss_events.json"), path, value)
        assert main(["protocol-trace", "--script", script]) == 2
        err = capsys.readouterr().err
        assert err == f"error: malformed script document: {message}\n"

    @pytest.mark.parametrize("path, value, message", [
        (["capacity"], "500", "controller 2 capacity must be a whole number, got '500'"),
        (["capacity"], True, "controller 2 capacity must be a whole number, got True"),
        (["flow_counts", "013"], 5, "flow_counts key must be canonical decimal, got '013'"),
        (["flow_counts", " 13"], 5, "flow_counts key must be canonical decimal, got ' 13'"),
        (["flow_counts"], [1, 2], "flow_counts must be a mapping"),
        (["flow_counts"], "x", "flow_counts must be a mapping"),
        (["flow_counts"], {}, "flow_counts missing switches"),
        # beyond the float range, a count times a delay raised OverflowError
        (["flow_counts", "13"], 10**400, "flow count of switch 13 must be a whole number"),
        (["flow_counts", "99"], 5000, "flow_counts names switches not in the topology [99]"),
    ], ids=["capacity-str", "capacity-bool", "key-013", "key-space", "counts-list",
            "counts-str", "counts-empty", "count-huge", "counts-unknown"])
    def test_placement(self, capsys, tmp_path, path, value, message):
        placement = _edited(tmp_path, PLACEMENT, path, value)
        self._exit_2(capsys, ["enumerate", "--topology", TOPO, "--placement", placement,
                              "--failures", "1"], message)

    @pytest.mark.parametrize("path, value, message", [
        (["loads", "020"], 5, "load key must be canonical decimal, got '020'"),
        (["delay_ms", "20,1"], "1e3", "delay 20,1 must be a number, got '1e3'"),
        (["delay_ms", "20,1"], True, "delay 20,1 must be a number, got True"),
        (["quota"], True, "quota must be a whole number, got True"),
        (["offline_switches"], [20, 20, 21, 22, 23, 24], "duplicate offline switch 20"),
        (["active_controllers"], [1, 1, 3], "duplicate active controller 1"),
        (["active_controllers"], [True, 3], "active controller must be a whole number"),
        (["loads", "77"], 5, "loads names ids that are not offline switches: [77]"),
        (["flows", "77"], [1], "flows names ids that are not offline switches: [77]"),
        (["flows", "20"], [1, 3, 1, 3], "duplicate switch 20 flow id 1"),
        (["residual", "8"], 5, "residual names ids that are not active controllers: [8]"),
        (["delay_ms", "77,8"], 1.0,
         "delay_ms names pairs that are not (offline switch, active controller): ['77,8']"),
    ], ids=["key-020", "delay-str", "delay-bool", "quota-bool", "offline-dup",
            "active-dup", "active-bool", "loads-unknown", "flows-unknown", "flows-dup",
            "residual-unknown", "delay-unknown"])
    def test_instance(self, capsys, tmp_path, path, value, message):
        solution = tmp_path / "sol.json"
        solution.write_text(solve_retroflow(fixtures.toy_recovery_instance()).to_json())
        instance = _edited(tmp_path, data_path("toy_recovery.json"), path, value)
        self._exit_2(capsys, ["validate", "--instance", instance, "--solution", str(solution)],
                     message)

    @pytest.mark.parametrize("path, value, message", [
        (["quota_met"], "false", "quota_met must be true or false, got 'false'"),
        (["objective"], "5.4", "objective must be a number, got '5.4'"),
        (["y"], [True, 2, 3], "flow id must be a whole number, got True"),
        (["y"], [1, 1, 2, 3], "duplicate flow id 1"),
        (["x", "020"], 0, "switch id must be canonical decimal, got '020'"),
    ], ids=["quota_met-str", "objective-str", "y-bool", "y-dup", "key-020"])
    def test_solution(self, capsys, tmp_path, path, value, message):
        solution = tmp_path / "sol.json"
        solution.write_text(solve_retroflow(fixtures.toy_recovery_instance()).to_json())
        solution = _edited(tmp_path, str(solution), path, value)
        self._exit_2(capsys, ["validate", "--instance", data_path("toy_recovery.json"),
                              "--solution", solution], "error: malformed solution document: " + message)

    @pytest.mark.parametrize("document, field, value, message", [
        ("instance", "quotaa", 5, "instance document has unknown fields: ['quotaa']"),
        ("instance", "quota", None, "instance document missing field 'quota'"),
        ("instance", "label", [1, {"a": 2}], "label must be a string, got [1, {'a': 2}]"),
        ("instance", "label", 7, "label must be a string, got 7"),
        ("solution", "quota_mett", False,
         "malformed solution document: solution has unknown fields: ['quota_mett']"),
        ("solution", "objective", None,
         "malformed solution document: solution missing field 'objective'"),
    ], ids=["instance-unknown", "instance-missing", "instance-label-list",
            "instance-label-number", "solution-unknown", "solution-missing"])
    def test_fields(self, capsys, tmp_path, document, field, value, message):
        # value None deletes the field; a misspelled optional field is an
        # unknown one, so "quota_mett": false cannot pass for quota_met,
        # and the optional label is a string like the one to_json writes
        solution = tmp_path / "sol.json"
        solution.write_text(solve_retroflow(fixtures.toy_recovery_instance()).to_json())
        paths = {"instance": data_path("toy_recovery.json"), "solution": str(solution)}
        doc = json.loads(Path(paths[document]).read_text())
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        paths[document] = str(tmp_path / "edited.json")
        Path(paths[document]).write_text(json.dumps(doc))
        assert main(["validate", "--instance", paths["instance"],
                     "--solution", paths["solution"]]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestOneLineExits:
    """Input errors of the run and validate commands, each exit 2 with
    exactly one line on stderr and nothing on stdout."""

    def _exit_2(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_negative_capacity(self, capsys, tmp_path):
        placement = _edited(tmp_path, PLACEMENT, ["controllers", 0, "capacity"], -1)
        self._exit_2(capsys, ["run", "--topology", TOPO, "--placement", placement,
                              "--failures", "1"],
                     "controller 2 capacity must be nonnegative, got -1")

    def test_failure_list_without_a_controller(self, capsys):
        self._exit_2(capsys, ["run", "--topology", TOPO, "--placement", PLACEMENT,
                              "--failures", ","],
                     "failure scenario must name at least one controller")

    def test_inf_delay_on_a_far_path(self, capsys, tmp_path):
        # a 220-node path of 1.7e308 km links, whose delays sum to inf past
        # 211 hops: no one check of the world clears it, so each instance
        # checks its offline switches, and the first scenario, C0, names
        # its first fault
        n = 220
        topo = {"nodes": [{"id": v, "lat": 0.0, "lon": 0.0} for v in range(n)],
                "links": [{"a": v, "b": v + 1, "distance_km": 1.7e308}
                          for v in range(n - 1)]}
        place = {"capacity": 10**9,
                 "controllers": [{"node": 0, "switches": [0]},
                                 {"node": 10, "switches": list(range(1, 21))},
                                 {"node": n - 1, "switches": list(range(21, n))}]}
        world = _world_args(tmp_path, topo, place)
        self._exit_2(capsys, ["run", *world, "--failures", "1",
                              "--algorithms", "retroflow,nearest"],
                     "delay inf for switch 0, controller 219 must be finite and nonnegative")

    def test_quota_above_the_flows(self, capsys, tmp_path):
        solution = tmp_path / "sol.json"
        solution.write_text(solve_retroflow(fixtures.toy_recovery_instance()).to_json())
        instance = _edited(tmp_path, data_path("toy_recovery.json"), ["quota"], 99)
        self._exit_2(capsys, ["validate", "--instance", instance, "--solution", str(solution)],
                     "quota 99 outside [0, 3]")

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["assigned"].update({"77": 1}), "solution assigns unknown switches"),
        (lambda doc: doc["assigned"].update(dict.fromkeys(doc["assigned"], 99)),
         "solution assigns to unknown controllers"),
        (lambda doc: doc["y"].append(12345), "solution marks unknown flows programmable"),
        (lambda doc: doc["x"].update({"77": 0}),
         "solution x not indexed over the offline switches"),
    ], ids=["unknown-switch", "unknown-controller", "unknown-flow", "x-off-the-switches"])
    def test_solution_outside_the_instance(self, capsys, tmp_path, edit, message):
        doc = json.loads(solve_retroflow(fixtures.toy_recovery_instance()).to_json())
        edit(doc)
        solution = tmp_path / "sol.json"
        solution.write_text(json.dumps(doc))
        self._exit_2(capsys, ["validate", "--instance", data_path("toy_recovery.json"),
                              "--solution", str(solution)], message)


@pytest.mark.parametrize("reader", ["run-topology", "run-placement", "validate-instance",
                                    "validate-solution", "enumerate", "protocol-trace"])
def test_deeply_nested_document(capsys, tmp_path, reader):
    # json's decoder recurses once per nesting level: its RecursionError
    # printed a traceback and exited 1, the code for "no feasible result"
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    solution = tmp_path / "sol.json"
    solution.write_text(solve_retroflow(fixtures.toy_recovery_instance()).to_json())
    deep, solution, instance = str(deep), str(solution), data_path("toy_recovery.json")
    argv = {
        "run-topology": ["run", "--topology", deep, "--placement", PLACEMENT, "--failures", "1"],
        "run-placement": ["run", "--topology", TOPO, "--placement", deep, "--failures", "1"],
        "validate-instance": ["validate", "--instance", deep, "--solution", solution],
        "validate-solution": ["validate", "--instance", instance, "--solution", deep],
        "enumerate": ["enumerate", "--topology", deep, "--placement", PLACEMENT,
                      "--failures", "1"],
        "protocol-trace": ["protocol-trace", "--script", deep],
    }[reader]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
