#!/usr/bin/env bash
# Runs the retroflow console command on bundled, test and generated
# documents and checks its exit codes, stderr lines and outputs; the
# tests call cli.main() in-process, and this checks the entry point.
#
#   tests/console_checks.sh                                    # installed script
#   RETROFLOW="python3 -m retroflow.cli" PYTHONPATH=src tests/console_checks.sh
#
# RETROFLOW is the command, split into words (default `retroflow`). The
# documents go to RUNNER_TEMP when it is set, else to a new temporary
# directory, removed on exit. The python3 snippets that write documents
# import retroflow and perfbench/workloads.py. Paths are relative to the
# repository root, which the script changes to first.
set -eu
cd "$(dirname "$0")/.."
RETROFLOW=${RETROFLOW:-retroflow}
if [ -n "${RUNNER_TEMP:-}" ]; then
  tmp=$RUNNER_TEMP
else
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
fi
data=src/retroflow/data
$RETROFLOW run --topology $data/att25.json --placement $data/att_table2.json --failures 1 > /dev/null
# an exact search that ends its budget with no incumbent is a
# report row, not an abort: the report is written and the exit
# code follows the feasible outcomes
budget_report="$tmp/budget_exhausted.csv"
$RETROFLOW run --topology $data/att25.json --placement $data/att_table2.json --failures 3 --q-fraction 0.9 --time-limit 1e-9 --out "$budget_report" > /dev/null
test -s "$budget_report"
grep -q budget_exhausted "$budget_report"
# the summary's feasible counts read each algorithm's own rows,
# with or without Nearest in the run
$RETROFLOW run --topology $data/att25.json --placement $data/att_table2.json --failures 1 --algorithms exact,retroflow 2>&1 > /dev/null | grep -x "exact_feasible_scenarios: 6" > /dev/null
$RETROFLOW protocol-trace --script $data/master_loss_events.json > /dev/null
# a nine-node world whose zero-length links tie delays, so the
# full-order search decides its paths: the report must match
# the one tests/test_cli.py pins
tied_report="$tmp/tied9_failures1.csv"
$RETROFLOW run --topology tests/data/tied9_topology.json --placement tests/data/tied9_placement.json --failures 1 --format csv --out "$tied_report" > /dev/null
cmp "$tied_report" tests/data/tied9_failures1.csv
# a ring whose 1e-310 km link puts Nearest's controller a subnormal
# delay away: the greedy's overhead over Nearest's overflows, and both
# formats write that ratio as null
$RETROFLOW run --topology tests/data/subnormal_ring_topology.json --placement tests/data/subnormal_ring_placement.json --failures 0, --algorithms retroflow,nearest --format json > /dev/null
script="$tmp/fractional_switch.json"
echo '{"switch": 1.5, "master": 1, "backups": [2], "events": []}' > "$script"
bool_script="$tmp/boolean_switch.json"
echo '{"switch": true, "master": 1, "backups": [2], "events": []}' > "$bool_script"
# json's decoder raises RecursionError this deep
deep="$tmp/deep.json"
python3 -c 'print("[" * 100000)' > "$deep"
# unknown fields: a misspelled event field, and a delay for a
# pair that is not (offline switch, active controller)
typo_script="$tmp/event_typo.json"
echo '{"switch": 30, "master": 1, "backups": [2, 3], "events": [{"kind": "master_connection_lost"}, {"kind": "role_reply_reject_legacy", "controler": 2}]}' > "$typo_script"
# a misspelled event kind, and backups that repeat the master
kind_script="$tmp/kind_typo.json"
echo '{"switch": 30, "master": 1, "backups": [2, 3], "events": [{"kind": "master_conection_lost"}]}' > "$kind_script"
backups_script="$tmp/repeated_backups.json"
echo '{"switch": 30, "master": 1, "backups": [1, 1], "events": [{"kind": "master_connection_lost"}, {"kind": "role_reply_accept", "controller": 1}]}' > "$backups_script"
# a misspelled kind with a fractional controller: the kind is named
double_script="$tmp/kind_typo_fractional_controller.json"
double_err="$tmp/kind_typo_fractional_controller.err"
echo '{"switch": 30, "master": 1, "backups": [2, 3], "events": [{"kind": "adoptt", "controller": 1.5}]}' > "$double_script"
# a role reply that names no controller
reply_script="$tmp/reply_without_controller.json"
echo '{"switch": 30, "master": 1, "backups": [2, 3], "events": [{"kind": "master_connection_lost"}, {"kind": "role_reply_reject_legacy"}]}' > "$reply_script"
stray_instance="$tmp/stray_delay.json"
python3 -c 'import json, sys; d = json.load(open(sys.argv[1])); d["delay_ms"]["77,8"] = 1.0; print(json.dumps(d))' $data/toy_recovery.json > "$stray_instance"
# a flow id listed twice for one switch
dup_flow_instance="$tmp/duplicate_flow_id.json"
python3 -c 'import json, sys; d = json.load(open(sys.argv[1])); d["flows"]["20"] = [1, 3, 1, 3]; print(json.dumps(d))' $data/toy_recovery.json > "$dup_flow_instance"
# a label that is not a string
label_instance="$tmp/list_label.json"
python3 -c 'import json, sys; d = json.load(open(sys.argv[1])); d["label"] = [1]; print(json.dumps(d))' $data/toy_recovery.json > "$label_instance"
# switch 20 carries load 3, so its overhead at controller 1 is inf
overflow_instance="$tmp/overflowing_overhead.json"
python3 -c 'import json, sys; d = json.load(open(sys.argv[1])); d["delay_ms"]["20,1"] = 1e308; print(json.dumps(d))' $data/toy_recovery.json > "$overflow_instance"
# a delay_ms key written twice: json alone keeps the last value,
# the toy's own, and the instance used to validate as feasible
repeated_instance="$tmp/repeated_delay_key.json"
repeated_err="$tmp/repeated_delay_key.err"
python3 -c 'import sys; t = open(sys.argv[1]).read(); k = "\"20,1\": 4.0"; assert t.count(k) == 1; print(t.replace(k, "\"20,1\": 999.0, " + k))' $data/toy_recovery.json > "$repeated_instance"
toy_solution="$tmp/toy_solution.json"
python3 -c 'from retroflow import fixtures; from retroflow.solvers import solve_retroflow; print(solve_retroflow(fixtures.toy_recovery_instance()).to_json())' > "$toy_solution"
$RETROFLOW validate --instance $data/toy_recovery.json --solution "$toy_solution" > /dev/null
# a world-built instance (att25, C13+C22 at q=0.9) and the greedy's
# solution, read back through the checked constructor: both
# instance routes meet at the installed entry point
world_instance="$tmp/att25_c13_c22.json"
world_solution="$tmp/att25_c13_c22_solution.json"
python3 -c '
import sys
from retroflow import FailureScenario, build_instance, fixtures, make_world
from retroflow.solvers import solve_retroflow
topo = fixtures.att25_topology()
w = make_world(topo, fixtures.att_table2_placement(topo))
inst = build_instance(w.topology, w.beta, w.placement,
                      FailureScenario(frozenset({13, 22})), 0.9, world=w)
for path, doc in zip(sys.argv[1:], (inst.to_json(), solve_retroflow(inst).to_json())):
    with open(path, "w") as f:
        f.write(doc)
' "$world_instance" "$world_solution"
world_out="$tmp/att25_c13_c22.out"
$RETROFLOW validate --instance "$world_instance" --solution "$world_solution" > "$world_out"
test "$(tail -n 1 "$world_out")" = "feasible: True"
# a misspelled optional field, which used to be ignored
typo_solution="$tmp/solution_typo.json"
python3 -c 'import json, sys; d = json.load(open(sys.argv[1])); d["quota_mett"] = False; print(json.dumps(d))' "$toy_solution" > "$typo_solution"
# a controller listed twice, whose second capacity used to
# replace the first: exit 2 with one error line
twice_placement="$tmp/controller_twice.json"
twice_err="$tmp/controller_twice.err"
echo '{"controllers": [{"node": 2, "capacity": 10, "switches": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]}, {"node": 2, "capacity": 900, "switches": [12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24]}]}' > "$twice_placement"
# a world of Topology-Zoo size: the benchmark generator's 20x20
# grid of seed 1 with its k-center placement, 159,600 flows
grid_topology="$tmp/grid400_topology.json"
grid_placement="$tmp/grid400_placement.json"
grid_report="$tmp/grid400_report.csv"
python3 -c '
import json, random, sys
sys.path.insert(0, "perfbench")
import workloads
topo = workloads.grid_topology(20, random.Random(1))
place = workloads.kcenter_placement(topo, workloads.grid_topology(20),
                                    workloads.CONTROLLERS, workloads.SLACK)
for path, doc in zip(sys.argv[1:], (topo, place)):
    with open(path, "w") as f:
        json.dump(doc, f)
' "$grid_topology" "$grid_placement"
# a 2,100-node ring needs 1.16 GB of masks, above the world
# build's ceiling of 1 GiB: refused before any search
ring_topology="$tmp/ring2100_topology.json"
ring_placement="$tmp/ring2100_placement.json"
ring_err="$tmp/ring2100.err"
python3 -c '
import json, sys
n = 2100
topo = {"nodes": [{"id": v, "lat": 0.0, "lon": 0.0} for v in range(n)],
        "links": [{"a": v, "b": (v + 1) % n, "distance_km": 100.0} for v in range(n)]}
place = {"capacity": 10**9,
         "controllers": [{"node": 0, "switches": list(range(n // 2))},
                         {"node": n // 2, "switches": list(range(n // 2, n))}]}
for path, doc in zip(sys.argv[1:], (topo, place)):
    with open(path, "w") as f:
        json.dump(doc, f)
' "$ring_topology" "$ring_placement"
# a 220-node path of 1.7e308 km links, whose delays sum to inf
# past 211 hops: no one check of the world clears it, so each
# instance runs the loop over offline switches, which names the
# first fault of the first scenario, C0
far_topology="$tmp/far_path_topology.json"
far_placement="$tmp/far_path_placement.json"
far_err="$tmp/far_path.err"
python3 -c '
import json, sys
n = 220
topo = {"nodes": [{"id": v, "lat": 0.0, "lon": 0.0} for v in range(n)],
        "links": [{"a": v, "b": v + 1, "distance_km": 1.7e308} for v in range(n - 1)]}
place = {"capacity": 10**9,
         "controllers": [{"node": 0, "switches": [0]},
                         {"node": 10, "switches": list(range(1, 21))},
                         {"node": n - 1, "switches": list(range(21, n))}]}
for path, doc in zip(sys.argv[1:], (topo, place)):
    with open(path, "w") as f:
        json.dump(doc, f)
' "$far_topology" "$far_placement"
# a controller of negative capacity, and a failure list that
# names no controller
negative_placement="$tmp/negative_capacity.json"
negative_err="$tmp/negative_capacity.err"
python3 -c 'import json, sys; d = json.load(open(sys.argv[1])); d["controllers"][0]["capacity"] = -1; print(json.dumps(d))' $data/att_table2.json > "$negative_placement"
empty_err="$tmp/empty_failures.err"
stranded_report="$tmp/att25_failures5_retroflow.csv"
set +e
$RETROFLOW run --topology $data/att25.json --placement $data/att_table2.json --failures 13 > /dev/null
run_code=$?
# one controller survives each scenario, and the greedy strands
# the switches heavier than its residual: no quota is met
$RETROFLOW run --topology $data/att25.json --placement $data/att_table2.json --failures 5 --algorithms retroflow --out "$stranded_report" > /dev/null
stranded_code=$?
# a penalty that overflows the adjusted overheads, which were
# written as Infinity and NaN, not JSON
$RETROFLOW run --topology $data/att25.json --placement $data/att_table2.json --failures 1 --queue-penalty 1e308 --format json > /dev/null
penalty_code=$?
$RETROFLOW run --topology "$grid_topology" --placement "$grid_placement" --failures 1 --q-fraction 0.9 --algorithms retroflow,nearest --out "$grid_report" > /dev/null
grid_code=$?
$RETROFLOW run --topology "$ring_topology" --placement "$ring_placement" --failures 1 > /dev/null 2> "$ring_err"
ring_code=$?
$RETROFLOW run --topology $data/att25.json --placement "$twice_placement" --failures 1 > /dev/null 2> "$twice_err"
twice_code=$?
$RETROFLOW run --topology "$far_topology" --placement "$far_placement" --failures 1 --algorithms retroflow,nearest > /dev/null 2> "$far_err"
far_code=$?
$RETROFLOW protocol-trace --script "$script" > /dev/null
trace_code=$?
$RETROFLOW protocol-trace --script "$bool_script" > /dev/null
bool_code=$?
$RETROFLOW validate --instance "$deep" --solution "$deep" > /dev/null
deep_validate_code=$?
$RETROFLOW protocol-trace --script "$deep" > /dev/null
deep_trace_code=$?
$RETROFLOW protocol-trace --script "$typo_script" > /dev/null
typo_code=$?
$RETROFLOW protocol-trace --script "$kind_script" > /dev/null
kind_code=$?
$RETROFLOW protocol-trace --script "$double_script" > /dev/null 2> "$double_err"
double_code=$?
$RETROFLOW protocol-trace --script "$backups_script" > /dev/null
backups_code=$?
$RETROFLOW protocol-trace --script "$reply_script" > /dev/null
reply_code=$?
$RETROFLOW validate --instance "$stray_instance" --solution "$toy_solution" > /dev/null
stray_code=$?
$RETROFLOW validate --instance "$dup_flow_instance" --solution "$toy_solution" > /dev/null
dup_flow_code=$?
$RETROFLOW validate --instance "$label_instance" --solution "$toy_solution" > /dev/null
label_code=$?
$RETROFLOW validate --instance $data/toy_recovery.json --solution "$typo_solution" > /dev/null
typo_solution_code=$?
$RETROFLOW validate --instance "$overflow_instance" --solution "$toy_solution" > /dev/null
overflow_code=$?
$RETROFLOW validate --instance "$repeated_instance" --solution "$toy_solution" > /dev/null 2> "$repeated_err"
repeated_code=$?
$RETROFLOW run --topology $data/att25.json --placement "$negative_placement" --failures 1 > /dev/null 2> "$negative_err"
negative_code=$?
$RETROFLOW run --topology $data/att25.json --placement $data/att_table2.json --failures , > /dev/null 2> "$empty_err"
empty_code=$?
set -e
test "$run_code" -eq 2
test "$stranded_code" -eq 1
test "$(tail -n +2 "$stranded_report" | wc -l)" -eq 6
test "$(tail -n +2 "$stranded_report" | cut -d, -f6 | sort -u)" = quota_unmet
test "$penalty_code" -eq 2
# 0 when a solver found a feasible recovery, 1 when none did
test "$grid_code" -le 1
test -s "$grid_report"
test "$ring_code" -eq 2
test "$(wc -l < "$ring_err")" -eq 1
grep -q "^error: " "$ring_err"
test "$twice_code" -eq 2
test "$(cat "$twice_err")" = "error: duplicate controller id 2"
test "$far_code" -eq 2
test "$(cat "$far_err")" = "error: delay inf for switch 0, controller 219 must be finite and nonnegative"
test "$(wc -l < "$far_err")" -eq 1
test "$trace_code" -eq 2
test "$bool_code" -eq 2
test "$deep_validate_code" -eq 2
test "$deep_trace_code" -eq 2
test "$typo_code" -eq 2
test "$kind_code" -eq 2
test "$double_code" -eq 2
test "$(wc -l < "$double_err")" -eq 1
grep -q "^error: malformed script document: unknown event kind 'adoptt'" "$double_err"
test "$backups_code" -eq 2
test "$reply_code" -eq 2
test "$stray_code" -eq 2
test "$dup_flow_code" -eq 2
test "$label_code" -eq 2
test "$typo_solution_code" -eq 2
test "$overflow_code" -eq 2
test "$repeated_code" -eq 2
test "$(wc -l < "$repeated_err")" -eq 1
grep -q "^error: " "$repeated_err"
test "$negative_code" -eq 2
test "$(wc -l < "$negative_err")" -eq 1
grep -q "^error: " "$negative_err"
test "$empty_code" -eq 2
test "$(wc -l < "$empty_err")" -eq 1
grep -q "^error: " "$empty_err"
