#!/usr/bin/env bash
# Runs the retroflow console command once per subcommand and exit code,
# and checks that it hands back cli.main's exit code, stdout bytes and
# stderr line. The tests call cli.main() in-process for every case.
#
#   tests/console_checks.sh                                    # installed script
#   RETROFLOW="python3 -m retroflow.cli" PYTHONPATH=src tests/console_checks.sh
#
# RETROFLOW is the command, split into words (default `retroflow`). The
# documents go to RUNNER_TEMP when it is set, else to a new temporary
# directory, removed on exit. Paths are relative to the repository root,
# which the script changes to first.
set -euo pipefail
cd "$(dirname "$0")/.."
RETROFLOW=${RETROFLOW:-retroflow}
if [ -n "${RUNNER_TEMP:-}" ]; then
  tmp=$RUNNER_TEMP
else
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
fi
data=src/retroflow/data
att="--topology $data/att25.json --placement $data/att_table2.json"
# exit 0: the report on stdout, the scenarios, the replay, a feasible solution
$RETROFLOW run --topology tests/data/tied9_topology.json --placement tests/data/tied9_placement.json --failures 1 2> /dev/null | cmp - tests/data/tied9_failures1.csv
$RETROFLOW enumerate $att --failures 2 > "$tmp/enumerate.out"
test "$(wc -l < "$tmp/enumerate.out")" -eq 15
$RETROFLOW protocol-trace --script $data/master_loss_events.json > /dev/null
python3 -c 'from retroflow import fixtures; from retroflow.solvers import solve_retroflow; print(solve_retroflow(fixtures.toy_recovery_instance()).to_json())' > "$tmp/toy_solution.json"
$RETROFLOW validate --instance $data/toy_recovery.json --solution "$tmp/toy_solution.json" > "$tmp/validate.out"
test "$(tail -n 1 "$tmp/validate.out")" = "feasible: True"
# exit 1: no scenario meets its quota, and the report is still written
code=0
$RETROFLOW run $att --failures 5 --algorithms retroflow --out "$tmp/stranded.csv" > /dev/null || code=$?
test "$code" -eq 1
test "$(tail -n +2 "$tmp/stranded.csv" | cut -d, -f6 | sort -u)" = quota_unmet
# exit 2: nothing on stdout, one line on stderr
echo '{"controllers": [{"node": 2, "capacity": 10, "switches": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]}, {"node": 2, "capacity": 900, "switches": [12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24]}]}' > "$tmp/controller_twice.json"
code=0
$RETROFLOW run --topology $data/att25.json --placement "$tmp/controller_twice.json" --failures 1 > "$tmp/twice.out" 2> "$tmp/twice.err" || code=$?
test "$code" -eq 2
test ! -s "$tmp/twice.out"
test "$(cat "$tmp/twice.err")" = "error: duplicate controller id 2"
test "$(wc -l < "$tmp/twice.err")" -eq 1
