"""Command-line front end: scenario runs, validation, enumeration, replay.

Exit codes: 0 success, 1 no requested solver produced a feasible result
(or a validated solution is infeasible), 2 malformed inputs or arguments.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path as FsPath

from . import domains as dm
from . import protocol
from ._doc import distinct, key, parse, record, whole
from .experiment import (FEASIBLE, check_algorithms, emit_report, load_diagnostics,
                         make_world, run_scenario, sweep_summary)
from .geo import load_topology_file
from .oscm import OscmInstance, Solution, validate
from .solvers import SolverBudget


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retroflow",
        description="Switch-to-controller recovery under SDN controller failures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run failure scenarios and report metrics")
    run.add_argument("--topology", required=True, help="topology document (JSON)")
    run.add_argument("--placement", required=True, help="placement document (JSON)")
    run.add_argument("--failures", required=True,
                     help="failure count K, or controller ids with a comma: 'a,b' or 'a,'")
    run.add_argument("--q-fraction", type=float, default=1.0,
                     help="required fraction of recoverable flows (default 1.0)")
    run.add_argument("--algorithms", default="exact,retroflow,nearest",
                     help="comma-separated subset of exact,retroflow,nearest")
    run.add_argument("--queue-penalty", type=float, default=0.1,
                     help="queueing penalty in ms per excess flow (default 0.1)")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--out", help="write the report here instead of stdout")
    run.add_argument("--time-limit", type=float, default=120.0,
                     help="exact-solver time limit in seconds per scenario")

    val = sub.add_parser("validate", help="check a solution file against an instance file")
    val.add_argument("--instance", required=True)
    val.add_argument("--solution", required=True)

    enum = sub.add_parser("enumerate", help="print failure scenarios")
    enum.add_argument("--topology", required=True)
    enum.add_argument("--placement", required=True)
    enum.add_argument("--failures", required=True, type=int)

    trace = sub.add_parser("protocol-trace", help="replay a routing-mode event script")
    trace.add_argument("--script", required=True)

    return parser


def _parse_scenarios(spec: str, placement: dm.Placement) -> list[dm.FailureScenario]:
    """Ids, and the count, are read as documents read id keys: "013" is refused."""
    if "," in spec:
        ids = distinct([key(tok.strip(), "failed controller", ValueError)
                        for tok in spec.split(",") if tok.strip()],
                       "failed controller", ValueError)
        scenario = dm.FailureScenario(frozenset(ids))
        dm.validate_scenario(placement, scenario)
        return [scenario]
    k = key(spec.strip(), "failure count", ValueError)
    return dm.enumerate_failure_scenarios(placement, k)


def _cmd_run(args) -> int:
    topo = load_topology_file(args.topology)
    placement = dm.load_placement_file(args.placement, topo)
    scenarios = _parse_scenarios(args.failures, placement)
    algorithms = check_algorithms([a.strip() for a in args.algorithms.split(",") if a.strip()])
    budget = SolverBudget(time_limit_ms=args.time_limit * 1000.0)

    world = make_world(topo, placement)
    reports = [
        run_scenario(world, s, args.q_fraction, algorithms=algorithms,
                     queue_penalty_ms=args.queue_penalty, budget=budget)
        for s in scenarios
    ]
    document = emit_report(reports, format=args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(document)
        out = sys.stdout
    else:
        sys.stdout.write(document)
        out = sys.stderr
    summary = dict(topo.summary())
    diag = load_diagnostics(world)
    summary["computed_flow_total"] = diag["computed_total"]
    summary["fixture_flow_total"] = diag["fixture_total"]
    summary.update(sweep_summary(reports))
    for name, value in sorted(summary.items()):
        print(f"{name}: {value}", file=out)

    any_feasible = any(o.status in FEASIBLE for rep in reports for o in rep.outcomes)
    return 0 if any_feasible else 1


def _cmd_validate(args) -> int:
    inst = OscmInstance.from_file(args.instance)
    sol = Solution.from_file(args.solution)
    report = validate(inst, sol)
    for line in report.lines():
        print(line)
    print(f"feasible: {report.feasible}")
    return 0 if report.feasible else 1


def _cmd_enumerate(args) -> int:
    topo = load_topology_file(args.topology)
    placement = dm.load_placement_file(args.placement, topo)
    for s in dm.enumerate_failure_scenarios(placement, args.failures):
        print(s.label())
    return 0


def _cmd_protocol_trace(args) -> int:
    """Replay a script. Its fields are checked here, each event's kind and
    controller by protocol.Event, and each event's fit with the switch's
    state by protocol.step, whose rejections run_script logs and skips."""
    error = protocol.ProtocolError
    doc = parse(FsPath(args.script).read_text(), error)
    fields = ("switch", "master", "backups", "events")
    try:
        record(doc, set(fields), "script", error, required=fields)
        session = protocol.SwitchSession(
            switch_id=whole(doc["switch"], "switch", error),
            mode=protocol.SDN,
            master=whole(doc["master"], "master", error),
            backups=tuple(whole(b, "backup", error) for b in doc["backups"]),
        )
        # only here: after role_reply_accept the new master is a backup
        if session.master in session.backups:
            raise error(f"master {session.master} is also a backup")
        events = []
        for rec in doc["events"]:
            record(rec, {"kind", "controller"}, "event", error, required=("kind",))
            # Event checks the kind before the controller, so a bad kind
            # is named before a fractional controller
            events.append(protocol.Event(rec["kind"], rec.get("controller")))
    # record() has checked every mapping and required field; a list field
    # that is not iterable raises TypeError
    except (TypeError, protocol.ProtocolError) as err:
        raise protocol.ProtocolError(f"malformed script document: {err}") from err
    session, log = protocol.run_script(session, events)
    for line in log:
        print(line)
    print(f"final: mode={session.mode} phase={session.phase} master={session.master}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "validate": _cmd_validate,
        "enumerate": _cmd_enumerate,
        "protocol-trace": _cmd_protocol_trace,
    }
    try:
        return handlers[args.command](args)
    # json raises RecursionError on a document nested past the interpreter's limit
    except (OSError, ValueError, KeyError, RecursionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
