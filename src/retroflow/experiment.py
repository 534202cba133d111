"""Failure-scenario harness: run solvers, score them, emit reports.

Overhead is scored twice per algorithm: raw (propagation only) and
adjusted, where every pull served by an overloaded controller pays a
linear queueing penalty per excess flow. Metrics are also normalized to
the Nearest baseline, matching how the evaluation plots are read.

make_world builds one oscm.World per run, and every scenario's instance
is assembled from it: the per-switch delays, controller orders and
domain facts are read once per world, not once per scenario.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

from . import domains as dm
from ._doc import distinct
# generate_flows and compute_beta are the per-flow reference for
# programmability, the build make_world uses; perfbench/tracing.py wraps
# both here by name, and make_world, but not programmability
from .flows import compute_beta, generate_flows, programmability
from .geo import Topology
from .oscm import OscmInstance, Solution, World, build_instance
from .solvers import SolverBudget, solve_exact, solve_nearest, solve_retroflow

ALGORITHMS = ("exact", "retroflow", "nearest")
# the outcome statuses that carry a solution meeting the quota
FEASIBLE = ("ok", "not_proven")


class ReportError(ValueError):
    pass


def _check_penalty(penalty_ms: float):
    """Reject a negative, nan or infinite penalty, which would bill such overheads."""
    if not 0 <= penalty_ms < math.inf:
        raise ValueError("queue penalty must be finite and nonnegative")


def check_algorithms(algorithms) -> tuple[str, ...]:
    """The requested solver names as a tuple. ReportError names the first
    repeated name, else the first unknown one, and refuses an empty list."""
    names = tuple(distinct(algorithms, "algorithm", ReportError))
    if not names:
        raise ReportError("at least one algorithm required")
    for name in names:
        if name not in ALGORITHMS:
            raise ReportError(f"unknown algorithm {name!r}")
    return names


def queueing_penalty_ms(load: int, ability: int, penalty_ms: float) -> float:
    """Extra per-pull latency at a controller handling `load` flows with
    processing ability `ability`: penalty_ms per flow over ability, zero
    at or under it; penalty_ms is checked by _check_penalty."""
    if ability < 0:
        raise ValueError("ability must be nonnegative")
    _check_penalty(penalty_ms)
    if load <= ability:
        return 0.0
    return penalty_ms * (load - ability)


def make_world(topology: Topology, placement: dm.Placement) -> World:
    """The programmability matrix, then the World over it, which checks
    that placement covers topology."""
    return World(topology, programmability(topology), placement)


def load_diagnostics(world: World) -> dict:
    """Computed per-switch loads next to any fixture-supplied counts.
    Path tie-breaking differs between implementations, so the deltas are
    reported rather than asserted anywhere."""
    computed = world.beta.loads()
    fixture = world.placement.flow_counts
    per_switch = {
        i: {
            "computed": computed[i],
            "fixture": None if fixture is None else fixture.get(i),
        }
        for i in sorted(computed)
    }
    return {
        "per_switch": per_switch,
        "computed_total": sum(computed.values()),
        "fixture_total": None if fixture is None else sum(fixture.values()),
    }


@dataclass(frozen=True)
class AlgorithmOutcome:
    """One solver's result on a scenario; the metrics are null without a solution."""
    algorithm: str
    status: str  # ok | quota_unmet | infeasible | not_proven | budget_exhausted
    solution: Solution | None = None
    programmable_flow_fraction: float | None = None
    recovered_switch_count: int | None = None
    raw_overhead: float | None = None
    adjusted_overhead: float | None = None
    controller_load: dict[int, int] = field(default_factory=dict)
    controller_ability: dict[int, int] = field(default_factory=dict)
    overloaded: tuple[int, ...] = ()


@dataclass(frozen=True)
class ScenarioReport:
    scenario: dm.FailureScenario
    q_fraction: float
    n_flows: int
    quota: int
    outcomes: tuple[AlgorithmOutcome, ...]

    def outcome(self, algorithm: str) -> AlgorithmOutcome:
        for o in self.outcomes:
            if o.algorithm == algorithm:
                return o
        raise KeyError(algorithm)

    def normalized(self, algorithm: str, metric: str) -> float | None:
        """Metric divided by Nearest's value for the same scenario; None
        when Nearest is absent, zero, or the metric is null, and when the
        ratio overflows (a subnormal base), which JSON could not write."""
        try:
            base = getattr(self.outcome("nearest"), metric)
        except KeyError:
            return None
        value = getattr(self.outcome(algorithm), metric)
        if base is None or value is None or base == 0:
            return None
        ratio = value / base
        return ratio if math.isfinite(ratio) else None


def run_scenario(world: World, s: dm.FailureScenario, q_fraction: float,
                 algorithms=ALGORITHMS, queue_penalty_ms: float = 0.1,
                 budget: SolverBudget | None = None) -> ScenarioReport:
    """Build the instance once, from the world, run each requested
    solver, and score it; queue_penalty_ms is the queueing penalty per
    excess flow of the adjusted overhead (see queueing_penalty_ms).

    An exact row takes the search's status, with `optimal` written as
    `ok`; a budget_exhausted or infeasible search has no solution, so
    its row has null metrics."""
    algorithms = check_algorithms(algorithms)
    # also checked here: a scenario whose solutions map no switch never
    # calls queueing_penalty_ms
    _check_penalty(queue_penalty_ms)
    inst = build_instance(world.topology, world.beta, world.placement, s, q_fraction,
                          world=world)
    ability = {j: world.placement.capacity[j] for j in inst.active_controllers}

    # one greedy run serves its own row and the exact search's incumbent
    greedy = solve_retroflow(inst) if "retroflow" in algorithms else None
    outcomes = []
    for name in algorithms:
        if name == "exact":
            result = solve_exact(inst, budget, _greedy=greedy)
            sol = result.solution
            status = "ok" if result.status == "optimal" else result.status
        else:
            sol = greedy if name == "retroflow" else solve_nearest(inst)
            status = "ok" if sol.quota_met else "quota_unmet"
        outcomes.append(_score(inst, name, status, sol, ability, queue_penalty_ms))

    return ScenarioReport(
        scenario=s,
        q_fraction=q_fraction,
        n_flows=inst.n_flows,
        quota=inst.q_required,
        outcomes=tuple(outcomes),
    )


def _score(inst: OscmInstance, name: str, status: str, sol: Solution | None,
           ability: dict[int, int], queue_penalty_ms: float) -> AlgorithmOutcome:
    """Score a solver's output. A controller starts from its own-domain
    load, which is its capacity minus its residual ability. Its queueing
    penalty depends on its final load alone, so it is priced once per
    overloaded controller, by queueing_penalty_ms; every other
    controller that carries a switch is billed 0.0, as that function
    bills a load within the ability. The adjusted overhead then sums
    each assigned switch's term in `assigned` order. A penalty large
    enough to overflow that sum raises ReportError."""
    if sol is None:
        return AlgorithmOutcome(name, status)
    g, rows = inst.g, inst.delay_rows
    load = {j: ability[j] - inst.a_rest[j] for j in inst.active_controllers}
    for i, j in sol.assigned.items():
        load[j] += g[i]
    overloaded = tuple(j for j in inst.active_controllers if load[j] > ability[j])

    penalty = dict.fromkeys(sol.assigned.values(), 0.0)
    for j in overloaded:
        penalty[j] = queueing_penalty_ms(load[j], ability[j], queue_penalty_ms)
    adjusted = 0.0
    for i, j in sol.assigned.items():
        adjusted += g[i] * (rows[i][j] + penalty[j])
    if not math.isfinite(adjusted):
        raise ReportError(f"scenario {inst.label}: {name}'s adjusted overhead is {adjusted} "
                          f"at queue penalty {queue_penalty_ms} ms per excess flow")

    fraction = sol.n_programmable / inst.n_flows if inst.n_flows else 1.0
    return AlgorithmOutcome(
        algorithm=name,
        status=status,
        solution=sol,
        programmable_flow_fraction=fraction,
        recovered_switch_count=sol.recovered_switches(),
        raw_overhead=sol.objective,
        adjusted_overhead=adjusted,
        controller_load=load,
        controller_ability=dict(ability),
        overloaded=overloaded,
    )


_NORMALIZED_METRICS = (
    "programmable_flow_fraction",
    "recovered_switch_count",
    "raw_overhead",
    "adjusted_overhead",
)


def _rows(reports) -> list[dict]:
    """One record per (scenario, algorithm), its keys in report column
    order: the CSV header is read from the first record."""
    rows = []
    for rep in reports:
        for o in rep.outcomes:
            row = {
                "scenario": rep.scenario.label(),
                "q_fraction": rep.q_fraction,
                "n_flows": rep.n_flows,
                "quota": rep.quota,
                "algorithm": o.algorithm,
                "status": o.status,
            }
            for metric in _NORMALIZED_METRICS:
                row[metric] = getattr(o, metric)
            for metric in _NORMALIZED_METRICS:
                row[f"norm_{metric}"] = rep.normalized(o.algorithm, metric)
            row["overloaded_controllers"] = ";".join(str(j) for j in o.overloaded)
            row["controller_load"] = ";".join(
                f"{j}:{o.controller_load[j]}/{o.controller_ability[j]}"
                for j in sorted(o.controller_load)
            )
            rows.append(row)
    return rows


def emit_report(reports, format: str = "csv") -> str:
    """Render scenario reports as a CSV table or a JSON document, one
    record per (scenario, algorithm), deterministic column order."""
    reports = list(reports)
    if not reports:
        raise ReportError("no scenario reports to emit")
    rows = _rows(reports)
    if format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    if format == "json":
        doc = {"records": rows, "summary": sweep_summary(reports)}
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    raise ReportError(f"unknown report format {format!r}")


def sweep_summary(reports) -> dict:
    """Aggregates across a sweep: per algorithm, the scenarios it solved
    within the quota, and the best overhead reduction it achieved versus
    Nearest, read from ScenarioReport.normalized (None without Nearest)."""
    summary: dict = {"scenarios": len(reports)}
    for name in ("exact", "retroflow"):
        reductions = []
        feasible = 0
        for rep in reports:
            try:
                feasible += rep.outcome(name).status in FEASIBLE
            except KeyError:
                continue
            ratio = rep.normalized(name, "adjusted_overhead")
            if ratio is not None:
                reductions.append(1.0 - ratio)
        summary[f"{name}_feasible_scenarios"] = feasible
        summary[f"{name}_max_overhead_reduction_vs_nearest"] = (
            max(reductions) if reductions else None
        )
    return summary
