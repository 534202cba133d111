"""Failure-scenario harness: run solvers, score them, emit reports.

Overhead is scored twice per algorithm: raw (propagation only) and
adjusted, where every pull served by an overloaded controller pays a
linear queueing penalty per excess flow. Metrics are also normalized to
the Nearest baseline, matching how the evaluation plots are read.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

from . import domains as dm
# generate_flows and compute_beta are the per-flow reference for
# programmability, the build make_world uses; perfbench/tracing.py wraps
# all three here by name
from .flows import BetaMatrix, compute_beta, generate_flows, programmability
from .geo import Topology
from .oscm import OscmInstance, Solution, build_instance, switch_loads
from .solvers import (BudgetExhausted, SolverBudget, solve_exact, solve_nearest,
                      solve_retroflow)

ALGORITHMS = ("exact", "retroflow", "nearest")
# the outcome statuses that carry a solution meeting the quota
FEASIBLE = ("ok", "not_proven")


class ReportError(ValueError):
    pass


@dataclass(frozen=True)
class QueueModel:
    penalty_ms_per_excess_flow: float = 0.1

    def __post_init__(self):
        if not 0 <= self.penalty_ms_per_excess_flow < math.inf:
            raise ValueError("queue penalty must be finite and nonnegative")


def queueing_penalty_ms(load: int, ability: int, m: QueueModel) -> float:
    """Extra per-pull latency at a controller handling `load` flows with
    processing ability `ability`; zero at or under ability."""
    if ability < 0:
        raise ValueError("ability must be nonnegative")
    if load <= ability:
        return 0.0
    return m.penalty_ms_per_excess_flow * (load - ability)


@dataclass(frozen=True)
class World:
    """Everything a scenario run needs besides the failure itself."""
    topology: Topology
    beta: BetaMatrix
    placement: dm.Placement

    def loads(self) -> dict[int, int]:
        return switch_loads(self.placement, self.beta)


def make_world(topology: Topology, placement: dm.Placement) -> World:
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
        when Nearest is absent, zero, or the metric is null."""
        try:
            base = getattr(self.outcome("nearest"), metric)
        except KeyError:
            return None
        value = getattr(self.outcome(algorithm), metric)
        if base is None or value is None or base == 0:
            return None
        return value / base


def run_scenario(world: World, s: dm.FailureScenario, q_fraction: float,
                 algorithms=ALGORITHMS, qm: QueueModel | None = None,
                 budget: SolverBudget | None = None) -> ScenarioReport:
    """Build the instance once, run each requested solver, and score it.

    An exact search that exhausts its budget before it finds any solution
    gives a budget_exhausted row with null metrics, as an infeasible one
    does, instead of ending the sweep."""
    if not algorithms:
        raise ReportError("at least one algorithm required")
    qm = qm or QueueModel()
    inst = build_instance(world.topology, world.beta, world.placement, s, q_fraction)
    ability = {j: world.placement.capacity[j] for j in inst.active_controllers}

    # one greedy run serves its own row and the exact search's incumbent
    greedy = solve_retroflow(inst) if "retroflow" in algorithms else None
    outcomes = []
    for name in algorithms:
        if name == "exact":
            try:
                result = solve_exact(inst, budget, _greedy=greedy)
            except BudgetExhausted:
                sol, status = None, "budget_exhausted"
            else:
                sol = result.solution
                status = "ok" if result.status == "optimal" else result.status
        elif name in ("retroflow", "nearest"):
            sol = greedy if name == "retroflow" else solve_nearest(inst)
            status = "ok" if sol.quota_met else "quota_unmet"
        else:
            raise ReportError(f"unknown algorithm {name!r}")
        outcomes.append(_score(inst, name, status, sol, ability, qm))

    return ScenarioReport(
        scenario=s,
        q_fraction=q_fraction,
        n_flows=inst.n_flows,
        quota=inst.q_required,
        outcomes=tuple(outcomes),
    )


def _score(inst: OscmInstance, name: str, status: str, sol: Solution | None,
           ability: dict[int, int], qm: QueueModel) -> AlgorithmOutcome:
    """Score a solver's output. A controller starts from its own-domain
    load, which is its capacity minus its residual ability."""
    if sol is None:
        return AlgorithmOutcome(name, status)
    load = {j: ability[j] - inst.a_rest[j] for j in inst.active_controllers}
    for i, j in sol.assigned.items():
        load[j] += inst.g[i]
    overloaded = tuple(j for j in inst.active_controllers if load[j] > ability[j])

    adjusted = 0.0
    for i, j in sol.assigned.items():
        penalty = queueing_penalty_ms(load[j], ability[j], qm)
        adjusted += inst.g[i] * (inst.delay[(i, j)] + penalty)

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
        for row in rows:
            writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
        return buf.getvalue()
    if format == "json":
        doc = {"records": rows, "summary": sweep_summary(reports)}
        return json.dumps(doc, indent=2, sort_keys=True)
    raise ReportError(f"unknown report format {format!r}")


def sweep_summary(reports) -> dict:
    """Aggregates read against the baseline across a sweep, including the
    best overhead reduction each algorithm achieved versus Nearest."""
    summary: dict = {"scenarios": len(reports)}
    for name in ("exact", "retroflow"):
        reductions = []
        feasible = 0
        for rep in reports:
            try:
                o = rep.outcome(name)
                base = rep.outcome("nearest")
            except KeyError:
                continue
            if o.status in FEASIBLE:
                feasible += 1
            if (o.adjusted_overhead is not None and base.adjusted_overhead
                    and base.adjusted_overhead > 0):
                reductions.append(1.0 - o.adjusted_overhead / base.adjusted_overhead)
        summary[f"{name}_feasible_scenarios"] = feasible
        summary[f"{name}_max_overhead_reduction_vs_nearest"] = (
            max(reductions) if reductions else None
        )
    return summary
