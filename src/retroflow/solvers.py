"""Three interchangeable solvers plus the assignment-problem reduction.

solve_exact proves optimality by branch and bound, solve_retroflow is the
importance-ordered greedy, solve_nearest is the capacity-blind baseline.
reduce_to_gap/gap_bruteforce turn the one-flow-per-switch special case into
a generalized assignment problem, used as an independent test oracle.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .oscm import OscmInstance, Solution, objective


class BudgetExhausted(RuntimeError):
    """Search aborted before finding any feasible solution."""


class GapSizeError(ValueError):
    """Brute-force search space above the desk-scale bound."""


@dataclass(frozen=True)
class SolverBudget:
    max_nodes_explored: int = 5_000_000
    time_limit_ms: float = 120_000.0

    def __post_init__(self):
        if self.max_nodes_explored <= 0 or self.time_limit_ms <= 0:
            raise ValueError("budget limits must be positive")


@dataclass(frozen=True)
class ExactResult:
    solution: Solution | None
    status: str  # optimal | not_proven | infeasible
    nodes_explored: int


@dataclass(frozen=True)
class GapInstance:
    """min sum c[i][j]*x[i][j] s.t. each task on exactly one agent and
    agent loads within capacity. usage[i][j] is task i's load on agent j."""
    costs: tuple[tuple[float, ...], ...]
    usage: tuple[tuple[float, ...], ...]
    capacities: tuple[float, ...]

    def __post_init__(self):
        m = len(self.capacities)
        if len(self.costs) != len(self.usage):
            raise ValueError("inconsistent dimensions")
        for row in self.costs + self.usage:
            if len(row) != m:
                raise ValueError("inconsistent dimensions")
            if any(v < 0 for v in row):
                raise ValueError("negative entries")
        if any(b < 0 for b in self.capacities):
            raise ValueError("negative capacity")

    @property
    def n_tasks(self) -> int:
        return len(self.costs)

    @property
    def n_agents(self) -> int:
        return len(self.capacities)


def _with_objective(inst: OscmInstance, sol: Solution) -> Solution:
    # recompute in canonical switch order so equal solutions serialize
    # bit-identically no matter which search path produced them
    return Solution(
        x=dict(sorted(sol.x.items())),
        assigned=dict(sorted(sol.assigned.items())),
        y=sol.y,
        objective=objective(inst, sol),
        quota_met=sol.quota_met,
    )


def solve_retroflow(inst: OscmInstance, trace: list[str] | None = None) -> Solution:
    """Greedy recovery: repeatedly take the switch contributing the most
    not-yet-programmable flows, map it to the cheapest controller that still
    has room, and stop once the quota is met or no switch is left.

    Ties break to the smallest switch id and, on equal overhead, the
    smallest controller id. Always returns a solution; quota_met records
    whether the flow quota was actually reached. trace, when given,
    collects one line per decision for replay against hand executions.
    """
    log = trace.append if trace is not None else lambda line: None
    remaining = list(inst.offline_switches)
    rest = dict(inst.a_rest)
    covered: set[int] = set()
    assigned: dict[int, int] = {}

    while remaining and len(covered) < inst.q_required:
        delta, pick = 0, None
        for i in remaining:
            uncovered = len(inst.beta[i] - covered)
            if uncovered > delta:
                delta, pick = uncovered, i
        if pick is None:
            # nothing left can add a new flow; the quota is unreachable
            log(f"stop reason=stalled covered={len(covered)} required={inst.q_required}")
            break
        log(f"pick switch={pick} delta={delta}")

        for j in sorted(inst.active_controllers, key=lambda c: (inst.w(pick, c), c)):
            fit = rest[j] >= inst.g[pick]
            log(f"test switch={pick} controller={j} w={inst.w(pick, j)} "
                f"rest={rest[j]} fit={'yes' if fit else 'no'}")
            if fit:
                assigned[pick] = j
                rest[j] -= inst.g[pick]
                gained = sorted(inst.beta[pick] - covered)
                covered |= inst.beta[pick]
                log(f"assign switch={pick} controller={j} rest={rest[j]} "
                    f"gained={gained} covered={len(covered)}")
                break
        remaining.remove(pick)
    else:
        reason = "quota" if len(covered) >= inst.q_required else "exhausted"
        log(f"stop reason={reason} covered={len(covered)} required={inst.q_required}")

    sol = Solution(
        x={i: (1 if i in assigned else 0) for i in inst.offline_switches},
        assigned=assigned,
        y=frozenset(covered),
        objective=0.0,
        quota_met=len(covered) >= inst.q_required,
    )
    return _with_objective(inst, sol)


def solve_nearest(inst: OscmInstance) -> Solution:
    """Map every offline switch to its nearest active controller, ignoring
    capacity. Smallest controller id wins delay ties."""
    assigned = {
        i: min(inst.active_controllers, key=lambda j: (inst.delay[(i, j)], j))
        for i in inst.offline_switches
    }
    covered = frozenset().union(*(inst.beta[i] for i in inst.offline_switches)) \
        if inst.offline_switches else frozenset()
    sol = Solution(
        x={i: 1 for i in inst.offline_switches},
        assigned=assigned,
        y=covered,
        objective=0.0,
        quota_met=len(covered) >= inst.q_required,
    )
    return _with_objective(inst, sol)


def solve_exact(inst: OscmInstance, budget: SolverBudget | None = None) -> ExactResult:
    """Branch and bound over per-switch decisions (legacy or one of the
    active controllers).

    Switches branch in descending-load order. One pass per node prices
    each undecided switch once and bounds the node two ways: the most flows
    the remaining total capacity could still recover (coverage upper
    bound), then the still-needed flow count priced fractionally at each
    switch's cheapest capacity-feasible mapping (cost lower bound, no
    capacity coupling). Returns a proven optimum when the search completes,
    the incumbent flagged not_proven on budget exhaustion, or an infeasible
    verdict when no configuration meets the quota within the residual
    abilities.
    """
    return _ExactSearch(inst, budget or SolverBudget()).run()


class _ExactSearch:
    def __init__(self, inst: OscmInstance, budget: SolverBudget):
        self.inst = inst
        self.budget = budget
        self.order = sorted(inst.offline_switches, key=lambda i: (-inst.g[i], i))
        self.options = {
            i: sorted(inst.active_controllers, key=lambda j: (inst.w(i, j), j))
            for i in self.order
        }
        self.q = inst.q_required
        self.nodes = 0
        self.deadline = time.monotonic() + budget.time_limit_ms / 1000.0
        self.aborted = False
        self.best_cost = float("inf")
        self.best: Solution | None = None

    def run(self) -> ExactResult:
        greedy = solve_retroflow(self.inst)
        if greedy.quota_met:
            self.best = greedy
            self.best_cost = greedy.objective

        self._descend(0, 0.0, set(), {}, dict(self.inst.a_rest))

        if self.aborted:
            if self.best is None:
                raise BudgetExhausted("inconclusive: budget exhausted with no incumbent")
            return ExactResult(_with_objective(self.inst, self.best), "not_proven", self.nodes)
        if self.best is None:
            return ExactResult(None, "infeasible", self.nodes)
        return ExactResult(_with_objective(self.inst, self.best), "optimal", self.nodes)

    def _record(self, cost: float, assigned: dict, covered: set):
        if cost < self.best_cost:
            self.best_cost = cost
            self.best = Solution(
                x={i: (1 if i in assigned else 0) for i in self.inst.offline_switches},
                assigned=dict(assigned),
                y=frozenset(covered),
                objective=cost,
                quota_met=True,
            )

    def _descend(self, idx: int, cost: float, covered: set, assigned: dict, rest: dict):
        if self.aborted:
            return
        self.nodes += 1
        if self.nodes > self.budget.max_nodes_explored or (
            self.nodes % 1024 == 0 and time.monotonic() > self.deadline
        ):
            self.aborted = True
            return

        needed = self.q - len(covered)
        if needed <= 0:
            # quota met: every further assignment only adds cost
            self._record(cost, assigned, covered)
            return
        if idx == len(self.order):
            return

        bound = self._bound(idx, covered, rest, needed)
        if bound is None or cost + bound >= self.best_cost:
            return

        i = self.order[idx]
        g_i = self.inst.g[i]
        added = self.inst.beta[i] - covered
        for j in self.options[i]:
            if rest[j] >= g_i:
                assigned[i] = j
                rest[j] -= g_i
                covered |= added
                self._descend(idx + 1, cost + self.inst.w(i, j), covered, assigned, rest)
                covered -= added
                rest[j] += g_i
                del assigned[i]
                if self.aborted:
                    return
        self._descend(idx + 1, cost, covered, assigned, rest)

    def _bound(self, idx, covered, rest, needed):
        """Cost lower bound of any completion that gains `needed` more
        flows, or None when no completion can gain them.

        One pass over the undecided switches keeps those that add flows and
        fit some surviving controller, with their uncovered-flow count and
        cheapest fitting mapping. Coverage ceiling: fractional knapsack of
        those counts on the total remaining capacity, rounded upward. Cost
        floor: the needed flows bought fractionally at each switch's
        cheapest price per flow, ignoring capacity coupling.
        """
        usable = []
        for i in self.order[idx:]:
            potential = len(self.inst.beta[i] - covered)
            if potential == 0:
                continue
            g_i = self.inst.g[i]
            for j in self.options[i]:
                if rest[j] >= g_i:
                    cheapest = self.inst.w(i, j)
                    usable.append((cheapest / potential, cheapest, potential, g_i))
                    break

        # zero-load switches are free; count them in full
        ceiling = sum(p for _, _, p, g in usable if g == 0)
        capacity = sum(rest.values())
        for _, p, g in sorted((g * 1.0 / p, p, g) for _, _, p, g in usable if g > 0):
            if capacity <= 0:
                break
            if g <= capacity:
                ceiling += p
                capacity -= g
            else:
                ceiling += (p * capacity + g - 1) // g
                capacity = 0
        # the ceiling is at most the usable switches' summed counts, so no
        # separate reachability test is needed
        if ceiling < needed:
            return None

        usable.sort()
        bound = 0.0
        left = needed
        for _, cheap, pot, _ in usable:
            if pot >= left:
                bound += cheap * (left / pot)
                break
            bound += cheap
            left -= pot
        # keep the bound strictly on the safe side of float rounding
        return bound * (1.0 - 1e-12)


def reduce_to_gap(inst: OscmInstance) -> GapInstance | None:
    """Map the one-unique-flow-per-switch special case onto the generalized
    assignment problem: switches become tasks, controllers agents, loads
    the (agent-independent) usage, residual abilities the capacities.
    Returns None when the instance is not of the special shape."""
    if inst.q_required != inst.n_flows:
        return None
    seen: set[int] = set()
    for i in inst.offline_switches:
        flows = inst.beta[i]
        if len(flows) != 1:
            return None
        (l,) = flows
        if l in seen:
            return None
        seen.add(l)
    m = inst.active_controllers
    return GapInstance(
        costs=tuple(tuple(inst.w(i, j) for j in m) for i in inst.offline_switches),
        usage=tuple(tuple(float(inst.g[i]) for j in m) for i in inst.offline_switches),
        capacities=tuple(float(inst.a_rest[j]) for j in m),
    )


def gap_bruteforce(g: GapInstance, max_space: int = 10_000_000) -> float | None:
    """Exact optimum of the assignment problem by full enumeration over
    agent choices; None when no assignment fits the capacities."""
    n, m = g.n_tasks, g.n_agents
    if n == 0:
        return 0.0
    if m == 0:
        return None
    if m ** n > max_space:
        raise GapSizeError(f"{m}^{n} assignments exceed the enumeration bound")
    best = None
    for choice in itertools.product(range(m), repeat=n):
        load = [0.0] * m
        cost = 0.0
        ok = True
        for task, agent in enumerate(choice):
            load[agent] += g.usage[task][agent]
            if load[agent] > g.capacities[agent]:
                ok = False
                break
            cost += g.costs[task][agent]
        if ok and (best is None or cost < best):
            best = cost
    return best
