"""Three interchangeable solvers plus the assignment-problem reduction.

solve_exact proves optimality by branch and bound, solve_retroflow is the
importance-ordered greedy, solve_nearest is the capacity-blind baseline.
reduce_to_gap/gap_bruteforce turn the one-flow-per-switch special case into
a generalized assignment problem, used as an independent test oracle.

No solver sorts controllers: each reads the instance's per-switch orders,
nearest first (OscmInstance.nearest) or cheapest first
(OscmInstance.cheapest), and skips the controllers without a residual,
which a world's shared orders still list.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass

from .oscm import OscmInstance, Solution


class GapSizeError(ValueError):
    """Brute-force search space above the desk-scale bound."""


@dataclass(frozen=True)
class SolverBudget:
    max_nodes_explored: int = 5_000_000
    time_limit_ms: float = 120_000.0

    def __post_init__(self):
        if not (0 < self.max_nodes_explored < math.inf and 0 < self.time_limit_ms < math.inf):
            raise ValueError("budget limits must be finite and positive")


@dataclass(frozen=True)
class ExactResult:
    solution: Solution | None
    status: str  # optimal | not_proven | infeasible | budget_exhausted
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


def _solution(inst: OscmInstance, assigned: dict[int, int], mask: int) -> Solution:
    """The solver output for a mapping and the flows it recovers, a
    bitmask over the instance's flow index, which the solution shares.

    The objective is summed over `assigned` in the order the solver
    inserted it, and only then are the dicts sorted: summing the same
    overheads in another order can change the last digits of the float.
    Each term is g_i * D_ij, the float inst.w(i, j) returns, read from
    the instance's delay rows. The loop adds left to right from the int
    0, which an empty mapping keeps: sum() compensates float additions
    since Python 3.12, so its last digits would depend on the version.
    """
    g, rows = inst.g, inst.delay_rows
    cost = 0
    for i, j in assigned.items():
        cost += g[i] * rows[i][j]
    return Solution._of_mask(
        x={i: (1 if i in assigned else 0) for i in inst.offline_switches},
        assigned=dict(sorted(assigned.items())),
        objective=cost,
        quota_met=mask.bit_count() >= inst.q_required,
        mask=mask,
        ids=inst._ids,
    )


def solve_retroflow(inst: OscmInstance, trace: list[str] | None = None) -> Solution:
    """Greedy recovery: repeatedly take the switch contributing the most
    not-yet-programmable flows, map it to the cheapest controller that still
    has room, and stop once the quota is met or no switch is left.

    Ties break to the smallest switch id and, on equal overhead, the
    smallest controller id: the pick's controllers are tested in its
    cheapest-first order (OscmInstance.cheapest), skipping failed ones,
    with no per-pick sort. Always returns a solution; quota_met records
    whether the flow quota was actually reached. trace, when given,
    collects one line per decision for replay against hand executions.

    The pick is lazy (Minoux's accelerated greedy): a max-heap keyed
    (-uncovered count, switch id) holds each switch's count as of the
    `version` of `covered` it was priced at. Counts only shrink as
    `covered` grows, so a stale count bounds the true one from above;
    the top is re-priced until it is current, and a current top then
    beats every other switch on count, or ties it with a smaller id. So
    it is the switch a full rescan would pick, and a current top of 0
    means no switch adds a flow.

    Flow sets are the instance's int bitmasks (OscmInstance.masks), and
    the heap starts from their bit counts, which the instance reads from
    its matrix (OscmInstance.counts). The flows not yet covered are held
    as one nonnegative mask, `uncovered`, which starts at the instance's
    flow union: a count is `(mask & uncovered).bit_count()`, an
    assignment clears the pick's bits, and the covered count `n_covered`
    grows by the current count of each assigned switch. The flows covered
    at the end are the union's bits no longer in `uncovered`. Flow ids
    are decoded only for the trace.

    Residuals only shrink, so a switch heavier than every residual
    (`max_rest`, -1 with no active controller) can never be assigned.
    When no trace is asked, such a switch leaves the heap as soon as it
    reaches the top, unpriced and untested; `assigned` and `uncovered`
    are the same as if it had been picked. A traced run still logs its
    pick and its tests, the decision log the trace is checked against.
    """
    masks, g, rows, cheapest = inst.masks, inst.g, inst.delay_rows, inst.cheapest
    heap = [(-n, i, 0) for i, n in inst.counts.items()]
    heapq.heapify(heap)
    version = 0  # bumped each time `uncovered` shrinks
    rest = dict(inst.a_rest)
    max_rest = max(rest.values(), default=-1)
    uncovered, n_covered = inst.union, 0
    assigned: dict[int, int] = {}

    while heap and n_covered < inst.q_required:
        neg_delta, pick, priced = heap[0]
        if trace is None and g[pick] > max_rest:
            heapq.heappop(heap)  # fits no controller, now or later
            continue
        if priced != version:
            heapq.heapreplace(heap, (-(masks[pick] & uncovered).bit_count(), pick, version))
            continue
        if neg_delta == 0:
            # nothing left can add a new flow; the quota is unreachable
            if trace is not None:
                trace.append(f"stop reason=stalled covered={n_covered} "
                             f"required={inst.q_required}")
            break
        heapq.heappop(heap)
        if trace is not None:
            trace.append(f"pick switch={pick} delta={-neg_delta}")

        g_pick = g[pick]
        for j in cheapest[pick]:
            if j not in rest:
                continue  # failed: a world's orders list every controller
            fit = rest[j] >= g_pick
            if trace is not None:
                trace.append(f"test switch={pick} controller={j} w={g_pick * rows[pick][j]} "
                             f"rest={rest[j]} fit={'yes' if fit else 'no'}")
            if fit:
                assigned[pick] = j
                rest[j] -= g_pick
                max_rest = max(rest.values())
                gained = masks[pick] & uncovered
                if trace is not None:
                    trace.append(f"assign switch={pick} controller={j} rest={rest[j]} "
                                 f"gained={list(inst.flows_of(gained))} "
                                 f"covered={n_covered - neg_delta}")
                # the pick's count is current: it adds -neg_delta flows
                uncovered ^= gained
                n_covered -= neg_delta
                version += 1
                break
    else:
        if trace is not None:
            reason = "quota" if n_covered >= inst.q_required else "exhausted"
            trace.append(f"stop reason={reason} covered={n_covered} "
                         f"required={inst.q_required}")

    return _solution(inst, assigned, inst.union ^ uncovered)


def solve_nearest(inst: OscmInstance) -> Solution:
    """Map every offline switch to its nearest active controller, ignoring
    capacity: the first controller of its (delay, id) order
    (OscmInstance.nearest) that survives, so the smallest controller id
    wins a delay tie. With no active controller no switch is mapped, and
    the quota is met only when it is 0, as in solve_retroflow."""
    if not inst.active_controllers:
        return _solution(inst, {}, 0)
    nearest, active = inst.nearest, inst.a_rest
    assigned = {}
    for i in inst.offline_switches:
        for j in nearest[i]:
            if j in active:
                assigned[i] = j
                break
    # every offline switch is mapped, so every flow is recovered
    return _solution(inst, assigned, inst.union)


def solve_exact(inst: OscmInstance, budget: SolverBudget | None = None, *,
                _greedy: Solution | None = None) -> ExactResult:
    """Branch and bound over per-switch decisions (legacy or one of the
    active controllers).

    Switches branch in descending-load order. Each node first checks the
    flows it has already lost: uncovered flows that no undecided switch
    carries. A flow is lost when the legacy branch passes over its last
    carrier in branching order; more than n_flows - q lost flows leave
    the quota out of reach, and the node is pruned without further work.
    Otherwise the node is bounded (see _bound) from the undecided
    switches' uncovered-flow counts: the flows its usable switches can
    still recover, then the overhead of the flows still needed. The
    result's status is every outcome: `optimal` or `infeasible` when the search completes
    with or without an incumbent, `not_proven` (the incumbent) or
    `budget_exhausted` (no solution) when a limit ends it first. Both
    limits are checked at every node, the clock from the call's start.

    _greedy is solve_retroflow(inst), for a caller that has already run
    it; without it the search runs the greedy itself.

    The search keeps an explicit stack, so its depth (one level per
    offline switch) is not bounded by the interpreter's recursion limit.
    Each stack entry carries its own node's state and nothing is undone:
    a legacy child shares its parent's covered flows and residuals, and a
    mapped child gets new ones. The stack holds a pending sibling per
    level of the current path, so it takes about path depth x covered
    flows of memory, plus the counts below.

    Only the root and mapped nodes price (_price): one list of the
    undecided switches' uncovered-flow counts. A legacy child has its
    parent's covered flows, so its entry carries the parent's list by
    reference with the index it starts at, and a chain of legacy nodes
    shares the list of the node that priced it; its bound re-derives
    only each switch's fit from the shared residuals. A mapped child's
    entry carries None and prices from its own covered flows.

    The search's flow sets are frozensets of flow ids: the instance's
    rows, read once per call and handed to _price and _bound. No other
    solver reads rows.
    """
    budget = budget or SolverBudget()
    deadline = time.monotonic() + budget.time_limit_ms / 1000.0
    beta, g, q = inst.beta, inst.g, inst.q_required
    order = sorted(inst.offline_switches, key=lambda i: (-g[i], i))
    # options[i]: (overhead, controller) pairs of the active controllers,
    # in the switch's cheapest-first order
    options = {i: [(inst.w(i, j), j) for j in inst.cheapest[i] if j in inst.a_rest]
               for i in order}
    # dies[idx]: the flows whose last carrier in branching order is
    # order[idx]; a node may lose at most `slack` flows
    dies, later = [], set()
    for i in reversed(order):
        dies.append(beta[i] - later)
        later |= beta[i]
    dies.reverse()
    slack = inst.n_flows - q

    best_cost, best = float("inf"), None
    greedy = solve_retroflow(inst) if _greedy is None else _greedy
    if greedy.quota_met:
        best_cost, best = greedy.objective, greedy

    nodes = 0
    # (idx, cost, lost, covered, rest, moves, counts, base) visits node
    # idx, reached by the (switch, controller) pairs `moves`, having lost
    # `lost` flows; counts[k - base] is order[k]'s uncovered-flow count,
    # or counts is None when the node prices itself
    stack = [(0, 0.0, 0, frozenset(), inst.a_rest, (), None, 0)]
    while stack:
        idx, cost, lost, covered, rest, moves, counts, base = stack.pop()
        nodes += 1
        if nodes > budget.max_nodes_explored or time.monotonic() > deadline:
            return ExactResult(best, "budget_exhausted" if best is None else "not_proven",
                               nodes)

        needed = q - len(covered)
        if needed <= 0:
            # quota met: every further assignment only adds cost. The
            # solution sums in path order, as `cost` did. `covered` is the
            # union of the mapped switches' flows, so is their masks' OR
            if cost < best_cost:
                mask = 0
                for i, _ in moves:
                    mask |= inst.masks[i]
                best_cost, best = cost, _solution(inst, dict(moves), mask)
            continue
        if idx == len(order) or lost > slack:
            continue

        if counts is None:
            counts, base = _price(beta, order, idx, covered), idx
        bound = _bound(inst, beta, order, options, idx, counts[idx - base:], covered, rest,
                       needed, slack - lost)
        if bound is None or cost + bound >= best_cost:
            continue

        # pushed so they pop in visit order: each fitting controller,
        # cheapest first, then legacy. A mapped switch covers every flow
        # that dies with it; the legacy branch loses those not yet
        # covered (dies[idx] is a subset of beta[i]). `rest` is never
        # written: a mapped child gets a copy
        i = order[idx]
        stack.append((idx + 1, cost, lost + len(dies[idx] - covered), covered, rest, moves,
                      counts, base))
        mapped = covered | beta[i]
        for w_ij, j in reversed([(w_ij, j) for w_ij, j in options[i] if rest[j] >= g[i]]):
            stack.append((idx + 1, cost + w_ij, lost, mapped,
                          {**rest, j: rest[j] - g[i]}, moves + ((i, j),), None, 0))

    if best is None:
        return ExactResult(None, "infeasible", nodes)
    return ExactResult(best, "optimal", nodes)


def _price(beta, order, idx, covered):
    """The uncovered-flow count of each undecided switch, order[idx:]."""
    return [len(beta[i] - covered) for i in order[idx:]]


def _bound(inst, beta, order, options, idx, counts, covered, rest, needed, spare):
    """Cost lower bound of any completion that gains `needed` more
    flows, or None when no completion can gain them.

    counts[k] is order[idx + k]'s uncovered-flow count (_price), which a
    legacy node reads from the node that priced it. One pass over the
    undecided switches keeps the usable ones, those that add flows and
    fit some surviving controller, with their count and cheapest fitting
    mapping, read from this node's residuals. Coverage ceiling:
    fractional knapsack of those counts on the total remaining capacity,
    rounded upward. Reachable flows: the union of the usable switches'
    uncovered flows must reach `needed`. The caller's lost-flow test has
    shown that all undecided switches together reach it with `spare`
    flows over, and the switches that fit no controller take away at
    most their uncovered flows. So the union is only collected when
    those exceed `spare`, from the usable switches' flows less
    `covered`, and only until it reaches `needed`. Cost floor: the
    needed flows bought fractionally at each switch's cheapest price per
    flow, ignoring capacity coupling.
    """
    usable = []  # (price per flow, price, count, load, switch)
    stranded = 0  # uncovered flows of the other switches, with repeats
    for i, potential in zip(order[idx:], counts):
        if not potential:
            continue
        g_i = inst.g[i]
        for cheapest, j in options[i]:
            if rest[j] >= g_i:
                usable.append((cheapest / potential, cheapest, potential, g_i, i))
                break
        else:
            stranded += potential

    # zero-load switches are free; count them in full
    ceiling = sum(p for _, _, p, g, _ in usable if g == 0)
    capacity = sum(rest.values())
    for _, p, g in sorted((g * 1.0 / p, p, g) for _, _, p, g, _ in usable if g > 0):
        if capacity <= 0:
            break
        if g <= capacity:
            ceiling += p
            capacity -= g
        else:
            ceiling += (p * capacity + g - 1) // g
            capacity = 0
    if ceiling < needed:
        return None
    if stranded > spare:
        union: set[int] = set()
        for *_, i in usable:
            union |= beta[i] - covered
            if len(union) >= needed:
                break
        else:
            return None

    usable.sort()
    bound = 0.0
    left = needed
    for _, cheap, pot, _, _ in usable:
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
    seen = 0
    for i in inst.offline_switches:
        mask = inst.masks[i]
        if mask.bit_count() != 1 or mask & seen:
            return None
        seen |= mask
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
