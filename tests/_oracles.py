"""Independent oracles the tests check the implementation against.

Everything here is deliberately written from the problem statement, not
from the package internals: full enumerations, a second distance formula,
bridge-based connectivity reasoning. The exceptions are earlier versions
of the three solvers, of the scoring, of the world build and of the
component labelling, kept verbatim, against which a rewrite must give the
same results step for step.
"""

import heapq
import itertools
import math
import random
import time
from collections import Counter


def law_of_cosines_km(lat1, lon1, lat2, lon2, radius=6371.0):
    """Great-circle distance via the spherical law of cosines."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    cosine = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return radius * math.acos(max(-1.0, min(1.0, cosine)))


def all_simple_paths(adj, src, dst):
    """Every simple path src -> dst in an adjacency dict {u: {v: weight}}."""
    paths = []

    def walk(node, seen, acc):
        if node == dst:
            paths.append(list(acc))
            return
        for nxt in sorted(adj[node]):
            if nxt not in seen:
                seen.add(nxt)
                acc.append(nxt)
                walk(nxt, seen, acc)
                acc.pop()
                seen.remove(nxt)

    walk(src, {src}, [src])
    return paths


def path_weight(adj, path):
    return sum(adj[u][v] for u, v in zip(path, path[1:]))


def best_simple_path(adj, src, dst):
    """Minimum (weight, hops, node sequence) path by full enumeration."""
    paths = all_simple_paths(adj, src, dst)
    if not paths:
        return None
    return min(paths, key=lambda p: (path_weight(adj, p), len(p), tuple(p)))


def reachable_without_edge(edges, n_nodes_hint, src, dst, dropped):
    """Is dst reachable from src once `dropped` (an unordered pair) goes?"""
    adj = {}
    for a, b in edges:
        if {a, b} == set(dropped):
            continue
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    seen, stack = {src}, [src]
    while stack:
        u = stack.pop()
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return dst in seen


def two_edge_disjoint_paths_exist(edges, src, dst):
    """Menger: two edge-disjoint src-dst paths exist iff no single edge
    removal separates them (given they are connected at all)."""
    if not reachable_without_edge(edges, None, src, dst, (None, None)):
        return False
    return all(
        reachable_without_edge(edges, None, src, dst, e) for e in edges
    )


def enumerate_oscm(inst):
    """Exhaustive optimum over all (M+1)^N per-switch decisions.

    Returns (best_cost, best_choice) or (None, None) when infeasible.
    choice[i] is None for legacy or a controller id. inst.beta and
    inst.delay, which build a dict on each read, are read once per call.
    """
    beta, delay = inst.beta, inst.delay
    switches = list(inst.offline_switches)
    controllers = list(inst.active_controllers)
    best_cost, best_choice = None, None
    for combo in itertools.product([None] + controllers, repeat=len(switches)):
        load = {j: 0 for j in controllers}
        covered = set()
        cost = 0.0
        for i, j in zip(switches, combo):
            if j is None:
                continue
            load[j] += inst.g[i]
            covered |= beta[i]
            cost += inst.g[i] * delay[(i, j)]
        if any(load[j] > inst.a_rest[j] for j in controllers):
            continue
        if len(covered) < inst.q_required:
            continue
        if best_cost is None or cost < best_cost:
            best_cost, best_choice = cost, combo
    return best_cost, best_choice


def milp_oscm(inst):
    """The optimum as a mixed integer program, solved by scipy's HiGHS.

    Binary x_ij maps switch i to controller j. Flows with the same
    carriers form one class c of n_c flows, and y_c in [0, n_c] counts
    the ones recovered: a per-flow binary y_l summed over its class, on
    fewer variables. Each switch takes at most one controller, each
    controller's mapped load stays within its residual, a class is
    recovered only when some mapped switch carries it
    (y_c <= n_c sum of its carriers' x_ij), and at least q flows are
    recovered; the objective is the overhead sum of w_ij x_ij. With x
    binary, y needs no integrality: a class is recovered in full or not
    at all.

    Returns (cost, assigned), or (None, None) when no mapping meets the
    quota. The cost is summed over the rounded mapping, left to right
    from the int 0, not read from HiGHS, whose objective carries its
    tolerances. inst.beta is read once per call.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    beta = inst.beta
    carriers = {}
    for i in inst.offline_switches:
        for l in beta[i]:
            carriers.setdefault(l, []).append(i)
    classes = Counter(tuple(c) for c in carriers.values())
    switches, controllers = inst.offline_switches, inst.active_controllers
    pairs = [(i, j) for i in switches for j in controllers]
    col_of = {pair: col for col, pair in enumerate(pairs)}
    n_x, n = len(pairs), len(pairs) + len(classes)

    # rows: one per switch, one per controller, one per class, the quota
    rows = len(switches) + len(controllers) + len(classes) + 1
    a = np.zeros((rows, n))
    lower, upper = np.full(rows, -np.inf), np.zeros(rows)
    for r, i in enumerate(switches):
        for j in controllers:
            a[r, col_of[i, j]] = 1
        upper[r] = 1
    for r, j in enumerate(controllers, len(switches)):
        for i in switches:
            a[r, col_of[i, j]] = inst.g[i]
        upper[r] = inst.a_rest[j]
    for k, (carried_by, size) in enumerate(classes.items()):
        r, col = len(switches) + len(controllers) + k, n_x + k
        a[r, col] = 1
        for i in carried_by:
            for j in controllers:
                a[r, col_of[i, j]] = -size
        a[-1, col] = 1
    lower[-1], upper[-1] = inst.q_required, np.inf

    cost = np.zeros(n)
    cost[:n_x] = [inst.w(i, j) for i, j in pairs]
    res = milp(cost, constraints=LinearConstraint(a, lower, upper),
               integrality=np.arange(n) < n_x,
               bounds=Bounds(0, [1] * n_x + list(classes.values())),
               options={"mip_rel_gap": 0})
    if res.status == 2:
        return None, None
    assert res.status == 0, res.message
    assigned = {i: j for (i, j), v in zip(pairs, res.x) if v > 0.5}
    total = 0
    for i, j in assigned.items():
        total += inst.w(i, j)
    return total, assigned


def check_solution(inst, x, assigned, y, q_required):
    """Constraint checker written directly from the problem statement.
    Returns the set of violated family names. inst.beta is read once per
    call, as in enumerate_oscm."""
    beta = inst.beta
    bad = set()
    for i in inst.offline_switches:
        count = 1 if i in assigned else 0
        if count != x[i]:
            bad.add("mapping")
    for j in inst.active_controllers:
        used = sum(inst.g[i] for i in assigned if assigned[i] == j)
        if used > inst.a_rest[j]:
            bad.add("capacity")
    for l in y:
        if not any(x[i] and l in beta[i] for i in inst.offline_switches):
            bad.add("programmability")
    if len(set(y)) < q_required:
        bad.add("quota")
    return bad


def gap_optimum_recursive(costs, usage, capacities):
    """Second exhaustive GAP implementation: depth-first with explicit
    stack state instead of itertools.product."""
    n = len(costs)
    m = len(capacities)
    best = [None]

    def go(task, load, cost):
        if task == n:
            if best[0] is None or cost < best[0]:
                best[0] = cost
            return
        for agent in range(m):
            extra = usage[task][agent]
            if load[agent] + extra <= capacities[agent]:
                load[agent] += extra
                go(task + 1, load, cost + costs[task][agent])
                load[agent] -= extra

    go(0, [0.0] * m, 0.0)
    return best[0]


def objective(inst, sol):
    """Total communication overhead: the sum of w_ij over sol's
    assignments, once validate has checked sol's dimensions against inst.
    It adds left to right from the int 0 in sol.assigned's order, which a
    solver's solution sorts by switch, so its value can differ in the
    last digits from that solution's objective, summed in pick order."""
    from retroflow.oscm import validate

    validate(inst, sol)
    cost = 0
    for i, j in sol.assigned.items():
        cost += inst.w(i, j)
    return cost


def solution_of(inst, assigned, covered):
    """The solver output for a mapping and the set of flows it recovers,
    built through the public constructor. The objective is summed over
    `assigned` in insertion order, as the solvers sum it, left to right
    from the int 0: another order, or sum()'s compensated float additions
    since Python 3.12, can change the last digits of the float."""
    from retroflow.oscm import Solution

    cost = 0
    for i, j in assigned.items():
        cost += inst.w(i, j)
    return Solution(
        x={i: (1 if i in assigned else 0) for i in inst.offline_switches},
        assigned=dict(sorted(assigned.items())),
        y=covered,
        objective=cost,
        quota_met=len(covered) >= inst.q_required,
    )


def greedy_rescan(inst, trace=None):
    """The greedy as it was written before its lazy pick: every pick
    rescans every remaining switch for its uncovered-flow count. Kept
    verbatim but for one change: inst.beta, which decodes every row on
    each read, is read once per call, not once per switch per pick. So
    the lazy solver can be checked pick for pick and trace line for
    trace line."""
    log = trace.append if trace is not None else lambda line: None
    beta = inst.beta
    remaining = list(inst.offline_switches)
    rest = dict(inst.a_rest)
    covered: set[int] = set()
    assigned: dict[int, int] = {}

    while remaining and len(covered) < inst.q_required:
        delta, pick = 0, None
        for i in remaining:
            uncovered = len(beta[i] - covered)
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
                gained = sorted(beta[pick] - covered)
                covered |= beta[pick]
                log(f"assign switch={pick} controller={j} rest={rest[j]} "
                    f"gained={gained} covered={len(covered)}")
                break
        remaining.remove(pick)
    else:
        reason = "quota" if len(covered) >= inst.q_required else "exhausted"
        log(f"stop reason={reason} covered={len(covered)} required={inst.q_required}")

    return solution_of(inst, assigned, covered)


def nearest_by_min(inst):
    """The baseline as it was written before its one comparison loop:
    `min` over the active controllers keyed (delay, id). Kept verbatim
    but for one change: inst.delay, which builds a dict on each read, is
    read once per call, not once per pair. So the loop can be checked
    assignment for assignment."""
    from retroflow.solvers import _solution

    delay = inst.delay
    assigned = {
        i: min(inst.active_controllers, key=lambda j: (delay[(i, j)], j))
        for i in inst.offline_switches
    }
    # every offline switch is mapped, so every flow is recovered
    return _solution(inst, assigned, inst.union)


def score_per_switch(inst, name, status, sol, ability, queue_penalty_ms):
    """The scoring as it was written before it priced each controller's
    queueing penalty once: one queueing_penalty_ms call per assigned
    switch. Kept verbatim but for one change: inst.delay, which builds a
    dict on each read, is read once per call, not once per pair. So the
    scoring can be checked float for float."""
    from retroflow.experiment import AlgorithmOutcome, queueing_penalty_ms

    if sol is None:
        return AlgorithmOutcome(name, status)
    delay = inst.delay
    load = {j: ability[j] - inst.a_rest[j] for j in inst.active_controllers}
    for i, j in sol.assigned.items():
        load[j] += inst.g[i]
    overloaded = tuple(j for j in inst.active_controllers if load[j] > ability[j])

    adjusted = 0.0
    for i, j in sol.assigned.items():
        penalty = queueing_penalty_ms(load[j], ability[j], queue_penalty_ms)
        adjusted += inst.g[i] * (delay[(i, j)] + penalty)

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


def exact_undo(inst, budget=None):
    """The exact search as it was written before its stack entries
    carried their own state: one shared `covered`, `rest` and `assigned`,
    changed in place, and a second kind of entry that undoes each move.
    Kept as written with its bound, so the per-entry search can be
    checked status for status, node count for node count and solution for
    solution; only the bound's beta is now the search's own, where
    inst.beta would build a dict over every offline switch on each read."""
    from retroflow.solvers import ExactResult, SolverBudget, solve_retroflow

    budget = budget or SolverBudget()
    deadline = time.monotonic() + budget.time_limit_ms / 1000.0
    beta, g, w, q = inst.beta, inst.g, inst.w, inst.q_required
    order = sorted(inst.offline_switches, key=lambda i: (-g[i], i))
    options = {i: sorted(inst.active_controllers, key=lambda j: (w(i, j), j)) for i in order}
    # dies[idx]: the flows whose last carrier in branching order is
    # order[idx]; a node may lose at most `slack` flows
    dies, later = [], set()
    for i in reversed(order):
        dies.append(beta[i] - later)
        later |= beta[i]
    dies.reverse()
    slack = inst.n_flows - q

    best_cost, best = float("inf"), None
    greedy = solve_retroflow(inst)
    if greedy.quota_met:
        best_cost, best = greedy.objective, greedy

    covered: set[int] = set()
    assigned: dict[int, int] = {}
    rest = dict(inst.a_rest)
    nodes = 0
    # (idx, cost, lost, i, j, added) maps switch i to controller j, unless
    # i is None, and visits node idx having lost `lost` flows;
    # (None, None, None, i, j, added) undoes that move
    stack = [(0, 0.0, 0, None, None, None)]
    while stack:
        idx, cost, lost, i, j, added = stack.pop()
        if i is not None:
            if idx is None:
                covered -= added
                rest[j] += g[i]
                del assigned[i]
                continue
            assigned[i] = j
            rest[j] -= g[i]
            covered |= added

        nodes += 1
        if nodes > budget.max_nodes_explored or (
            nodes % 1024 == 0 and time.monotonic() > deadline
        ):
            if best is None:
                return ExactResult(None, "budget_exhausted", nodes)
            return ExactResult(best, "not_proven", nodes)

        needed = q - len(covered)
        if needed <= 0:
            # quota met: every further assignment only adds cost. The
            # solution sums in `assigned` insertion order, as `cost` did
            if cost < best_cost:
                best_cost, best = cost, solution_of(inst, assigned, covered)
            continue
        if idx == len(order) or lost > slack:
            continue

        bound = _bound_undo(inst, beta, order, options, idx, covered, rest, needed,
                            slack - lost)
        if bound is None or cost + bound >= best_cost:
            continue

        # pushed so they pop in visit order: each fitting controller,
        # cheapest first, with its subtree and then its undo; legacy last.
        # A mapped switch covers every flow that dies with it; the legacy
        # branch loses those it would have added.
        i = order[idx]
        added = beta[i] - covered
        stack.append((idx + 1, cost, lost + len(dies[idx] & added), None, None, None))
        for j in reversed([j for j in options[i] if rest[j] >= g[i]]):
            stack.append((None, None, None, i, j, added))
            stack.append((idx + 1, cost + w(i, j), lost, i, j, added))

    if best is None:
        return ExactResult(None, "infeasible", nodes)
    return ExactResult(best, "optimal", nodes)


def _bound_undo(inst, beta, order, options, idx, covered, rest, needed, spare):
    """Cost lower bound of any completion that gains `needed` more
    flows, or None when no completion can gain them.

    One pass over the undecided switches keeps the usable ones, those
    that add flows and fit some surviving controller, with their
    uncovered-flow count and cheapest fitting mapping. Coverage ceiling:
    fractional knapsack of those counts on the total remaining capacity,
    rounded upward. Reachable flows: the union of the usable switches'
    uncovered flows must reach `needed`. The caller's lost-flow test has
    shown that all undecided switches together reach it with `spare`
    flows over, and the switches that fit no controller take away at
    most their uncovered flows. So the union is only collected when
    those exceed `spare`, and only until it reaches `needed`. Cost
    floor: the needed flows bought fractionally at each switch's
    cheapest price per flow, ignoring capacity coupling.
    """
    usable = []
    reach = []  # the usable switches' uncovered flows
    stranded = 0  # uncovered flows of the other switches, with repeats
    for i in order[idx:]:
        gain = beta[i] - covered
        if not gain:
            continue
        g_i = inst.g[i]
        for j in options[i]:
            if rest[j] >= g_i:
                cheapest = inst.w(i, j)
                potential = len(gain)
                usable.append((cheapest / potential, cheapest, potential, g_i))
                reach.append(gain)
                break
        else:
            stranded += len(gain)

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
    if ceiling < needed:
        return None
    if stranded > spare:
        union: set[int] = set()
        for gain in reach:
            union |= gain
            if len(union) >= needed:
                break
        else:
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


def paths_from_checked(t, src):
    """The single-source search as it was written before it walked the raw
    adjacency: checked `neighbors()` and `link()` per edge, and a skip only
    for nodes already on the popped path. Kept verbatim, so the new search
    can be checked path for path and delay for delay."""
    from retroflow.geo import Path

    # Entries are (delay, hops, node sequence); priorities grow strictly
    # along edges, so the first pop per node is final under the full
    # (delay, hops, node-sequence) order. A search that stopped at the pop
    # of one destination would pop the same nodes in the same order, so
    # every stored delay is the same float sum it would have returned.
    heap = [(0.0, 0, (src,))]
    paths = {}
    while heap:
        delay, hops, nodes = heapq.heappop(heap)
        u = nodes[-1]
        if u in paths:
            continue
        paths[u] = Path(nodes, delay)
        for v in t.neighbors(u):
            if v in nodes:
                continue
            heapq.heappush(heap, (delay + t.link(u, v).delay_ms, hops + 1, nodes + (v,)))
    return paths


def compute_beta_per_flow(flows, t):
    """The programmability matrix as it was built before alternative-path
    answers were kept per (switch, destination): one query per (path node,
    flow). Kept verbatim, so the new build can be checked row for row."""
    from retroflow.flows import index_flows
    from retroflow.geo import has_alternative_path

    rows: dict[int, set[int]] = {i: set() for i in t.node_ids()}
    for f in flows:
        for i in f.path.node_ids[:-1]:
            if has_alternative_path(t, i, f.dst):
                rows[i].add(f.flow_id)
    return index_flows(rows)


def index_flows_by_digits(rows):
    """(ids, masks) as flows.index_flows built them before it OR-ed one
    shifted bit per flow id: one binary numeral per row, as long as the
    whole index. Kept verbatim, so the new index can be checked mask for
    mask."""
    ids = tuple(sorted(set().union(*rows.values())))
    rank = {l: k for k, l in enumerate(ids)}
    masks = {}
    for key, row in rows.items():
        # digit k is bit k; reversed, the digits read as a binary numeral
        digits = bytearray(b"0") * len(ids)
        for l in row:
            digits[rank[l]] = 49  # ord("1")
        digits.reverse()
        masks[key] = int(digits or b"0", 2)
    return ids, masks


def two_edge_components_two_pass(t):
    """The 2-edge-connected component labelling as it was written before
    one depth-first pass did it: a bridge pass, then a flood fill that
    avoids bridges, both over the checked, sorting `neighbors()`. Kept
    verbatim, so the new labelling can be checked partition for partition."""
    # Component label per node, after Tarjan (1974): a tree edge u-v of a
    # depth-first search is a bridge iff no back edge from v's subtree
    # reaches u or above. Both passes keep explicit stacks, so deep graphs
    # do not hit the recursion limit.
    root = t.nodes[0][0]
    order = {root: 0}
    low = {root: 0}
    bridges = set()
    stack = [(root, None, iter(t.neighbors(root)))]
    while stack:
        u, parent, todo = stack[-1]
        for v in todo:
            if v == parent:
                continue
            if v in order:
                low[u] = min(low[u], order[v])
            else:
                order[v] = low[v] = len(order)
                stack.append((v, u, iter(t.neighbors(v))))
                break
        else:
            stack.pop()
            if parent is not None:
                low[parent] = min(low[parent], low[u])
                if low[u] > order[parent]:
                    bridges.add((min(u, parent), max(u, parent)))

    component: dict[int, int] = {}
    for start in t.node_ids():
        if start in component:
            continue
        component[start] = start
        reach = [start]
        while reach:
            u = reach.pop()
            for v in t.neighbors(u):
                if v not in component and (min(u, v), max(u, v)) not in bridges:
                    component[v] = start
                    reach.append(v)
    return component


def random_instance(rng, n_max=6, m_max=3, g_max=9, q_mode="mixed"):
    """Small random OSCM instance with integer delays and loads. Of its L
    flows, q_mode "mixed" requires 0, L // 2 or L, "upper" L // 2, L or
    a count strictly between, each a third of the time (L // 2 or L, half
    each, when no count lies between), and an int q_mode that many.

    "upper" draws from a Random of its own, seeded from rng: a Hypothesis
    rng draws the low end of a range far more often than the rest, and
    rng.randint(L // 2, L) gave L // 2 in 56 and L in 3 of the 80
    examples with at least two flows among
    tests/test_metamorphic.py::test_random_instances' 100."""
    from retroflow.oscm import OscmInstance

    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    switches = list(range(1, n + 1))
    controllers = list(range(101, 101 + m))
    n_flows = rng.randint(1, 2 * n)
    beta = {}
    for i in switches:
        k = rng.randint(0, min(3, n_flows))
        beta[i] = set(rng.sample(range(n_flows), k))
    flows = sorted(set().union(*beta.values())) if beta else []
    L = len(flows)
    if q_mode == "mixed":
        q = rng.choice([0, L // 2, L])
    elif q_mode == "upper":
        pick = random.Random(rng.getrandbits(64))
        inner = range(L // 2 + 1, L)
        q = pick.choice((L // 2, L, pick.choice(inner)) if inner else (L // 2, L))
    else:
        q = q_mode
    return OscmInstance(
        offline_switches=switches,
        active_controllers=controllers,
        delay={(i, j): float(rng.randint(0, 20)) for i in switches for j in controllers},
        g={i: rng.randint(0, g_max) for i in switches},
        beta=beta,
        a_rest={j: rng.randint(0, 25) for j in controllers},
        q_required=q,
    )


def random_gap_special_instance(rng, n_max=6, m_max=3):
    """Instance of the one-unique-flow-per-switch special shape, with the
    quota forcing every flow programmable."""
    from retroflow.oscm import OscmInstance

    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    switches = list(range(1, n + 1))
    controllers = list(range(101, 101 + m))
    beta = {i: {1000 + i} for i in switches}
    return OscmInstance(
        offline_switches=switches,
        active_controllers=controllers,
        delay={(i, j): float(rng.randint(0, 20)) for i in switches for j in controllers},
        g={i: rng.randint(0, 9) for i in switches},
        beta=beta,
        a_rest={j: rng.randint(0, 25) for j in controllers},
        q_required=n,
    )
