"""Independent oracles the tests check the implementation against.

Everything here is deliberately written from the problem statement, not
from the package internals: full enumerations, a second distance formula,
bridge-based connectivity reasoning.
"""

import itertools
import math


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
    choice[i] is None for legacy or a controller id.
    """
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
            covered |= inst.beta[i]
            cost += inst.g[i] * inst.delay[(i, j)]
        if any(load[j] > inst.a_rest[j] for j in controllers):
            continue
        if len(covered) < inst.q_required:
            continue
        if best_cost is None or cost < best_cost:
            best_cost, best_choice = cost, combo
    return best_cost, best_choice


def check_solution(inst, x, assigned, y, q_required):
    """Constraint checker written directly from the problem statement.
    Returns the set of violated family names."""
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
        if not any(x[i] and l in inst.beta[i] for i in inst.offline_switches):
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


def greedy_rescan(inst, trace=None):
    """The greedy as it was written before its lazy pick: every pick
    rescans every remaining switch for its uncovered-flow count. Kept
    verbatim, so the lazy solver can be checked pick for pick and trace
    line for trace line."""
    from retroflow.solvers import _solution

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

    return _solution(inst, assigned, covered)


def random_instance(rng, n_max=6, m_max=3, g_max=9, q_mode="mixed"):
    """Small random OSCM instance with integer delays and loads."""
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
