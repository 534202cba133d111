"""Metamorphic relations over the att25 instances, k=1..3 (41 scenarios),
and over hypothesis-drawn instances of up to 20 switches
(test_random_instances).

Beyond a few switches no oracle says what the exact optimum is, but a
change to an instance whose effect on the answer is known needs none
(Chen, Cheung & Yiu 1998, "Metamorphic testing"). Each relation rebuilds
a scenario's instance with one change and compares every solver's answer
on the two:

- quota: a larger quota never turns an infeasible scenario feasible and
  never lowers the exact optimum; the greedy's pick sequence never reads
  the quota, so at a smaller quota it is a prefix of the one at a larger;
- delays x 2: doubling is exact in binary floating point, so every
  status, assignment and exact node count stays and every objective
  doubles to the last bit;
- more capacity: 50 more flows of residual at every controller never
  raise the exact optimum and never turn a feasible scenario infeasible;
- padding: one more offline switch with no flows and load 0 changes no
  solver's status, objective or assignment (Nearest maps every switch,
  the pad too, and keeps the others where they were);
- order-reversing relabel of the switch and controller ids: the exact
  status stays, and the optimum agrees to a relative 1e-9, because ties
  break the other way and the overheads sum in another order.

Every relation rebuilds the instance through the checked constructor,
from its rows of flow ids. Most att25 scenarios are infeasible; most of
the drawn instances are optimal, so there the relations compare exact
optima.
"""

import math
from collections import Counter

from hypothesis import given, strategies as st

from retroflow.oscm import OscmInstance
from retroflow.solvers import solve_exact, solve_nearest, solve_retroflow

from _oracles import _FUZZ, greedy_rescan, random_instance

QUOTA_FRACTIONS = (0.8, 0.85, 0.9, 0.95, 1.0)


def rebuilt(inst, **changes):
    """inst with some of its inputs replaced, from its rows of flow ids."""
    fields = dict(offline_switches=inst.offline_switches,
                  active_controllers=inst.active_controllers, delay=inst.delay,
                  g=inst.g, beta=inst.beta, a_rest=inst.a_rest,
                  q_required=inst.q_required, label=inst.label)
    return OscmInstance(**{**fields, **changes})


def picks(inst):
    """The greedy's pick sequence, read from its trace."""
    trace = []
    solve_retroflow(inst, trace=trace)
    return [line.split()[1] for line in trace if line.startswith("pick ")]


def quota_ladder(inst):
    """The quota relation on inst's ladder; returns the exact status at the
    smaller quota of each step."""
    ladder = [rebuilt(inst, q_required=math.ceil(f * inst.n_flows))
              for f in QUOTA_FRACTIONS]
    results = [solve_exact(x) for x in ladder]
    sequences = [picks(x) for x in ladder]
    for lo in range(len(ladder) - 1):
        small, large = results[lo], results[lo + 1]
        if small.status == "infeasible":
            assert large.status == "infeasible", inst.label
        elif large.status == "optimal":
            assert large.solution.objective >= small.solution.objective, inst.label
        short, long = sequences[lo], sequences[lo + 1]
        assert long[:len(short)] == short, inst.label
    return [r.status for r in results[:-1]]


def test_quota(att25_instances):
    checked = Counter()
    # a scenario listed at several quotas has one ladder
    for inst in {inst.label: inst for inst in att25_instances}.values():
        checked.update(quota_ladder(inst))
    # the ladder crosses from feasible to infeasible, so both halves are checked
    assert checked["optimal"] > 0 and checked["infeasible"] > 0


def answers(inst):
    exact = solve_exact(inst)
    greedy, nearest = solve_retroflow(inst), solve_nearest(inst)
    return exact, greedy, nearest


def test_delays_doubled(att25_instances):
    for inst in att25_instances:
        doubled = rebuilt(inst, delay={pair: 2 * d for pair, d in inst.delay.items()})
        exact, greedy, nearest = answers(inst)
        exact2, greedy2, nearest2 = answers(doubled)
        assert exact2.status == exact.status, inst.label
        assert exact2.nodes_explored == exact.nodes_explored, inst.label
        if exact.solution is not None:
            assert exact2.solution.assigned == exact.solution.assigned, inst.label
            assert exact2.solution.objective == 2 * exact.solution.objective, inst.label
        for sol, sol2 in ((greedy, greedy2), (nearest, nearest2)):
            assert sol2.quota_met == sol.quota_met, inst.label
            assert sol2.assigned == sol.assigned, inst.label
            assert sol2.objective == 2 * sol.objective, inst.label


def test_more_capacity(att25_instances):
    for inst in att25_instances:
        roomier = rebuilt(inst, a_rest={j: r + 50 for j, r in inst.a_rest.items()})
        before, after = solve_exact(inst), solve_exact(roomier)
        if before.status == "optimal":
            assert after.status == "optimal", inst.label
            assert after.solution.objective <= before.solution.objective, inst.label


def test_padding(att25_instances):
    for inst in att25_instances:
        pad = 1 + max(inst.offline_switches + inst.active_controllers)
        padded = rebuilt(inst, offline_switches=inst.offline_switches + (pad,),
                         delay={**inst.delay, **{(pad, j): 1.0 for j in inst.active_controllers}},
                         g={**inst.g, pad: 0}, beta={**inst.beta, pad: ()})
        exact, greedy, nearest = answers(inst)
        exact2, greedy2, nearest2 = answers(padded)
        assert exact2.status == exact.status, inst.label
        if exact.solution is not None:
            assert exact2.solution.assigned == exact.solution.assigned, inst.label
            assert exact2.solution.objective == exact.solution.objective, inst.label
        nearest2.assigned.pop(pad)
        for sol, sol2 in ((greedy, greedy2), (nearest, nearest2)):
            assert sol2.quota_met == sol.quota_met, inst.label
            assert sol2.assigned == sol.assigned, inst.label
            assert sol2.objective == sol.objective, inst.label


def test_relabel_reversed(att25_instances):
    for inst in att25_instances:
        top = max(inst.offline_switches + inst.active_controllers)
        relabelled = rebuilt(inst, offline_switches=[top - i for i in inst.offline_switches],
                             active_controllers=[top - j for j in inst.active_controllers],
                             delay={(top - i, top - j): d for (i, j), d in inst.delay.items()},
                             g={top - i: n for i, n in inst.g.items()},
                             beta={top - i: row for i, row in inst.beta.items()},
                             a_rest={top - j: r for j, r in inst.a_rest.items()})
        exact, exact2 = solve_exact(inst), solve_exact(relabelled)
        assert exact2.status == exact.status, inst.label
        if exact.solution is not None:
            assert math.isclose(exact2.solution.objective, exact.solution.objective,
                                rel_tol=1e-9), inst.label


@_FUZZ
@given(rng=st.randoms(use_true_random=False))
def test_random_instances(rng):
    """Up to 20 switches of at most three flows each and up to three
    controllers, with integer delays and loads: every relation, and the
    greedy untraced, traced and rescanning agree on the solution and the
    two traces line for line. The quota is at least half the flows: a
    zero quota's optimum is all legacy, whatever the instance."""
    inst = random_instance(rng, n_max=20, q_mode="upper")
    quota_ladder(inst)
    for relation in (test_delays_doubled, test_more_capacity, test_padding,
                     test_relabel_reversed):
        relation([inst])
    traced, rescanned = [], []
    want = greedy_rescan(inst, rescanned).to_json()
    assert solve_retroflow(inst, traced).to_json() == want
    assert solve_retroflow(inst).to_json() == want
    assert traced == rescanned
