"""The claims ledger: the greedy (retroflow) against the nearest baseline
on the bundled att25 world, read against the paper's two headline
reductions in communication overhead:

- up to 52.6 % at a moderate failure, with every flow recovered;
- up to 61.2 % at a serious failure, with a 90 % flow quota.

A reduction is 1 - greedy overhead / nearest overhead on one scenario,
taken only over the scenarios where the greedy meets the quota. The raw
overhead is propagation only; the adjusted one adds the linear queueing
penalty per excess flow at an overloaded controller (the nearest
baseline ignores capacity, so it is the one that overloads). Every
figure is computed through run_scenario. README.md, "What this
repository reproduces", reads the same table.
"""

import pytest

from retroflow.domains import Placement, enumerate_failure_scenarios
from retroflow.experiment import make_world, run_scenario

PENALTIES_MS = (0.0, 0.02, 0.05, 0.1)
MODERATE, SERIOUS = 0.526, 0.612

# (k, q): quota-met scenarios, then the maximum raw reduction and the
# maximum adjusted reduction at each of PENALTIES_MS, in percent; None
# where the greedy meets the quota nowhere
LEDGER = {
    (1, 0.9): (6, 45.37, (45.37, 66.45, 79.38, 88.33)),
    (1, 1.0): (6, -7.91, (-7.91, 20.10, 56.91, 75.63)),
    (2, 0.9): (13, 30.58, (30.58, 77.84, 89.56, 94.45)),
    (2, 1.0): (0, None, None),
    (3, 0.9): (2, 60.82, (60.82, 81.74, 89.86, 94.18)),
    (3, 1.0): (0, None, None),
    (4, 0.9): (0, None, None),
    (4, 1.0): (0, None, None),
    (5, 0.9): (0, None, None),
    (5, 1.0): (0, None, None),
}

# the smallest penalty, in steps of 0.0001 ms, at which the maximum
# adjusted reduction reaches a claim: (k, q, claim) -> ms
THRESHOLD_MS = {
    (1, 1.0, MODERATE): 0.0441,
    (2, 0.9, SERIOUS): 0.0086,
    (3, 0.9, SERIOUS): 0.0002,
}


def reductions(world, k, q, penalty_ms=0.1, metric="adjusted_overhead"):
    """The greedy's reductions against nearest over the quota-met
    scenarios of every k-controller failure at quota q."""
    out = []
    for s in enumerate_failure_scenarios(world.placement, k):
        rep = run_scenario(world, s, q, ("retroflow", "nearest"), penalty_ms)
        greedy, nearest = rep.outcome("retroflow"), rep.outcome("nearest")
        if greedy.status == "ok":
            out.append(1.0 - getattr(greedy, metric) / getattr(nearest, metric))
    return out


def percent(shares):
    return round(100 * max(shares), 2) if shares else None


@pytest.mark.parametrize("k, q", sorted(LEDGER))
def test_ledger(att_world, k, q):
    met, raw, adjusted = LEDGER[k, q]
    raw_shares = reductions(att_world, k, q, metric="raw_overhead")
    assert len(raw_shares) == met
    assert percent(raw_shares) == raw
    got = tuple(percent(reductions(att_world, k, q, pen)) for pen in PENALTIES_MS)
    assert got == (adjusted or (None,) * len(PENALTIES_MS))


@pytest.mark.parametrize("k, q, claim", sorted(THRESHOLD_MS))
def test_smallest_penalty_that_meets_a_claim(att_world, k, q, claim):
    penalty = THRESHOLD_MS[k, q, claim]
    assert max(reductions(att_world, k, q, penalty)) >= claim
    assert max(reductions(att_world, k, q, round(penalty - 0.0001, 4))) < claim


def test_raw_overhead_meets_neither_claim(att_world):
    """Without the penalty, the moderate claim fails by 60 points and the
    serious one by 0.4: the reductions come from the penalty constant."""
    assert max(reductions(att_world, 1, 1.0, metric="raw_overhead")) < MODERATE
    for k in (2, 3):
        assert max(reductions(att_world, k, 0.9, metric="raw_overhead")) < SERIOUS


def test_computed_loads_change_the_ledger(att_world):
    """The bundled placement's published flow counts drive the ledger.
    With the loads computed from the topology instead (1,620 flows
    against 2,055), the greedy meets more quotas and the maxima move."""
    p = att_world.placement
    world = make_world(att_world.topology, Placement(p.capacity.items(), p.domain_of))
    got = {(k, q): (len(shares), percent(shares))
           for k, q in ((1, 1.0), (2, 0.9), (3, 0.9))
           for shares in [reductions(world, k, q, metric="raw_overhead")]}
    assert got == {(1, 1.0): (6, 0.0), (2, 0.9): (15, 28.16), (3, 0.9): (19, 41.64)}
