import copy
import hashlib
import math
import pickle
import random
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError

import pytest

from retroflow import solvers
from retroflow.domains import FailureScenario, Placement, enumerate_failure_scenarios
from retroflow.experiment import AlgorithmOutcome, _score, make_world
from retroflow.flows import compute_beta, generate_flows
from retroflow.oscm import OscmInstance, Solution, build_instance, validate
from retroflow.solvers import (GapInstance, GapSizeError, SolverBudget, gap_bruteforce,
                               reduce_to_gap, solve_exact, solve_nearest, solve_retroflow)

from _oracles import (enumerate_oscm, exact_undo, gap_optimum_recursive, greedy_case,
                      greedy_rescan, milp_oscm, nearest_by_min, random_connected_links,
                      random_instance, random_gap_special_instance, synthetic)

# sha256 of the greedy's trace lines over every att25 scenario, k=1..5 at
# q 0.9 and 1.0 (124 instances, 5,158 lines), recorded with the rescanning
# greedy of tests/_oracles.py
ATT25_TRACE_SHA256 = "b80cf6da4bb51c62ac04236026858fad80cdf3bca955621ebb19cd43230cda04"


def chain_instance(n):
    """n switches of one flow each and one controller that fits them all:
    the search is a chain one level per switch."""
    switches = range(1, n + 1)
    return OscmInstance(
        offline_switches=switches,
        active_controllers=[0],
        delay={(i, 0): 1.0 for i in switches},
        g={i: 1 for i in switches},
        beta={i: {i} for i in switches},
        a_rest={0: n},
        q_required=n,
    )


def greedy_trap_instance():
    """The greedy parks the small switch in the big controller and strands
    the big switch; the optimum pairs them the other way around."""
    return OscmInstance(
        offline_switches=[1, 2],
        active_controllers=[10, 20],
        delay={(1, 10): 1.0, (1, 20): 2.0, (2, 10): 1.0, (2, 20): 2.0},
        g={1: 60, 2: 100},
        beta={1: {7}, 2: {8}},
        a_rest={10: 100, 20: 60},
        q_required=2,
    )


class TestSolveExact:
    def test_zero_quota_is_all_legacy(self, toy):
        inst = OscmInstance(
            offline_switches=toy.offline_switches,
            active_controllers=toy.active_controllers,
            delay=toy.delay, g=toy.g, beta=toy.beta, a_rest=toy.a_rest,
            q_required=0,
        )
        result = solve_exact(inst)
        assert result.status == "optimal"
        assert result.solution.objective == 0.0
        assert result.solution.assigned == {}

    def test_toy_matches_exhaustive_enumeration(self, toy):
        expected, _ = enumerate_oscm(toy)
        result = solve_exact(toy)
        assert result.status == "optimal"
        assert result.solution.objective == expected
        # the documented recovery shape: both nearby switches to controller 3
        assert result.solution.assigned == {20: 3, 22: 3}
        assert result.solution.y == (1, 2, 3)

    def test_att_double_failure_infeasible_at_full_quota(self, att_world):
        s = FailureScenario(frozenset({13, 22}))
        inst = build_instance(att_world.topology, att_world.beta,
                              att_world.placement, s, 1.0)
        result = solve_exact(inst)
        assert result.status == "infeasible"
        assert result.solution is None

    def test_beats_greedy_when_packing_matters(self):
        inst = greedy_trap_instance()
        greedy = solve_retroflow(inst)
        assert not greedy.quota_met
        result = solve_exact(inst)
        assert result.status == "optimal"
        assert result.solution.quota_met
        assert result.solution.assigned == {1: 20, 2: 10}

    def test_greedy_incumbent_objective_kept_as_summed(self):
        # the greedy picks switches 3, 2, 1 and sums 0.3 + 0.2 + 0.1 = 0.6;
        # the same overheads summed in switch order give 0.6000000000000001
        inst = OscmInstance(
            offline_switches=[1, 2, 3], active_controllers=[9],
            delay={(1, 9): 0.1, (2, 9): 0.2, (3, 9): 0.3},
            g={1: 1, 2: 1, 3: 1}, beta={1: {0}, 2: {1, 2}, 3: {3, 4, 5}},
            a_rest={9: 3}, q_required=6,
        )
        result = solve_exact(inst)
        assert result.status == "optimal"
        assert result.solution.objective == solve_retroflow(inst).objective == 0.6

    def test_budget_exhaustion_with_incumbent(self, toy):
        result = solve_exact(toy, SolverBudget(max_nodes_explored=1))
        assert result.status == "not_proven"
        assert result.solution is not None  # the greedy incumbent

    @pytest.mark.parametrize("limits", [
        {"time_limit_ms": float("nan")}, {"time_limit_ms": float("inf")},
        {"time_limit_ms": 0.0}, {"max_nodes_explored": float("inf")},
        {"max_nodes_explored": 0},
    ])
    def test_budget_limits_finite_and_positive(self, limits):
        # a nan deadline never passes, so it would switch the limit off
        with pytest.raises(ValueError, match="finite and positive"):
            SolverBudget(**limits)

    def test_budget_exhaustion_without_incumbent(self):
        result = solve_exact(greedy_trap_instance(), SolverBudget(max_nodes_explored=1))
        assert result.status == "budget_exhausted"
        assert result.solution is None

    def test_no_surviving_controller(self):
        # a zero-load switch fits any capacity, but no controller is left
        # to take it
        inst = OscmInstance(
            offline_switches=[1], active_controllers=[], delay={},
            g={1: 0}, beta={1: {5}}, a_rest={}, q_required=1,
        )
        result = solve_exact(inst)
        assert result.status == "infeasible"
        assert result.solution is None
        assert result.nodes_explored == 1

    @pytest.mark.parametrize("quota", [0, 1])
    def test_no_surviving_controller_every_solver(self, quota):
        """Every solver, and the scoring, on the instance above: no switch
        is mapped and no flow recovered, and only a zero quota is met."""
        inst = OscmInstance(
            offline_switches=[1], active_controllers=[], delay={},
            g={1: 0}, beta={1: {5}}, a_rest={}, q_required=quota,
        )
        none = Solution(x={1: 0}, assigned={}, y=(), objective=0, quota_met=quota == 0)
        exact = solve_exact(inst)
        assert (exact.status, exact.solution) == (("optimal", none) if quota == 0
                                                  else ("infeasible", None))
        greedy, nearest = solve_retroflow(inst), solve_nearest(inst)
        assert greedy == nearest == none
        met = "ok" if quota == 0 else "quota_unmet"
        for name, status, sol in (("exact", exact.status, exact.solution),
                                  ("retroflow", met, greedy), ("nearest", met, nearest)):
            outcome = _score(inst, name, status, sol, {}, 0.1)
            if sol is None:
                assert outcome == AlgorithmOutcome(name, status)
                continue
            assert (outcome.programmable_flow_fraction, outcome.recovered_switch_count,
                    outcome.raw_overhead, outcome.adjusted_overhead,
                    outcome.controller_load, outcome.overloaded) == (0, 0, 0, 0, {}, ())

    def test_att_search_size(self, benchmark_sweeps):
        """B&B nodes per (k, q) group of the att25-sweep benchmark
        workload, as conftest.py's benchmark_sweep counts them. A
        change that tightens the bounds (ROADMAP item 1) updates these
        numbers and records why in CHANGES.md."""
        assert benchmark_sweeps("att25-sweep").nodes == {
            (1, 0.9): 173, (2, 0.9): 2339, (3, 0.9): 12854, (4, 0.9): 4750, (5, 0.9): 34,
            (1, 1.0): 199, (2, 1.0): 1751, (3, 1.0): 116, (4, 1.0): 28, (5, 1.0): 8,
        }

    def test_depth_is_not_bounded_by_recursion(self):
        # one search level per switch: 1,500 levels are past the default
        # recursion limit of 1,000 frames
        n = 1500
        result = solve_exact(chain_instance(n))
        assert result.status == "optimal"
        assert result.solution.objective == 1500.0
        assert result.nodes_explored == 2 * n + 1

    def test_zero_load_switch_counts_once_in_the_root_ceiling(self):
        # the controller has room for one loaded switch: the zero-load
        # switch's 3 flows and one loaded switch's 4 give a ceiling of
        # 7 < 8, which proves infeasibility at the root. A ceiling that
        # counts the zero-load switch twice reads 10 and branches
        inst = OscmInstance(
            offline_switches=[1, 2, 3],
            active_controllers=[0],
            delay={(i, 0): 1.0 for i in (1, 2, 3)},
            g={1: 0, 2: 2, 3: 2},
            beta={1: {1, 2, 3}, 2: {4, 5, 6, 7}, 3: {8, 9, 10, 11}},
            a_rest={0: 2},
            q_required=8,
        )
        result = solve_exact(inst)
        assert result.status == "infeasible"
        assert result.nodes_explored == 1
        # residual 3, loads 0, 2 and 2, two private flows each: the
        # ceiling takes the zero-load switch, one loaded switch whole and
        # half of the other, 2 + 2 + 1 = 5 flows, so quota 6 fails at
        # the root and quota 5 only deeper
        for quota, status, nodes in ((6, "infeasible", 1), (5, "infeasible", 3),
                                     (4, "optimal", 5)):
            result = solve_exact(OscmInstance(
                offline_switches=[1, 2, 3],
                active_controllers=[0],
                delay={(i, 0): 1.0 for i in (1, 2, 3)},
                g={1: 0, 2: 2, 3: 2},
                beta={1: {1, 2}, 2: {3, 4}, 3: {5, 6}},
                a_rest={0: 3},
                q_required=quota,
            ))
            assert (result.status, result.nodes_explored) == (status, nodes), quota
        assert result.solution.objective == 2.0

    def test_time_limit_is_read_at_every_node(self):
        # the deadline has passed before the first node, so the search
        # stops there with the greedy's solution
        result = solve_exact(chain_instance(1500), SolverBudget(time_limit_ms=1e-6))
        assert result.status == "not_proven"
        assert result.nodes_explored == 1
        assert result.solution.objective == 1500.0


def shared_flow_instance(rng, quota):
    """Switches that share flows, under residual abilities that cannot take
    every switch: below the root, some switch that adds flows fits no
    controller, and some branch passes over a flow's last carrier."""
    n = rng.randint(3, 6)
    m = rng.randint(1, 3)
    switches = list(range(1, n + 1))
    controllers = list(range(101, 101 + m))
    n_flows = rng.randint(2, n + 1)
    beta = {i: set(rng.sample(range(n_flows), rng.randint(1, min(3, n_flows))))
            for i in switches}
    g = {i: rng.randint(1, 9) for i in switches}
    total = sum(g.values())
    L = len(set().union(*beta.values()))
    return OscmInstance(
        offline_switches=switches,
        active_controllers=controllers,
        delay={(i, j): float(rng.randint(0, 20)) for i in switches for j in controllers},
        g=g,
        beta=beta,
        a_rest={j: rng.randint(0, total // m) for j in controllers},
        q_required={"all": L, "all_but_one": L - 1, "half": L // 2}[quota],
    )


def fractional_instance(rng):
    """Every flow required, under delays with no exact binary form, so the
    order in which the overheads are summed shows in the last digits."""
    delays = (0.1, 0.2, 0.3, 0.35, 0.7, 1.1, 2.3, 5.55)
    n, m = rng.randint(2, 6), rng.randint(1, 2)
    switches = range(1, n + 1)
    controllers = range(101, 101 + m)
    beta = {i: set(rng.sample(range(n + 2), rng.randint(1, 3))) for i in switches}
    g = {i: rng.randint(1, 9) for i in switches}
    return OscmInstance(
        offline_switches=switches,
        active_controllers=controllers,
        delay={(i, j): rng.choice(delays) for i in switches for j in controllers},
        g=g,
        beta=beta,
        a_rest={j: rng.randint(sum(g.values()) // 2, sum(g.values())) for j in controllers},
        q_required=len(set().union(*beta.values())),
    )


def seeded_instances(seed, count):
    """`count` instances drawn in turn from the random, shared-flow and
    fractional-delay families."""
    rng = random.Random(seed)
    draw = (
        lambda: random_instance(rng),
        lambda: shared_flow_instance(rng, rng.choice(["all", "all_but_one", "half"])),
        lambda: fractional_instance(rng),
    )
    return [draw[k % 3]() for k in range(count)]


def exact_outcome(solve, inst, budget=None):
    result = solve(inst, budget)
    solution = result.solution and result.solution.to_json()
    return result.status, result.nodes_explored, solution


class TestExactWithoutUndo:
    def test_matches_undo_search(self):
        # the same nodes in the same order give the same count, status
        # and incumbent; a small node budget stops both at the same node
        statuses = set()
        for inst in seeded_instances(1010, 2100):
            outcome = exact_outcome(solve_exact, inst)
            assert outcome == exact_outcome(exact_undo, inst)
            cut = SolverBudget(max_nodes_explored=1 + outcome[1] // 2)
            cut_outcome = exact_outcome(solve_exact, inst, cut)
            assert cut_outcome == exact_outcome(exact_undo, inst, cut)
            statuses.update((outcome[0], cut_outcome[0]))
        assert statuses == {"optimal", "infeasible", "not_proven", "budget_exhausted"}

    def test_att25_matches_undo_search(self, benchmark_sweeps):
        # every exact search of the att25-sweep benchmark workload (124),
        # and of grid49-exact (21)
        for name in ("att25-sweep", "grid49-exact"):
            for inst, result in benchmark_sweeps(name).exact:
                solution = result.solution and result.solution.to_json()
                assert exact_outcome(exact_undo, inst) == (result.status, result.nodes_explored,
                                                           solution), inst.label


class TestLegacyPricing:
    """Only the root and mapped nodes price the undecided switches; a
    legacy child reads the counts of the node that priced them."""

    def test_workloads(self, benchmark_sweeps):
        # att25 makes 16,454 bound calls and grid49 8,777, of which legacy
        # children make 3,331 and 2,621: a search that prices at every
        # bound call reads those _price totals. With them: the exact
        # statuses (optimal, infeasible, not_proven) and summed nodes of
        # each benchmark workload's sweep, as conftest.py's
        # benchmark_sweep counts them
        work = {}
        for name in ("att25-sweep", "grid49-exact", "grid100-greedy"):
            sweep = benchmark_sweeps(name)
            work[name] = (sweep.prices, sweep.statuses, sum(sweep.nodes.values()))
        assert work == {"att25-sweep": (13123, (28, 96, 0), 22252),
                        "grid49-exact": (6156, (17, 4, 0), 11652),
                        "grid100-greedy": (0, (0, 0, 0), 0)}

    def test_chain_memory(self):
        # a legacy entry holds its parent's counts by reference, one list
        # of ints per priced node: the search peaks at about 5.5 MiB on
        # this chain of 400 levels, 0.7 MiB over a search that prices at
        # every node. Lists of per-switch flow sets in their place peak at
        # about 22 MiB
        inst = chain_instance(400)
        tracemalloc.start()
        try:
            result = solve_exact(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.nodes_explored == 801
        assert peak <= 6 * 2**20


def milp_check(inst):
    """solve_exact's status and objective against the MILP oracle's;
    returns the status."""
    cost, _ = milp_oscm(inst)
    result = solve_exact(inst)
    if cost is None:
        assert result.status == "infeasible"
    else:
        assert result.status == "optimal"
        assert math.isclose(result.solution.objective, cost, rel_tol=1e-9)
    return result.status


class TestMilpOracle:
    """The exact search against a mixed integer program, on instances
    past the reach of enumeration (at most 6 switches). Skipped where
    scipy is missing, or installed for another interpreter and so fails
    to import."""

    def test_seeded_instances(self):
        pytest.importorskip("scipy.optimize", exc_type=ImportError)
        rng = random.Random(6006)
        statuses, past_enumeration = Counter(), 0
        for _ in range(300):
            inst = random_instance(rng, n_max=16, m_max=4, q_mode="upper")
            statuses[milp_check(inst)] += 1
            past_enumeration += len(inst.offline_switches) > 6
        assert statuses == {"optimal": 276, "infeasible": 24}
        assert past_enumeration > 150

    def test_att25(self, att_world):
        pytest.importorskip("scipy.optimize", exc_type=ImportError)
        statuses = Counter(
            milp_check(build_instance(att_world.topology, att_world.beta, att_world.placement,
                                      s, q))
            for k in (1, 2) for s in enumerate_failure_scenarios(att_world.placement, k)
            for q in (0.9, 1.0))
        assert statuses == {"optimal": 25, "infeasible": 17}


class TestInstanceLeftAlone:
    """The exact search's root shares the instance's residual abilities;
    no solver may write into the instance it was given, and the instance
    keeps none of the flow ids it decodes."""

    @staticmethod
    def _check(inst):
        before, state = inst.to_json(), dict(vars(inst))
        solve_exact(inst)
        solve_retroflow(inst)
        solve_nearest(inst)
        assert inst.flows == inst.flows_of(inst.union)
        assert inst.to_json() == before
        assert vars(inst) == state

    def test_att25(self, att25_instances):
        for inst in att25_instances:
            self._check(inst)

    def test_seeded_instances(self):
        for inst in seeded_instances(1011, 300):
            self._check(inst)


class TestLostFlowPrune:
    @pytest.mark.parametrize("quota", ["all", "all_but_one", "half"])
    def test_matches_exhaustive_enumeration(self, quota):
        rng = random.Random(707)
        statuses = set()
        for _ in range(60):
            inst = shared_flow_instance(rng, quota)
            expected, _ = enumerate_oscm(inst)
            result = solve_exact(inst)
            statuses.add(result.status)
            if expected is None:
                assert result.status == "infeasible"
            else:
                assert result.status == "optimal"
                assert result.solution.objective == expected
        assert statuses == {"optimal", "infeasible"}


class TestSolveRetroflow:
    def test_single_switch_single_controller(self):
        inst = OscmInstance(
            offline_switches=[5], active_controllers=[9],
            delay={(5, 9): 2.0}, g={5: 4}, beta={5: {1, 2}},
            a_rest={9: 10}, q_required=2,
        )
        sol = solve_retroflow(inst)
        assert sol.assigned == {5: 9}
        assert sol.y == (1, 2)
        assert sol.quota_met

    def test_toy_structure_and_cost(self, toy):
        sol = solve_retroflow(toy)
        assert sol.assigned == {20: 3, 22: 3}
        assert sol.y == (1, 2, 3)
        assert sol.objective == 5.4
        assert sol.quota_met

    def test_no_capacity_anywhere_leaves_everything_legacy(self, toy):
        inst = OscmInstance(
            offline_switches=toy.offline_switches,
            active_controllers=toy.active_controllers,
            delay=toy.delay, g=toy.g, beta=toy.beta,
            a_rest={1: 1, 3: 1}, q_required=3,
        )
        sol = solve_retroflow(inst)
        assert sol.assigned == {}
        assert sol.y == ()
        assert not sol.quota_met
        assert sol.recovered_switches() == 0

    def test_partial_solution_flagged(self):
        sol = solve_retroflow(greedy_trap_instance())
        assert not sol.quota_met
        assert 0 < len(sol.y) < 2


class TestLazyGreedy:
    def test_matches_rescanning_greedy(self):
        rng = random.Random(909)
        seen = set()
        for _ in range(2500):
            inst = greedy_case(rng)
            want, got = [], []
            expected = greedy_rescan(inst, want)
            sol = solve_retroflow(inst, got)
            assert got == want
            assert sol.to_json() == expected.to_json()
            assert solve_retroflow(inst).to_json() == expected.to_json()

            counts = sorted((len(b) for b in inst.beta.values()), reverse=True)
            if inst.q_required and counts[1:] and counts[0] == counts[1] > 0:
                seen.add("tie")
            if want[-1].startswith("stop reason=stalled"):
                seen.add("stalled")
            if sum(l.startswith("pick") for l in want) > len(sol.assigned):
                seen.add("no fit")
            if any(inst.g[i] == 0 for i in sol.assigned):
                seen.add("zero load")
            if inst.offline_switches and inst.q_required == 0:
                seen.add("zero quota")
            if not inst.offline_switches:
                seen.add("no switch")
        assert seen == {"tie", "stalled", "no fit", "zero load", "zero quota", "no switch"}

    def test_att25_trace_digest(self, workload_worlds):
        # att25-sweep runs q 0.9 over k=1..5, then q 1.0: the digest reads
        # each scenario at both quotas in turn
        by_scenario = {}
        for s, _, inst in workload_worlds["att25-sweep"][1]:
            by_scenario.setdefault(s, []).append(inst)
        digest = hashlib.sha256()
        lines = 0
        for inst in (inst for pair in by_scenario.values() for inst in pair):
            trace = []
            solve_retroflow(inst, trace)
            digest.update(("\n".join(trace) + "\n").encode())
            lines += len(trace)
        assert lines == 5158
        assert digest.hexdigest() == ATT25_TRACE_SHA256


class CountingMasks(dict):
    """An instance's masks that count the reads of each switch's mask."""

    def __init__(self, masks):
        super().__init__(masks)
        self.reads = Counter()

    def __getitem__(self, i):
        self.reads[i] += 1
        return super().__getitem__(i)


def stranding_instance():
    """Controllers 101 and 102 with residuals 10 and 3, equidistant from
    every switch. Switch 1 (load 6, five flows) goes to 101 and leaves 4.
    Switch 2 (load 11, four flows) is heavier than every residual from the
    start, switch 3 (load 5, three flows) after that assignment. Switch 4
    (load 4, one flow) then fits 101 exactly."""
    switches = (1, 2, 3, 4)
    return OscmInstance(
        offline_switches=switches,
        active_controllers=[101, 102],
        delay={(i, j): 1.0 for i in switches for j in (101, 102)},
        g={1: 6, 2: 11, 3: 5, 4: 4},
        beta={1: {0, 1, 2, 3, 4}, 2: {5, 6, 7, 8}, 3: {9, 10, 11}, 4: {12}},
        a_rest={101: 10, 102: 3},
        q_required=13,
    )


class TestUnfitSwitches:
    """A switch heavier than every residual leaves the untraced greedy's
    heap unpriced; a traced run still picks and tests it."""

    def test_workloads(self, monkeypatch, workload_worlds):
        # the untraced greedy reads no mask of a switch heavier than every
        # residual at the start (148 over the three workloads), a traced
        # run picks each of them, and both match the rescanning greedy
        heavy_picks = 0
        for name in ("att25-sweep", "grid49-exact", "grid100-greedy"):
            for _, _, inst in workload_worlds[name][1]:
                heavy = [i for i in inst.offline_switches
                         if inst.g[i] > max(inst.a_rest.values(), default=-1)]
                # the instance is shared: its masks count reads until the test ends
                monkeypatch.setattr(inst, "masks", CountingMasks(inst.masks))
                masks = inst.masks
                sol = solve_retroflow(inst)
                assert not any(masks.reads[i] for i in heavy), inst.label
                traced, rescanned = [], []
                want = greedy_rescan(inst, rescanned).to_json()
                assert sol.to_json() == want, inst.label
                assert solve_retroflow(inst, traced).to_json() == want, inst.label
                assert traced == rescanned, inst.label
                picked = {line.split()[1] for line in traced if line.startswith("pick ")}
                assert {f"switch={i}" for i in heavy} <= picked, inst.label
                heavy_picks += len(heavy)
        assert heavy_picks == 148

    def test_unfit_masks_are_not_read(self):
        inst = stranding_instance()
        inst.masks = masks = CountingMasks(inst.masks)
        sol = solve_retroflow(inst)
        assert sol.assigned == {1: 101, 4: 101}
        assert masks.reads[2] == masks.reads[3] == 0
        assert masks.reads[4] > 0

        traced, rescanned = [], []
        assert solve_retroflow(inst, traced).to_json() == sol.to_json()
        assert masks.reads[2] > 0 and masks.reads[3] > 0
        greedy_rescan(inst, rescanned)
        assert traced == rescanned
        for i, delta in ((2, 4), (3, 3)):
            assert f"pick switch={i} delta={delta}" in traced
            assert [line for line in traced if line.startswith(f"test switch={i} ")] == [
                f"test switch={i} controller={j} w={inst.g[i] * 1.0} rest={r} fit=no"
                for j, r in ((101, 4), (102, 3))]

    @pytest.mark.parametrize("case", ["at-start", "after-assignment"])
    def test_load_equal_to_largest_residual_is_assigned(self, case):
        if case == "at-start":
            inst = OscmInstance(offline_switches=[1], active_controllers=[101, 102],
                                delay={(1, 101): 1.0, (1, 102): 2.0}, g={1: 7},
                                beta={1: {0}}, a_rest={101: 3, 102: 7}, q_required=1)
            want = {1: 102}
        else:
            inst, want = stranding_instance(), {1: 101, 4: 101}
        assert solve_retroflow(inst).assigned == want
        assert solve_retroflow(inst, []).assigned == want


def assert_same_greedy(inst):
    """The greedy on an instance holding its world's flow index and on
    its document, which indexes its own flows, agree line for line."""
    clone = OscmInstance.from_json(inst.to_json())
    assert inst.flows == clone.flows == tuple(sorted(set().union(*inst.beta.values())))
    got, want = [], []
    sol = solve_retroflow(inst, got)
    assert sol.to_json() == solve_retroflow(clone, want).to_json()
    assert got == want
    assert clone.to_json() == inst.to_json()


def random_world_instances(seed, worlds):
    """Every failure scenario's instance on `worlds` seeded random
    topologies, each with its own placement and a drawn quota fraction."""
    rng = random.Random(seed)
    for _ in range(worlds):
        n = rng.randint(3, 12)
        t = synthetic(n, random_connected_links(rng, n, (0, 50, 100, 300)))
        beta = compute_beta(generate_flows(t), t)
        loads = beta.loads()
        controllers = rng.sample(range(n), rng.randint(2, min(4, n)))
        domain_of = {i: rng.choice(controllers) for i in range(n)}
        # each controller serves its own domain, with room to spare for some
        capacity = [(c, sum(loads[i] for i, d in domain_of.items() if d == c)
                     + rng.choice((0, rng.randint(0, 4 * n))))
                    for c in controllers]
        placement = Placement(capacity, domain_of)
        for k in range(1, len(controllers)):
            for s in enumerate_failure_scenarios(placement, k):
                yield build_instance(t, beta, placement, s, rng.choice((0.5, 0.9, 1.0)))


class TestFlowMasks:
    """Flow sets as bitmasks: an instance built from a world uses the
    world's index, one read from a document derives its own."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_att25_world_and_document_index_agree(self, att_world, k):
        for s in enumerate_failure_scenarios(att_world.placement, k):
            for q in (0.9, 1.0):
                inst = build_instance(att_world.topology, att_world.beta,
                                      att_world.placement, s, q)
                # the world ranks flows the instance does not carry
                assert len(inst._ids) > inst.n_flows
                assert_same_greedy(inst)

    def test_random_worlds(self):
        for inst in random_world_instances(1414, 40):
            assert_same_greedy(inst)

    def test_flows_without_a_carrier(self):
        """A world's bit is its flow id, so a flow no switch carries leaves
        a gap in the masks; a matrix built from rows ranks its ids and
        leaves none. Flow counts, quotas and solutions are the same."""
        # node 3 hangs off a bridge: no switch reprograms a flow to it,
        # and node 3 itself reprograms nothing
        t = synthetic(4, [(0, 1, 100), (1, 2, 100), (0, 2, 150), (2, 3, 100)])
        placement = Placement([(0, 40), (2, 40)], {0: 0, 1: 0, 2: 2, 3: 2})
        world = make_world(t, placement)
        fs = generate_flows(t)
        ranked = compute_beta(fs, t)
        carried = set().union(*(ranked.flows_at(i) for i in t.node_ids()))
        assert len(carried) < len(fs) == 12
        assert world.beta.ids == tuple(range(12)) != ranked.ids == tuple(sorted(carried))
        for s in enumerate_failure_scenarios(placement, 1):
            for q in (0.5, 0.9, 1.0):
                got = build_instance(t, world.beta, placement, s, q)
                want = build_instance(t, ranked, placement, s, q)
                assert (got.n_flows, got.q_required) == (want.n_flows, want.q_required)
                assert got.flows == want.flows
                for solve in (solve_retroflow, solve_nearest):
                    assert solve(got).y == solve(want).y
                    assert solve(got) == solve(want)
                assert exact_outcome(solve_exact, got) == exact_outcome(solve_exact, want)

    def test_huge_and_negative_flow_ids(self):
        inst = OscmInstance(
            offline_switches=[1, 2, 3, 4],
            active_controllers=[10, 20],
            delay={(i, j): float((i * j) % 7) for i in (1, 2, 3, 4) for j in (10, 20)},
            g={1: 3, 2: 4, 3: 2, 4: 5},
            beta={1: {10**300, -7, 0}, 2: {-7, -(10**300), 5}, 3: {10**300}, 4: {2**64, 5}},
            a_rest={10: 7, 20: 6},
            q_required=5,
        )
        assert inst.flows == (-(10**300), -7, 0, 5, 2**64, 10**300)
        want, got = [], []
        expected = greedy_rescan(inst, want)
        assert solve_retroflow(inst, got).to_json() == expected.to_json()
        assert got == want
        assert any(str(10**300) in line for line in got)
        assert_same_greedy(inst)


def assert_like_constructed(sol):
    """A solver's solution, which holds its flows as a mask over its
    instance's flow index, behaves as the solution the public constructor
    builds from the same flow ids, given unsorted."""
    y = sol.y
    assert type(y) is tuple and all(a < b for a, b in zip(y, y[1:]))
    assert sol.n_programmable == len(y)
    public = Solution(x=dict(sol.x), assigned=dict(sol.assigned), y=list(reversed(y)),
                      objective=sol.objective, quota_met=sol.quota_met)
    assert sol == public and public == sol
    assert sol.to_json() == public.to_json()
    assert repr(sol) == repr(public) == (
        f"Solution(x={sol.x!r}, assigned={sol.assigned!r}, y={y!r}, "
        f"objective={sol.objective!r}, quota_met={sol.quota_met!r})")
    for twin in (pickle.loads(pickle.dumps(sol)), copy.copy(sol), copy.deepcopy(sol)):
        assert twin == public and twin.to_json() == public.to_json()
        assert repr(twin) == repr(public)
    if y:
        assert sol != Solution(sol.x, sol.assigned, y[1:], sol.objective, sol.quota_met)
    with pytest.raises(FrozenInstanceError):
        sol.y = ()
    with pytest.raises(FrozenInstanceError):
        sol.objective = 0.0
    with pytest.raises(TypeError, match="unhashable"):
        hash(sol)


def solver_solutions(inst):
    """Every solution the three solvers return for inst."""
    yield solve_retroflow(inst)
    yield solve_nearest(inst)
    result = solve_exact(inst)
    if result.solution is not None:
        yield result.solution


class TestSolutionMasks:
    """Solvers hand out their flow masks undecoded; the solution decodes
    y on each read and otherwise acts as one built from flow ids."""

    def test_att25(self, att25_instances):
        for inst in att25_instances:
            for sol in solver_solutions(inst):
                assert_like_constructed(sol)

    def test_random_worlds(self):
        for inst in random_world_instances(1515, 15):
            for sol in solver_solutions(inst):
                assert_like_constructed(sol)


class TestSolveNearest:
    def test_single_controller(self, toy):
        inst = OscmInstance(
            offline_switches=toy.offline_switches, active_controllers=[3],
            delay={(i, 3): toy.delay[(i, 3)] for i in toy.offline_switches},
            g=toy.g, beta=toy.beta, a_rest={3: 5}, q_required=3,
        )
        sol = solve_nearest(inst)
        assert set(sol.assigned.values()) == {3}

    def test_toy_overloads_the_near_controller(self, toy):
        sol = solve_nearest(toy)
        assert sol.assigned == {i: 3 for i in toy.offline_switches}
        pulled = sum(toy.g[i] for i in sol.assigned)
        assert pulled == 11 > toy.a_rest[3] == 5

    def test_equidistant_tie_smaller_controller(self):
        inst = OscmInstance(
            offline_switches=[1], active_controllers=[10, 20],
            delay={(1, 10): 3.0, (1, 20): 3.0}, g={1: 2}, beta={1: {0}},
            a_rest={10: 5, 20: 5}, q_required=0,
        )
        assert solve_nearest(inst).assigned == {1: 10}

    def test_objective_adds_left_to_right(self):
        # 1.0 + 1e-16 rounds to 1.0 twice over; sum()'s compensated float
        # additions since Python 3.12 keep the two 1e-16 and give
        # 1.0000000000000002, so a report would depend on the version
        inst = OscmInstance(
            offline_switches=[1, 2, 3], active_controllers=[10],
            delay={(1, 10): 1.0, (2, 10): 1e-16, (3, 10): 1e-16}, g={1: 1, 2: 1, 3: 1},
            beta={1: {0}, 2: {1}, 3: {2}}, a_rest={10: 3}, q_required=3,
        )
        assert solve_nearest(inst).objective == 1.0

    def test_recovers_every_flow(self):
        rng = random.Random(32)
        for _ in range(50):
            inst = random_instance(rng)
            union = set().union(*(inst.beta[i] for i in inst.offline_switches))
            assert solve_nearest(inst).y == tuple(sorted(union))

    def test_argmin_invariance(self):
        rng = random.Random(31)
        for _ in range(50):
            inst = random_instance(rng)
            sol = solve_nearest(inst)
            for i, j in sol.assigned.items():
                best = min(inst.delay[(i, c)] for c in inst.active_controllers)
                assert inst.delay[(i, j)] == best

    def test_matches_min_reference(self):
        """The comparison loop maps every switch as `min` keyed (delay, id)
        did. Integer delays make ties common: a tie to a later controller
        must keep the smaller id."""
        rng = random.Random(4242)
        ties = 0
        for k in range(600):
            inst = greedy_case(rng) if k % 2 else random_instance(rng, n_max=10, m_max=5)
            got, want = solve_nearest(inst), nearest_by_min(inst)
            assert got == want
            assert list(got.assigned.items()) == list(want.assigned.items())
            assert got.to_json() == want.to_json()
            for i, j in got.assigned.items():
                near = [c for c in inst.active_controllers
                        if inst.delay[(i, c)] == inst.delay[(i, j)]]
                ties += len(near) > 1
        assert ties > 100


class TestGapReduction:
    def test_special_shape_reduces(self):
        rng = random.Random(1)
        inst = random_gap_special_instance(rng)
        gap = reduce_to_gap(inst)
        assert gap is not None
        assert gap.n_tasks == len(inst.offline_switches)
        assert gap.n_agents == len(inst.active_controllers)

    def test_att_instance_not_applicable(self, att_world):
        s = FailureScenario(frozenset({20}))
        inst = build_instance(att_world.topology, att_world.beta,
                              att_world.placement, s, 1.0)
        assert reduce_to_gap(inst) is None
        # a switch with two flows, and two switches that share a flow
        for beta, n_flows in (({1: {10, 11}}, 2), ({1: {10}, 2: {10}}, 1)):
            inst = OscmInstance(offline_switches=list(beta), active_controllers=[7],
                                delay={(i, 7): 1.0 for i in beta}, g=dict.fromkeys(beta, 1),
                                beta=beta, a_rest={7: 3}, q_required=n_flows)
            assert reduce_to_gap(inst) is None, beta

    def test_empty_instance(self):
        inst = OscmInstance(offline_switches=[], active_controllers=[7],
                            delay={}, g={}, beta={}, a_rest={7: 3}, q_required=0)
        gap = reduce_to_gap(inst)
        assert gap is not None and gap.n_tasks == 0
        assert gap_bruteforce(gap) == 0.0

    def test_partial_quota_not_applicable(self):
        rng = random.Random(2)
        inst = random_gap_special_instance(rng)
        relaxed = OscmInstance(
            offline_switches=inst.offline_switches,
            active_controllers=inst.active_controllers,
            delay=inst.delay, g=inst.g, beta=inst.beta, a_rest=inst.a_rest,
            q_required=max(0, inst.q_required - 1),
        )
        if relaxed.q_required != relaxed.n_flows:
            assert reduce_to_gap(relaxed) is None


class TestGapBruteforce:
    def test_no_tasks(self):
        gap = GapInstance(costs=(), usage=(), capacities=(5.0, 5.0))
        assert gap_bruteforce(gap) == 0.0

    def test_one_task_two_agents(self):
        gap = GapInstance(costs=((3.0, 5.0),), usage=((1.0, 1.0),),
                          capacities=(2.0, 2.0))
        assert gap_bruteforce(gap) == 3.0

    def test_infeasible(self):
        gap = GapInstance(costs=((3.0,),), usage=((9.0,),), capacities=(2.0,))
        assert gap_bruteforce(gap) is None

    def test_no_agents(self):
        gap = GapInstance(costs=((),), usage=((),), capacities=())
        assert gap_bruteforce(gap) is None

    @pytest.mark.parametrize("costs, usage, capacities, message", [
        (((1.0,),), (), (1.0,), "inconsistent dimensions"),
        (((1.0, 2.0),), ((1.0, 2.0),), (1.0,), "inconsistent dimensions"),
        (((1.0,),), ((-1.0,),), (1.0,), "negative entries"),
        (((1.0,),), ((1.0,),), (-1.0,), "negative capacity"),
    ], ids=["task-counts", "agent-counts", "negative-usage", "negative-capacity"])
    def test_malformed_instance_rejected(self, costs, usage, capacities, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GapInstance(costs=costs, usage=usage, capacities=capacities)

    def test_against_second_implementation(self):
        rng = random.Random(97)
        for _ in range(40):
            n, m = 5, 3
            costs = tuple(tuple(float(rng.randint(0, 9)) for _ in range(m))
                          for _ in range(n))
            usage = tuple(tuple(float(rng.randint(0, 5)) for _ in range(m))
                          for _ in range(n))
            caps = tuple(float(rng.randint(0, 12)) for _ in range(m))
            gap = GapInstance(costs=costs, usage=usage, capacities=caps)
            assert gap_bruteforce(gap) == gap_optimum_recursive(costs, usage, caps)

    def test_size_guard(self, monkeypatch):
        n = 30
        gap = GapInstance(costs=tuple((1.0, 1.0) for _ in range(n)),
                          usage=tuple((1.0, 1.0) for _ in range(n)),
                          capacities=(99.0, 99.0))
        with pytest.raises(GapSizeError, match=r"^2\^30 assignments exceed the enumeration bound$"):
            gap_bruteforce(gap)
        # exactly at the bound, 2^3 assignments still enumerate
        monkeypatch.setattr(solvers, "MAX_ASSIGNMENTS", 8)
        gap = GapInstance(costs=((1.0, 1.0),) * 3, usage=((1.0, 1.0),) * 3,
                          capacities=(99.0, 99.0))
        assert gap_bruteforce(gap) == 3.0


class TestSolverInvariants:
    def test_soundness_on_random_instances(self):
        rng = random.Random(55)
        for _ in range(60):
            inst = random_instance(rng)
            sol = solve_retroflow(inst)
            report = validate(inst, sol)
            assert report.check("mapping").passed
            assert report.check("capacity").passed
            assert report.check("programmability").passed
            if sol.quota_met:
                assert report.check("quota").passed
            result = solve_exact(inst)
            if result.solution is not None:
                assert validate(inst, result.solution).feasible

    def test_dominance(self):
        rng = random.Random(66)
        for _ in range(60):
            inst = random_instance(rng)
            greedy = solve_retroflow(inst)
            result = solve_exact(inst)
            if greedy.quota_met and result.status == "optimal":
                assert result.solution.objective <= greedy.objective

    def test_dominance_with_fractional_delays(self):
        rng = random.Random(67)
        compared = 0
        for _ in range(300):
            inst = fractional_instance(rng)
            greedy = solve_retroflow(inst)
            result = solve_exact(inst)
            if greedy.quota_met and result.status == "optimal":
                compared += 1
                assert result.solution.objective <= greedy.objective
        assert compared > 100

    def test_determinism_byte_identical(self, toy):
        first = [solve_exact(toy).solution.to_json(),
                 solve_retroflow(toy).to_json(),
                 solve_nearest(toy).to_json()]
        for _ in range(3):
            again = [solve_exact(toy).solution.to_json(),
                     solve_retroflow(toy).to_json(),
                     solve_nearest(toy).to_json()]
            assert again == first
