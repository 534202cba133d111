import random

import pytest

from retroflow.domains import FailureScenario, enumerate_failure_scenarios
from retroflow.oscm import OscmInstance, Solution, build_instance, validate
from retroflow.solvers import (BudgetExhausted, GapInstance, GapSizeError,
                               SolverBudget, gap_bruteforce, reduce_to_gap,
                               solve_exact, solve_nearest, solve_retroflow)

from _oracles import (enumerate_oscm, gap_optimum_recursive, random_instance,
                      random_gap_special_instance)


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
        assert result.solution.y == {1, 2, 3}

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

    def test_budget_exhaustion_with_incumbent(self, toy):
        result = solve_exact(toy, SolverBudget(max_nodes_explored=1))
        assert result.status == "not_proven"
        assert result.solution is not None  # the greedy incumbent

    def test_budget_exhaustion_without_incumbent(self):
        with pytest.raises(BudgetExhausted, match="inconclusive"):
            solve_exact(greedy_trap_instance(), SolverBudget(max_nodes_explored=1))

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

    def test_att_search_size(self, att_world):
        """Summed B&B node counts over every att25 single and double
        failure. Pruning may only change when a bound changes: a PR that
        tightens the bounds (ROADMAP item 2) updates these numbers and
        records why in CHANGES.md."""
        t, b, p = att_world.topology, att_world.beta, att_world.placement
        nodes = {
            (k, q): sum(solve_exact(build_instance(t, b, p, s, q)).nodes_explored
                        for s in enumerate_failure_scenarios(p, k))
            for k in (1, 2) for q in (0.9, 1.0)
        }
        assert nodes == {(1, 0.9): 210, (2, 0.9): 4441, (1, 1.0): 245, (2, 1.0): 15926}

    def test_oracle_equivalence_smoke(self):
        rng = random.Random(4242)
        for _ in range(40):
            inst = random_instance(rng)
            expected, _ = enumerate_oscm(inst)
            result = solve_exact(inst)
            if expected is None:
                assert result.status == "infeasible"
            else:
                assert result.status == "optimal"
                assert result.solution.objective == expected


class TestSolveRetroflow:
    def test_single_switch_single_controller(self):
        inst = OscmInstance(
            offline_switches=[5], active_controllers=[9],
            delay={(5, 9): 2.0}, g={5: 4}, beta={5: {1, 2}},
            a_rest={9: 10}, q_required=2,
        )
        sol = solve_retroflow(inst)
        assert sol.assigned == {5: 9}
        assert sol.y == {1, 2}
        assert sol.quota_met

    def test_toy_structure_and_cost(self, toy):
        sol = solve_retroflow(toy)
        assert sol.assigned == {20: 3, 22: 3}
        assert sol.y == {1, 2, 3}
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
        assert sol.y == frozenset()
        assert not sol.quota_met
        assert sol.recovered_switches() == 0

    def test_partial_solution_flagged(self):
        sol = solve_retroflow(greedy_trap_instance())
        assert not sol.quota_met
        assert 0 < len(sol.y) < 2


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

    def test_argmin_invariance(self):
        rng = random.Random(31)
        for _ in range(50):
            inst = random_instance(rng)
            sol = solve_nearest(inst)
            for i, j in sol.assigned.items():
                best = min(inst.delay[(i, c)] for c in inst.active_controllers)
                assert inst.delay[(i, j)] == best


class TestGapReduction:
    def test_special_shape_reduces(self):
        rng = random.Random(1)
        inst = random_gap_special_instance(rng)
        gap = reduce_to_gap(inst)
        assert gap is not None
        assert gap.n_tasks == inst.n_switches
        assert gap.n_agents == inst.n_controllers

    def test_att_instance_not_applicable(self, att_world):
        s = FailureScenario(frozenset({20}))
        inst = build_instance(att_world.topology, att_world.beta,
                              att_world.placement, s, 1.0)
        assert reduce_to_gap(inst) is None

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

    def test_size_guard(self):
        n = 30
        gap = GapInstance(costs=tuple((1.0, 1.0) for _ in range(n)),
                          usage=tuple((1.0, 1.0) for _ in range(n)),
                          capacities=(99.0, 99.0))
        with pytest.raises(GapSizeError):
            gap_bruteforce(gap)


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

    def test_reduction_equivalence_smoke(self):
        rng = random.Random(88)
        for _ in range(30):
            inst = random_gap_special_instance(rng)
            gap = reduce_to_gap(inst)
            assert gap is not None
            expected = gap_bruteforce(gap)
            result = solve_exact(inst)
            if expected is None:
                assert result.status == "infeasible"
            else:
                assert result.solution.objective == expected

    def test_determinism_byte_identical(self, toy):
        first = [solve_exact(toy).solution.to_json(),
                 solve_retroflow(toy).to_json(),
                 solve_nearest(toy).to_json()]
        for _ in range(3):
            again = [solve_exact(toy).solution.to_json(),
                     solve_retroflow(toy).to_json(),
                     solve_nearest(toy).to_json()]
            assert again == first
