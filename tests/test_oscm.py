import json
import math
import random

import pytest

from retroflow.domains import FailureScenario
from retroflow.oscm import (InstanceError, OscmInstance, Solution,
                            all_legacy_solution, build_instance, objective,
                            programmable_flows, validate)

from _oracles import check_solution, random_instance


def tiny_instance(q=0):
    """3 switches x 2 controllers with hand-set numbers."""
    return OscmInstance(
        offline_switches=[1, 2, 3],
        active_controllers=[10, 20],
        delay={(1, 10): 2.5, (1, 20): 4.0,
               (2, 10): 1.0, (2, 20): 3.0,
               (3, 10): 5.0, (3, 20): 0.5},
        g={1: 3, 2: 4, 3: 2},
        beta={1: {100, 101}, 2: {101, 102}, 3: {103}},
        a_rest={10: 7, 20: 4},
        q_required=q,
    )


class TestBuildInstance:
    @pytest.mark.parametrize("q_fraction", [0.0, 0.5, 0.9, 1.0])
    def test_quota_is_ceiling(self, att_world, q_fraction):
        s = FailureScenario(frozenset({20}))
        inst = build_instance(att_world.topology, att_world.beta,
                              att_world.placement, s, q_fraction)
        assert inst.q_required == math.ceil(q_fraction * inst.n_flows)

    def test_integer_quota_unchanged(self, att_world):
        s = FailureScenario(frozenset({22}))
        inst = build_instance(att_world.topology, att_world.beta,
                              att_world.placement, s, 1.0)
        assert inst.q_required == inst.n_flows

    def test_toy_shape(self, toy):
        assert toy.n_switches == 5
        assert toy.n_controllers == 2
        assert toy.offline_switches == (20, 21, 22, 23, 24)
        assert toy.flows == (1, 2, 3)

    def test_fixture_loads_take_precedence(self, att_world):
        s = FailureScenario(frozenset({20}))
        inst = build_instance(att_world.topology, att_world.beta,
                              att_world.placement, s, 1.0)
        assert inst.g[19] == 49 and inst.g[20] == 61  # published counts

    def test_geodesic_delay_never_exceeds_routed(self, att_world):
        s = FailureScenario(frozenset({20}))
        routed = build_instance(att_world.topology, att_world.beta,
                                att_world.placement, s, 1.0)
        direct = build_instance(att_world.topology, att_world.beta,
                                att_world.placement, s, 1.0,
                                control_delay="geodesic")
        for key, d in direct.delay.items():
            assert d <= routed.delay[key] + 1e-9

    def test_bad_fraction(self, att_world):
        with pytest.raises(InstanceError, match="q_fraction"):
            build_instance(att_world.topology, att_world.beta,
                           att_world.placement, FailureScenario(frozenset({20})), 1.5)

    def test_w_is_load_times_delay(self, toy):
        for i in toy.offline_switches:
            for j in toy.active_controllers:
                assert toy.w(i, j) == toy.g[i] * toy.delay[(i, j)]


class TestObjective:
    def test_all_legacy_is_zero(self):
        inst = tiny_instance()
        assert objective(inst, all_legacy_solution(inst)) == 0.0

    def test_single_assignment(self):
        inst = tiny_instance()
        sol = Solution(x={1: 1, 2: 0, 3: 0}, assigned={1: 10}, y=frozenset({100, 101}),
                       objective=0.0)
        assert objective(inst, sol) == 7.5  # 3 * 2.5

    def test_two_assignments_hand_sum(self):
        inst = tiny_instance()
        sol = Solution(x={1: 0, 2: 1, 3: 1}, assigned={2: 10, 3: 20},
                       y=frozenset({101, 102, 103}), objective=0.0)
        # 4*1.0 + 2*0.5 = 5.0
        assert objective(inst, sol) == 5.0

    def test_dimension_mismatch(self):
        inst = tiny_instance()
        sol = Solution(x={1: 0, 2: 0}, assigned={}, y=frozenset(), objective=0.0)
        with pytest.raises(InstanceError):
            objective(inst, sol)

    def test_monotone_in_assignments(self):
        rng = random.Random(5)
        for _ in range(50):
            inst = random_instance(rng)
            free = [i for i in inst.offline_switches]
            chosen = rng.sample(free, rng.randint(0, len(free)))
            sol = Solution(
                x={i: (1 if i in chosen else 0) for i in inst.offline_switches},
                assigned={i: rng.choice(inst.active_controllers) for i in chosen},
                y=frozenset(), objective=0.0,
            )
            base = objective(inst, sol)
            rest = [i for i in inst.offline_switches if i not in chosen]
            if not rest:
                continue
            extra = rng.choice(rest)
            bigger = Solution(
                x={**sol.x, extra: 1},
                assigned={**sol.assigned, extra: rng.choice(inst.active_controllers)},
                y=frozenset(), objective=0.0,
            )
            assert objective(inst, bigger) >= base


class TestValidate:
    def test_all_legacy_feasible_at_zero_quota(self):
        inst = tiny_instance(q=0)
        report = validate(inst, all_legacy_solution(inst))
        assert report.feasible

    def test_mapping_violation_cited(self):
        inst = tiny_instance()
        sol = Solution(x={1: 0, 2: 0, 3: 0}, assigned={1: 20}, y=frozenset(),
                       objective=0.0)
        report = validate(inst, sol)
        assert not report.feasible
        assert not report.check("mapping").passed
        assert 1 in report.check("mapping").offenders

    def test_capacity_boundary_violation(self):
        inst = tiny_instance()
        # controller 20 rest is 4; switches 1 and 3 pull 3 + 2 = 5
        sol = Solution(x={1: 1, 2: 0, 3: 1}, assigned={1: 20, 3: 20},
                       y=frozenset({100, 101, 103}), objective=0.0)
        report = validate(inst, sol)
        assert not report.check("capacity").passed
        assert 20 in report.check("capacity").offenders

    def test_unsupported_flow_cited(self):
        inst = tiny_instance()
        sol = Solution(x={1: 0, 2: 0, 3: 1}, assigned={3: 20},
                       y=frozenset({100}), objective=0.0)
        report = validate(inst, sol)
        assert not report.check("programmability").passed

    def test_agrees_with_independent_checker(self):
        rng = random.Random(77)
        for _ in range(100):
            inst = random_instance(rng)
            chosen = rng.sample(inst.offline_switches,
                                rng.randint(0, inst.n_switches))
            assigned = {i: rng.choice(inst.active_controllers) for i in chosen}
            x = {i: (1 if i in assigned else 0) for i in inst.offline_switches}
            if rng.random() < 0.3 and inst.offline_switches:
                # corrupt the mode vector to exercise the mapping family
                victim = rng.choice(inst.offline_switches)
                x[victim] = 1 - x[victim]
            y = set(rng.sample(inst.flows, rng.randint(0, inst.n_flows)))
            sol = Solution(x=x, assigned=assigned, y=frozenset(y), objective=0.0)
            report = validate(inst, sol)
            failing = {c.family for c in report.checks if not c.passed}
            expected = check_solution(inst, x, assigned, y, inst.q_required)
            assert failing == expected
            assert report.feasible == (not expected)


class TestProgrammableFlows:
    def test_all_on(self):
        inst = tiny_instance()
        got = programmable_flows(inst, {1: 1, 2: 1, 3: 1})
        assert got == {100, 101, 102, 103}

    def test_all_off(self):
        inst = tiny_instance()
        assert programmable_flows(inst, {1: 0, 2: 0, 3: 0}) == frozenset()

    def test_toy_selection(self, toy):
        got = programmable_flows(toy, {20: 1, 21: 0, 22: 1, 23: 0, 24: 0})
        assert got == {1, 2, 3}

    def test_monotone_under_inclusion(self):
        rng = random.Random(9)
        for _ in range(50):
            inst = random_instance(rng)
            on = set(rng.sample(inst.offline_switches, rng.randint(0, inst.n_switches)))
            smaller = {i: (1 if i in on else 0) for i in inst.offline_switches}
            more = set(on)
            for i in inst.offline_switches:
                if rng.random() < 0.3:
                    more.add(i)
            larger = {i: (1 if i in more else 0) for i in inst.offline_switches}
            assert programmable_flows(inst, smaller) <= programmable_flows(inst, larger)

    def test_upper_bounds_any_feasible_y(self):
        rng = random.Random(13)
        for _ in range(50):
            inst = random_instance(rng)
            chosen = rng.sample(inst.offline_switches, rng.randint(0, inst.n_switches))
            x = {i: (1 if i in chosen else 0) for i in inst.offline_switches}
            supported = programmable_flows(inst, x)
            y = set(rng.sample(sorted(supported), rng.randint(0, len(supported))))
            assert len(supported) >= len(y)


class TestSerialization:
    def test_instance_round_trip(self, toy):
        clone = OscmInstance.from_json(toy.to_json())
        assert clone.offline_switches == toy.offline_switches
        assert clone.active_controllers == toy.active_controllers
        assert clone.delay == toy.delay
        assert clone.g == toy.g
        assert clone.beta == toy.beta
        assert clone.a_rest == toy.a_rest
        assert clone.q_required == toy.q_required

    def test_solution_round_trip(self):
        sol = Solution(x={1: 1, 2: 0}, assigned={1: 10}, y=frozenset({4, 5}),
                       objective=12.5, quota_met=False)
        clone = Solution.from_json(sol.to_json())
        assert clone == sol

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), -1.0])
    def test_bad_delay_rejected(self, toy, delay):
        doc = json.loads(toy.to_json())
        doc["delay_ms"][next(iter(doc["delay_ms"]))] = delay
        with pytest.raises(InstanceError, match="finite and nonnegative"):
            OscmInstance.from_json(json.dumps(doc))

    @pytest.mark.parametrize("text", [
        "[]",
        '{"x": 5, "assigned": {}, "y": [], "objective": 0.0}',
        '{"x": {}, "assigned": {}, "y": 3, "objective": 0.0}',
        '{"x": {"1": Infinity}, "assigned": {}, "y": [], "objective": 0.0}',
    ])
    def test_malformed_solution_document(self, text):
        with pytest.raises(InstanceError, match="malformed solution document"):
            Solution.from_json(text)

    @pytest.mark.parametrize("section, key, raw", [
        ("loads", "20", "2.5"), ("loads", "20", "Infinity"), ("loads", "20", "null"),
        ("residual", "1", "2.5"), ("residual", "1", "NaN"),
        ("flows", "20", "[0.5]"), ("flows", "20", "[[1]]"),
        ("quota", None, "2.5"), ("quota", None, "\"many\""),
    ])
    def test_non_whole_numbers_rejected(self, toy, section, key, raw):
        # a truncating int() would turn a load of 2.5 into 2 and flow id
        # 0.5 into flow 0
        doc = json.loads(toy.to_json())
        if key is None:
            doc[section] = "VALUE"
        else:
            doc[section][key] = "VALUE"
        text = json.dumps(doc).replace('"VALUE"', raw)
        with pytest.raises(InstanceError, match="must be a whole number"):
            OscmInstance.from_json(text)

    def test_malformed_instance_document(self, toy):
        doc = json.loads(toy.to_json())
        doc["loads"] = [1, 2]
        with pytest.raises(InstanceError, match="malformed instance document"):
            OscmInstance.from_json(json.dumps(doc))
