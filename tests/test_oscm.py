import json
import math
import random
import re

import pytest

from retroflow import domains as dm
from retroflow.domains import FailureScenario, Placement, PlacementError
from retroflow.cli import main
from retroflow.flows import BetaMatrix, programmability
from retroflow.geo import load_topology, shortest_path_tree
from retroflow.oscm import (InstanceError, OscmInstance, Solution,
                            build_instance, programmable_flows, validate)
from retroflow.solvers import solve_retroflow

from _oracles import (check_solution, far_path, objective, random_instance,
                      residual_capacity)


def all_legacy(inst):
    return Solution(x={i: 0 for i in inst.offline_switches}, assigned={},
                    y=frozenset(), objective=0.0)


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
        assert len(toy.offline_switches) == 5
        assert len(toy.active_controllers) == 2
        assert toy.offline_switches == (20, 21, 22, 23, 24)
        assert toy.flows == (1, 2, 3)

    def test_fixture_loads_take_precedence(self, att_world):
        s = FailureScenario(frozenset({20}))
        inst = build_instance(att_world.topology, att_world.beta,
                              att_world.placement, s, 1.0)
        assert inst.g[19] == 49 and inst.g[20] == 61  # published counts

    def test_bad_fraction(self, att_world):
        with pytest.raises(InstanceError, match="q_fraction"):
            build_instance(att_world.topology, att_world.beta,
                           att_world.placement, FailureScenario(frozenset({20})), 1.5)

    @staticmethod
    def assert_rejected_on_ring5(ring5, p, message):
        """Every single failure of p, a placement built in code, names the
        id that ring5 lacks."""
        b = programmability(ring5)
        for c in p.controller_ids:
            with pytest.raises(PlacementError, match=message):
                build_instance(ring5, b, p, FailureScenario(frozenset({c})), 1.0)

    def test_controller_outside_topology(self, ring5):
        p = Placement([(0, 100), (9, 100)], {0: 0, 1: 0, 2: 9, 3: 9, 4: 9})
        self.assert_rejected_on_ring5(ring5, p, "^controller node 9 not in topology$")

    def test_switch_outside_topology(self, ring5):
        p = Placement([(0, 100), (2, 100)], {0: 0, 1: 0, 2: 2, 3: 2, 4: 2, 7: 2})
        self.assert_rejected_on_ring5(ring5, p, "^switch 7 not in topology$")

    def test_node_in_no_domain(self, ring5):
        p = Placement([(0, 100), (2, 100)], {0: 0, 1: 0, 2: 2, 3: 2})
        self.assert_rejected_on_ring5(ring5, p, "^switch 4 unassigned$")

    def test_scenario_checked_once(self, att_world, monkeypatch):
        calls = []
        check = dm.validate_scenario
        monkeypatch.setattr(dm, "validate_scenario", lambda p, s: calls.append(s) or check(p, s))
        w = att_world
        s = FailureScenario(frozenset({2, 5}))
        inst = build_instance(w.topology, w.beta, w.placement, s, 1.0)
        assert calls == [s]
        assert inst.active_controllers == (6, 13, 20, 22)
        for failed, message in (({99}, r"not in placement: \[99\]"),
                                (set(w.placement.controller_ids), "must survive")):
            with pytest.raises(PlacementError, match=message):
                build_instance(w.topology, w.beta, w.placement,
                               FailureScenario(frozenset(failed)), 1.0)

    def test_w_is_load_times_delay(self, toy):
        for i in toy.offline_switches:
            for j in toy.active_controllers:
                assert toy.w(i, j) == toy.g[i] * toy.delay[(i, j)]


def decoded_rows(inst):
    return {i: inst.flows_of(inst.masks[i]) for i in inst.offline_switches}


def assert_same_as_document(inst, doc):
    """doc, inst's document read back, holds the same values: flow rows
    decoded, since the document's index ranks only its own flows.
    test_switch_table checks its delays and orders."""
    assert doc.offline_switches == inst.offline_switches
    assert doc.active_controllers == inst.active_controllers
    assert doc.g == inst.g
    assert doc.a_rest == inst.a_rest
    assert decoded_rows(doc) == decoded_rows(inst)
    assert doc.counts == inst.counts
    assert (doc.q_required, doc.label) == (inst.q_required, inst.label)


class TestWorldRoute:
    """build_instance skips the constructor's per-pair and per-key checks:
    it must build the instance the checked constructor builds from the
    same document, and keep every exit the world does not rule out, with
    the constructor's message."""

    def test_same_as_checked_constructor_on_att25(self, workload_worlds, workload_documents):
        runs = workload_worlds["att25-sweep"][1]
        assert len(runs) == 124
        for (_, _, inst), doc in zip(runs, workload_documents("att25-sweep")):
            assert_same_as_document(inst, doc)

    def test_same_as_checked_constructor_on_grid49(self, workload_worlds, workload_documents):
        # grid49-exact's world: generator seed 1, k=1..2 at q=0.8
        runs = workload_worlds["grid49-exact"][1]
        assert len(runs) == 21
        for (_, _, inst), doc in zip(runs, workload_documents("grid49-exact")):
            assert_same_as_document(inst, doc)

    def test_same_attributes_as_its_document(self, workload_worlds, workload_documents):
        for name, (_, runs) in workload_worlds.items():
            for (_, _, inst), doc in zip(runs, workload_documents(name)):
                assert sorted(vars(doc)) == sorted(vars(inst)), inst.label

    @staticmethod
    def constructor_error(t, b, loads, offline, active, rest):
        """What the checked constructor raises on the fields build_instance
        would assemble, with b's rows of flow ids."""
        delay = {(i, j): shortest_path_tree(t, i).delay[t._index[j]]
                 for i in offline for j in active}
        rows = {i: b.flows_at(i) for i in offline if i in b.masks}
        with pytest.raises(InstanceError) as err:
            OscmInstance(offline, active, delay, {i: loads[i] for i in offline}, rows, rest, 0)
        return str(err.value)

    @staticmethod
    def far_ring():
        """Four nodes in a ring of 1e308 km links, each 5e305 ms, and two
        controllers whose 1,000-flow switches overflow g * D."""
        nodes = [{"id": v, "lat": 0.0, "lon": float(v)} for v in range(4)]
        links = [{"a": v, "b": (v + 1) % 4, "distance_km": 1e308} for v in range(4)]
        place = {"capacity": 10**6, "flow_counts": {str(v): 1000 for v in range(4)},
                 "controllers": [{"node": 0, "switches": [0, 1]},
                                 {"node": 2, "switches": [2, 3]}]}
        return {"nodes": nodes, "links": links}, place

    def test_overflowing_overheads(self):
        topo, place = self.far_ring()
        t = load_topology(topo)
        p = dm.load_placement(place, t)
        b = programmability(t)
        message = ("switch 0: the dearest overheads up to this switch sum to inf; "
                   "overheads must stay finite")
        s = FailureScenario(frozenset({0}))
        with pytest.raises(InstanceError, match=f"^{re.escape(message)}$"):
            build_instance(t, b, p, s, 1.0)
        rest = residual_capacity(p, p.flow_counts, s)
        assert self.constructor_error(t, b, p.flow_counts, (0, 1), (2,), rest) == message

    def test_overflowing_overheads_exit_the_cli(self, capsys, tmp_path):
        topo, place = self.far_ring()
        paths = []
        for name, doc in (("topology", topo), ("placement", place)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(doc))
        code = main(["run", "--topology", str(paths[0]), "--placement", str(paths[1]),
                     "--failures", "0,"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("error: switch 0: the dearest overheads up to this switch "
                                "sum to inf; overheads must stay finite\n")

    def test_infinite_delay(self):
        # the far path with controllers at its ends: the first offline
        # switch past 211 hops from controller 0 is named, as the
        # constructor names it
        t, p = far_path((0, 219), lambda v: 0 if v < 110 else 219)
        b = programmability(t)
        far = [v for v in t.node_ids() if shortest_path_tree(t, v).delay[0] == math.inf]
        assert far and far[0] > 110
        offline = tuple(range(110, 220))
        message = self.constructor_error(t, b, b.loads(), offline, (0,), {0: 0})
        assert message == (f"delay inf for switch {far[0]}, controller 0 "
                           "must be finite and nonnegative")
        with pytest.raises(InstanceError, match=f"^{re.escape(message)}$"):
            build_instance(t, b, p, FailureScenario(frozenset({219})), 1.0)

    @pytest.mark.parametrize("failed, negative, message", [
        # switch 1 is 1 hop from controller 0 and 218 from controller 219
        (10, None, "delay inf for switch 1, controller 219 must be finite and nonnegative"),
        # switches 212..218 are more than 211 hops from controller 0
        (219, 21, "switch 21 has negative load"),
    ], ids=["inf-to-second-controller", "negative-load-before-later-inf"])
    def test_first_fault_on_a_far_path(self, failed, negative, message):
        # the far path with controllers at both ends and at node 10, whose
        # domain is nodes 1..20
        t, p = far_path((0, 10, 219), lambda v: 0 if v == 0 else 10 if v <= 20 else 219)
        b = programmability(t)
        loads = b.loads()
        s = FailureScenario(frozenset({failed}))
        offline = dm.offline_switches(p, s)
        rest = dm.surviving_residuals(p, dm.domain_loads(p, loads), s)
        active = tuple(rest)
        delays = {i: [shortest_path_tree(t, i).delay[t._index[j]] for j in active]
                  for i in offline}
        if negative is None:
            first = delays[offline[0]]
            assert math.isfinite(first[0]) and first[1] == math.inf
        else:
            assert any(math.inf in delays[i] for i in offline if i > negative)
            loads[negative] = -1
        assert self.constructor_error(t, b, loads, offline, active, rest) == message
        with pytest.raises(InstanceError, match=f"^{re.escape(message)}$"):
            build_instance(t, b, p, s, 1.0, loads=loads)

    def test_negative_caller_load(self, att_world):
        w = att_world
        s = FailureScenario(frozenset({20}))
        loads = dict(w.loads())
        loads[19] = -1
        with pytest.raises(InstanceError, match="^switch 19 has negative load$"):
            build_instance(w.topology, w.beta, w.placement, s, 1.0, loads=loads)

    @pytest.mark.parametrize("dropped, named", [((20,), 20), ((21,), 21), ((21, 3), 3)],
                             ids=["offline", "not-offline", "smallest-named"])
    def test_missing_caller_load(self, att_world, dropped, named):
        # C20's domain is switches 19 and 20; the table needs a load for
        # every switch, offline or not, so it refuses either
        w = att_world
        s = FailureScenario(frozenset({20}))
        assert w.placement.domains[20] == (19, 20)
        loads = dict(w.loads())
        for i in dropped:
            del loads[i]
        with pytest.raises(InstanceError, match=f"^switch {named} missing load or flow data$"):
            build_instance(w.topology, w.beta, w.placement, s, 1.0, loads=loads)

    def test_missing_flow_row(self, att_world):
        w = att_world
        s = FailureScenario(frozenset({20}))
        inst = build_instance(w.topology, w.beta, w.placement, s, 1.0)
        first = inst.offline_switches[0]
        masks = dict(w.beta.masks)
        del masks[first]
        b = BetaMatrix(masks, w.beta.ids)
        with pytest.raises(InstanceError, match=f"^switch {first} missing load or flow data$"):
            build_instance(w.topology, b, w.placement, s, 1.0, loads=w.loads())


class TestObjective:
    def test_all_legacy_is_zero(self):
        inst = tiny_instance()
        assert objective(inst, all_legacy(inst)) == 0.0

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
        report = validate(inst, all_legacy(inst))
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

    def test_unknown_family_raises(self):
        inst = tiny_instance(q=0)
        with pytest.raises(KeyError, match="^'domain'$"):
            validate(inst, all_legacy(inst)).check("domain")

    def test_agrees_with_independent_checker(self):
        rng = random.Random(77)
        for _ in range(100):
            inst = random_instance(rng)
            chosen = rng.sample(inst.offline_switches,
                                rng.randint(0, len(inst.offline_switches)))
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
            on = set(rng.sample(inst.offline_switches, rng.randint(0, len(inst.offline_switches))))
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
            chosen = rng.sample(inst.offline_switches, rng.randint(0, len(inst.offline_switches)))
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

    def test_large_sparse_instance_round_trip(self):
        # 5,000 switches with three flow ids each, drawn from ids that run
        # negative and past 2**64: the index ranks them, one bit per rank
        rng = random.Random(17)
        pool = list({rng.randrange(-(2**70), 2**70) for _ in range(12_000)})
        switches = range(1, 5001)
        inst = OscmInstance(
            offline_switches=switches,
            active_controllers=[7001, 7002],
            delay={(i, j): float((i * j) % 13) for i in switches for j in (7001, 7002)},
            g={i: 3 for i in switches},
            beta={i: set(rng.sample(pool, 3)) for i in switches},
            a_rest={7001: 9000, 7002: 9000},
            q_required=0,
        )
        assert inst.n_flows == len(inst._ids) > 8_000
        assert inst.flows[0] < 0 and inst.flows[-1] > 2**64
        inst.q_required = inst.n_flows // 2
        text = inst.to_json()
        clone = OscmInstance.from_json(text)
        assert clone.to_json() == text
        sol = solve_retroflow(clone)
        assert sol.quota_met
        assert validate(clone, sol).feasible

    def test_solution_round_trip(self):
        sol = Solution(x={1: 1, 2: 0}, assigned={1: 10}, y=frozenset({4, 5}),
                       objective=12.5, quota_met=False)
        clone = Solution.from_json(sol.to_json())
        assert clone == sol
        # another type is not equal, not an error: Solution defers to it
        assert sol.__eq__(sol.to_json()) is NotImplemented
        assert sol != sol.to_json()

    @pytest.mark.parametrize("y", [(5, -7, 10**300, 0), [5, -7, 10**300, 0]],
                             ids=["tuple", "list"])
    def test_solution_sorts_flow_ids(self, y):
        sol = Solution(x={1: 1}, assigned={1: 10}, y=y, objective=1.0)
        assert sol.y == (-7, 0, 5, 10**300)
        assert sol.n_programmable == 4
        assert sol.to_json() == Solution.from_json(sol.to_json()).to_json()

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), -1.0])
    def test_bad_delay_rejected(self, toy, delay):
        doc = json.loads(toy.to_json())
        doc["delay_ms"][next(iter(doc["delay_ms"]))] = delay
        with pytest.raises(InstanceError, match="finite and nonnegative"):
            OscmInstance.from_json(json.dumps(doc))

    @pytest.mark.parametrize("far, switch", [((1e308, 1.0), 1), ((6e307, 3e307), 2)])
    def test_overflowing_overheads_rejected(self, far, switch):
        # switch 1 carries flows 1-3 at load 2, switch 2 flow 4 at load 3.
        # With switch 1 at 1e308 from controller 20, the one assignment
        # that fits, {1: 20, 2: 10}, has overhead inf; the exact search,
        # whose incumbent starts at inf, called the instance infeasible.
        # In the second case each switch's dearest overhead is finite and
        # only their sum overflows
        delay = {(1, 10): 1.0, (1, 20): far[0], (2, 10): 1.0, (2, 20): far[1]}
        fields = dict(offline_switches=[1, 2], active_controllers=[10, 20], delay=delay,
                      g={1: 2, 2: 3}, beta={1: {1, 2, 3}, 2: {4}}, a_rest={10: 3, 20: 2},
                      q_required=4)
        message = f"switch {switch}: the dearest overheads up to this switch sum to inf"
        with pytest.raises(InstanceError, match=message):
            OscmInstance(**fields)
        doc = {"offline_switches": [1, 2], "active_controllers": [10, 20],
               "delay_ms": {f"{i},{j}": d for (i, j), d in delay.items()},
               "loads": {"1": 2, "2": 3}, "flows": {"1": [1, 2, 3], "2": [4]},
               "residual": {"10": 3, "20": 2}, "quota": 4}
        with pytest.raises(InstanceError, match=message):
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
        ("x", "20", "0.5"), ("assigned", "20", "3.7"),
        ("y", None, "[1.5]"), ("y", None, "[\"a\"]"),
    ])
    def test_non_whole_numbers_rejected(self, toy, section, key, raw):
        # a truncating int() would turn a load of 2.5 into 2, flow id 0.5
        # into flow 0 and a solution's controller 3.7 into controller 3
        loader = Solution if section in ("x", "assigned", "y") else OscmInstance
        doc = json.loads((solve_retroflow(toy) if loader is Solution else toy).to_json())
        if key is None:
            doc[section] = "VALUE"
        else:
            doc[section][key] = "VALUE"
        text = json.dumps(doc).replace('"VALUE"', raw)
        with pytest.raises(InstanceError, match="must be a whole number"):
            loader.from_json(text)

    @pytest.mark.parametrize("pair", [(77, 8), (20, 8), (77, 1)],
                             ids=["neither", "inactive-controller", "online-switch"])
    def test_delay_for_unknown_pair_rejected(self, toy, pair):
        delay = {**toy.delay, pair: 1.0}
        message = ("delay_ms names pairs that are not (offline switch, active controller): "
                   f"['{pair[0]},{pair[1]}']")
        with pytest.raises(InstanceError, match=re.escape(message)):
            OscmInstance(toy.offline_switches, toy.active_controllers, delay, toy.g,
                         toy.beta, toy.a_rest, toy.q_required)

    def test_malformed_instance_document(self, toy):
        doc = json.loads(toy.to_json())
        doc["loads"] = [1, 2]
        with pytest.raises(InstanceError, match="malformed instance document"):
            OscmInstance.from_json(json.dumps(doc))


def _drop(section, key):
    return lambda doc: doc[section].pop(key)


def _put(section, key, value):
    """Set doc[section][key], or doc[key] when section is None."""
    return lambda doc: (doc if section is None else doc[section]).__setitem__(key, value)


class TestFaultOrder:
    """The first fault the checked constructor names in a document with
    several. Per offline switch, ascending: its flow row and load, its
    load's sign, then its delays by controller, then the running sum of
    the dearest overheads; then each active controller's residual; then
    keys outside the ids, in loads, flows, residual order; then delay
    pairs outside them; then the quota. The toy's switch 20 has load 3,
    the others load 2."""

    @pytest.mark.parametrize("faults, message", [
        ([_put("loads", "21", -1), _put("delay_ms", "21,1", math.nan)],
         "switch 21 has negative load"),
        ([_drop("flows", "22"), _put("loads", "22", -1)],
         "switch 22 missing load or flow data"),
        ([_put("loads", "20", -1), _drop("flows", "21")],
         "switch 20 has negative load"),
        ([_drop("delay_ms", "20,1"), _put("delay_ms", "20,3", -1.0)],
         "missing delay for switch 20, controller 1"),
        ([_put("delay_ms", "21,3", -1.0), _put("delay_ms", "23,1", 1e308)],
         "delay -1.0 for switch 21, controller 3 must be finite and nonnegative"),
        ([_put("delay_ms", "20,1", 1e308), _put("delay_ms", "22,3", math.nan)],
         "switch 20: the dearest overheads up to this switch sum to inf; "
         "overheads must stay finite"),
        ([_drop("residual", "1"), _put("loads", "24", -1)],
         "switch 24 has negative load"),
        ([_drop("residual", "3"), _put("loads", "99", 1)],
         "controller 3 missing residual ability"),
        ([_put("residual", "1", -1), _put("flows", "99", [1])],
         "controller 1 has negative residual ability"),
        ([_put("residual", "7", 1), _put("flows", "99", [5]), _put("loads", "98", 1)],
         "loads names ids that are not offline switches: [98]"),
        ([_put("residual", "7", 1), _put("flows", "99", [5])],
         "flows names ids that are not offline switches: [99]"),
        ([_put("delay_ms", "77,8", 1.0), _put("residual", "7", 1)],
         "residual names ids that are not active controllers: [7]"),
        ([_put(None, "quota", 99), _put("delay_ms", "77,8", 1.0)],
         "delay_ms names pairs that are not (offline switch, active controller): ['77,8']"),
    ], ids=["load-before-delay", "row-before-load", "earlier-switch-first",
            "missing-before-bad-delay", "delay-before-later-sum", "sum-before-later-delay",
            "switches-before-residuals", "residual-before-unknown-key",
            "residual-sign-before-unknown-key", "loads-key-first", "flows-key-before-residual-key",
            "unknown-key-before-stray-pair", "stray-pair-before-quota"])
    def test_first_fault_named(self, toy, faults, message):
        doc = json.loads(toy.to_json())
        for fault in faults:
            fault(doc)
        with pytest.raises(InstanceError) as err:
            OscmInstance.from_json(json.dumps(doc))
        assert str(err.value) == message

    @pytest.mark.parametrize("offline, active, message", [
        ([0, 0], [1], "duplicate offline switch 0"),
        ([0], [1, 1], "duplicate active controller 1"),
    ])
    def test_constructor_refuses_repeated_ids(self, offline, active, message):
        # with either id repeated, the stray pair (5, 1) brings the pair
        # count to offline x active, so the count test alone passes
        with pytest.raises(InstanceError) as err:
            OscmInstance(offline, active, {(0, 1): 1.0, (5, 1): 9.0}, {0: 1}, {0: {7}},
                         {1: 5}, 1)
        assert str(err.value) == message
