import json
import math
from pathlib import Path

import pytest

from retroflow import domains as dm
from retroflow.domains import (FailureScenario, Placement, PlacementError,
                               enumerate_failure_scenarios, load_placement,
                               offline_switches, scenario_count)
from retroflow.fixtures import data_path

from _oracles import TWICE_LISTED, residual_capacity


class TestPlacement:
    def test_controller_listed_twice(self):
        with pytest.raises(PlacementError, match="^duplicate controller id 1$"):
            Placement([(1, 5), (1, 7)], {0: 1})

    def test_switch_of_unknown_controller(self):
        with pytest.raises(PlacementError, match="^switch 0 assigned to unknown controller 2$"):
            Placement([(1, 5)], {0: 2, 1: 1})


class TestLoadPlacement:
    def test_table_fixture(self, att_placement):
        assert att_placement.controller_ids == (2, 5, 6, 13, 20, 22)
        assert att_placement.domain_of[9] == 2
        assert all(cap == 500 for cap in att_placement.capacity.values())
        assert att_placement.flow_counts[13] == 225

    def test_missing_switch(self, att_topology):
        doc = {
            "capacity": 10,
            "controllers": [
                {"node": 2, "switches": [i for i in range(25) if i != 7]},
            ],
        }
        with pytest.raises(PlacementError, match="switch 7 unassigned"):
            load_placement(doc, att_topology)

    def test_single_controller_covers_all(self, att_topology):
        doc = {
            "capacity": 10_000,
            "controllers": [{"node": 0, "switches": list(range(25))}],
        }
        p = load_placement(doc, att_topology)
        assert p.controller_ids == (0,)
        assert p.domain_of == dict.fromkeys(range(25), 0)

    def test_duplicate_assignment(self, att_topology):
        doc = {
            "capacity": 10,
            "controllers": [
                {"node": 0, "switches": list(range(25))},
                {"node": 1, "switches": [3]},
            ],
        }
        with pytest.raises(PlacementError, match="assigned twice"):
            load_placement(doc, att_topology)

    def test_unassigned_switch_left_in_flow_counts(self, att_topology):
        # the coverage check runs before the Placement, whose flow_counts
        # check would otherwise name 7 as a switch outside the topology
        doc = json.loads(Path(data_path("att_table2.json")).read_text())
        doc["controllers"][2]["switches"].remove(7)
        assert "7" in doc["flow_counts"]
        with pytest.raises(PlacementError, match="^switch 7 unassigned$"):
            load_placement(doc, att_topology)

    def test_controller_listed_twice(self, att_topology):
        # the second record's capacity used to replace the first's
        with pytest.raises(PlacementError, match="^duplicate controller id 2$"):
            load_placement(TWICE_LISTED, att_topology)

    def test_unknown_node(self, att_topology):
        doc = {"capacity": 10, "controllers": [{"node": 99, "switches": [0]}]}
        with pytest.raises(PlacementError, match="not in topology"):
            load_placement(doc, att_topology)


    @pytest.mark.parametrize("count", [-5, 2.7, float("nan"), float("inf"), "x", None])
    def test_bad_flow_count_rejected(self, att_topology, count):
        doc = {
            "capacity": 10_000,
            "controllers": [{"node": 0, "switches": list(range(25))}],
            "flow_counts": {str(i): (count if i == 3 else 1) for i in range(25)},
        }
        with pytest.raises(PlacementError, match="flow count of switch 3"):
            load_placement(doc, att_topology)

    def test_whole_float_flow_count_accepted(self, att_topology):
        doc = {
            "capacity": 10_000.0,
            "controllers": [{"node": 0, "switches": list(range(25))}],
            "flow_counts": {str(i): 2.0 for i in range(25)},
        }
        p = load_placement(doc, att_topology)
        assert p.capacity[0] == 10_000
        assert set(p.flow_counts.values()) == {2}

    def test_fractional_capacity_rejected(self, att_topology):
        doc = {"capacity": 9.5, "controllers": [{"node": 0, "switches": list(range(25))}]}
        with pytest.raises(PlacementError, match="controller 0 capacity"):
            load_placement(doc, att_topology)


class TestResidualCapacity:
    def test_published_residual_for_c2(self, att_placement):
        scenario = FailureScenario(frozenset({20}))
        rest = residual_capacity(att_placement, att_placement.flow_counts, scenario)
        # 500 - (127 + 71 + 121 + 57)
        assert rest[2] == 124

    def test_empty_domain(self):
        p = Placement([(0, 500), (1, 500)], {0: 0, 1: 0}, {0: 10, 1: 20})
        rest = residual_capacity(p, p.flow_counts, FailureScenario(frozenset({0})))
        assert rest[1] == 500

    def test_c13_uses_computed_arithmetic(self, att_placement):
        # the narrative quotes 23 for this controller; Table-2 arithmetic
        # gives 13 and the harness sticks to the computed value
        scenario = FailureScenario(frozenset({20}))
        rest = residual_capacity(att_placement, att_placement.flow_counts, scenario)
        assert rest[13] == 500 - 487 == 13
        assert rest[22] == 34

    def test_overfull_domain_rejected(self):
        p = Placement([(0, 5), (1, 500)], {0: 0, 2: 0, 1: 1}, {0: 3, 1: 0, 2: 4})
        with pytest.raises(PlacementError, match="exceeds capacity"):
            residual_capacity(p, p.flow_counts, FailureScenario(frozenset({1})))

    def test_consumed_equals_surviving_domain_load(self, att_placement):
        loads = att_placement.flow_counts
        for k in (1, 2):
            for s in enumerate_failure_scenarios(att_placement, k):
                rest = residual_capacity(att_placement, loads, s)
                consumed = sum(
                    att_placement.capacity[j] - rest[j] for j in rest
                )
                surviving = sum(
                    loads[sw] for sw, cid in att_placement.domain_of.items()
                    if cid not in s.failed
                )
                assert consumed == surviving


    def test_one_pass_equals_per_domain_sums(self, att_placement):
        p, loads = att_placement, att_placement.flow_counts
        for k in range(1, 6):
            for s in enumerate_failure_scenarios(p, k):
                rest = residual_capacity(p, loads, s)
                assert list(rest) == [c for c in p.controller_ids if c not in s.failed]
                assert rest == {c: p.capacity[c] - sum(loads[sw] for sw, d in p.domain_of.items()
                                                       if d == c)
                                for c in rest}

    def test_smallest_overflowing_controller_named(self):
        # controllers 1 and 2 both overflow once 0 fails; 2's switches come
        # first in the domain map, and 1 is named, as in id order
        p = Placement([(0, 50), (1, 5), (2, 5)], {4: 2, 2: 2, 3: 1, 1: 1, 0: 0},
                      {0: 1, 1: 3, 2: 4, 3: 3, 4: 4})
        with pytest.raises(PlacementError,
                           match="^controller 1: own-domain load 6 exceeds capacity 5$"):
            residual_capacity(p, p.flow_counts, FailureScenario(frozenset({0})))


class TestDomains:
    def test_sorted_domain_per_controller(self, att_placement):
        p = att_placement
        assert list(p.domains) == list(p.controller_ids)
        for cid, switches in p.domains.items():
            assert switches == tuple(sorted(sw for sw, c in p.domain_of.items() if c == cid))

    def test_empty_domain_kept(self):
        p = Placement([(3, 5), (1, 5)], {7: 3, 2: 3})
        assert p.domains == {1: (), 3: (2, 7)}

    def test_offline_switches_equal_a_scan(self, att_placement):
        p = att_placement
        for k in range(1, 6):
            for s in enumerate_failure_scenarios(p, k):
                assert offline_switches(p, s) == tuple(
                    sorted(sw for sw, c in p.domain_of.items() if c in s.failed))


class TestEnumerateScenarios:
    def test_single_failures(self, att_placement):
        scenarios = enumerate_failure_scenarios(att_placement, 1)
        assert len(scenarios) == 6
        assert scenarios[0].failed == frozenset({2})

    def test_double_failures(self, att_placement):
        assert len(enumerate_failure_scenarios(att_placement, 2)) == 15

    def test_all_fail_rejected(self, att_placement):
        with pytest.raises(PlacementError, match=r"^failure cardinality 6 out of range \[1, 5\]$"):
            enumerate_failure_scenarios(att_placement, 6)

    def test_binomial_counts_exhaustive(self):
        for m in range(2, 9):
            p = Placement([(i, 1) for i in range(m)], {i: i for i in range(m)})
            for k in range(1, m):
                got = enumerate_failure_scenarios(p, k)
                assert len(got) == math.comb(m, k)
                assert len(set(s.failed for s in got)) == len(got)

    def test_scenario_count_ceiling(self):
        # C(60, 30) scenarios are counted, never built
        p = Placement([(c, 0) for c in range(60)], {c: c for c in range(60)})
        assert scenario_count(p, 1) == scenario_count(p, 59) == 60
        message = ("failure cardinality 30 of 60 controllers gives 118264581564861424 "
                   "scenarios, above the ceiling of 1000000")
        with pytest.raises(PlacementError, match=f"^{message}$"):
            scenario_count(p, 30)
        with pytest.raises(PlacementError, match="out of range"):
            scenario_count(p, 60)

    def test_enumeration_checks_the_count_first(self, att_placement, monkeypatch):
        # att25's largest count is C(6, 3) = 20
        assert max(scenario_count(att_placement, k) for k in range(1, 6)) == 20
        monkeypatch.setattr(dm, "MAX_SCENARIOS", 20)
        assert scenario_count(att_placement, 3) == 20
        monkeypatch.setattr(dm, "MAX_SCENARIOS", 19)
        assert len(enumerate_failure_scenarios(att_placement, 2)) == 15
        with pytest.raises(PlacementError, match="gives 20 scenarios, above the ceiling of 19$"):
            enumerate_failure_scenarios(att_placement, 3)

    def test_lexicographic_order(self, att_placement):
        labels = [s.label() for s in enumerate_failure_scenarios(att_placement, 2)]
        assert labels[:3] == ["C2+C5", "C2+C6", "C2+C13"]
        assert labels == sorted(labels, key=lambda x: [int(c[1:]) for c in x.split("+")])
