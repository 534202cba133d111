import csv
import dataclasses
import io
import json
import random

import pytest

from retroflow import experiment, fixtures, oscm, solvers
from retroflow.domains import FailureScenario, enumerate_failure_scenarios
from retroflow.experiment import (ReportError, emit_report, queueing_penalty_ms,
                                  run_scenario, sweep_summary)

from _oracles import random_instance, score_per_switch
from test_solvers import greedy_case


class TestQueueingPenalty:
    def test_under_capacity(self):
        assert queueing_penalty_ms(400, 500, 0.1) == 0.0

    def test_at_capacity_boundary(self):
        assert queueing_penalty_ms(500, 500, 0.1) == 0.0

    def test_linear_in_excess(self):
        assert queueing_penalty_ms(511, 500, 0.1) == pytest.approx(1.1)

    def test_disabled(self):
        assert queueing_penalty_ms(9999, 1, 0.0) == 0.0

    @pytest.mark.parametrize("penalty", [-1.0, float("nan"), float("inf")])
    def test_penalty_checked_by_its_function(self, penalty):
        # checked before the load is compared, so no input bills it
        with pytest.raises(ValueError, match="finite and nonnegative"):
            queueing_penalty_ms(400, 500, penalty)

    def test_negative_penalty_rejected(self, att_world):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            run_scenario(att_world, FailureScenario(frozenset({20})), 1.0,
                         algorithms=("nearest",), queue_penalty_ms=-1.0)

    @pytest.mark.parametrize("penalty", [float("nan"), float("inf")])
    def test_non_finite_penalty_rejected(self, att_world, penalty):
        # a nan penalty would bill nan overheads, an infinite one inf
        with pytest.raises(ValueError, match="finite and nonnegative"):
            run_scenario(att_world, FailureScenario(frozenset({20})), 1.0,
                         algorithms=("nearest",), queue_penalty_ms=penalty)


class TestRunScenario:
    def test_single_failure_full_recovery(self, att_world):
        rep = run_scenario(att_world, FailureScenario(frozenset({20})), 1.0)
        for name in ("exact", "retroflow", "nearest"):
            assert rep.outcome(name).programmable_flow_fraction == 1.0

    def test_single_failure_nearest_overloads(self, att_world):
        rep = run_scenario(att_world, FailureScenario(frozenset({20})), 1.0)
        nearest = rep.outcome("nearest")
        assert nearest.overloaded
        assert not rep.outcome("exact").overloaded
        assert not rep.outcome("retroflow").overloaded
        for j in nearest.overloaded:
            assert nearest.controller_load[j] > nearest.controller_ability[j] == 500

    def test_flow_ids_never_decoded(self, att_world, monkeypatch):
        """The solvers, the scoring and the report decode neither the
        instance's flows nor a solution's: flow ids are decoded only once
        someone reads them."""
        built = []
        build = experiment.build_instance
        monkeypatch.setattr(experiment, "build_instance",
                            lambda *args: built.append(build(*args)) or built[-1])
        decoded = []
        decode = oscm.flows_of
        monkeypatch.setattr(oscm, "flows_of", lambda *args: decoded.append(args) or decode(*args))
        scenarios = enumerate_failure_scenarios(att_world.placement, 2)[:3]
        reports = [run_scenario(att_world, s, q) for s in scenarios for q in (0.9, 1.0)]
        emit_report(reports)
        assert len(built) == 6
        assert decoded == []
        for inst, rep in zip(built, reports):
            for o in rep.outcomes:
                if o.solution is not None:
                    assert o.programmable_flow_fraction == len(o.solution.y) / len(inst.flows)
        assert decoded

    def test_greedy_and_baseline_decode_no_beta_row(self, monkeypatch):
        """The greedy, the baseline, the scoring and the report count flows
        on the world's masks: a whole att25 sweep decodes no flow id and
        no row of the world's matrix."""
        t = fixtures.att25_topology()
        world = experiment.make_world(t, fixtures.att_table2_placement(t))
        decoded = []
        decode = oscm.flows_of
        monkeypatch.setattr(oscm, "flows_of", lambda *args: decoded.append(args) or decode(*args))
        for k in range(1, 6):
            for q in (0.9, 1.0):
                emit_report([run_scenario(world, s, q, algorithms=("retroflow", "nearest"))
                             for s in enumerate_failure_scenarios(world.placement, k)])
        assert decoded == []
        assert world.beta._rows == {}

    def test_one_greedy_run_per_scenario(self, att_world, monkeypatch):
        """The retroflow row's solution is also the exact search's
        starting incumbent."""
        runs = []
        greedy = solvers.solve_retroflow

        def counted(inst, trace=None):
            runs.append(inst)
            return greedy(inst, trace)
        monkeypatch.setattr(experiment, "solve_retroflow", counted)
        monkeypatch.setattr(solvers, "solve_retroflow", counted)
        for s in enumerate_failure_scenarios(att_world.placement, 2):
            runs.clear()
            rep = run_scenario(att_world, s, 0.9)
            assert len(runs) == 1
            exact = solvers.solve_exact(runs[0])
            assert len(runs) == 2
            outcome = rep.outcome("exact")
            assert outcome.status == ("ok" if exact.status == "optimal" else exact.status)
            assert outcome.solution == exact.solution
        # exact alone runs the greedy itself
        runs.clear()
        run_scenario(att_world, s, 0.9, algorithms=("exact",))
        assert len(runs) == 1

    def test_zero_quota(self, att_world):
        rep = run_scenario(att_world, FailureScenario(frozenset({20})), 0.0)
        exact = rep.outcome("exact")
        assert exact.raw_overhead == 0.0
        assert exact.recovered_switch_count == 0

    def test_infeasible_reported_as_nulls(self, att_world):
        rep = run_scenario(att_world, FailureScenario(frozenset({13, 22})), 1.0)
        exact = rep.outcome("exact")
        assert exact.status == "infeasible"
        assert exact.raw_overhead is None
        assert exact.adjusted_overhead is None
        assert exact.programmable_flow_fraction is None
        greedy = rep.outcome("retroflow")
        assert greedy.status == "quota_unmet"
        assert greedy.raw_overhead is not None

    def test_budget_exhausted_is_a_row(self, att_world):
        """An exact search that ends its budget with no incumbent gives a
        row without a solution, as an infeasible one does, and every
        solver keeps its row."""
        budget = solvers.SolverBudget(max_nodes_explored=1)
        statuses = set()
        for s in enumerate_failure_scenarios(att_world.placement, 3):
            rep = run_scenario(att_world, s, 0.9, budget=budget)
            assert [o.algorithm for o in rep.outcomes] == ["exact", "retroflow", "nearest"]
            exact, greedy = rep.outcome("exact"), rep.outcome("retroflow")
            statuses.add((greedy.status, exact.status))
            if exact.status == "budget_exhausted":
                # the greedy's solution would have been the incumbent
                assert greedy.status == "quota_unmet"
                result = solvers.solve_exact(experiment.build_instance(
                    att_world.topology, att_world.beta, att_world.placement, s, 0.9), budget)
                assert result.status == "budget_exhausted"
                assert result.solution is None
                assert exact.solution is None
                assert exact.raw_overhead is None
                assert exact.adjusted_overhead is None
                assert exact.programmable_flow_fraction is None
                assert rep.normalized("exact", "raw_overhead") is None
        assert ("quota_unmet", "budget_exhausted") in statuses
        assert ("ok", "not_proven") in statuses
        assert "budget_exhausted" not in experiment.FEASIBLE

    def test_adjusted_equals_raw_without_overload(self, att_world):
        # capacity-respecting solvers never trip the queue penalty
        for k in (1, 2):
            for s in enumerate_failure_scenarios(att_world.placement, k):
                rep = run_scenario(att_world, s, 1.0)
                for name in ("exact", "retroflow"):
                    o = rep.outcome(name)
                    if o.raw_overhead is None:
                        continue
                    assert o.adjusted_overhead == pytest.approx(o.raw_overhead)

    def test_adjusted_equals_raw_when_model_disabled(self, att_world):
        rep = run_scenario(att_world, FailureScenario(frozenset({20})), 1.0,
                           queue_penalty_ms=0.0)
        o = rep.outcome("nearest")
        assert o.overloaded  # still overloaded, just not billed
        assert o.adjusted_overhead == pytest.approx(o.raw_overhead)

    def test_nearest_normalizes_to_one(self, att_world):
        rep = run_scenario(att_world, FailureScenario(frozenset({20})), 1.0)
        for metric in ("raw_overhead", "adjusted_overhead",
                       "programmable_flow_fraction", "recovered_switch_count"):
            assert rep.normalized("nearest", metric) == 1.0

    def test_normalized_dominance(self, att_world):
        for s in enumerate_failure_scenarios(att_world.placement, 1):
            rep = run_scenario(att_world, s, 1.0)
            ex = rep.normalized("exact", "raw_overhead")
            gr = rep.normalized("retroflow", "raw_overhead")
            assert ex <= gr + 1e-12

    def test_recovered_counts_bounded_by_nearest(self, att_world):
        for k in (1, 2):
            for s in enumerate_failure_scenarios(att_world.placement, k):
                rep = run_scenario(att_world, s, 1.0)
                gr = rep.outcome("retroflow").recovered_switch_count
                ne = rep.outcome("nearest").recovered_switch_count
                assert gr <= ne

    def test_controller_load_is_own_domain_plus_pulled(self, att_world):
        # recomputed from the placement alone, not from the instance
        p = att_world.placement
        counts = p.flow_counts
        checked = 0
        for k in range(1, len(p.controller_ids)):
            for s in enumerate_failure_scenarios(p, k):
                rep = run_scenario(att_world, s, 1.0)
                survivors = [c for c in p.controller_ids if c not in s.failed]
                for o in rep.outcomes:
                    if o.solution is None:
                        continue
                    expected = {
                        j: sum(counts[sw] for sw, c in p.domain_of.items() if c == j)
                        + sum(counts[i] for i, c in o.solution.assigned.items() if c == j)
                        for j in survivors
                    }
                    assert o.controller_load == expected, (s.label(), o.algorithm)
                    checked += 1
        assert checked > 2 * 62  # retroflow and nearest always, exact when feasible

    def test_algorithm_subset(self, att_world):
        rep = run_scenario(att_world, FailureScenario(frozenset({20})), 1.0,
                           algorithms=("retroflow",))
        assert [o.algorithm for o in rep.outcomes] == ["retroflow"]
        with pytest.raises(ReportError):
            run_scenario(att_world, FailureScenario(frozenset({20})), 1.0,
                         algorithms=())


class TestScore:
    def test_matches_per_switch_penalty(self):
        """The scoring prices each controller's queueing penalty once; it
        must bill the floats one penalty per assigned switch billed, summed
        in the same order. Integer delays and loads, zero loads, shared
        and overloaded controllers, penalties 0 and 0.1."""
        rng = random.Random(5150)
        seen = set()
        for k in range(400):
            inst = greedy_case(rng) if k % 2 else random_instance(rng, n_max=10, m_max=4)
            # the own-domain load is the ability above the residual
            ability = {j: inst.a_rest[j] + rng.choice([0, rng.randint(0, 12)])
                       for j in inst.active_controllers}
            solutions = (("retroflow", "ok", solvers.solve_retroflow(inst)),
                         ("nearest", "ok", solvers.solve_nearest(inst)),
                         ("exact", "infeasible", None))
            for name, status, sol in solutions:
                for penalty in (0.0, 0.1):
                    got = experiment._score(inst, name, status, sol, ability, penalty)
                    want = score_per_switch(inst, name, status, sol, ability, penalty)
                    assert got == want
                    assert (got.raw_overhead, got.adjusted_overhead, got.controller_load) \
                        == (want.raw_overhead, want.adjusted_overhead, want.controller_load)
                    if sol is None:
                        continue
                    assert got.solution.assigned == want.solution.assigned
                    if got.adjusted_overhead != got.raw_overhead:
                        seen.add("billed")
                    if got.overloaded and not penalty:
                        seen.add("overloaded, not billed")
                    if any(inst.g[i] == 0 for i in sol.assigned):
                        seen.add("zero load")
                    if len(set(sol.assigned.values())) < len(sol.assigned):
                        seen.add("shared controller")
        assert seen == {"billed", "overloaded, not billed", "zero load", "shared controller"}


class TestEmitReport:
    def test_csv_rows(self, att_world):
        rep = run_scenario(att_world, FailureScenario(frozenset({20})), 1.0)
        text = emit_report([rep], format="csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) == 1 + 3
        assert rows[0][0] == "scenario"

    def test_empty_list_rejected(self):
        with pytest.raises(ReportError, match="no scenario"):
            emit_report([], format="csv")

    def test_json_cardinality_all_pairs(self, att_world):
        reports = [
            run_scenario(att_world, s, 0.9)
            for s in enumerate_failure_scenarios(att_world.placement, 2)
        ]
        doc = json.loads(emit_report(reports, format="json"))
        assert len(doc["records"]) == 15 * 3
        assert doc["summary"]["scenarios"] == 15

    def test_json_is_strict(self, att_world):
        # NaN and Infinity are not JSON: a non-finite value raises
        rep = run_scenario(att_world, FailureScenario(frozenset({20})), 1.0)
        with pytest.raises(ValueError, match="not JSON compliant"):
            emit_report([dataclasses.replace(rep, q_fraction=float("nan"))], format="json")

    def test_unknown_format(self, att_world):
        rep = run_scenario(att_world, FailureScenario(frozenset({20})), 1.0)
        with pytest.raises(ReportError, match="unknown report format"):
            emit_report([rep], format="xml")

    def test_infeasible_cells_empty_in_csv(self, att_world):
        rep = run_scenario(att_world, FailureScenario(frozenset({13, 22})), 1.0)
        text = emit_report([rep], format="csv")
        rows = list(csv.DictReader(io.StringIO(text)))
        exact_row = next(r for r in rows if r["algorithm"] == "exact")
        assert exact_row["status"] == "infeasible"
        assert exact_row["raw_overhead"] == ""

    def test_summary_contains_max_reduction(self, att_world):
        scenarios = enumerate_failure_scenarios(att_world.placement, 1)
        summary = sweep_summary([run_scenario(att_world, s, 1.0) for s in scenarios])
        assert summary["exact_feasible_scenarios"] == 6
        assert 0.0 < summary["exact_max_overhead_reduction_vs_nearest"] < 1.0
        assert 0.0 < summary["retroflow_max_overhead_reduction_vs_nearest"] < 1.0
        # without Nearest there is no reduction, but the feasible counts
        # read each algorithm's own rows
        alone = sweep_summary([run_scenario(att_world, s, 1.0, algorithms=("exact", "retroflow"))
                               for s in scenarios])
        assert alone == {**summary, "exact_max_overhead_reduction_vs_nearest": None,
                         "retroflow_max_overhead_reduction_vs_nearest": None}
