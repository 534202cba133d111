"""The world's controller facts and the controller orders the solvers read.

A world (oscm.World) holds each switch's delays, its controllers
nearest first and cheapest first, and each domain's load and flows. Its
instances share the world's orders, which list every controller, failed
ones included; an instance read from a document sorts its own over its
active controllers. Both must lead the greedy, the baseline and the
exact search to the same decisions.
"""

import math
import random

import pytest

from retroflow import domains as dm
from retroflow import oscm
from retroflow.cli import main
from retroflow.domains import FailureScenario, Placement
from retroflow.experiment import make_world, run_scenario
from retroflow.fixtures import att25_topology, att_table2_placement, data_path
from retroflow.flows import programmability
from retroflow.geo import GeoCoordinate, Topology
from retroflow.oscm import InstanceError, OscmInstance, World, build_instance
from retroflow.solvers import solve_exact, solve_nearest, solve_retroflow

from test_bridged import integer_grid, with_chain
from test_flows import benchmark_worlds


def bridged_world():
    """test_bridged's bridged 7x7 grid, with grid49-exact's k-center
    domains; the chain's two switches, which reprogram nothing and so
    carry no load, join the domain of the node they hang off. Capacities
    are 1.4 times each domain's computed load, rounded up."""
    rng = random.Random(3)
    nodes, links = integer_grid(7, rng)
    t, p1, p2 = with_chain(nodes, links, 24, rng)
    grid = benchmark_worlds()[1][1]
    domain_of = dict(grid.domain_of)
    domain_of[p1] = domain_of[p2] = domain_of[24]
    shape = Placement([(c, 0) for c in grid.controller_ids], domain_of)
    own = dm.domain_loads(shape, programmability(t).loads())
    return t, Placement([(c, math.ceil(1.4 * own[c])) for c in grid.controller_ids], domain_of)


WORLD_GROUPS = {
    "att25-sweep": [(k, q) for q in (0.9, 1.0) for k in range(1, 6)],
    "grid49-exact": [(1, 0.8), (2, 0.8)],
    "grid100-greedy": [(1, 0.9), (2, 0.9), (3, 0.9)],
    "bridged7x7": [(1, 0.9), (2, 0.9)],
}


@pytest.fixture(scope="module")
def worlds():
    """The worlds of att25-sweep, grid49-exact and grid100-greedy (seed
    1), and the bridged 7x7 grid, by name."""
    return {name: make_world(t, p) for name, (t, p) in
            zip(WORLD_GROUPS, benchmark_worlds() + [bridged_world()])}


def world_instances(world, groups):
    for k, q in groups:
        for s in dm.enumerate_failure_scenarios(world.placement, k):
            yield build_instance(world.topology, world.beta, world.placement, s, q, None,
                                 world)


def assert_same_decisions(inst, other):
    traces = [], []
    assert (solve_retroflow(inst, traces[0]) == solve_retroflow(other, traces[1]))
    assert traces[0] == traces[1]
    assert solve_nearest(inst) == solve_nearest(other)


class TestOrdersAgainstCheckedConstructor:
    """A world instance, whose orders are the table's and list failed
    controllers too, against the same instance read back from its
    document, whose orders the checked constructor sorts over the active
    controllers alone."""

    @pytest.mark.parametrize("name, count", [("att25-sweep", 124), ("grid49-exact", 21),
                                             ("grid100-greedy", 41), ("bridged7x7", 21)])
    def test_same_greedy_and_baseline(self, worlds, name, count):
        world = worlds[name]
        built = 0
        for inst in world_instances(world, WORLD_GROUPS[name]):
            assert inst.nearest is world.nearest
            assert inst.cheapest is world.cheapest
            copy = OscmInstance.from_json(inst.to_json())
            assert all(set(copy.nearest[i]) == set(copy.cheapest[i])
                       == set(inst.active_controllers) for i in inst.offline_switches)
            assert_same_decisions(inst, copy)
            built += 1
        assert built == count

    def test_same_exact_search_on_att25(self, worlds):
        world = worlds["att25-sweep"]
        for inst in world_instances(world, [(1, 0.9), (2, 0.9), (1, 1.0)]):
            assert solve_exact(inst) == solve_exact(OscmInstance.from_json(inst.to_json()))


def triangle(loads):
    """Switch 0 between controllers 1 and 2, each node a controller of its
    own domain. Controller 2 is nearer (d1 < d2), yet for a load of 3 both
    overheads round to one float; the direct link 1-2 is long, so the
    flows between them pass switch 0."""
    near, far = 300.0000000000002, 300.0000000000003  # km
    d1, d2 = near / 200, far / 200
    assert d1 < d2 and 3 * d1 == 3 * d2
    t = Topology([(v, GeoCoordinate(0.0, 0.0)) for v in range(3)],
                 [(0, 2, near), (0, 1, far), (1, 2, 10_000.0)])
    p = Placement([(0, 10), (1, 10), (2, 10)], {0: 0, 1: 1, 2: 2}, loads)
    return t, p


class TestHandBuiltOrders:
    def test_rounding_tie_goes_to_the_smaller_id(self):
        # the constructor route: controller 2 is nearer, and g * D ties
        a, b = 1.5000000000000004, 1.5000000000000007
        assert a < b and 3 * a == 3 * b == 4.500000000000002
        inst = OscmInstance([0], [1, 2], {(0, 1): b, (0, 2): a}, {0: 3}, {0: {7}},
                            {1: 10, 2: 10}, 1)
        assert inst.nearest[0] == (2, 1)
        assert inst.cheapest[0] == (1, 2)
        trace = []
        assert solve_retroflow(inst, trace).assigned == {0: 1}
        assert trace[1] == "test switch=0 controller=1 w=4.500000000000002 rest=10 fit=yes"
        assert solve_nearest(inst).assigned == {0: 2}
        assert solve_exact(inst).solution.assigned == {0: 1}

    def test_rounding_tie_in_the_table(self):
        t, p = triangle({0: 3, 1: 0, 2: 0})
        b = programmability(t)
        table = World(t, b, p, p.flow_counts)
        assert table.nearest[0] == (0, 2, 1)
        assert table.cheapest[0] == (0, 1, 2)
        inst = build_instance(t, b, p, FailureScenario(frozenset({0})), 1.0, None, table)
        trace = []
        assert solve_retroflow(inst, trace).assigned == {0: 1}
        assert trace[:2] == ["pick switch=0 delta=4",
                             "test switch=0 controller=1 w=4.5000000000000036 rest=10 fit=yes"]
        assert solve_nearest(inst).assigned == {0: 2}
        assert_same_decisions(inst, OscmInstance.from_json(inst.to_json()))

    def test_zero_load_orders_by_id(self):
        inst = OscmInstance([5], [1, 2], {(5, 1): 9.0, (5, 2): 2.0}, {5: 0}, {5: {1}},
                            {1: 0, 2: 0}, 1)
        assert inst.nearest[5] == (2, 1)
        assert inst.cheapest[5] == (1, 2)
        trace = []
        assert solve_retroflow(inst, trace).assigned == {5: 1}
        assert trace[1] == "test switch=5 controller=1 w=0.0 rest=0 fit=yes"
        t, p = triangle({0: 0, 1: 0, 2: 0})
        table = World(t, programmability(t), p, p.flow_counts)
        assert table.cheapest == {0: (0, 1, 2), 1: (0, 1, 2), 2: (0, 1, 2)}
        assert table.nearest[0] == (0, 2, 1)

    def test_zero_load_switch_at_inf_delay(self):
        # a path of 220 links of 8.5e305 ms: delays past 211 hops overflow
        # to inf. Switch 219 carries no load and sits in controller 0's
        # domain, at inf from it; the cheapest order is by id, with no nan
        n = 220
        t = Topology([(v, GeoCoordinate(0.0, 0.0)) for v in range(n)],
                     [(v, v + 1, 1.7e308) for v in range(n - 1)])
        domain_of = {v: 110 for v in range(n)}
        domain_of[0] = domain_of[n - 1] = 0
        p = Placement([(0, 10), (110, 10)], domain_of, {v: 0 for v in range(n)})
        b = programmability(t)
        table = World(t, b, p, p.flow_counts)
        assert table.delay[n - 1][0] == math.inf
        assert table.nearest[n - 1] == (110, 0)
        assert table.cheapest[n - 1] == (0, 110)
        inst = build_instance(t, b, p, FailureScenario(frozenset({0})), 1.0, None, table)
        assert inst.offline_switches == (0, n - 1)
        assert solve_nearest(inst).assigned == {0: 110, n - 1: 110}
        # a path has no alternative route, so nothing is programmable
        assert solve_exact(inst).status == "optimal"

    def test_equal_delays_go_to_the_smaller_id(self):
        inst = OscmInstance([4], [3, 1], {(4, 1): 0.5, (4, 3): 0.5}, {4: 2}, {4: {1}},
                            {1: 5, 3: 5}, 1)
        assert inst.nearest[4] == inst.cheapest[4] == (1, 3)
        assert solve_nearest(inst).assigned == {4: 1}
        # a ring of four equal links: switches 0 and 2 lie halfway
        # between controllers 1 and 3
        t = Topology([(v, GeoCoordinate(0.0, 0.0)) for v in range(4)],
                     [(v, (v + 1) % 4, 100.0) for v in range(4)])
        p = Placement([(1, 100), (2, 100), (3, 100)], {0: 2, 1: 1, 2: 2, 3: 3})
        b = programmability(t)
        table = World(t, b, p, b.loads())
        assert table.nearest[0] == (1, 3, 2)
        assert table.nearest[2] == (2, 1, 3)
        inst = build_instance(t, b, p, FailureScenario(frozenset({2})), 1.0, None, table)
        assert solve_nearest(inst).assigned == {0: 1, 2: 1}


FIELDS = ("offline_switches", "active_controllers", "delay", "g", "a_rest", "masks", "counts",
          "union", "q_required", "label")


def count_tables(monkeypatch):
    """Record the arguments of each World build, and pass it on."""
    built = []
    init = World.__init__
    monkeypatch.setattr(World, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    return built


class TestOneTablePerWorld:
    def test_built_with_the_world(self, monkeypatch):
        built = count_tables(monkeypatch)
        t = att25_topology()
        p = att_table2_placement(t)
        world = make_world(t, p)
        assert len(built) == 1
        assert world.topology is t and world.beta is world.beta
        for k in (1, 2, 3):
            for s in dm.enumerate_failure_scenarios(p, k):
                run_scenario(world, s, 0.9, algorithms=("retroflow", "nearest"))
        assert len(built) == 1

    @pytest.mark.parametrize("k", [1, 2])
    def test_one_build_per_run(self, monkeypatch, capsys, k):
        built = count_tables(monkeypatch)
        code = main(["run", "--topology", data_path("att25.json"),
                     "--placement", data_path("att_table2.json"), "--failures", str(k)])
        capsys.readouterr()
        assert code in (0, 1)
        assert len(built) == 1

    def test_without_a_table_as_with_the_worlds(self, att_world):
        w = att_world
        for k in (1, 2, 3):
            for s in dm.enumerate_failure_scenarios(w.placement, k):
                alone = build_instance(w.topology, w.beta, w.placement, s, 0.9)
                shared = build_instance(w.topology, w.beta, w.placement, s, 0.9, None, w)
                for name in FIELDS:
                    assert getattr(alone, name) == getattr(shared, name), name
                assert ([d.hex() for d in alone.delay.values()]
                        == [d.hex() for d in shared.delay.values()])

    def test_a_table_serves_its_own_world(self, att_world):
        w = att_world
        s = FailureScenario(frozenset({20}))
        message = "^a switch table serves only the world and loads it was built from$"
        with pytest.raises(InstanceError, match=message):
            build_instance(w.topology, w.beta, w.placement, s, 1.0, w.loads(), w)
        other = make_world(w.topology, w.placement)
        with pytest.raises(InstanceError, match=message):
            build_instance(w.topology, other.beta, w.placement, s, 1.0, None, w)


def count_loop(monkeypatch):
    """Record each call of the loop over offline switches, by its
    offline switches, and pass it on."""
    calls = []
    loop = oscm._check_switches
    monkeypatch.setattr(oscm, "_check_switches",
                        lambda *args: calls.append(args[0]) or loop(*args))
    return calls


def path_world(n, km, controllers, domain_of):
    """A path of n nodes and links of km each, controllers of capacity 10**9."""
    t = Topology([(v, GeoCoordinate(0.0, 0.0)) for v in range(n)],
                 [(v, v + 1, km) for v in range(n - 1)])
    return t, Placement([(c, 10**9) for c in controllers], domain_of)


class TestClearedTable:
    """A world that clears its instances once (World.cleared) builds
    every instance's delays without the loop over offline switches; any
    other world runs the loop on every build."""

    @pytest.mark.parametrize("name", ["att25-sweep", "grid49-exact", "grid100-greedy",
                                      "bridged7x7"])
    def test_delays_as_the_checked_constructor_builds_them(self, worlds, name):
        # the unchecked delays of a cleared world against those the
        # constructor checks, read back from the instance's document
        world = worlds[name]
        assert world.cleared
        ks = sorted({k for k, _ in WORLD_GROUPS[name]})
        for inst in world_instances(world, [(k, 1.0) for k in ks]):
            copy = OscmInstance.from_json(inst.to_json())
            # same keys in the same order, floats bit for bit
            assert ([(ij, d.hex()) for ij, d in inst.delay.items()]
                    == [(ij, d.hex()) for ij, d in copy.delay.items()])

    def test_no_loop_on_a_cleared_world(self, worlds, monkeypatch):
        world = worlds["att25-sweep"]
        calls = count_loop(monkeypatch)
        assert sum(1 for _ in world_instances(world, WORLD_GROUPS["att25-sweep"])) == 124
        assert calls == []

    @pytest.mark.parametrize("failed, negative, message", [
        (10, None, "delay inf for switch 1, controller 219 must be finite and nonnegative"),
        (219, 21, "switch 21 has negative load"),
    ], ids=["inf-to-second-controller", "negative-load-before-later-inf"])
    def test_one_loop_per_build_on_a_far_path(self, monkeypatch, failed, negative, message):
        # test_oscm's far path: links of 1.7e308 km, whose delays sum to
        # inf past 211 hops, controllers at 0, 10 and 219
        n = 220
        t, p = path_world(n, 1.7e308, (0, 10, n - 1),
                          {v: 0 if v == 0 else 10 if v <= 20 else n - 1 for v in range(n)})
        b = programmability(t)
        loads = b.loads()
        if negative is not None:
            loads[negative] = -1
        table = World(t, b, p, loads)
        assert not table.cleared
        calls = count_loop(monkeypatch)
        s = FailureScenario(frozenset({failed}))
        for _ in range(2):
            with pytest.raises(InstanceError) as err:
                build_instance(t, b, p, s, 1.0, None, table)
            assert str(err.value) == message
        assert calls == [dm.offline_switches(p, s)] * 2

    def test_world_sum_overflows_where_no_instance_does(self, monkeypatch):
        # links of 5e303 ms; each loaded switch's dearest overhead is
        # 10**4 * 1e304 = 1e308, finite alone, inf when the world sums both
        t, p = path_world(4, 1e306, (0, 3), {0: 0, 1: 0, 2: 3, 3: 3})
        b = programmability(t)
        loads = {0: 0, 1: 10**4, 2: 10**4, 3: 0}
        table = World(t, b, p, loads)
        assert not table.cleared
        assert sum(g * max(table.delay[i].values()) for i, g in loads.items()) == math.inf
        calls = count_loop(monkeypatch)
        for s in dm.enumerate_failure_scenarios(p, 1):
            inst = build_instance(t, b, p, s, 1.0, None, table)
            assert inst.delay == {(i, j): table.delay[i][j]
                                  for i in inst.offline_switches for j in inst.active_controllers}
            assert math.isfinite(sum(inst.w(i, j) for i, j in inst.delay))
        assert calls == [(0, 1), (2, 3)]
