"""The world's controller facts and the controller orders the solvers read.

A world (oscm.World) holds each switch's delays, its controllers
nearest first and cheapest first, and each domain's load and flows. Its
instances share the world's orders, which list every controller, failed
ones included; an instance read from a document sorts its own over its
active controllers. Both must lead the greedy, the baseline and the
exact search to the same decisions.

The benchmark worlds and their instances are conftest's session
fixtures, workload_worlds and workload_documents: each is built, and
each instance read back from its document, once per session.
"""

import hashlib
import math

import pytest

from retroflow import domains as dm
from retroflow import experiment
from retroflow.cli import main
from retroflow.domains import FailureScenario, Placement
from retroflow.experiment import make_world, run_scenario
from retroflow.fixtures import att25_topology, att_table2_placement, data_path
from retroflow.flows import programmability
from retroflow.geo import GeoCoordinate, Topology
from retroflow.oscm import InstanceError, OscmInstance, World, build_instance
from retroflow.solvers import solve_exact, solve_nearest, solve_retroflow

from _oracles import count_loop, far_path

WORLDS = ["att25-sweep", "grid49-exact", "grid100-greedy", "bridged7x7"]


def bits(floats):
    """A mapping's items with each float as its hex, so that == compares
    keys in order and floats bit for bit."""
    return [(k, d.hex()) for k, d in floats.items()]


def assert_same_decisions(inst, other):
    traces = [], []
    assert (solve_retroflow(inst, traces[0]) == solve_retroflow(other, traces[1]))
    assert traces[0] == traces[1]
    assert solve_nearest(inst) == solve_nearest(other)


class TestOrdersAgainstCheckedConstructor:
    """A world instance, whose orders are the World's and list failed
    controllers too, against the same instance read back from its
    document, whose orders the checked constructor sorts over the active
    controllers alone."""

    @pytest.mark.parametrize("name, count", [("att25-sweep", 124), ("grid49-exact", 21),
                                             ("grid100-greedy", 41), ("bridged7x7", 21)])
    def test_same_greedy_and_baseline(self, workload_worlds, workload_documents, name, count):
        world, runs = workload_worlds[name]
        docs = workload_documents(name)
        assert len(runs) == len(docs) == count
        for (_, _, inst), copy in zip(runs, docs):
            assert inst.nearest is world.nearest
            assert inst.cheapest is world.cheapest
            assert all(set(copy.nearest[i]) == set(copy.cheapest[i])
                       == set(inst.active_controllers) for i in inst.offline_switches)
            assert_same_decisions(inst, copy)

    def test_same_exact_search_on_att25(self, workload_worlds, workload_documents):
        runs = workload_worlds["att25-sweep"][1]
        searched = 0
        for (s, q, inst), copy in zip(runs, workload_documents("att25-sweep")):
            if (len(s.failed), q) in ((1, 0.9), (2, 0.9), (1, 1.0)):
                assert solve_exact(inst) == solve_exact(copy)
                searched += 1
        assert searched == 27


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
        world = World(t, b, p, p.flow_counts)
        assert world.nearest[0] == (0, 2, 1)
        assert world.cheapest[0] == (0, 1, 2)
        inst = build_instance(t, b, p, FailureScenario(frozenset({0})), 1.0, None, world)
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
        world = World(t, programmability(t), p, p.flow_counts)
        assert world.cheapest == {0: (0, 1, 2), 1: (0, 1, 2), 2: (0, 1, 2)}
        assert world.nearest[0] == (0, 2, 1)

    def test_zero_load_switch_at_inf_delay(self):
        # on _oracles' far path, switch 219 carries no load and sits in
        # controller 0's domain, at inf from it; the cheapest order is by
        # id, with no nan
        t, p = far_path((0, 110), lambda v: 0 if v in (0, 219) else 110,
                        dict.fromkeys(range(220), 0))
        b = programmability(t)
        world = World(t, b, p, p.flow_counts)
        assert world.delay[219][0] == math.inf
        assert world.nearest[219] == (110, 0)
        assert world.cheapest[219] == (0, 110)
        inst = build_instance(t, b, p, FailureScenario(frozenset({0})), 1.0, None, world)
        assert inst.offline_switches == (0, 219)
        assert solve_nearest(inst).assigned == {0: 110, 219: 110}
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
        world = World(t, b, p, b.loads())
        assert world.nearest[0] == (1, 3, 2)
        assert world.nearest[2] == (2, 1, 3)
        inst = build_instance(t, b, p, FailureScenario(frozenset({2})), 1.0, None, world)
        assert solve_nearest(inst).assigned == {0: 1, 2: 1}


def count_worlds(monkeypatch):
    """Record the arguments of each World build, and pass it on."""
    built = []
    init = World.__init__
    monkeypatch.setattr(World, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    return built


def assert_same_instance(inst, other):
    """Attribute for attribute, the delay rows float bit for float bit."""
    assert vars(inst).keys() == vars(other).keys()
    for name, value in vars(inst).items():
        assert value == vars(other)[name], name
    assert ([(i, bits(row)) for i, row in inst.delay_rows.items()]
            == [(i, bits(row)) for i, row in other.delay_rows.items()])


class TestOneTablePerWorld:
    def test_built_with_the_world(self, monkeypatch):
        built = count_worlds(monkeypatch)
        matrices = []
        compute = experiment.programmability
        monkeypatch.setattr(experiment, "programmability",
                            lambda t: matrices.append(compute(t)) or matrices[-1])
        t = att25_topology()
        p = att_table2_placement(t)
        world = make_world(t, p)
        assert len(built) == 1 and len(matrices) == 1
        assert world.topology is t and world.beta is matrices[0] and world.placement is p
        for k in (1, 2, 3):
            for s in dm.enumerate_failure_scenarios(p, k):
                run_scenario(world, s, 0.9, algorithms=("retroflow", "nearest"))
        assert len(built) == 1

    @pytest.mark.parametrize("k", [1, 2])
    def test_one_build_per_run(self, monkeypatch, capsys, k):
        built = count_worlds(monkeypatch)
        code = main(["run", "--topology", data_path("att25.json"),
                     "--placement", data_path("att_table2.json"), "--failures", str(k)])
        capsys.readouterr()
        assert code in (0, 1)
        assert len(built) == 1

    def test_without_a_table_as_with_the_worlds(self, workload_worlds, monkeypatch):
        # every instance of the four worlds against the same scenario
        # built without the World: the call builds its own, which is
        # cleared too, so no build runs the loop over offline switches
        calls = count_loop(monkeypatch)
        for world, runs in workload_worlds.values():
            t, b, p = world.topology, world.beta, world.placement
            for s, q, inst in runs:
                assert_same_instance(inst, build_instance(t, b, p, s, q))
        assert calls == []

    def test_a_table_serves_its_own_world(self, att_world):
        w = att_world
        s = FailureScenario(frozenset({20}))
        message = ("^a World serves only the topology, matrix and placement it was built from, "
                   "with its own loads$")
        with pytest.raises(InstanceError, match=message):
            build_instance(w.topology, w.beta, w.placement, s, 1.0, w.loads(), w)
        other = make_world(w.topology, w.placement)
        with pytest.raises(InstanceError, match=message):
            build_instance(w.topology, other.beta, w.placement, s, 1.0, None, w)


class TestClearedTable:
    """A world that clears its instances once (World.cleared) builds
    every instance's delays without the loop over offline switches; any
    other world runs the loop on every build."""

    @pytest.mark.parametrize("name", WORLDS)
    def test_delays_as_the_checked_constructor_builds_them(self, workload_worlds,
                                                            workload_documents, name):
        # the unchecked delays of a cleared world against those the
        # constructor checks, read back from the instance's document
        world, runs = workload_worlds[name]
        assert world.cleared
        for (_, _, inst), copy in zip(runs, workload_documents(name)):
            # same keys in the same order, floats bit for bit
            assert bits(inst.delay) == bits(copy.delay)

    def test_no_loop_on_a_cleared_world(self, workload_worlds, monkeypatch):
        calls = count_loop(monkeypatch)
        built = 0
        for world, runs in workload_worlds.values():
            assert world.cleared
            t, b, p = world.topology, world.beta, world.placement
            for s, q, _ in runs:
                build_instance(t, b, p, s, q, None, world)
                built += 1
        assert built == 124 + 21 + 41 + 21
        assert calls == []

    @pytest.mark.parametrize("failed, negative, message", [
        (10, None, "delay inf for switch 1, controller 219 must be finite and nonnegative"),
        (219, 21, "switch 21 has negative load"),
    ], ids=["inf-to-second-controller", "negative-load-before-later-inf"])
    def test_one_loop_per_build_on_a_far_path(self, monkeypatch, failed, negative, message):
        # _oracles' far path, with controllers at 0, 10 and 219; each
        # build, without a World or twice from one, runs the loop once
        t, p = far_path((0, 10, 219), lambda v: 0 if v == 0 else 10 if v <= 20 else 219)
        b = programmability(t)
        loads = b.loads()
        if negative is not None:
            loads[negative] = -1
        world = World(t, b, p, loads)
        assert not world.cleared
        calls = count_loop(monkeypatch)
        s = FailureScenario(frozenset({failed}))
        for given, shared in ((loads, None), (None, world), (None, world)):
            with pytest.raises(InstanceError) as err:
                build_instance(t, b, p, s, 1.0, given, shared)
            assert str(err.value) == message
        assert calls == [dm.offline_switches(p, s)] * 3

    def test_world_sum_overflows_where_no_instance_does(self, monkeypatch):
        # links of 5e303 ms; each loaded switch's dearest overhead is
        # 10**4 * 1e304 = 1e308, finite alone, inf when the world sums both
        t = Topology([(v, GeoCoordinate(0.0, 0.0)) for v in range(4)],
                     [(v, v + 1, 1e306) for v in range(3)])
        p = Placement([(0, 10**9), (3, 10**9)], {0: 0, 1: 0, 2: 3, 3: 3})
        b = programmability(t)
        loads = {0: 0, 1: 10**4, 2: 10**4, 3: 0}
        world = World(t, b, p, loads)
        assert not world.cleared
        assert sum(g * max(world.delay[i].values()) for i, g in loads.items()) == math.inf
        calls = count_loop(monkeypatch)
        for s in dm.enumerate_failure_scenarios(p, 1):
            inst = build_instance(t, b, p, s, 1.0, None, world)
            assert inst.delay == {(i, j): world.delay[i][j]
                                  for i in inst.offline_switches for j in inst.active_controllers}
            assert math.isfinite(sum(inst.w(i, j) for i, j in inst.delay))
        assert calls == [(0, 1), (2, 3)]


# sha256 of every instance's delay pairs, recorded when each instance
# built its own {(switch, controller): ms} dict: per instance, its label
# and then "i,j:hex" per pair in the dict's order, one line each, over
# the instances of the workload's groups
DELAY_PAIRS_SHA256 = {
    "att25-sweep": "765a73ab7a4c21ab00cae437d6203bff29f2e6d25286e11019ecb5eda4611c45",
    "grid49-exact": "88142a33e4ffe446e0220d151ed15ca2027263b63e47bec609be49c515bc2ee5",
    "grid100-greedy": "5bd0f53e920ecd603d22e187fe9f304f0c32aa09221d35bd9c00968e0feede7f",
}


class TestSharedDelayRows:
    """A world's instance keeps no delay pairs: it shares the World's
    delay rows, and `delay` and w read them, answering only the pairs of
    an offline switch and an active controller."""

    @pytest.mark.parametrize("name", sorted(DELAY_PAIRS_SHA256))
    def test_rows_shared_and_pairs_unchanged(self, workload_worlds, name):
        world, runs = workload_worlds[name]
        h = hashlib.sha256()
        for _, _, inst in runs:
            assert "delay" not in vars(inst)
            assert inst.delay_rows is world.delay
            pairs = inst.delay
            assert list(pairs) == [(i, j) for i in inst.offline_switches
                                   for j in inst.active_controllers]
            h.update(f"{inst.label}\n".encode())
            for (i, j), d in pairs.items():
                assert inst.w(i, j) == inst.g[i] * d
                h.update(f"{i},{j}:{d.hex()}\n".encode())
        assert h.hexdigest() == DELAY_PAIRS_SHA256[name]

    @pytest.mark.parametrize("name", sorted(DELAY_PAIRS_SHA256))
    def test_only_offline_by_active_pairs(self, workload_worlds, name):
        # the world's rows hold a delay for both kinds of pair
        world, runs = workload_worlds[name]
        for s, _, inst in runs:
            i, j = inst.offline_switches[0], inst.active_controllers[0]
            online = next(v for v in world.topology.node_ids() if v not in inst.g)
            failed = min(s.failed)
            assert failed in world.delay[i] and j in world.delay[online]
            pairs = inst.delay
            for pair in ((i, failed), (online, j)):
                with pytest.raises(KeyError):
                    inst.w(*pair)
                with pytest.raises(KeyError):
                    pairs[pair]

    def test_constructed_instance_raises_alike(self, toy):
        i, j = toy.offline_switches[0], toy.active_controllers[0]
        assert toy.w(i, j) == toy.g[i] * toy.delay_rows[i][j]
        for pair in ((i, -1), (-1, j)):
            with pytest.raises(KeyError):
                toy.w(*pair)
            with pytest.raises(KeyError):
                toy.delay[pair]
