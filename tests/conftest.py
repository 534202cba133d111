import functools
import math
import random
import types
from collections import Counter

import pytest

from retroflow import domains, experiment, fixtures, flows, geo, oscm, solvers
from retroflow.domains import Placement, enumerate_failure_scenarios
from retroflow.experiment import make_world, run_scenario
from retroflow.flows import programmability
from retroflow.oscm import OscmInstance, build_instance

from _oracles import bridged_grid, load_perfbench_workloads, recorded_calls


@pytest.fixture(scope="session")
def att_topology():
    return fixtures.att25_topology()


@pytest.fixture(scope="session")
def att_placement(att_topology):
    return fixtures.att_table2_placement(att_topology)


@pytest.fixture(scope="session")
def att_world(att_topology, att_placement):
    # the programmability matrix and the World's controller facts: built once, reused
    return make_world(att_topology, att_placement)


@pytest.fixture(scope="session")
def workload_worlds(att_world):
    """The worlds of att25-sweep, grid49-exact and grid100-greedy (seed
    1), and bridged_world's bridged 7x7 grid, by name, each as (world,
    runs): runs lists (scenario, q, instance) over the workload's (k, q)
    groups in order, each instance built on the World. att25-sweep's
    world is att_world. Built once per session and shared, so no test
    may change them; a test that reads or patches a world's first-use
    state builds its own world."""
    groups = {name: w.groups for name, w in load_perfbench_workloads().WORKLOADS.items()}
    groups["bridged7x7"] = ((1, 0.9), (2, 0.9))
    _, grid49, grid100 = benchmark_worlds()
    worlds = [att_world, make_world(*grid49), make_world(*grid100),
              make_world(*bridged_world(grid49[1]))]
    sweeps = {}
    for name, world in zip(groups, worlds):
        runs = [(s, q, build_instance(world.topology, world.beta, world.placement, s, q,
                                      None, world))
                for k, q in groups[name] for s in enumerate_failure_scenarios(world.placement, k)]
        sweeps[name] = world, runs
    return sweeps


@pytest.fixture(scope="session")
def workload_documents(workload_worlds):
    """read_back(name): each instance of workload_worlds[name], in order,
    read back from its document by the checked constructor, once per
    session."""
    read = {}

    def read_back(name):
        if name not in read:
            read[name] = [OscmInstance.from_json(inst.to_json())
                          for _, _, inst in workload_worlds[name][1]]
        return read[name]
    return read_back


@pytest.fixture(scope="session")
def benchmark_sweeps(workload_worlds):
    """sweep(name): benchmark_sweep over the workload's workload_worlds
    world, once per session."""
    return functools.cache(lambda name: benchmark_sweep(name, workload_worlds[name][0]))


@pytest.fixture(scope="session")
def att25_instances(workload_worlds):
    """att25-sweep's instances of one to three failures, at q 0.9 and 1.0 (82)."""
    return [inst for s, _, inst in workload_worlds["att25-sweep"][1] if len(s.failed) <= 3]


@pytest.fixture(scope="session")
def ring5():
    return fixtures.ring5_topology()


@pytest.fixture()
def toy():
    """Five offline switches, two surviving controllers, three flows."""
    return fixtures.toy_recovery_instance()


@pytest.fixture()
def fresh_benchmark_worlds():
    """benchmark_worlds(), loaded for this test alone."""
    return benchmark_worlds()


# The world builders behind the session fixtures above.


@functools.cache
def grid_documents():
    """The topology and k-center placement documents of grid49-exact's
    fixed seed and grid100-greedy's seed 1, generated once and shared: no
    caller may change them."""
    workloads = load_perfbench_workloads()
    docs = []
    for side in (7, 10):
        doc = workloads.grid_topology(side, random.Random(1))
        docs.append((doc, workloads.kcenter_placement(doc, workloads.grid_topology(side),
                                                      workloads.CONTROLLERS, workloads.SLACK)))
    return tuple(docs)


def benchmark_worlds():
    """(topology, placement) of att25 and of the benchmark grids, each on a
    topology loaded on this call, so no search has touched it."""
    t = fixtures.att25_topology()
    worlds = [(t, fixtures.att_table2_placement(t))]
    for doc, place in grid_documents():
        t = geo.load_topology(doc)
        worlds.append((t, domains.load_placement(place, t)))
    return worlds


def bridged_world(grid49):
    """bridged_grid's topology with grid49, the placement of grid49-exact,
    as its k-center domains; the chain's two switches, which reprogram
    nothing and so carry no load, join the domain of the node they hang
    off. Capacities are 1.4 times each domain's computed load, rounded up."""
    t, p1, p2 = bridged_grid()
    domain_of = dict(grid49.domain_of)
    domain_of[p1] = domain_of[p2] = domain_of[24]
    shape = Placement([(c, 0) for c in grid49.controller_ids], domain_of)
    own = domains.domain_loads(shape, programmability(t).loads())
    return t, Placement([(c, math.ceil(1.4 * own[c])) for c in grid49.controller_ids],
                        domain_of)


def benchmark_sweep(name, shared):
    """A benchmark pass past its matrix build, as perfbench/run.py runs
    it and its tracer counts it, through module-attribute wrappers: a
    World over the shared world's topology, matrix and placement, then
    run_scenario over the workload's (k, q) groups and algorithms. The
    World is built under the wrappers, so a World build that queries
    pairs is counted too. queries counts flows.shortest_path,
    flows.has_alternative_path, oscm.shortest_path and geo.Path; exact
    holds each exact search's (instance, result)."""
    with pytest.MonkeyPatch.context() as mp:
        builds, exact, prices, *queries = [
            recorded_calls(mp, module, attr)
            for module, attr in ((experiment, "build_instance"), (experiment, "solve_exact"),
                                 (solvers, "_price"), (flows, "shortest_path"),
                                 (flows, "has_alternative_path"), (oscm, "shortest_path"),
                                 (geo, "Path"))]
        workload = load_perfbench_workloads().WORKLOADS[name]
        world = oscm.World(shared.topology, shared.beta, shared.placement)
        nodes = {}
        for k, q in workload.groups:
            done = len(exact)
            for s in enumerate_failure_scenarios(world.placement, k):
                run_scenario(world, s, q, algorithms=workload.algorithms)
            nodes[k, q] = sum(result.nodes_explored for _, result in exact[done:])
    statuses = Counter(result.status for _, result in exact)
    return types.SimpleNamespace(
        builds=len(builds), delay_pairs=sum(len(inst.delay) for _, inst in builds),
        prices=len(prices), statuses=(statuses["optimal"], statuses["infeasible"],
                                      statuses["not_proven"]),
        nodes=nodes, queries=[len(calls) for calls in queries], exact=exact)
