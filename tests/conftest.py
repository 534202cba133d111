import functools

import pytest

from retroflow import fixtures
from retroflow.domains import enumerate_failure_scenarios
from retroflow.experiment import make_world
from retroflow.oscm import OscmInstance, build_instance


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
    1), and test_bridged's bridged 7x7 grid, by name, each as (world,
    runs): runs lists (scenario, q, instance) over the workload's (k, q)
    groups in order, each instance built on the World. att25-sweep's
    world is att_world. Built once per session and shared, so no test
    may change them; a test that reads or patches a world's first-use
    state builds its own world."""
    from test_bridged import bridged_world
    from test_flows import benchmark_worlds, load_perfbench_workloads

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
    """sweep(name): test_experiment.benchmark_sweep over the workload's
    workload_worlds world, once per session."""
    from test_experiment import benchmark_sweep

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
