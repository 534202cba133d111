"""Worlds with bridges, a shape no benchmark workload builds.

att25 and the benchmark grids have no bridge, so on them the
alternative-path rule holds for every (switch, destination) pair. Here a
pendant chain u - p1 - p2 hangs off a grid node u: p1 and p2 sit beyond
bridges, in 2-edge-connected components of their own. The chain must
change the world's masks only as the rule predicts. Link delays are whole
milliseconds, so every path delay is an exact sum and no tie between
equal-delay paths can break differently once the chain's delay is added.

The topology's bridge components and search trees are also checked
against networkx, an implementation that shares no code with this one.
"""

import random

import pytest

from retroflow import geo
from retroflow.flows import flows_of, programmability
from retroflow.geo import PROPAGATION_KM_PER_MS

from test_flows import benchmark_worlds, load_perfbench_workloads


def integer_grid(side, rng):
    """The benchmark's side x side grid, each link 1 to 9 whole ms long."""
    doc = load_perfbench_workloads().grid_topology(side)
    nodes = [(v["id"], geo.GeoCoordinate(v["lat"], v["lon"])) for v in doc["nodes"]]
    links = [(e["a"], e["b"], rng.randint(1, 9) * PROPAGATION_KM_PER_MS)
             for e in doc["links"]]
    return nodes, links


def with_chain(nodes, links, u, rng):
    """The topology plus the chain u - p1 - p2, p1 and p2 new ids."""
    p1 = max(v for v, _ in nodes) + 1
    p2 = p1 + 1
    coord = dict(nodes)[u]
    chain = [(u, p1, rng.randint(1, 9) * PROPAGATION_KM_PER_MS),
             (p1, p2, rng.randint(1, 9) * PROPAGATION_KM_PER_MS)]
    return geo.Topology(nodes + [(p1, coord), (p2, coord)], links + chain), p1, p2


def reprogrammed(t):
    """{switch: set of (src, dst) flows it can reprogram}, read from the
    world's masks; flow ids run in (src, dst) order from 0."""
    ids = t.node_ids()
    pairs = [(s, d) for s in ids for d in ids if s != d]
    b = programmability(t)
    return {i: {pairs[k] for k in flows_of(m, b.ids)} for i, m in b.masks.items()}


@pytest.mark.parametrize("side", [7, 10])
def test_pendant_chain(side):
    rng = random.Random(side)
    nodes, links = integer_grid(side, rng)
    old = geo.Topology(nodes, links)
    before = reprogrammed(old)
    ids = old.node_ids()
    for u in rng.sample(ids, 2):
        t, p1, p2 = with_chain(nodes, links, u, rng)
        after = reprogrammed(t)
        chain = {p1, p2}
        # old switches keep exactly their old flows
        for i in ids:
            assert {(s, d) for s, d in after[i] if s not in chain and d not in chain} \
                == before[i]
        # the chain's nodes lie beyond bridges: they reprogram nothing, and
        # no switch keeps an alternative route to them
        assert after[p1] == after[p2] == set()
        assert not any(d in chain for row in after.values() for _, d in row)
        for i in ids:
            for d in ids:
                if d == u:
                    continue
                if i == u:
                    # u is on every path out of the chain
                    assert (p1, d) in after[u] and (p2, d) in after[u]
                else:
                    # a flow out of the chain follows u's path to d
                    was = (u, d) in before[i]
                    assert ((p1, d) in after[i]) == was
                    assert ((p2, d) in after[i]) == was


def networkx_worlds():
    """att25, the grid49 and grid100 benchmark worlds, and a bridged 7x7
    grid."""
    rng = random.Random(3)
    nodes, links = integer_grid(7, rng)
    bridged, _, _ = with_chain(nodes, links, 24, rng)
    return [t for t, _ in benchmark_worlds()] + [bridged]


def graph(nx, t):
    g = nx.Graph()
    g.add_nodes_from(t.node_ids())
    g.add_weighted_edges_from(((l.a, l.b, l.delay_ms) for l in t.links), weight="delay")
    return g


def test_bridge_components_match_networkx():
    nx = pytest.importorskip("networkx")
    for t in networkx_worlds():
        ours = {}
        for v, label in zip(t.node_ids(), t._component):
            ours.setdefault(label, set()).add(v)
        want = {frozenset(c) for c in nx.k_edge_components(graph(nx, t), 2)}
        assert {frozenset(c) for c in ours.values()} == want


def test_tree_delays_match_networkx():
    nx = pytest.importorskip("networkx")
    for t in networkx_worlds():
        g = graph(nx, t)
        ids = t.node_ids()
        for src in ids:
            want = nx.single_source_dijkstra_path_length(g, src, weight="delay")
            got = geo.shortest_path_tree(t, src).delay
            assert [d.hex() for d in got] == [float(want[v]).hex() for v in ids]
