import math
import random
import time

import pytest
from hypothesis import given, strategies as st

from retroflow.geo import (GeoCoordinate, Topology, TopologyError, haversine_km,
                           has_alternative_path, load_topology, shortest_path)

from _oracles import (best_simple_path, law_of_cosines_km, path_weight, random_connected_links,
                      synthetic, two_edge_components_two_pass, two_edge_disjoint_paths_exist)


def random_tree_with_links(rng, n):
    """n ids drawn from 0..10n-1, a random spanning tree on them, and for
    half the graphs up to n extra links: trees, pendant nodes and cycles."""
    ids = rng.sample(range(10 * n), n)
    present = set()
    for k in range(1, n):
        a, b = ids[k], ids[rng.randrange(k)]
        present.add((min(a, b), max(a, b)))
    for _ in range(rng.choice((0, rng.randint(0, n))) if n > 1 else 0):
        a, b = rng.sample(ids, 2)
        present.add((min(a, b), max(a, b)))
    return ids, sorted(present)


def ladder_with_pendant(half):
    """Rails 0..half-1 and half..2half-1 joined by a rung at every
    position, plus node 2half hanging off node 0."""
    links = [(i, i + 1, 10.0) for i in range(half - 1)]
    links += [(half + i, half + i + 1, 10.0) for i in range(half - 1)]
    links += [(i, half + i, 10.0) for i in range(half)]
    links.append((0, 2 * half, 10.0))
    nodes = [(i, GeoCoordinate(0.0, 0.0)) for i in range(2 * half + 1)]
    return Topology(nodes, links)


def component_of(t):
    """Each node id's component label; the topology keeps them by position."""
    return dict(zip(t.node_ids(), t._component))


def partition(labels):
    """The node id sets that share a label."""
    groups = {}
    for node, label in labels.items():
        groups.setdefault(label, set()).add(node)
    return {frozenset(g) for g in groups.values()}


coords = st.builds(
    GeoCoordinate,
    st.floats(min_value=-90, max_value=90, allow_nan=False),
    st.floats(min_value=-180, max_value=180, allow_nan=False),
)


class TestHaversine:
    def test_identical_points(self):
        p = GeoCoordinate(48.85, 2.35)
        assert haversine_km(p, p) == 0.0

    def test_antipodal_on_equator(self):
        d = haversine_km(GeoCoordinate(0, 0), GeoCoordinate(0, 180))
        assert d == pytest.approx(math.pi * 6371.0, rel=1e-12)

    def test_nyc_to_la_against_independent_formula(self):
        # frozen from the spherical law of cosines at radius 6371.0
        nyc = GeoCoordinate(40.7128, -74.0060)
        la = GeoCoordinate(34.0522, -118.2437)
        expected = law_of_cosines_km(40.7128, -74.0060, 34.0522, -118.2437)
        assert expected == pytest.approx(3935.746254609723, rel=1e-12)
        assert haversine_km(nyc, la) == pytest.approx(expected, rel=1e-9)

    @given(coords, coords)
    def test_symmetric_and_nonnegative(self, a, b):
        assert haversine_km(a, b) == haversine_km(b, a)
        assert haversine_km(a, b) >= 0.0

    @given(coords, coords)
    def test_bounded_by_half_circumference(self, a, b):
        assert haversine_km(a, b) <= math.pi * 6371.0 + 1e-9

    @given(coords)
    def test_zero_on_self(self, a):
        assert haversine_km(a, a) == 0.0


class TestLoadTopology:
    def test_zero_distance_link(self):
        doc = {
            "nodes": [{"id": 0, "lat": 1.0, "lon": 2.0}, {"id": 1, "lat": 1.0, "lon": 2.0}],
            "links": [{"a": 0, "b": 1}],
        }
        t = load_topology(doc)
        assert t.link(0, 1).delay_ms == 0.0

    def test_att_fixture_has_25_nodes(self, att_topology):
        assert len(att_topology.nodes) == 25
        summary = att_topology.summary()
        assert summary["nodes"] == 25
        assert summary["directed_arcs"] == 2 * summary["links"]

    def test_latitude_out_of_range(self):
        doc = {
            "nodes": [{"id": 0, "lat": 95.0, "lon": 0.0}, {"id": 1, "lat": 0.0, "lon": 0.0}],
            "links": [{"a": 0, "b": 1}],
        }
        with pytest.raises(TopologyError, match="coordinate out of range"):
            load_topology(doc)

    def test_duplicate_node_id(self):
        doc = {
            "nodes": [{"id": 0, "lat": 0.0, "lon": 0.0}, {"id": 0, "lat": 1.0, "lon": 1.0}],
            "links": [],
        }
        with pytest.raises(TopologyError, match="duplicate node id"):
            load_topology(doc)

    def test_duplicate_node_id_among_many(self):
        # duplicates are found in one pass; a count per id would take minutes here
        n = 50_000
        nodes = [(i, GeoCoordinate(0.0, 0.0)) for i in range(n)]
        nodes.append((n - 1, GeoCoordinate(1.0, 1.0)))
        start = time.perf_counter()
        with pytest.raises(TopologyError, match=f"^duplicate node id {n - 1}$"):
            Topology(nodes, [])
        assert time.perf_counter() - start < 2.0

    def test_no_nodes_rejected(self):
        with pytest.raises(TopologyError, match="no nodes"):
            Topology((), ())

    def test_unknown_fields_rejected(self):
        doc = {
            "nodes": [{"id": 0, "lat": 0.0, "lon": 0.0, "altitude": 3},
                      {"id": 1, "lat": 1.0, "lon": 1.0}],
            "links": [{"a": 0, "b": 1}],
        }
        with pytest.raises(TopologyError, match="unknown fields"):
            load_topology(doc)

    def test_disconnected_rejected(self):
        doc = {
            "nodes": [{"id": i, "lat": float(i), "lon": 0.0} for i in range(4)],
            "links": [{"a": 0, "b": 1}, {"a": 2, "b": 3}],
        }
        with pytest.raises(TopologyError, match="disconnected"):
            load_topology(doc)

    def test_self_loop_and_duplicate_link_rejected(self):
        nodes = [{"id": 0, "lat": 0.0, "lon": 0.0}, {"id": 1, "lat": 1.0, "lon": 1.0}]
        with pytest.raises(TopologyError, match="self-loop"):
            load_topology({"nodes": nodes, "links": [{"a": 0, "b": 0}, {"a": 0, "b": 1}]})
        with pytest.raises(TopologyError, match="duplicate link"):
            load_topology({"nodes": nodes, "links": [{"a": 0, "b": 1}, {"a": 1, "b": 0}]})

    def test_single_node_doc_rejected(self):
        with pytest.raises(TopologyError, match="at least 2"):
            load_topology({"nodes": [{"id": 0, "lat": 0.0, "lon": 0.0}], "links": []})

    @pytest.mark.parametrize("dist", [float("nan"), float("inf"), -1.0])
    def test_bad_distance_rejected(self, dist):
        doc = {
            "nodes": [{"id": 0, "lat": 0.0, "lon": 0.0}, {"id": 1, "lat": 1.0, "lon": 1.0}],
            "links": [{"a": 0, "b": 1, "distance_km": dist}],
        }
        with pytest.raises(TopologyError, match="finite and nonnegative"):
            load_topology(doc)

    @pytest.mark.parametrize("field,value", [
        ("id", 0.5), ("id", float("inf")), ("id", float("nan")), ("id", None), ("id", "x"),
        ("a", 0.5), ("b", float("inf")),
    ])
    def test_bad_id_rejected(self, field, value):
        nodes = [{"id": 0, "lat": 0.0, "lon": 0.0}, {"id": 1, "lat": 1.0, "lon": 1.0}]
        links = [{"a": 0, "b": 1}]
        (nodes[0] if field == "id" else links[0])[field] = value
        with pytest.raises(TopologyError, match="must be a whole number"):
            load_topology({"nodes": nodes, "links": links})

    def test_whole_float_id_accepted(self):
        doc = {
            "nodes": [{"id": 0, "lat": 0.0, "lon": 0.0}, {"id": 1.0, "lat": 1.0, "lon": 1.0}],
            "links": [{"a": 0, "b": 1.0}],
        }
        assert load_topology(doc).node_ids() == (0, 1)

    def test_link_delay_matches_distance(self, att_topology):
        for link in att_topology.links:
            expected = link.distance_km / 200.0
            assert link.delay_ms == pytest.approx(expected, rel=1e-9)

    def test_nonexistent_link(self):
        t = synthetic(3, [(0, 1, 100.0), (1, 2, 100.0)])
        with pytest.raises(TopologyError, match="no link"):
            t.link(0, 2)


class TestShortestPath:
    def test_direct_link_dominates(self):
        t = synthetic(3, [(0, 2, 100.0), (0, 1, 300.0), (1, 2, 300.0)])
        assert shortest_path(t, 0, 2).node_ids == (0, 2)

    def test_triangle_equal_delays(self):
        t = synthetic(3, [(0, 1, 100.0), (1, 2, 100.0), (0, 2, 100.0)])
        p = shortest_path(t, 0, 2)
        assert p.node_ids == (0, 2)
        assert p.total_delay_ms == pytest.approx(0.5)

    def test_ring5_matches_enumeration(self, ring5):
        adj = {i: {} for i in ring5.node_ids()}
        for link in ring5.links:
            adj[link.a][link.b] = link.delay_ms
            adj[link.b][link.a] = link.delay_ms
        for src in ring5.node_ids():
            for dst in ring5.node_ids():
                if src == dst:
                    continue
                expected = best_simple_path(adj, src, dst)
                got = shortest_path(ring5, src, dst)
                assert list(got.node_ids) == expected
                assert got.total_delay_ms == pytest.approx(path_weight(adj, expected))

    def test_tie_break_prefers_fewer_hops_then_lex(self):
        # two equal-length routes 0-1-4 and 0-2-4, plus an equal-length
        # three-hop route 0-3-5-4: hops win, then the smaller node sequence
        t = synthetic(6, [
            (0, 1, 100.0), (1, 4, 100.0),
            (0, 2, 100.0), (2, 4, 100.0),
            (0, 3, 50.0), (3, 5, 50.0), (5, 4, 100.0),
        ])
        p = shortest_path(t, 0, 4)
        assert p.total_delay_ms == pytest.approx(1.0)
        assert p.node_ids == (0, 1, 4)

    def test_deterministic_repeats(self, att_topology):
        first = shortest_path(att_topology, 0, 20)
        for _ in range(5):
            assert shortest_path(att_topology, 0, 20).node_ids == first.node_ids

    def test_same_node_rejected(self, ring5):
        with pytest.raises(TopologyError, match="^src and dst must differ$"):
            shortest_path(ring5, 2, 2)

    def test_hop_metric(self):
        # 0-3 direct is long; 0-1-2-3 is shorter by distance but more hops,
        # and delay is the metric: hop count only breaks delay ties
        t = synthetic(4, [(0, 3, 1000.0), (0, 1, 100.0), (1, 2, 100.0), (2, 3, 100.0)])
        assert shortest_path(t, 0, 3).node_ids == (0, 1, 2, 3)

    def test_triangle_sanity_on_att(self, att_topology):
        ids = att_topology.node_ids()
        rng = random.Random(7)
        for _ in range(40):
            a, b, c = rng.sample(ids, 3)
            ab = shortest_path(att_topology, a, b).total_delay_ms
            bc = shortest_path(att_topology, b, c).total_delay_ms
            ac = shortest_path(att_topology, a, c).total_delay_ms
            assert ac <= ab + bc + 1e-9

    def test_unknown_node(self, ring5):
        with pytest.raises(TopologyError, match="unknown node"):
            shortest_path(ring5, 0, 99)

    def test_random_small_graphs_vs_oracle(self):
        # whole-km distances give exact delays, so delay, hop and
        # node-sequence ties all occur and are compared exactly
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(3, 8)
            t = synthetic(n, random_connected_links(rng, n, (100, 200, 300)))
            adj = {i: {} for i in range(n)}
            for link in t.links:
                adj[link.a][link.b] = link.delay_ms
                adj[link.b][link.a] = link.delay_ms
            for src in range(n):
                for dst in range(n):
                    if src != dst:
                        expected = best_simple_path(adj, src, dst)
                        got = shortest_path(t, src, dst)
                        assert list(got.node_ids) == expected
                        assert got.total_delay_ms == path_weight(adj, expected)

    def test_query_order_does_not_matter(self):
        rng = random.Random(37)
        for _ in range(20):
            n = rng.randint(4, 12)
            links = random_connected_links(rng, n, (1, 2, 3, 7, 11))
            pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
            shuffled = rng.sample(pairs, len(pairs))
            t1, t2 = synthetic(n, links), synthetic(n, links)
            first = {pair: shortest_path(t1, *pair) for pair in pairs}
            second = {pair: shortest_path(t2, *pair) for pair in shuffled}
            for pair in pairs:
                assert first[pair].node_ids == second[pair].node_ids
                assert first[pair].total_delay_ms == second[pair].total_delay_ms


class TestAlternativePaths:
    def test_same_node_rejected(self, ring5):
        with pytest.raises(TopologyError, match="^frm and dst must differ$"):
            has_alternative_path(ring5, 2, 2)

    def test_degree_one_node(self):
        t = synthetic(3, [(0, 1, 100.0), (1, 2, 100.0)])
        assert not has_alternative_path(t, 0, 2)
        # 0-1 is a bridge: two routes beyond it do not make two disjoint paths
        t = synthetic(5, [(0, 1, 100.0), (1, 2, 100.0), (2, 3, 100.0),
                          (1, 4, 100.0), (4, 3, 100.0)])
        assert not has_alternative_path(t, 0, 3)
        assert has_alternative_path(t, 1, 3)

    def test_cycle(self, ring5):
        for a in ring5.node_ids():
            for b in ring5.node_ids():
                if a != b:
                    assert has_alternative_path(ring5, a, b)

    def test_att_sample_matches_menger_oracle(self, att_topology):
        edges = [(l.a, l.b) for l in att_topology.links]
        rng = random.Random(11)
        pairs = [tuple(rng.sample(att_topology.node_ids(), 2)) for _ in range(60)]
        for frm, dst in pairs:
            expected = two_edge_disjoint_paths_exist(edges, frm, dst)
            assert has_alternative_path(att_topology, frm, dst) == expected

    def test_random_small_graphs_vs_oracle(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(3, 8)
            t = synthetic(n, random_connected_links(rng, n, (100.0,)))
            edges = [(l.a, l.b) for l in t.links]
            for frm in range(n):
                for dst in range(n):
                    if frm == dst:
                        continue
                    assert has_alternative_path(t, frm, dst) == \
                        two_edge_disjoint_paths_exist(edges, frm, dst)


class TestComponentsAgainstOracle:
    """The one-pass labelling partitions the nodes as the two-pass one did."""

    def test_random_graphs(self):
        rng = random.Random(53)
        for _ in range(1000):
            ids, links = random_tree_with_links(rng, rng.randint(1, 40))
            t = Topology([(i, GeoCoordinate(0.0, 0.0)) for i in ids],
                         [(a, b, 1.0) for a, b in links])
            assert partition(component_of(t)) == partition(two_edge_components_two_pass(t))

    def test_ladder_with_pendant(self):
        t = ladder_with_pendant(750)
        assert partition(component_of(t)) == partition(two_edge_components_two_pass(t))


class TestLargeTopology:
    def test_ladder_with_pendant(self):
        # 1,501 nodes: far deeper than the recursion limit
        half = 750
        t = ladder_with_pendant(half)
        pendant = 2 * half
        for other in range(2 * half):
            assert not has_alternative_path(t, pendant, other)
            assert not has_alternative_path(t, other, pendant)
        rng = random.Random(41)
        for _ in range(200):
            a, b = rng.sample(range(2 * half), 2)
            assert has_alternative_path(t, a, b)
        p = shortest_path(t, 0, 2 * half - 1)
        assert len(p) == half + 1
        assert p.total_delay_ms == pytest.approx(half * 0.05)

    @pytest.mark.parametrize("closed", [False, True], ids=["path", "cycle"])
    def test_path_and_cycle(self, closed):
        # the search from node 0 goes 5,000 deep: on a path every link is a
        # bridge, on a cycle none is
        n = 5000
        links = [(i, i + 1, 1.0) for i in range(n - 1)]
        if closed:
            links.append((0, n - 1, 1.0))
        t = Topology([(i, GeoCoordinate(0.0, 0.0)) for i in range(n)], links)
        assert len(partition(component_of(t))) == (1 if closed else n)
        assert has_alternative_path(t, 0, n - 1) == closed
        assert has_alternative_path(t, n // 2, n // 2 + 1) == closed
