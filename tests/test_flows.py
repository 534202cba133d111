import hashlib
import importlib.util
import math
import random
import sys
from pathlib import Path as FsPath

import pytest

from retroflow import domains, fixtures, flows, geo
from retroflow.domains import enumerate_failure_scenarios
from retroflow.flows import (BetaMatrix, Flow, compute_beta, flows_of, generate_flows,
                             index_flows, programmability)
from retroflow.geo import GeoCoordinate, Path, Topology
from retroflow.experiment import emit_report, load_diagnostics, make_world, run_scenario
from retroflow.oscm import build_instance, validate
from retroflow.solvers import solve_nearest, solve_retroflow

from _oracles import compute_beta_per_flow, index_flows_by_digits, paths_from_checked
from test_geo import random_connected_links, synthetic


def line3():
    nodes = [(i, GeoCoordinate(10.0 + i, 20.0)) for i in range(3)]
    return Topology(nodes, [(0, 1, 100.0), (1, 2, 100.0)])


def assert_ordered_pair_ids(fs, t):
    """n*(n-1) flows, one per ordered pair, numbered 0.. in (src, dst) order."""
    ids = sorted(t.node_ids())
    want = [(src, dst) for src in ids for dst in ids if src != dst]
    assert [(f.flow_id, f.src, f.dst) for f in fs] == [
        (fid, src, dst) for fid, (src, dst) in enumerate(want)]


def ring5_named():
    """Five switches 20..24 on a cycle, distinct link lengths."""
    nodes = [(i, GeoCoordinate(10.0 + i * 0.1, 20.0)) for i in range(20, 25)]
    links = [(20, 21, 100.0), (21, 22, 150.0), (22, 23, 200.0),
             (23, 24, 250.0), (20, 24, 300.0)]
    return Topology(nodes, links)


class TestGenerateFlows:
    def test_two_nodes(self):
        nodes = [(0, GeoCoordinate(0.0, 0.0)), (1, GeoCoordinate(1.0, 1.0))]
        t = Topology(nodes, [(0, 1)])
        fs = generate_flows(t)
        assert [(f.src, f.dst) for f in fs] == [(0, 1), (1, 0)]

    def test_att_all_pairs(self, att_world):
        assert len(generate_flows(att_world.topology)) == 25 * 24

    def test_single_node(self):
        t = Topology([(0, GeoCoordinate(0.0, 0.0))], [])
        assert len(generate_flows(t)) == 0

    def test_ids_lexicographic(self, att_world):
        assert_ordered_pair_ids(generate_flows(att_world.topology), att_world.topology)

    @pytest.mark.parametrize("src, dst, nodes, message", [
        (20, 20, (20, 21, 20), "flow 4: src equals dst"),
        (20, 22, (20, 21), "flow 4: path does not join src to dst"),
        (20, 22, (21, 22), "flow 4: path does not join src to dst"),
    ], ids=["src-is-dst", "ends-short", "starts-late"])
    def test_flow_checks_its_path(self, src, dst, nodes, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Flow(4, src, dst, Path(nodes, 1.0))


class TestComputeBeta:
    def test_destination_always_excluded(self):
        t = ring5_named()
        fs = generate_flows(t)
        b = compute_beta(fs, t)
        for f in fs:
            assert f.flow_id not in b.flows_at(f.dst)

    def test_one_hop_flow_source_with_alternative(self):
        t = ring5_named()
        fs = (Flow(0, 20, 21, Path((20, 21), 0.5)),)
        b = compute_beta(fs, t)
        assert 0 in b.flows_at(20)  # the cycle offers a second route
        assert 0 not in b.flows_at(21)

    def test_degree_one_switch_never_programs(self):
        t = line3()
        fs = generate_flows(t)
        b = compute_beta(fs, t)
        # no cycle anywhere: nothing is reroutable at all
        for f in fs:
            for i in t.node_ids():
                assert f.flow_id not in b.flows_at(i)

    def test_hand_enumeration_on_five_switch_ring(self):
        t = ring5_named()
        fs = (
            Flow(1, 20, 22, Path((20, 21, 22), 1.25)),
            Flow(2, 22, 24, Path((22, 23, 24), 2.25)),
            Flow(3, 24, 20, Path((24, 20), 1.5)),
        )
        b = compute_beta(fs, t)
        assert b.flows_at(20) == {1}
        assert b.flows_at(21) == {1}
        assert b.flows_at(22) == {2}
        assert b.flows_at(23) == {2}
        assert b.flows_at(24) == {3}


class TestLoads:
    def test_off_path_switch_is_zero(self):
        b = index_flows({0: {1, 2, 3}, 1: set()})
        assert b.loads()[1] == 0

    def test_three_ones(self):
        b = index_flows({0: {1, 2, 3}, 1: set()})
        assert b.loads()[0] == 3

    def test_unknown_switch(self):
        b = index_flows({0: set()})
        with pytest.raises(KeyError, match="unknown switch 9"):
            b.flows_at(9)

    def test_att_diagnostic_reports_fixture_counts(self, att_world):
        diag = load_diagnostics(att_world)
        # the published counts are data; computed counts depend on path
        # tie-breaking and are reported, never asserted equal
        assert diag["per_switch"][13]["fixture"] == 225
        assert diag["per_switch"][5]["fixture"] == 153
        assert diag["fixture_total"] == 2055
        assert diag["computed_total"] == sum(
            rec["computed"] for rec in diag["per_switch"].values()
        )


class TestFlowIndex:
    def test_bits_are_ranks_not_ids(self):
        rows = {0: {10**300, -7}, 1: {3, -7}, 2: set()}
        b = index_flows(rows)
        assert isinstance(b, BetaMatrix)
        assert b.ids == (-7, 3, 10**300)
        assert b.masks == {0: 0b101, 1: 0b011, 2: 0}
        assert b.loads() == {0: 2, 1: 2, 2: 0}
        for key, row in rows.items():
            assert flows_of(b.masks[key], b.ids) == tuple(sorted(row))
            assert b.flows_at(key) == row

    def test_no_flows(self):
        b = index_flows({})
        assert (b.ids, b.masks, b.loads()) == ((), {}, {})
        b = index_flows({4: frozenset()})
        assert (b.ids, b.masks, b.flows_at(4)) == ((), {4: 0}, frozenset())
        assert flows_of(0, ()) == ()

    def test_random_rows_round_trip(self):
        rng = random.Random(14)
        for _ in range(200):
            pool = rng.sample(range(-50, 10**6), rng.randint(1, 300))
            rows = {k: set(rng.sample(pool, rng.randint(0, len(pool)))) for k in range(4)}
            b = index_flows(rows)
            ids, masks = b.ids, b.masks
            assert (ids, masks) == index_flows_by_digits(rows)
            assert ids == tuple(sorted(set().union(*rows.values())))
            for key, row in rows.items():
                assert masks[key].bit_count() == len(row) == b.loads()[key]
                assert flows_of(masks[key], ids) == tuple(sorted(row))
            union = masks[0] | masks[1]
            assert flows_of(union, ids) == tuple(sorted(rows[0] | rows[1]))

    def test_same_index_as_digit_strings_on_att25(self, att_world):
        t = att_world.topology
        ranked = compute_beta(generate_flows(t), t)
        rows = {i: ranked.flows_at(i) for i in t.node_ids()}
        assert (ranked.ids, ranked.masks) == index_flows_by_digits(rows)

    def test_world_index_matches_rows(self, att_world):
        # a world's bit k stands for flow id k
        b = att_world.beta
        fs = generate_flows(att_world.topology)
        assert b.ids == tuple(f.flow_id for f in fs) == tuple(range(25 * 24))
        for i, load in b.loads().items():
            assert flows_of(b.masks[i], b.ids) == tuple(sorted(b.flows_at(i)))
            assert b.masks[i].bit_count() == load

    def test_rows_decoded_on_first_use(self):
        t = ring5_named()
        b = programmability(t)
        assert b._rows == {}
        want = compute_beta(generate_flows(t), t)
        row = b.flows_at(22)
        assert row == want.flows_at(22)
        assert b.flows_at(22) is row
        assert list(b._rows) == [22]
        # decoded rows share the index's int objects
        assert all(l is b.ids[l] for l in row)
        # a matrix indexed from rows keeps none of them: it decodes each
        # on its first read, as a world's does
        b = index_flows({0: frozenset({1, 2, 3}), 1: frozenset()})
        assert (b.ids, b.masks) == ((1, 2, 3), {0: 0b111, 1: 0})
        assert b._rows == {}
        row = b.flows_at(0)
        assert row == {1, 2, 3} and b.flows_at(0) is row
        assert list(b._rows) == [0]
        assert all(l is b.ids[k] for k, l in enumerate(sorted(row)))
        assert b.flows_at(1) == frozenset()
        assert list(b._rows) == [0, 1]


class TestInvariants:
    def test_per_flow_beta_bounded_by_path_length(self, att_world):
        b = att_world.beta
        for f in generate_flows(att_world.topology):
            count = sum(f.flow_id in b.flows_at(i) for i in f.path.node_ids)
            assert count <= len(f.path.node_ids) - 1

    def test_load_totals_agree_both_ways(self, att_world):
        b = att_world.beta
        by_switch = sum(b.loads().values())
        by_flow = sum(
            sum(f.flow_id in b.flows_at(i) for i in f.path.node_ids)
            for f in generate_flows(att_world.topology)
        )
        assert by_switch == by_flow

    def test_removing_a_flow_drops_loads_by_its_beta(self):
        t = ring5_named()
        fs = generate_flows(t)
        b = compute_beta(fs, t)
        victim = fs[7]
        reduced = tuple(f for f in fs if f.flow_id != victim.flow_id)
        b2 = compute_beta(reduced, t)
        for i in t.node_ids():
            assert len(b.flows_at(i)) - len(b2.flows_at(i)) == (victim.flow_id in b.flows_at(i))


def id_masks(b) -> dict[int, int]:
    """Each switch's flows as a mask whose bit k is flow id k."""
    return {i: sum(1 << l for l in b.flows_at(i)) for i in b.masks}


def positions(t) -> dict[int, int]:
    """Node id -> position in the search trees: the k-th smallest id has
    position k."""
    return {v: k for k, v in enumerate(sorted(t.node_ids()))}


def checked_tree(t, src):
    """paths_from_checked's paths as the tree _paths_from returns, over
    positions: the order the paths were found in, each path's
    second-to-last node as the parent, its total as the delay."""
    paths = paths_from_checked(t, src)
    at = positions(t)
    parent, delay = [None] * len(at), [None] * len(at)
    for v, p in paths.items():
        delay[at[v]] = p.total_delay_ms
        if v != src:
            parent[at[v]] = at[p.node_ids[-2]]
    return geo.SearchTree([at[v] for v in paths], parent, delay)


def load_perfbench_workloads():
    """perfbench/workloads.py, which generates the benchmark's grids."""
    path = FsPath(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestWorldBuildAgainstOracle:
    """The world's masks, built from one path tree per source, against
    generate_flows over verbatim copies of the per-edge-checked search and
    the per-flow beta build."""

    @staticmethod
    def random_links(rng):
        # zero-length links make delay ties, so the (delay, hops,
        # node-sequence) tie-break decides; pendant nodes hang off bridges,
        # so some alternative-path answers are False
        n = rng.randint(3, 10)
        links = random_connected_links(rng, n, rng.choice(((0, 1, 2), (0, 0, 5), (0, 100, 200))))
        pendants = rng.randint(0, 3)
        for k in range(n, n + pendants):
            links.append((rng.randrange(k), k, rng.choice((0, 1, 3))))
        return n + pendants, links

    @staticmethod
    def per_flow(t, monkeypatch):
        """generate_flows over the checked search, and the per-flow beta."""
        with monkeypatch.context() as m:
            m.setattr(geo, "_paths_from", checked_tree)
            want_flows = generate_flows(t)
        assert_ordered_pair_ids(want_flows, t)
        return want_flows, compute_beta_per_flow(want_flows, t)

    @staticmethod
    def assert_same_masks(got, want_flows, want):
        assert got.ids == tuple(range(len(want_flows)))
        assert got.masks == id_masks(want)
        assert got.loads() == want.loads()

    def test_same_flows_and_beta_on_random_topologies(self, monkeypatch):
        rng = random.Random(11)
        answers = set()
        uncarried = 0
        for _ in range(60):
            n, links = self.random_links(rng)
            got_t = synthetic(n, links)
            got_flows = generate_flows(got_t)
            got = programmability(got_t)
            want_flows, want = self.per_flow(synthetic(n, links), monkeypatch)

            assert [f.flow_id for f in got_flows] == [f.flow_id for f in want_flows]
            for g, w in zip(got_flows, want_flows):
                assert (g.src, g.dst) == (w.src, w.dst)
                assert g.path.node_ids == w.path.node_ids
                assert g.path.total_delay_ms == w.path.total_delay_ms
            self.assert_same_masks(got, want_flows, want)
            union = 0
            for mask in got.masks.values():
                union |= mask
            uncarried += len(got_flows) - union.bit_count()
            answers.update(geo.has_alternative_path(got_t, i, j)
                           for i in range(n) for j in range(n) if i != j)
        assert answers == {False, True}
        # pendant nodes leave flows that no switch carries
        assert uncarried > 0

    def test_same_masks_on_att25_and_benchmark_grids(self, monkeypatch):
        workloads = load_perfbench_workloads()
        # grid49-exact's fixed seed, and grid100-greedy's seed 1
        grids = [workloads.grid_topology(side, random.Random(1)) for side in (7, 10)]
        loaders = [fixtures.att25_topology] + [lambda doc=doc: geo.load_topology(doc)
                                               for doc in grids]
        for load in loaders:
            got = programmability(load())
            self.assert_same_masks(got, *self.per_flow(load(), monkeypatch))

    @staticmethod
    def relabellings(rng, n):
        """Two maps from positions to node ids that are not positions: an
        order-preserving sparse one, with negative ids, gaps and ids beyond
        2**64, and an order-reversing one."""
        sparse = sorted(rng.sample(range(-10**6, 10**6), n // 2)
                        + rng.sample(range(2**64, 2**64 + 10**6), n - n // 2))
        return sparse, sparse[::-1]

    def test_node_ids_that_are_not_positions(self, monkeypatch):
        """The random topologies relabelled: trees, masks and instance
        delays against the oracles."""
        rng, label_rng = random.Random(11), random.Random(21)
        for _ in range(60):
            n, links = self.random_links(rng)
            for label in self.relabellings(label_rng, n):
                def load(label=label):
                    return Topology([(label[k], GeoCoordinate(10.0 + k * 0.1, 20.0))
                                     for k in range(n)],
                                    [(label[a], label[b], d) for a, b, d in links])

                t = load()
                TestSearchTrees.assert_same_trees(t)
                b = programmability(t)
                self.assert_same_masks(b, *self.per_flow(load(), monkeypatch))
                # three controllers, each owning every third switch
                controllers = [label[0], label[n // 2], label[-1]]
                p = domains.Placement([(c, 10**9) for c in controllers],
                                      {label[k]: controllers[k % 3] for k in range(n)})
                for k in (1, 2):
                    for s in enumerate_failure_scenarios(p, k):
                        inst = build_instance(t, b, p, s, 1.0)
                        for (i, j), d in inst.delay.items():
                            want = 0.0 if i == j else paths_from_checked(t, i)[j].total_delay_ms
                            assert d.hex() == want.hex()

    @pytest.mark.parametrize("n", range(2, 18))
    def test_paths_stars_rings_and_wheels(self, n, monkeypatch):
        """Every n from 2 to 17: the masks join n segments per switch over
        up to five levels, through every pattern of odd lists carried up.
        Paths and stars are all bridges, so no switch reprograms a flow;
        rings and wheels (a star whose leaves form a ring) are one
        2-edge-connected component."""
        path = [(k, k + 1) for k in range(n - 1)]
        star = [(0, k) for k in range(1, n)]
        shapes = {"path": path, "star": star}
        if n >= 3:
            shapes["ring"] = path + [(0, n - 1)]
        if n >= 4:
            shapes["wheel"] = star + [(k, k + 1) for k in range(1, n - 1)] + [(1, n - 1)]
        for name, links in shapes.items():
            weighted = [(a, b, 100.0 + 7 * k) for k, (a, b) in enumerate(links)]
            got = programmability(synthetic(n, weighted))
            self.assert_same_masks(got, *self.per_flow(synthetic(n, weighted), monkeypatch))
            assert any(got.masks.values()) == (name in ("ring", "wheel"))

    def test_rings_joined_by_bridges(self, monkeypatch):
        """Two rings, one with a chord, joined through a bridge node, and
        a pendant node: a switch reprograms only flows to its own ring."""
        ring_a = [(k, (k + 1) % 5) for k in range(5)]
        ring_b = [(6 + k, 6 + (k + 1) % 6) for k in range(6)] + [(7, 10)]
        links = ring_a + ring_b + [(4, 5), (5, 6), (0, 12)]
        weighted = [(a, b, 100.0 + 7 * k) for k, (a, b) in enumerate(links)]
        got = programmability(synthetic(13, weighted))
        self.assert_same_masks(got, *self.per_flow(synthetic(13, weighted), monkeypatch))
        # the bridge node and the pendant reprogram nothing; every ring
        # switch reprograms at least the flow to its ring neighbour
        assert [i for i, m in got.masks.items() if not m] == [5, 12]

    def test_one_search_per_source_and_no_pair_query_on_att25(self, monkeypatch):
        calls = {(geo, "_paths_from"): 0}
        for module in (flows, geo):
            for name in ("shortest_path", "has_alternative_path"):
                calls[(module, name)] = 0

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                calls[(module, name)] += 1
                return fn(*args)
            return wrapper

        for module, name in calls:
            monkeypatch.setattr(module, name, counted(module, name))
        t = fixtures.att25_topology()
        make_world(t, fixtures.att_table2_placement(t))
        searches = calls.pop((geo, "_paths_from"))
        assert searches == 25
        assert set(calls.values()) == {0}


def benchmark_worlds():
    """(topology, placement) of att25 and of the benchmark grids, each on a
    topology no search has touched: grid49-exact's fixed seed and
    grid100-greedy's seed 1, with their k-center placements."""
    workloads = load_perfbench_workloads()
    t = fixtures.att25_topology()
    worlds = [(t, fixtures.att_table2_placement(t))]
    for side in (7, 10):
        doc = workloads.grid_topology(side, random.Random(1))
        place = workloads.kcenter_placement(doc, workloads.grid_topology(side),
                                            workloads.CONTROLLERS, workloads.SLACK)
        t = geo.load_topology(doc)
        worlds.append((t, domains.load_placement(place, t)))
    return worlds


class TestSearchTrees:
    """One search tree per source, parents and delays, against the verbatim
    per-edge-checked search, and the paths and delays read from it."""

    @staticmethod
    def assert_same_trees(t):
        ids = sorted(t.node_ids())
        at = positions(t)
        for src in ids:
            tree = geo.shortest_path_tree(t, src)
            want = paths_from_checked(t, src)
            # settle order: the source first, a parent before its children
            assert [ids[v] for v in tree.order] == list(want)
            assert len(tree.parent) == len(tree.delay) == len(ids)
            for v, path in want.items():
                assert tree.delay[at[v]].hex() == path.total_delay_ms.hex()
                if v == src:
                    assert tree.parent[at[v]] is None
                    continue
                assert ids[tree.parent[at[v]]] == path.node_ids[-2]
                got = geo.shortest_path(t, src, v)
                assert got.node_ids == path.node_ids
                assert got.total_delay_ms.hex() == path.total_delay_ms.hex()

    def test_same_trees_on_random_topologies(self):
        # TestWorldBuildAgainstOracle's 60 topologies: zero-length links
        # make delay ties, so hops and node sequences decide
        rng = random.Random(11)
        for _ in range(60):
            n, links = TestWorldBuildAgainstOracle.random_links(rng)
            self.assert_same_trees(synthetic(n, links))

    def test_same_trees_on_att25_and_benchmark_grids(self):
        for t, _ in benchmark_worlds():
            self.assert_same_trees(t)

    @pytest.mark.parametrize("side", [7, 10, 20])
    def test_same_trees_on_unjittered_grids(self, side):
        # equal link lengths tie most delays, so most sources are searched
        # under the full order
        workloads = load_perfbench_workloads()
        self.assert_same_trees(geo.load_topology(workloads.grid_topology(side)))

    def test_tie_in_settle_order_alone(self, monkeypatch):
        # from node 0, node 2 lies 5 ms away over one link and node 1 5 ms
        # away over two (2 + 3 ms, exact floats): no relaxation meets a
        # tentative delay, only the settled delays tie. By position node
        # 1 would settle first; fewer hops settle node 2 first
        t = synthetic(4, [(0, 2, 1000.0), (0, 3, 400.0), (3, 1, 600.0)])
        calls = self.count_calls(monkeypatch, geo, "_paths_from_ordered")
        assert geo.shortest_path_tree(t, 0).order == [0, 3, 2, 1]
        assert len(calls) == 1
        self.assert_same_trees(t)

    @staticmethod
    def full_order_searches(t, calls):
        """How many of t's sources, each searched once, the fast search
        hands to the full-order search, whose calls count_calls records
        in calls."""
        calls.clear()
        for src in t.node_ids():
            geo.shortest_path_tree(t, src)
        return len(calls)

    def test_no_full_order_search_without_ties(self, monkeypatch):
        # the bundled topologies, the benchmark grids and a 20x20 grid of
        # the same generator: jittered coordinates tie no delay
        workloads = load_perfbench_workloads()
        jittered = geo.load_topology(workloads.grid_topology(20, random.Random(1)))
        untied = ([fixtures.att25_topology(), fixtures.ring5_topology()]
                  + [t for t, _ in benchmark_worlds()[1:]] + [jittered])
        calls = self.count_calls(monkeypatch, geo, "_paths_from_ordered")
        assert [self.full_order_searches(t, calls) for t in untied] == [0] * 5

    def test_full_order_search_at_ties(self, monkeypatch):
        workloads = load_perfbench_workloads()
        grids = [geo.load_topology(workloads.grid_topology(side)) for side in (7, 10, 20)]
        calls = self.count_calls(monkeypatch, geo, "_paths_from_ordered")
        assert [self.full_order_searches(t, calls) for t in grids] == [33, 84, 370]
        # test_same_trees_on_random_topologies' zero-length links
        rng = random.Random(11)
        tied = []
        for _ in range(60):
            t = synthetic(*TestWorldBuildAgainstOracle.random_links(rng))
            tied.append(self.full_order_searches(t, calls))
        assert sum(map(bool, tied)) == 59 and sum(tied) == 444
        # a path of 1.7e308 km links, whose delays past 211 hops overflow
        # to inf: an inner source's two neighbours tie, and from an end
        # source, which ties no finite delay, the first sum to overflow
        # meets its node's tentative delay, inf
        n = 220
        far = Topology([(v, GeoCoordinate(0.0, 0.0)) for v in range(n)],
                       [(v, v + 1, 1.7e308) for v in range(n - 1)])
        assert self.full_order_searches(far, calls) == n
        self.assert_same_trees(far)

    def test_instance_delays_are_shortest_path_delays(self):
        # every (switch, controller) pair an instance can hold: the single
        # failures take each switch offline, its own controller failed
        for t, p in benchmark_worlds():
            b = programmability(t)
            pairs = set()
            for s in enumerate_failure_scenarios(p, 1):
                inst = build_instance(t, b, p, s, 1.0)
                for (i, j), d in inst.delay.items():
                    want = 0.0 if i == j else geo.shortest_path(t, i, j).total_delay_ms
                    assert d.hex() == want.hex()
                pairs |= set(inst.delay)
            assert pairs == {(i, j) for i in t.node_ids() for j in p.controller_ids
                             if p.domain_of[i] != j}

    @staticmethod
    def count_calls(monkeypatch, module, name):
        calls = []
        fn = getattr(module, name)

        def counted(*args):
            calls.append(args)
            return fn(*args)
        monkeypatch.setattr(module, name, counted)
        return calls

    def test_one_search_per_source_per_world_build(self, monkeypatch):
        searches = self.count_calls(monkeypatch, geo, "_paths_from")
        for (t, p), n in zip(benchmark_worlds(), (25, 49, 100)):
            searches.clear()
            make_world(t, p)
            assert len(searches) == n
            assert sorted(src for _, src in searches) == list(t.node_ids())

    def test_att25_sweep_builds_no_path(self, monkeypatch):
        """The world build and every instance build read the trees; a
        Path is built only when shortest_path is asked for one."""
        t = fixtures.att25_topology()
        p = fixtures.att_table2_placement(t)
        searches = self.count_calls(monkeypatch, geo, "_paths_from")
        paths = self.count_calls(monkeypatch, geo, "Path")
        world = make_world(t, p)
        for k in range(1, 6):
            for q in (0.9, 1.0):
                emit_report([run_scenario(world, s, q)
                             for s in enumerate_failure_scenarios(p, k)])
        assert (len(searches), len(paths)) == (25, 0)
        geo.shortest_path(t, 0, 20)
        assert (len(searches), len(paths)) == (25, 1)


# sha256 of the 20x20 and 25x25 grid worlds' masks (generator seed 1) as
# "id:hex" pairs joined by ";" in id order; the 20x20 one recorded from
# the dict-keyed build that preceded the search over node positions, the
# 25x25 one from the build that ORed each source into a growing mask
GRID400_MASKS_SHA256 = "205ad75668970f403b60b0e7e3add4a27c73c77641972f38ea23bdefe6a35799"
GRID625_MASKS_SHA256 = "3e2002bfc80078210b32ca9933f86082dab270315ae570a61a2c8a3d67652252"


def masks_sha256(b):
    """The sha256 of b's masks as "id:hex" pairs joined by ";" in id
    order, hashed one mask at a time."""
    h = hashlib.sha256()
    for k, (i, m) in enumerate(sorted(b.masks.items())):
        h.update(f"{';' if k else ''}{i}:{m:x}".encode())
    return h.hexdigest()


class TestWorldAtScale:
    def test_grid625_masks(self):
        """625 nodes, an odd count: the join runs ten levels."""
        workloads = load_perfbench_workloads()
        t = geo.load_topology(workloads.grid_topology(25, random.Random(1)))
        assert masks_sha256(programmability(t)) == GRID625_MASKS_SHA256

    def test_grid400_masks_and_single_failures(self):
        side = 20
        workloads = load_perfbench_workloads()
        t = geo.load_topology(workloads.grid_topology(side, random.Random(1)))
        b = programmability(t)
        assert masks_sha256(b) == GRID400_MASKS_SHA256
        # six controllers; each switch joins the one fewest grid steps away,
        # ties to the smaller id, and capacities are sized as the
        # benchmark's grids are
        centers = [r * side + c for r in (4, 15) for c in (3, 10, 16)]
        owner = {v: min(centers, key=lambda c: (abs(v // side - c // side)
                                                + abs(v % side - c % side), c))
                 for v in t.node_ids()}
        loads = b.loads()
        p = domains.Placement(
            [(c, math.ceil(workloads.SLACK * sum(loads[v] for v in owner if owner[v] == c)))
             for c in centers], owner)
        for s in enumerate_failure_scenarios(p, 1):
            inst = build_instance(t, b, p, s, 0.9)
            greedy = solve_retroflow(inst)
            assert greedy.quota_met and validate(inst, greedy).feasible
            # the baseline ignores capacity; it maps every switch and
            # recovers every flow
            nearest = validate(inst, solve_nearest(inst))
            for family in ("mapping", "programmability", "quota"):
                assert nearest.check(family).passed


class TestMaskCeiling:
    """programmability refuses a world whose masks would pass
    flows.MAX_MASK_BYTES before it runs any search. The CLI's exit is
    tested in a child process (tests/test_cli.py::TestMaskCeiling)."""

    def test_mask_bytes(self):
        assert flows.mask_bytes(25) == 25 * 25 * 24 // 8
        assert flows.mask_bytes(400) == 7_980_000
        # the ceiling admits 2,048 nodes, and no more
        assert flows.mask_bytes(2048) == 1_073_217_536
        with pytest.raises(geo.TopologyError,
                           match="^a world of 2049 nodes needs 1074790656 bytes of masks, "
                                 "above the ceiling of 1073741824$"):
            flows.mask_bytes(2049)

    def test_refused_before_any_search(self, monkeypatch):
        # ring5's masks take 5 * 5 * 4 / 8 = 12 bytes
        monkeypatch.setattr(flows, "MAX_MASK_BYTES", 11)
        t = fixtures.ring5_topology()
        with pytest.raises(geo.TopologyError,
                           match="^a world of 5 nodes needs 12 bytes of masks, "
                                 "above the ceiling of 11$"):
            programmability(t)
        assert t._trees == {}
        monkeypatch.setattr(flows, "MAX_MASK_BYTES", 12)
        assert programmability(t).counts == programmability(fixtures.ring5_topology()).counts


class TestSparseDecoding:
    def test_walked_bits_match_the_index_scan(self, monkeypatch):
        """flows_of walks the set bits of a sparse mask and scans the
        index for any other; both give every set bit's id, ascending."""
        walked = []
        walk = flows._set_bits
        monkeypatch.setattr(flows, "_set_bits",
                            lambda mask, ids: walked.append(mask) or walk(mask, ids))
        rng = random.Random(18)
        for n in (1, 17, 600, 3000):
            # negative ids and ids beyond 2**64
            ids = tuple(sorted(rng.sample(range(-10**6, 10**6), n // 2)
                               + rng.sample(range(2**64, 2**64 + 10**6), n - n // 2)))
            for bits in sorted({b for b in (0, 1, 3, 32, 33, n // 10, n // 2, n) if b <= n}):
                for _ in range(3):
                    ranks = rng.sample(range(n), bits)
                    mask = 0
                    for k in ranks:
                        mask |= 1 << k
                    want = tuple(ids[k] for k in sorted(ranks))
                    walked.clear()
                    assert flows_of(mask, ids) == want
                    sparse = bits <= min(32, n >> 4)
                    assert walked == ([mask] if sparse else [])
                    assert walk(mask, ids) == want
