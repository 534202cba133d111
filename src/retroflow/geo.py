"""Geographic topology: great-circle distances, link delays, shortest paths.

Link delay is propagation only: distance_km / 200 gives milliseconds at
2x10^5 km/s signal speed.

Construction keeps the graph over dense positions 0..n-1 of the sorted
ids and makes one depth-first pass that proves it connected and labels its
2-edge-connected components, which answer every alternative-path query.
Shortest paths are filled on first use: one single-source search per
source runs over positions and keeps its tree as lists indexed by
position (settle order, parents and delays), and a Path is built only
when one is asked for. The search orders by delay alone and hands a
source whose delays tie to the search under the full (delay, hops, node
sequence) order, which defines the tie-break.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from pathlib import Path as FsPath
from typing import NamedTuple

from ._doc import distinct, number, parse, record, whole

EARTH_RADIUS_KM = 6371.0
PROPAGATION_KM_PER_MS = 200.0

_NODE_FIELDS = {"id", "lat", "lon", "label"}
_LINK_FIELDS = {"a", "b", "distance_km"}
_DOC_FIELDS = {"name", "nodes", "links"}


class TopologyError(ValueError):
    """Malformed or inconsistent topology document."""


@dataclass(frozen=True)
class GeoCoordinate:
    latitude_deg: float
    longitude_deg: float

    def __post_init__(self):
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise TopologyError(f"coordinate out of range: latitude {self.latitude_deg}")
        if not -180.0 <= self.longitude_deg <= 180.0:
            raise TopologyError(f"coordinate out of range: longitude {self.longitude_deg}")


@dataclass(frozen=True)
class Link:
    a: int
    b: int
    distance_km: float
    delay_ms: float


@dataclass(frozen=True, slots=True)
class Path:
    node_ids: tuple[int, ...]
    total_delay_ms: float

    def __len__(self):
        return len(self.node_ids)


class SearchTree(NamedTuple):
    """One single-source search over node positions (see Topology):
    order lists every position in the order the search settled it, the
    source first and a parent before its children; parent[v] is the
    position of v's parent, None at the source; delay[v] is v's delay,
    the source's 0.0 included."""
    order: list[int]
    parent: list[int | None]
    delay: list[float]


def haversine_km(a: GeoCoordinate, b: GeoCoordinate) -> float:
    """Great-circle distance on a sphere of radius 6371.0 km."""
    lat1, lon1 = math.radians(a.latitude_deg), math.radians(a.longitude_deg)
    lat2, lon2 = math.radians(b.latitude_deg), math.radians(b.longitude_deg)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


class Topology:
    """Immutable geographic graph. Node ids are unique ints; links are
    unordered pairs carrying distance_km and the derived delay_ms. The
    graph is connected, and its 2-edge-connected components are labelled
    when it is built.

    The graph is kept over positions: the k-th smallest id has position k
    (`_index` maps ids to positions, node_ids() maps back), `_near` lists
    each position's (neighbour position, delay_ms) pairs and `_component`
    each position's label. The map preserves order, so position sequences
    compare as id sequences do. `_links` maps sorted id pairs to Links."""

    def __init__(self, nodes, links, name: str = ""):
        """nodes: iterable of (node_id, GeoCoordinate); links: iterable of
        (id_a, id_b) or (id_a, id_b, distance_km) with None meaning
        'compute via haversine'."""
        self.name = name
        node_list = sorted(nodes, key=lambda nc: nc[0])
        # sorted, so the first repeat is the smallest duplicate
        ids = distinct([nid for nid, _ in node_list], "node id", TopologyError)
        if not ids:
            raise TopologyError("topology has no nodes")
        self.nodes: tuple[tuple[int, GeoCoordinate], ...] = tuple(node_list)
        self._ids = tuple(ids)
        index = self._index = {nid: k for k, nid in enumerate(ids)}

        self._near: list[list[tuple[int, float]]] = [[] for _ in ids]
        self._links: dict[tuple[int, int], Link] = {}
        for entry in links:
            if len(entry) == 2:
                a, b, dist = entry[0], entry[1], None
            else:
                a, b, dist = entry
            if a == b:
                raise TopologyError(f"self-loop link at node {a}")
            if a not in index or b not in index:
                missing = a if a not in index else b
                raise TopologyError(f"link references unknown node {missing}")
            key = (min(a, b), max(a, b))
            if key in self._links:
                raise TopologyError(f"duplicate link {key}")
            if dist is None:
                dist = haversine_km(self.nodes[index[a]][1], self.nodes[index[b]][1])
            if not (math.isfinite(dist) and dist >= 0):
                raise TopologyError(f"distance on link {key} must be finite and nonnegative, got {dist}")
            link = self._links[key] = Link(key[0], key[1], dist, dist / PROPAGATION_KM_PER_MS)
            self._near[index[a]].append((index[b], link.delay_ms))
            self._near[index[b]].append((index[a], link.delay_ms))
        self.links: tuple[Link, ...] = tuple(self._links[key] for key in sorted(self._links))

        # The graph never changes, so the labels and every tree stored
        # below stay valid for the topology's life.
        self._component = _two_edge_components(self._near)
        if None in self._component:
            raise TopologyError("topology is disconnected")
        # Filled lazily by shortest_path_tree.
        self._trees: dict[int, SearchTree] = {}

    def node_ids(self) -> tuple[int, ...]:
        return self._ids

    def summary(self) -> dict:
        """Load diagnostics; published link counts sometimes tally directed
        arcs, so both readings are surfaced."""
        return {
            "name": self.name,
            "nodes": len(self.nodes),
            "links": len(self.links),
            "directed_arcs": 2 * len(self.links),
        }

    def neighbors(self, node_id: int) -> tuple[int, ...]:
        self._check_node(node_id)
        return tuple(self._ids[v] for v, _ in sorted(self._near[self._index[node_id]]))

    def link(self, a: int, b: int) -> Link:
        self._check_node(a)
        self._check_node(b)
        try:
            return self._links[min(a, b), max(a, b)]
        except KeyError:
            raise TopologyError(f"no link between {a} and {b}") from None

    def _check_node(self, node_id: int):
        if node_id not in self._index:
            raise TopologyError(f"unknown node id {node_id}")


def load_topology(doc: dict) -> Topology:
    """Build a Topology from a parsed topology document (see README for the
    schema). Rejects unknown fields, bad coordinates, duplicate ids,
    self-loops, duplicate links, and disconnected graphs."""
    record(doc, _DOC_FIELDS, "topology document", TopologyError)
    nodes_raw = doc.get("nodes")
    links_raw = doc.get("links")
    if not isinstance(nodes_raw, list) or not isinstance(links_raw, list):
        raise TopologyError("topology document needs 'nodes' and 'links' lists")
    if len(nodes_raw) < 2:
        raise TopologyError("topology document needs at least 2 nodes")

    nodes = []
    for rec in nodes_raw:
        record(rec, _NODE_FIELDS, "node record", TopologyError, required=("id", "lat", "lon"))
        nid = whole(rec["id"], "node id", TopologyError)
        coord = GeoCoordinate(number(rec["lat"], f"node {nid} lat", TopologyError),
                              number(rec["lon"], f"node {nid} lon", TopologyError))
        nodes.append((nid, coord))

    links = []
    for rec in links_raw:
        record(rec, _LINK_FIELDS, "link record", TopologyError, required=("a", "b"))
        a = whole(rec["a"], "link end", TopologyError)
        b = whole(rec["b"], "link end", TopologyError)
        dist = rec.get("distance_km")
        links.append((a, b, number(dist, f"link {a}-{b} distance_km", TopologyError))
                     if dist is not None else (a, b))

    return Topology(nodes, links, name=str(doc.get("name", "")))


def load_topology_file(path) -> Topology:
    return load_topology(parse(FsPath(path).read_text(), TopologyError))


def shortest_path(t: Topology, src: int, dst: int) -> Path:
    """Minimum-delay simple path from src to dst.

    Ties break deterministically: fewer hops first, then the
    lexicographically smallest node-id sequence. The first query from src
    runs one search to every node and stores its tree on t; each query
    builds its Path by following dst's parents back to src.
    """
    tree = shortest_path_tree(t, src)
    t._check_node(dst)
    if src == dst:
        raise TopologyError("src and dst must differ")
    parent, ids = tree.parent, t._ids
    v = end = t._index[dst]
    nodes = [dst]
    while parent[v] is not None:
        v = parent[v]
        nodes.append(ids[v])
    return Path(tuple(reversed(nodes)), tree.delay[end])


def shortest_path_tree(t: Topology, src: int) -> SearchTree:
    """The shortest-path tree from src, over node positions: settle
    order, parents and delays. The first call from src runs the search,
    _paths_from, which hands a source whose delays tie to
    _paths_from_ordered, and stores the tree on t."""
    t._check_node(src)
    tree = t._trees.get(src)
    if tree is None:
        tree = t._trees[src] = _paths_from(t, src)
    return tree


def _paths_from(t: Topology, src: int) -> SearchTree:
    """One single-source search from src: the tree _paths_from_ordered
    returns, found without hop counts or node sequences while no delay
    ties.

    Entries are (delay, position), and a node is pushed only when a
    relaxation strictly lowers its tentative delay, so a popped entry
    above its node's tentative delay is stale. The search hands src to
    _paths_from_ordered at the first tie, which is either a settled
    delay equal to the one settled before it, or a relaxation that
    reaches an unsettled node's tentative delay exactly, inf included.
    Without a tie, every node's delay is the one float sum along its
    unique best parent, the nodes settle strictly by delay, and no
    second entry of equal delay exists, so the full order's hops and node
    sequences would never be compared: both searches return equal trees.
    A settled node needs no mark: links are nonnegative, so a relaxation
    from u exceeds a settled node's delay unless that node settled at
    u's delay, a tie seen when u settled. When the search ends, every
    node is settled, so the tentative delays are the delays.
    """
    near = t._near
    n = len(near)
    order: list[int] = []
    parent: list[int | None] = [None] * n
    delay = [math.inf] * n
    s = t._index[src]
    delay[s] = 0.0
    heap = [(0.0, s)]
    last = -1.0
    while heap:
        d, u = heapq.heappop(heap)
        if d > delay[u]:
            continue
        if d == last:
            return _paths_from_ordered(t, src)
        last = d
        order.append(u)
        for v, link_ms in near[u]:
            dv = d + link_ms
            if dv < delay[v]:
                delay[v] = dv
                parent[v] = u
                heapq.heappush(heap, (dv, v))
            elif dv == delay[v]:
                return _paths_from_ordered(t, src)
    return SearchTree(order, parent, delay)


def _paths_from_ordered(t: Topology, src: int) -> SearchTree:
    """One single-source search from src under the full (delay, hops,
    node sequence) order: the tree of shortest paths to every node, as
    settle order, parents and delays; no Path is built. It defines the
    tie-break, and _paths_from hands a source to it at the first tie.

    Priorities are (delay, hops, node sequence) over positions, which
    order as the ids do; they grow strictly along edges, so the first pop
    per node is final under that full order. A search that stopped at the
    pop of one destination would pop the same nodes in the same order, so
    every stored delay is the same float sum it would have returned. An
    entry is (delay, hops, parent's sequence, node), so a sequence is
    built once per settled node, not once per push: entries of equal
    delay and hops hold sequences of equal length, so comparing
    (sequence, node) orders them as the extended sequences would. Keys
    are distinct, so the order neighbours are pushed in cannot change a
    pop. No entry is pushed for a settled node, nor for one that already
    holds a strictly smaller tentative delay: such an entry would only be
    thrown away when it popped. An equal delay is pushed, because its hops
    or node sequence may still win.
    """
    near = t._near
    n = len(near)
    order: list[int] = []
    parent: list[int | None] = [None] * n
    # None until settled
    delay: list[float | None] = [None] * n
    tentative = [math.inf] * n
    heap = [(0.0, 0, (), t._index[src])]
    while heap:
        d, hops, seq, u = heapq.heappop(heap)
        if delay[u] is not None:
            continue
        delay[u] = d
        order.append(u)
        if seq:
            parent[u] = seq[-1]
        seq += (u,)
        hops += 1
        for v, link_ms in near[u]:
            if delay[v] is None:
                dv = d + link_ms
                if dv <= tentative[v]:
                    tentative[v] = dv
                    heapq.heappush(heap, (dv, hops, seq, v))
    return SearchTree(order, parent, delay)


def has_alternative_path(t: Topology, frm: int, dst: int) -> bool:
    """True iff frm can still reach dst after its default route is cut:
    at least two edge-disjoint paths exist. By Menger's theorem that holds
    iff no bridge separates them, that is, iff both lie in one
    2-edge-connected component, as labelled when t was built."""
    t._check_node(frm)
    t._check_node(dst)
    if frm == dst:
        raise TopologyError("frm and dst must differ")
    return t._component[t._index[frm]] == t._component[t._index[dst]]


def _two_edge_components(near: list[list[tuple[int, float]]]) -> list[int | None]:
    """Component label per position, after Tarjan (1974); a position the
    search from position 0 does not reach keeps None.

    One depth-first search: low[u] is the smallest order reached by a back
    edge from u's subtree. When the search leaves u with low[u] == order[u],
    the tree edge into u is a bridge (or u is the root), so the nodes
    visited since u and not yet labelled are exactly u's component. Links
    are never duplicated, so skipping the parent skips only the tree edge.
    The stacks are explicit, so deep graphs do not hit the recursion limit.
    """
    order = {0: 0}
    low = {0: 0}
    component: list[int | None] = [None] * len(near)
    unlabelled = [0]
    stack = [(0, None, iter(near[0]))]
    while stack:
        u, parent, todo = stack[-1]
        for v, _ in todo:
            if v == parent:
                continue
            if v in order:
                low[u] = min(low[u], order[v])
            else:
                order[v] = low[v] = len(order)
                unlabelled.append(v)
                stack.append((v, u, iter(near[v])))
                break
        else:
            stack.pop()
            if parent is not None:
                low[parent] = min(low[parent], low[u])
            if low[u] == order[u]:
                v = None
                while v != u:
                    v = unlabelled.pop()
                    component[v] = u
    return component
