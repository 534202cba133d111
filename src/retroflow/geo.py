"""Geographic topology: great-circle distances, link delays, shortest paths.

Link delay is propagation only: distance_km / 200 gives milliseconds at
2x10^5 km/s signal speed.

Construction makes one depth-first pass that proves the graph connected
and labels its 2-edge-connected components, which answer every
alternative-path query. Shortest paths are filled on first use: one
single-source search per source holds the shortest path to every node.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from pathlib import Path as FsPath

from ._doc import number, record, whole

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
    when it is built."""

    def __init__(self, nodes, links, name: str = ""):
        """nodes: iterable of (node_id, GeoCoordinate); links: iterable of
        (id_a, id_b) or (id_a, id_b, distance_km) with None meaning
        'compute via haversine'."""
        self.name = name
        node_list = sorted(nodes, key=lambda nc: nc[0])
        ids = [nid for nid, _ in node_list]
        if not ids:
            raise TopologyError("topology has no nodes")
        # sorted, so a duplicate sits next to its twin
        dup = next((a for a, b in zip(ids, ids[1:]) if a == b), None)
        if dup is not None:
            raise TopologyError(f"duplicate node id {dup}")
        self.nodes: tuple[tuple[int, GeoCoordinate], ...] = tuple(node_list)
        self._coord = dict(node_list)

        self._adj: dict[int, dict[int, Link]] = {nid: {} for nid in ids}
        link_list = []
        for entry in links:
            if len(entry) == 2:
                a, b, dist = entry[0], entry[1], None
            else:
                a, b, dist = entry
            if a == b:
                raise TopologyError(f"self-loop link at node {a}")
            if a not in self._coord or b not in self._coord:
                missing = a if a not in self._coord else b
                raise TopologyError(f"link references unknown node {missing}")
            key = (min(a, b), max(a, b))
            if b in self._adj[a]:
                raise TopologyError(f"duplicate link {key}")
            if dist is None:
                dist = haversine_km(self._coord[a], self._coord[b])
            if not (math.isfinite(dist) and dist >= 0):
                raise TopologyError(f"distance on link {key} must be finite and nonnegative, got {dist}")
            link = Link(key[0], key[1], dist, dist / PROPAGATION_KM_PER_MS)
            link_list.append(link)
            self._adj[a][b] = link
            self._adj[b][a] = link
        self.links: tuple[Link, ...] = tuple(sorted(link_list, key=lambda l: (l.a, l.b)))

        # The graph never changes, so the labels and every path stored
        # below stay valid for the topology's life.
        self._component = _two_edge_components(self._adj, ids[0])
        if len(self._component) < len(ids):
            raise TopologyError("topology is disconnected")
        # Filled lazily by shortest_path_tree.
        self._paths: dict[int, dict[int, Path]] = {}

    def node_ids(self) -> tuple[int, ...]:
        return tuple(nid for nid, _ in self.nodes)

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
        return tuple(sorted(self._adj[node_id]))

    def link(self, a: int, b: int) -> Link:
        self._check_node(a)
        self._check_node(b)
        try:
            return self._adj[a][b]
        except KeyError:
            raise TopologyError(f"no link between {a} and {b}") from None

    def _check_node(self, node_id: int):
        if node_id not in self._coord:
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
    with open(FsPath(path)) as fh:
        return load_topology(json.load(fh))


def shortest_path(t: Topology, src: int, dst: int) -> Path:
    """Minimum-delay simple path from src to dst.

    Ties break deterministically: fewer hops first, then the
    lexicographically smallest node-id sequence. The first query from src
    runs one search to every node and stores the paths on t; later queries
    from src are lookups.
    """
    paths = shortest_path_tree(t, src)
    t._check_node(dst)
    if src == dst:
        raise TopologyError("src and dst must differ")
    return paths[dst]


def shortest_path_tree(t: Topology, src: int) -> dict[int, Path]:
    """The shortest path from src to every node, src's own one-node path
    included, keyed in the order the search settled them. The first call
    from src runs the search and stores its paths on t.

    The paths form a tree: a path less its last node is the path to
    that node's parent, which was settled earlier.
    """
    t._check_node(src)
    paths = t._paths.get(src)
    if paths is None:
        paths = t._paths[src] = _paths_from(t, src)
    return paths


def _paths_from(t: Topology, src: int) -> dict[int, Path]:
    """One single-source search from src: the shortest path to every node.

    Entries are (delay, hops, node sequence); priorities grow strictly
    along edges, so the first pop per node is final under the full
    (delay, hops, node-sequence) order. A search that stopped at the pop
    of one destination would pop the same nodes in the same order, so
    every stored delay is the same float sum it would have returned.
    Keys are distinct, so the order neighbours are pushed in cannot change
    a pop, and an entry for a node already settled (every node on the
    popped path is) would only be thrown away when it popped.
    """
    heap = [(0.0, 0, (src,))]
    paths: dict[int, Path] = {}
    while heap:
        delay, hops, nodes = heapq.heappop(heap)
        u = nodes[-1]
        if u in paths:
            continue
        paths[u] = Path(nodes, delay)
        for v, link in t._adj[u].items():
            if v not in paths:
                heapq.heappush(heap, (delay + link.delay_ms, hops + 1, nodes + (v,)))
    return paths


def has_alternative_path(t: Topology, frm: int, dst: int) -> bool:
    """True iff frm can still reach dst after its default route is cut:
    at least two edge-disjoint paths exist. By Menger's theorem that holds
    iff no bridge separates them, that is, iff both lie in one
    2-edge-connected component, as labelled when t was built."""
    t._check_node(frm)
    t._check_node(dst)
    if frm == dst:
        raise TopologyError("frm and dst must differ")
    return t._component[frm] == t._component[dst]


def _two_edge_components(adj: dict[int, dict[int, Link]], root: int) -> dict[int, int]:
    """Component label per node reachable from root, after Tarjan (1974).

    One depth-first search: low[u] is the smallest order reached by a back
    edge from u's subtree. When the search leaves u with low[u] == order[u],
    the tree edge into u is a bridge (or u is the root), so the nodes
    visited since u and not yet labelled are exactly u's component. Links
    are never duplicated, so skipping the parent skips only the tree edge.
    The stacks are explicit, so deep graphs do not hit the recursion limit.
    """
    order = {root: 0}
    low = {root: 0}
    component: dict[int, int] = {}
    unlabelled = [root]
    stack = [(root, None, iter(adj[root]))]
    while stack:
        u, parent, todo = stack[-1]
        for v in todo:
            if v == parent:
                continue
            if v in order:
                low[u] = min(low[u], order[v])
            else:
                order[v] = low[v] = len(order)
                unlabelled.append(v)
                stack.append((v, u, iter(adj[v])))
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
