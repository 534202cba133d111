"""Geographic topology: great-circle distances, link delays, shortest paths.

Link delay is propagation only: distance_km / 200 gives milliseconds at
2x10^5 km/s signal speed.

Path queries answer from per-topology tables filled on first use: one
single-source search per source holds the shortest path to every node, and
one bridge pass labels the 2-edge-connected components that answer every
alternative-path query.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path as FsPath

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


@dataclass(frozen=True)
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
    unordered pairs carrying distance_km and the derived delay_ms."""

    def __init__(self, nodes, links, name: str = ""):
        """nodes: iterable of (node_id, GeoCoordinate); links: iterable of
        (id_a, id_b) or (id_a, id_b, distance_km) with None meaning
        'compute via haversine'."""
        self.name = name
        node_list = sorted(nodes, key=lambda nc: nc[0])
        ids = [nid for nid, _ in node_list]
        if len(set(ids)) != len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise TopologyError(f"duplicate node id {dup}")
        self.nodes: tuple[tuple[int, GeoCoordinate], ...] = tuple(node_list)
        self._coord = dict(node_list)

        self._adj: dict[int, dict[int, Link]] = {nid: {} for nid in ids}
        link_list = []
        seen = set()
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
            if key in seen:
                raise TopologyError(f"duplicate link {key}")
            seen.add(key)
            if dist is None:
                dist = haversine_km(self._coord[a], self._coord[b])
            if not (math.isfinite(dist) and dist >= 0):
                raise TopologyError(f"distance on link {key} must be finite and nonnegative, got {dist}")
            link = Link(key[0], key[1], dist, dist / PROPAGATION_KM_PER_MS)
            link_list.append(link)
            self._adj[a][b] = link
            self._adj[b][a] = link
        self.links: tuple[Link, ...] = tuple(sorted(link_list, key=lambda l: (l.a, l.b)))

        if not self._connected():
            raise TopologyError("topology is disconnected")

        # Filled lazily by shortest_path and has_alternative_path; the graph
        # never changes, so an entry stays valid for the topology's life.
        self._paths: dict[int, dict[int, Path]] = {}
        self._component: dict[int, int] | None = None

    def _connected(self) -> bool:
        if not self.nodes:
            return True
        start = self.nodes[0][0]
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return len(seen) == len(self.nodes)

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

    def coordinate(self, node_id: int) -> GeoCoordinate:
        self._check_node(node_id)
        return self._coord[node_id]

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
    if not isinstance(doc, dict):
        raise TopologyError("topology document must be a mapping")
    _reject_unknown(doc, _DOC_FIELDS, "topology document")
    nodes_raw = doc.get("nodes")
    links_raw = doc.get("links")
    if not isinstance(nodes_raw, list) or not isinstance(links_raw, list):
        raise TopologyError("topology document needs 'nodes' and 'links' lists")
    if len(nodes_raw) < 2:
        raise TopologyError("topology document needs at least 2 nodes")

    nodes = []
    for rec in nodes_raw:
        _reject_unknown(rec, _NODE_FIELDS, "node record")
        try:
            nid = whole_number(rec["id"], "node id", TopologyError)
            coord = GeoCoordinate(_number(rec["lat"], f"node {nid} lat"),
                                  _number(rec["lon"], f"node {nid} lon"))
        except KeyError as e:
            raise TopologyError(f"node record missing field {e}") from None
        nodes.append((nid, coord))

    links = []
    for rec in links_raw:
        _reject_unknown(rec, _LINK_FIELDS, "link record")
        try:
            a = whole_number(rec["a"], "link end", TopologyError)
            b = whole_number(rec["b"], "link end", TopologyError)
        except KeyError as e:
            raise TopologyError(f"link record missing field {e}") from None
        dist = rec.get("distance_km")
        links.append((a, b, _number(dist, f"link {a}-{b} distance_km"))
                     if dist is not None else (a, b))

    return Topology(nodes, links, name=str(doc.get("name", "")))


def load_topology_file(path) -> Topology:
    with open(FsPath(path)) as fh:
        return load_topology(json.load(fh))


def whole_number(value, what: str, error: type[ValueError]) -> int:
    """A finite whole number read from a parsed document; 3.0 passes, while
    0.5, NaN, infinity, null and lists raise `error` instead of being
    truncated, overflowing or escaping as TypeError."""
    if isinstance(value, float) and not value.is_integer():
        raise error(f"{what} must be a whole number, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise error(f"{what} must be a whole number, got {value!r}") from None


def _number(value, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise TopologyError(f"{what} must be a number, got {value!r}") from None


def _reject_unknown(rec, allowed, what):
    if not isinstance(rec, dict):
        raise TopologyError(f"{what} must be a mapping")
    unknown = set(rec) - allowed
    if unknown:
        raise TopologyError(f"{what} has unknown fields: {sorted(unknown)}")


def propagation_delay_ms(t: Topology, p: Path) -> float:
    """Sum of link delays along p; every consecutive pair must be a link."""
    total = 0.0
    for u, v in zip(p.node_ids, p.node_ids[1:]):
        total += t.link(u, v).delay_ms
    return total


def shortest_path(t: Topology, src: int, dst: int) -> Path:
    """Minimum-delay simple path from src to dst.

    Ties break deterministically: fewer hops first, then the
    lexicographically smallest node-id sequence. The first query from src
    runs one search to every node and stores the paths on t; later queries
    from src are lookups.
    """
    t._check_node(src)
    t._check_node(dst)
    if src == dst:
        raise TopologyError("src and dst must differ")
    paths = t._paths.get(src)
    if paths is None:
        paths = t._paths[src] = _paths_from(t, src)
    return paths[dst]


def _paths_from(t: Topology, src: int) -> dict[int, Path]:
    # Entries are (delay, hops, node sequence); priorities grow strictly
    # along edges, so the first pop per node is final under the full
    # (delay, hops, node-sequence) order. A search that stopped at the pop
    # of one destination would pop the same nodes in the same order, so
    # every stored delay is the same float sum it would have returned.
    heap = [(0.0, 0, (src,))]
    paths: dict[int, Path] = {}
    while heap:
        delay, hops, nodes = heapq.heappop(heap)
        u = nodes[-1]
        if u in paths:
            continue
        paths[u] = Path(nodes, delay)
        for v in t.neighbors(u):
            if v in nodes:
                continue
            heapq.heappush(heap, (delay + t.link(u, v).delay_ms, hops + 1, nodes + (v,)))
    return paths


def has_alternative_path(t: Topology, frm: int, dst: int) -> bool:
    """True iff frm can still reach dst after its default route is cut:
    at least two edge-disjoint paths exist. By Menger's theorem that holds
    iff no bridge separates them, that is, iff both lie in one
    2-edge-connected component; the first query labels the components."""
    t._check_node(frm)
    t._check_node(dst)
    if frm == dst:
        raise TopologyError("frm and dst must differ")
    if t._component is None:
        t._component = _two_edge_components(t)
    return t._component[frm] == t._component[dst]


def _two_edge_components(t: Topology) -> dict[int, int]:
    """Component label per node, after Tarjan (1974): a tree edge u-v of a
    depth-first search is a bridge iff no back edge from v's subtree
    reaches u or above. Both passes keep explicit stacks, so deep graphs
    do not hit the recursion limit."""
    root = t.nodes[0][0]
    order = {root: 0}
    low = {root: 0}
    bridges = set()
    stack = [(root, None, iter(t.neighbors(root)))]
    while stack:
        u, parent, todo = stack[-1]
        for v in todo:
            if v == parent:
                continue
            if v in order:
                low[u] = min(low[u], order[v])
            else:
                order[v] = low[v] = len(order)
                stack.append((v, u, iter(t.neighbors(v))))
                break
        else:
            stack.pop()
            if parent is not None:
                low[parent] = min(low[parent], low[u])
                if low[u] > order[parent]:
                    bridges.add((min(u, parent), max(u, parent)))

    component: dict[int, int] = {}
    for start in t.node_ids():
        if start in component:
            continue
        component[start] = start
        reach = [start]
        while reach:
            u = reach.pop()
            for v in t.neighbors(u):
                if v not in component and (min(u, v), max(u, v)) not in bridges:
                    component[v] = start
                    reach.append(v)
    return component
