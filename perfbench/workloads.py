"""Benchmark workloads and the seeded generator for the synthetic ones.

A workload names its input documents and the (k, q) groups a pass runs,
one group per ``retroflow run --failures k --q-fraction q`` invocation.
The synthetic workloads are jittered grids with a farthest-point k-center
placement; the generator writes topology and placement documents that the
benchmark then loads through the public loaders, as the CLI does.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from retroflow import domains, experiment, geo

DATA_DIR = Path(experiment.__file__).resolve().parent / "data"


@dataclass(frozen=True)
class Workload:
    name: str
    groups: tuple[tuple[int, float], ...]  # (failure cardinality k, q_fraction)
    algorithms: tuple[str, ...]
    grid: int | None = None  # side of the generated grid; None = bundled att25
    fixed_seed: int | None = None  # generator seed used whatever --seed says


WORKLOADS = {
    w.name: w for w in (
        Workload("att25-sweep",
                 tuple((k, q) for q in (0.9, 1.0) for k in range(1, 6)),
                 ("exact", "retroflow", "nearest")),
        # pinned: exact B&B time swings ~20x between jitter seeds (NOTES.md)
        Workload("grid49-exact", ((1, 0.8), (2, 0.8)),
                 ("exact", "retroflow", "nearest"), grid=7, fixed_seed=1),
        Workload("grid100-greedy", ((1, 0.9), (2, 0.9), (3, 0.9)),
                 ("retroflow", "nearest"), grid=10),
    )
}

# grid geometry: rows and columns 1.5 degrees apart over the continental
# US, each node moved by up to JITTER of the spacing in latitude and longitude
ORIGIN = (30.0, -115.0)
SPACING_DEG = 1.5
JITTER = 0.3
CONTROLLERS = 6
SLACK = 1.4  # capacity = ceil(SLACK * own-domain computed load)


def inputs(w: Workload, seed: int, out_dir: Path) -> tuple[Path, Path]:
    """Paths of the topology and placement documents for one run.

    att25 uses the bundled fixtures whatever the seed. Grid workloads are
    generated from ``random.Random(seed)``, or from the workload's fixed
    seed, and written to ``out_dir``.
    """
    if w.grid is None:
        return DATA_DIR / "att25.json", DATA_DIR / "att_table2.json"
    if w.fixed_seed is not None:
        seed = w.fixed_seed
    topo_doc = grid_topology(w.grid, random.Random(seed))
    place_doc = kcenter_placement(topo_doc, grid_topology(w.grid), CONTROLLERS, SLACK)
    topo_path = out_dir / f"{w.name}-seed{seed}-topology.json"
    place_path = out_dir / f"{w.name}-seed{seed}-placement.json"
    topo_path.write_text(json.dumps(topo_doc))
    place_path.write_text(json.dumps(place_doc))
    return topo_path, place_path


def grid_topology(side: int, rng: random.Random | None = None) -> dict:
    """A side x side grid with 4-neighbour links, coordinates jittered by
    ``rng`` when given; link lengths come from the loader's great-circle
    distance."""
    def jitter():
        return rng.uniform(-JITTER, JITTER) if rng else 0.0

    nodes = []
    for r in range(side):
        for c in range(side):
            lat = ORIGIN[0] + SPACING_DEG * (r + jitter())
            lon = ORIGIN[1] + SPACING_DEG * (c + jitter())
            nodes.append({"id": r * side + c, "lat": round(lat, 6), "lon": round(lon, 6)})
    links = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                links.append({"a": v, "b": v + 1})
            if r + 1 < side:
                links.append({"a": v, "b": v + side})
    return {"name": f"grid{side * side}", "nodes": nodes, "links": links}


def routed_delays(topo: geo.Topology) -> dict[tuple[int, int], float]:
    """Shortest-path delay (ms) between every ordered pair of nodes."""
    out = {}
    for src in topo.node_ids():
        dist = {src: 0.0}
        heap = [(0.0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v in topo.neighbors(u):
                nd = d + topo.link(u, v).delay_ms
                if nd < dist.get(v, math.inf):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        out.update(((src, v), d) for v, d in dist.items())
    return out


def kcenter_placement(topo_doc: dict, base_doc: dict, k: int, slack: float) -> dict:
    """Farthest-point k-center, nearest-controller domains (ties to the
    smaller id) and capacity ceil(slack * own-domain computed load).

    Centers and domains come from the routed delays of ``base_doc``, the
    grid before jitter, so every seed gets the same domains and the seed
    moves only delays, paths and loads. Sizing the capacities needs the
    computed loads of ``topo_doc``: one make_world on a provisional
    single-controller placement.
    """
    delay = routed_delays(geo.load_topology(base_doc))
    ids = sorted({v for v, _ in delay})
    # start from the 1-center, then add the node farthest from all centers
    centers = [min(ids, key=lambda c: (max(delay[(v, c)] for v in ids), c))]
    while len(centers) < k:
        centers.append(max(ids, key=lambda v: (min(delay[(v, c)] for c in centers), -v)))
    centers.sort()
    owner = {v: min(centers, key=lambda c: (delay[(v, c)], c)) for v in ids}

    topo = geo.load_topology(topo_doc)
    provisional = domains.Placement([(ids[0], 0)], {v: ids[0] for v in ids})
    loads = experiment.make_world(topo, provisional).beta.loads()
    controllers = []
    for c in centers:
        switches = [v for v in ids if owner[v] == c]
        own = sum(loads[v] for v in switches)
        controllers.append({"node": c, "capacity": math.ceil(slack * own),
                            "switches": switches})
    return {"name": f"{topo_doc['name']}-kcenter{k}", "controllers": controllers}
