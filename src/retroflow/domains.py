"""Controller placement, domain membership, residual capacity, failures."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path as FsPath

from ._doc import distinct, key, parse, record, whole
from .geo import Topology

_DOC_FIELDS = {"name", "capacity", "controllers", "flow_counts"}
_CONTROLLER_FIELDS = {"node", "capacity", "switches"}


class PlacementError(ValueError):
    """Malformed or inconsistent placement document."""


class Placement:
    """Controllers co-located with topology nodes, each owning a domain of
    switches. May carry fixture-supplied per-switch flow counts that
    override computed loads in the evaluation harness.

    The constructor checks the placement on its own: controller ids
    listed once, capacities and flow counts nonnegative, every switch in
    a known controller's domain, flow counts for exactly the domains'
    switches. Whether it covers a topology is check_coverage's rule,
    which load_placement and each oscm.SwitchTable apply. domain_of maps
    each switch to its controller; domains maps each controller, in
    ascending id, to its switches, ascending, built once here, so a
    scenario reads the failed domains instead of scanning domain_of."""

    def __init__(self, controllers, domain_of: dict[int, int], flow_counts=None):
        """controllers: iterable of (controller_id, capacity)."""
        controllers = list(controllers)
        distinct((cid for cid, _ in controllers), "controller id", PlacementError)
        self.capacity = dict(controllers)
        for cid, cap in self.capacity.items():
            if cap < 0:
                raise PlacementError(f"controller {cid} capacity must be nonnegative, got {cap}")
        self.controller_ids: tuple[int, ...] = tuple(sorted(self.capacity))
        self.domain_of = dict(domain_of)
        members: dict[int, list[int]] = {cid: [] for cid in self.controller_ids}
        for sw, cid in self.domain_of.items():
            if cid not in members:
                raise PlacementError(f"switch {sw} assigned to unknown controller {cid}")
            members[cid].append(sw)
        self.domains: dict[int, tuple[int, ...]] = {
            cid: tuple(sorted(sws)) for cid, sws in members.items()}
        self.flow_counts = None if flow_counts is None else dict(flow_counts)
        if self.flow_counts is not None:
            missing = set(self.domain_of) - set(self.flow_counts)
            if missing:
                raise PlacementError(f"flow_counts missing switches {sorted(missing)}")
            unknown = set(self.flow_counts) - set(self.domain_of)
            if unknown:
                raise PlacementError(f"flow_counts names switches not in the topology {sorted(unknown)}")
            for sw, n in self.flow_counts.items():
                if n < 0:
                    raise PlacementError(f"flow count of switch {sw} must be nonnegative, got {n}")


@dataclass(frozen=True)
class FailureScenario:
    failed: frozenset[int]

    def label(self) -> str:
        return "+".join(f"C{c}" for c in sorted(self.failed))


def check_coverage(t: Topology, capacity: dict[int, int], domain_of: dict[int, int]):
    """Raise PlacementError unless every controller of capacity sits on a
    node of t, every switch of domain_of is a node of t, and every node of
    t is in a domain; the message names the smallest offending id."""
    nodes = t._index.keys()
    for what, ids in (("controller node", capacity), ("switch", domain_of)):
        if not nodes >= ids.keys():
            raise PlacementError(f"{what} {min(ids.keys() - nodes)} not in topology")
    if len(domain_of) < len(nodes):
        raise PlacementError(f"switch {min(nodes - domain_of.keys())} unassigned")


def load_placement(doc: dict, t: Topology) -> Placement:
    """Build a Placement from a parsed placement document; each switch is
    listed once, and check_coverage checks the parsed maps against t."""
    record(doc, _DOC_FIELDS, "placement document", PlacementError)
    default_cap = doc.get("capacity")
    recs = doc.get("controllers")
    if not isinstance(recs, list) or not recs:
        raise PlacementError("placement document needs a 'controllers' list")

    controllers = []
    domain_of: dict[int, int] = {}
    for rec in recs:
        record(rec, _CONTROLLER_FIELDS, "controller record", PlacementError, required=("node",))
        cid = whole(rec["node"], "controller node", PlacementError)
        cap = rec.get("capacity", default_cap)
        if cap is None:
            raise PlacementError(f"controller {cid} has no capacity (none given, no default)")
        controllers.append((cid, whole(cap, f"controller {cid} capacity", PlacementError)))
        switches = rec.get("switches", [])
        if not isinstance(switches, list):
            raise PlacementError(f"controller {cid} switches must be a list, got {switches!r}")
        for sw in switches:
            sw = whole(sw, f"switch of controller {cid}", PlacementError)
            if sw in domain_of:
                raise PlacementError(f"switch {sw} assigned twice")
            domain_of[sw] = cid

    check_coverage(t, dict(controllers), domain_of)

    flow_counts = doc.get("flow_counts")
    if flow_counts is not None:
        if not isinstance(flow_counts, dict):
            raise PlacementError(f"flow_counts must be a mapping, got {flow_counts!r}")
        flow_counts = {key(k, "flow_counts key", PlacementError):
                       whole(v, f"flow count of switch {k}", PlacementError)
                       for k, v in flow_counts.items()}
    return Placement(controllers, domain_of, flow_counts)


def load_placement_file(path, t: Topology) -> Placement:
    return load_placement(parse(FsPath(path).read_text(), PlacementError), t)


def validate_scenario(p: Placement, s: FailureScenario):
    if not s.failed:
        raise PlacementError("failure scenario must name at least one controller")
    bad = s.failed - set(p.controller_ids)
    if bad:
        raise PlacementError(f"failed controllers not in placement: {sorted(bad)}")
    if len(s.failed) >= len(p.controller_ids):
        raise PlacementError("at least one controller must survive")


def offline_switches(p: Placement, s: FailureScenario) -> tuple[int, ...]:
    """The switches of the failed controllers' domains, ascending. s is
    not checked here: build_instance checks it once, in
    surviving_residuals."""
    return tuple(sorted(itertools.chain.from_iterable(map(p.domains.__getitem__, s.failed))))


def domain_loads(p: Placement, loads: dict[int, int]) -> dict[int, int]:
    """Each controller's own-domain load, summed over its switches
    (Placement.domains), in ascending controller id."""
    return {cid: sum(map(loads.__getitem__, sws)) for cid, sws in p.domains.items()}


def residual_capacity(p: Placement, loads: dict[int, int], s: FailureScenario) -> dict[int, int]:
    """Remaining ability per active controller after serving its own
    surviving domain, from per-switch loads: surviving_residuals over
    their domain_loads."""
    return surviving_residuals(p, domain_loads(p, loads), s)


def surviving_residuals(p: Placement, own: dict[int, int], s: FailureScenario) -> dict[int, int]:
    """Capacity minus own-domain load (own, as domain_loads gives it) per
    active controller, keyed in ascending controller id, once s is
    checked. Raises if a surviving domain already exceeds its capacity,
    naming the smallest such controller id."""
    validate_scenario(p, s)
    rest = {}
    for cid in p.controller_ids:
        if cid in s.failed:
            continue
        load = own[cid]
        if load > p.capacity[cid]:
            raise PlacementError(
                f"controller {cid}: own-domain load {load} exceeds capacity {p.capacity[cid]}"
            )
        rest[cid] = p.capacity[cid] - load
    return rest


# the most failure scenarios one enumeration may build, far above any
# bundled or benchmark placement (att25's largest count is C(6, 3) = 20)
MAX_SCENARIOS = 10**6


def scenario_count(p: Placement, k: int) -> int:
    """C(m, k) for the m controllers of p, counted before any scenario is
    built. Raises unless 1 <= k < m and the count is at most
    MAX_SCENARIOS."""
    m = len(p.controller_ids)
    if not 1 <= k < m:
        raise PlacementError(f"failure cardinality {k} out of range [1, {m - 1}]")
    n = math.comb(m, k)
    if n > MAX_SCENARIOS:
        raise PlacementError(f"failure cardinality {k} of {m} controllers gives {n} scenarios, "
                             f"above the ceiling of {MAX_SCENARIOS}")
    return n


def enumerate_failure_scenarios(p: Placement, k: int) -> list[FailureScenario]:
    """All C(m, k) failure combinations in lexicographic order, once
    scenario_count has checked k and the count."""
    scenario_count(p, k)
    return [FailureScenario(frozenset(c)) for c in itertools.combinations(p.controller_ids, k)]
