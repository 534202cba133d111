"""Controller placement, domain membership, residual capacity, failures."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path as FsPath

from .geo import Topology, whole_number

_DOC_FIELDS = {"name", "capacity", "controllers", "flow_counts"}
_CONTROLLER_FIELDS = {"node", "capacity", "switches"}


class PlacementError(ValueError):
    """Malformed or inconsistent placement document."""


class Placement:
    """Controllers co-located with topology nodes, each owning a domain of
    switches. May carry fixture-supplied per-switch flow counts that
    override computed loads in the evaluation harness."""

    def __init__(self, controllers, domain_of: dict[int, int], flow_counts=None, name: str = ""):
        """controllers: iterable of (controller_id, capacity)."""
        self.name = name
        self.capacity = dict(controllers)
        self.controller_ids: tuple[int, ...] = tuple(sorted(self.capacity))
        if len(self.capacity) != len(self.controller_ids):
            raise PlacementError("duplicate controller id")
        for cid, cap in self.capacity.items():
            if cap < 0:
                raise PlacementError(f"controller {cid} has negative capacity")
        self.domain_of = dict(domain_of)
        for sw, cid in self.domain_of.items():
            if cid not in self.capacity:
                raise PlacementError(f"switch {sw} assigned to unknown controller {cid}")
        self.flow_counts = dict(flow_counts) if flow_counts else None
        if self.flow_counts is not None:
            missing = set(self.domain_of) - set(self.flow_counts)
            if missing:
                raise PlacementError(f"flow_counts missing switches {sorted(missing)}")

    def domain(self, controller_id: int) -> tuple[int, ...]:
        if controller_id not in self.capacity:
            raise PlacementError(f"unknown controller {controller_id}")
        return tuple(sorted(sw for sw, c in self.domain_of.items() if c == controller_id))

    def switch_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.domain_of))


@dataclass(frozen=True)
class FailureScenario:
    failed: frozenset[int]

    def label(self) -> str:
        return "+".join(f"C{c}" for c in sorted(self.failed))


def load_placement(doc: dict, t: Topology) -> Placement:
    """Build a Placement from a parsed placement document; every topology
    node must be covered exactly once and controllers must sit on nodes."""
    if not isinstance(doc, dict):
        raise PlacementError("placement document must be a mapping")
    unknown = set(doc) - _DOC_FIELDS
    if unknown:
        raise PlacementError(f"placement document has unknown fields: {sorted(unknown)}")
    default_cap = doc.get("capacity")
    recs = doc.get("controllers")
    if not isinstance(recs, list) or not recs:
        raise PlacementError("placement document needs a 'controllers' list")

    node_ids = set(t.node_ids())
    controllers = []
    domain_of: dict[int, int] = {}
    for rec in recs:
        bad = set(rec) - _CONTROLLER_FIELDS
        if bad:
            raise PlacementError(f"controller record has unknown fields: {sorted(bad)}")
        try:
            cid = whole_number(rec["node"], "controller node", PlacementError)
        except KeyError:
            raise PlacementError("controller record missing 'node'") from None
        if cid not in node_ids:
            raise PlacementError(f"controller node {cid} not in topology")
        cap = rec.get("capacity", default_cap)
        if cap is None:
            raise PlacementError(f"controller {cid} has no capacity (none given, no default)")
        controllers.append((cid, _count(cap, f"controller {cid} capacity")))
        for sw in rec.get("switches", []):
            sw = whole_number(sw, f"switch of controller {cid}", PlacementError)
            if sw not in node_ids:
                raise PlacementError(f"switch {sw} not in topology")
            if sw in domain_of:
                raise PlacementError(f"switch {sw} assigned twice")
            domain_of[sw] = cid

    unassigned = sorted(node_ids - set(domain_of))
    if unassigned:
        raise PlacementError(f"switch {unassigned[0]} unassigned")

    flow_counts = doc.get("flow_counts")
    if flow_counts is not None:
        flow_counts = {int(k): _count(v, f"flow count of switch {k}") for k, v in flow_counts.items()}
    return Placement(controllers, domain_of, flow_counts, name=str(doc.get("name", "")))


def _count(value, what: str) -> int:
    """A nonnegative whole number; 2.0 passes, while 2.7, -5, NaN and
    infinity are rejected instead of truncated."""
    n = whole_number(value, what, PlacementError)
    if n < 0:
        raise PlacementError(f"{what} must be nonnegative, got {n}")
    return n


def load_placement_file(path, t: Topology) -> Placement:
    with open(FsPath(path)) as fh:
        return load_placement(json.load(fh), t)


def validate_scenario(p: Placement, s: FailureScenario):
    if not s.failed:
        raise PlacementError("failure scenario must name at least one controller")
    bad = s.failed - set(p.controller_ids)
    if bad:
        raise PlacementError(f"failed controllers not in placement: {sorted(bad)}")
    if len(s.failed) >= len(p.controller_ids):
        raise PlacementError("at least one controller must survive")


def offline_switches(p: Placement, s: FailureScenario) -> tuple[int, ...]:
    validate_scenario(p, s)
    return tuple(sorted(sw for sw, cid in p.domain_of.items() if cid in s.failed))


def active_controllers(p: Placement, s: FailureScenario) -> tuple[int, ...]:
    validate_scenario(p, s)
    return tuple(c for c in p.controller_ids if c not in s.failed)


def residual_capacity(p: Placement, loads: dict[int, int], s: FailureScenario) -> dict[int, int]:
    """Remaining ability per active controller after serving its own
    surviving domain. Raises if a domain already exceeds its capacity."""
    validate_scenario(p, s)
    rest = {}
    for cid in active_controllers(p, s):
        own = sum(loads[sw] for sw in p.domain(cid))
        if own > p.capacity[cid]:
            raise PlacementError(
                f"controller {cid}: own-domain load {own} exceeds capacity {p.capacity[cid]}"
            )
        rest[cid] = p.capacity[cid] - own
    return rest


def enumerate_failure_scenarios(p: Placement, k: int) -> list[FailureScenario]:
    """All C(m, k) failure combinations in lexicographic order."""
    m = len(p.controller_ids)
    if not 1 <= k < m:
        raise PlacementError(f"failure cardinality {k} out of range [1, {m - 1}]")
    return [FailureScenario(frozenset(c)) for c in itertools.combinations(p.controller_ids, k)]
