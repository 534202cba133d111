"""Switch configuration and mapping instances: data, objective, validation.

An instance fixes, for one failure scenario: the offline switches, the
surviving controllers, per-switch loads g, the overhead matrix w = g * D,
the programmability sets, residual abilities, and the flow quota.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path as FsPath

from . import domains as dm
from .flows import BetaMatrix
from .geo import Topology, haversine_km, shortest_path, whole_number, PROPAGATION_KM_PER_MS


class InstanceError(ValueError):
    """Inconsistent instance or solution data."""


_whole = partial(whole_number, error=InstanceError)


# what indexing, converting and iterating a parsed document of the wrong
# shape raises: wrong types, missing keys, NaN or infinite integers
_MALFORMED = (KeyError, ValueError, TypeError, AttributeError, OverflowError)


class OscmInstance:
    def __init__(self, offline_switches, active_controllers, delay, g, beta, a_rest,
                 q_required, label: str = ""):
        """delay: {(switch, controller): ms}; g: {switch: flow count};
        beta: {switch: set of flow ids}; a_rest: {controller: flow count}.

        The mappings are stored as given, so ids, counts and the quota must
        already be ints; from_json converts and checks outside documents."""
        self.label = label
        self.offline_switches: tuple[int, ...] = tuple(sorted(offline_switches))
        self.active_controllers: tuple[int, ...] = tuple(sorted(active_controllers))
        self.delay = delay
        self.g = g
        self.beta = {i: frozenset(fl) for i, fl in beta.items()}
        self.a_rest = a_rest

        for i in self.offline_switches:
            if i not in self.g or i not in self.beta:
                raise InstanceError(f"switch {i} missing load or flow data")
            if self.g[i] < 0:
                raise InstanceError(f"switch {i} has negative load")
            for j in self.active_controllers:
                d = self.delay.get((i, j))
                if d is None:
                    raise InstanceError(f"missing delay for switch {i}, controller {j}")
                if not (math.isfinite(d) and d >= 0):
                    raise InstanceError(f"delay {d} for switch {i}, controller {j} "
                                        "must be finite and nonnegative")
        for j in self.active_controllers:
            if j not in self.a_rest:
                raise InstanceError(f"controller {j} missing residual ability")
            if self.a_rest[j] < 0:
                raise InstanceError(f"controller {j} has negative residual ability")

        self.flows: tuple[int, ...] = tuple(
            sorted(set().union(*(self.beta[i] for i in self.offline_switches)) if self.offline_switches else set())
        )
        self.q_required = q_required
        if not 0 <= self.q_required <= len(self.flows):
            raise InstanceError(
                f"quota {self.q_required} outside [0, {len(self.flows)}]"
            )

    @property
    def n_switches(self) -> int:
        return len(self.offline_switches)

    @property
    def n_controllers(self) -> int:
        return len(self.active_controllers)

    @property
    def n_flows(self) -> int:
        return len(self.flows)

    def w(self, i: int, j: int) -> float:
        """Overhead of controller j pulling switch i's flows: g_i * D_ij."""
        return self.g[i] * self.delay[(i, j)]

    def to_json(self) -> str:
        doc = {
            "label": self.label,
            "offline_switches": list(self.offline_switches),
            "active_controllers": list(self.active_controllers),
            "delay_ms": {f"{i},{j}": self.delay[(i, j)]
                         for i in self.offline_switches for j in self.active_controllers},
            "loads": {str(i): self.g[i] for i in self.offline_switches},
            "flows": {str(i): sorted(self.beta[i]) for i in self.offline_switches},
            "residual": {str(j): self.a_rest[j] for j in self.active_controllers},
            "quota": self.q_required,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "OscmInstance":
        """Parse an instance document. Loads, residuals, flow ids and the
        quota must be whole numbers; fractions are rejected, not truncated."""
        doc = json.loads(text)
        try:
            delay = {}
            for key, val in doc["delay_ms"].items():
                i, j = key.split(",")
                delay[(int(i), int(j))] = float(val)
            return cls(
                offline_switches=doc["offline_switches"],
                active_controllers=doc["active_controllers"],
                delay=delay,
                g={int(k): _whole(v, f"load of switch {k}") for k, v in doc["loads"].items()},
                beta={int(k): frozenset(_whole(l, f"flow id of switch {k}") for l in v)
                      for k, v in doc["flows"].items()},
                a_rest={int(k): _whole(v, f"residual of controller {k}")
                        for k, v in doc["residual"].items()},
                q_required=_whole(doc["quota"], "quota"),
                label=doc.get("label", ""),
            )
        except InstanceError:
            raise
        except _MALFORMED as e:
            raise InstanceError(f"malformed instance document: {e}") from e

    @classmethod
    def from_file(cls, path) -> "OscmInstance":
        return cls.from_json(FsPath(path).read_text())


@dataclass(frozen=True)
class Solution:
    """x: SDN-mode indicator per offline switch; assigned: switch ->
    controller for every SDN switch; y: programmable flow ids."""
    x: dict[int, int]
    assigned: dict[int, int]
    y: frozenset[int]
    objective: float
    quota_met: bool = True

    def recovered_switches(self) -> int:
        return sum(self.x.values())

    def to_json(self) -> str:
        doc = {
            "x": {str(i): v for i, v in sorted(self.x.items())},
            "assigned": {str(i): j for i, j in sorted(self.assigned.items())},
            "y": sorted(self.y),
            "objective": self.objective,
            "quota_met": self.quota_met,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Solution":
        doc = json.loads(text)
        try:
            return cls(
                x={int(k): int(v) for k, v in doc["x"].items()},
                assigned={int(k): int(v) for k, v in doc["assigned"].items()},
                y=frozenset(doc["y"]),
                objective=float(doc["objective"]),
                quota_met=bool(doc.get("quota_met", True)),
            )
        except _MALFORMED as e:
            raise InstanceError(f"malformed solution document: {e}") from e

    @classmethod
    def from_file(cls, path) -> "Solution":
        return cls.from_json(FsPath(path).read_text())


@dataclass(frozen=True)
class ConstraintCheck:
    family: str
    passed: bool
    offenders: tuple = ()


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ConstraintCheck, ...]

    @property
    def feasible(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, family: str) -> ConstraintCheck:
        for c in self.checks:
            if c.family == family:
                return c
        raise KeyError(family)

    def lines(self):
        for c in self.checks:
            status = "pass" if c.passed else f"FAIL {list(c.offenders)}"
            yield f"{c.family}: {status}"


def all_legacy_solution(inst: OscmInstance) -> Solution:
    return Solution(
        x={i: 0 for i in inst.offline_switches},
        assigned={},
        y=frozenset(),
        objective=0.0,
        quota_met=inst.q_required == 0,
    )


def switch_loads(p: dm.Placement, b: BetaMatrix) -> dict[int, int]:
    """Per-switch flow counts: the placement's fixture counts when it
    carries them, otherwise the loads computed from b."""
    if p.flow_counts is not None:
        return dict(p.flow_counts)
    return b.loads()


def build_instance(t: Topology, b: BetaMatrix, p: dm.Placement, s: dm.FailureScenario,
                   q_fraction: float, loads: dict[int, int] | None = None,
                   control_delay: str = "routed") -> OscmInstance:
    """Assemble the problem for one failure scenario.

    loads defaults to switch_loads(p, b). control_delay
    picks how switch-to-controller delay is measured: 'routed' walks the
    shortest path through the topology, 'geodesic' uses the direct
    great-circle distance.
    """
    if not 0.0 <= q_fraction <= 1.0:
        raise InstanceError(f"q_fraction {q_fraction} outside [0, 1]")
    if control_delay not in ("routed", "geodesic"):
        raise InstanceError(f"unknown control_delay mode {control_delay!r}")

    if loads is None:
        loads = switch_loads(p, b)

    offline = dm.offline_switches(p, s)
    active = dm.active_controllers(p, s)
    rest = dm.residual_capacity(p, loads, s)

    delay = {}
    for i in offline:
        for j in active:
            if i == j:
                delay[(i, j)] = 0.0
            elif control_delay == "routed":
                delay[(i, j)] = shortest_path(t, i, j).total_delay_ms
            else:
                km = haversine_km(t.coordinate(i), t.coordinate(j))
                delay[(i, j)] = km / PROPAGATION_KM_PER_MS

    beta = {i: b.flows_at(i) for i in offline}
    n_flows = len(set().union(*beta.values())) if beta else 0
    q = math.ceil(q_fraction * n_flows)
    return OscmInstance(
        offline_switches=offline,
        active_controllers=active,
        delay=delay,
        g={i: loads[i] for i in offline},
        beta=beta,
        a_rest=rest,
        q_required=q,
        label=s.label(),
    )


def _check_dimensions(inst: OscmInstance, sol: Solution):
    switches = set(inst.offline_switches)
    if set(sol.x) != switches:
        raise InstanceError("solution x not indexed over the offline switches")
    if not set(sol.assigned) <= switches:
        raise InstanceError("solution assigns unknown switches")
    if not set(sol.assigned.values()) <= set(inst.active_controllers):
        raise InstanceError("solution assigns to unknown controllers")
    if not set(sol.y) <= set(inst.flows):
        raise InstanceError("solution marks unknown flows programmable")


def objective(inst: OscmInstance, sol: Solution) -> float:
    """Total communication overhead: sum of w_ij over assignments."""
    _check_dimensions(inst, sol)
    return sum(inst.w(i, j) for i, j in sol.assigned.items())


def validate(inst: OscmInstance, sol: Solution) -> ValidationReport:
    """Check every constraint family and report pass/fail per family."""
    _check_dimensions(inst, sol)

    mapping_bad = []
    for i in inst.offline_switches:
        n_assigned = 1 if i in sol.assigned else 0
        if n_assigned != sol.x[i]:
            mapping_bad.append(i)

    capacity_bad = []
    for j in inst.active_controllers:
        pulled = sum(inst.g[i] for i, c in sol.assigned.items() if c == j)
        if pulled > inst.a_rest[j]:
            capacity_bad.append(j)

    support_bad = []
    supported = programmable_flows(inst, sol.x)
    for l in sorted(sol.y):
        if l not in supported:
            support_bad.append(l)

    quota_ok = len(sol.y) >= inst.q_required

    checks = (
        ConstraintCheck("mapping", not mapping_bad, tuple(mapping_bad)),
        ConstraintCheck("capacity", not capacity_bad, tuple(capacity_bad)),
        ConstraintCheck("programmability", not support_bad, tuple(support_bad)),
        ConstraintCheck("quota", quota_ok,
                        () if quota_ok else (f"{len(sol.y)}<{inst.q_required}",)),
    )
    return ValidationReport(checks)


def programmable_flows(inst: OscmInstance, x: dict[int, int]) -> frozenset[int]:
    """Flows carried by at least one SDN-mode switch; each flow counts once
    no matter how many selected switches carry it."""
    out = set()
    for i in inst.offline_switches:
        if x.get(i, 0):
            out |= inst.beta[i]
    return frozenset(out)
