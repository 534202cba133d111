"""Switch configuration and mapping instances: data, objective, validation.

An instance fixes, for one failure scenario: the offline switches, the
surviving controllers, per-switch loads g, the overhead matrix w = g * D,
the programmability sets, residual abilities, and the flow quota.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path as FsPath

from . import domains as dm
from ._doc import key, number, whole
from .flows import BetaMatrix, flows_of, index_flows
# build_instance reads its delays from shortest_path_tree; shortest_path
# stays importable here because perfbench/tracing.py wraps it by name and
# counts the per-pair path queries of the instance builds (none)
from .geo import Topology, shortest_path, shortest_path_tree


class InstanceError(ValueError):
    """Inconsistent instance or solution data."""


# what indexing and iterating a parsed document of the wrong shape raises:
# missing keys, and lists, strings or numbers where a mapping belongs
_MALFORMED = (KeyError, TypeError, AttributeError)


def _ids(values, what: str) -> set[int]:
    """Whole-number ids, each listed once."""
    ids = set()
    for v in values:
        i = whole(v, what, InstanceError)
        if i in ids:
            raise InstanceError(f"duplicate {what} {i}")
        ids.add(i)
    return ids


class OscmInstance:
    def __init__(self, offline_switches, active_controllers, delay, g, beta, a_rest,
                 q_required, label: str = ""):
        """delay: {(switch, controller): ms}; g: {switch: flow count};
        beta: {switch: set of flow ids}, or a world's BetaMatrix, whose
        offline switches' rows are read; a_rest: {controller: flow count}.

        The mappings are stored as given, so ids, counts and the quota must
        already be ints; from_json converts and checks outside documents.

        masks[i] holds beta[i] as an int bitmask over a flow index, union
        their OR, and flows_of decodes one. Sets go through
        flows.index_flows into a matrix of their own; a world's matrix
        lends its index and masks. Either way `beta` is decoded on the
        first read, through the matrix's rows, so every instance of a
        world shares the rows it decodes."""
        self.label = label
        self.offline_switches: tuple[int, ...] = tuple(sorted(offline_switches))
        self.active_controllers: tuple[int, ...] = tuple(sorted(active_controllers))
        self.delay = delay
        self.g = g
        matrix = beta if isinstance(beta, BetaMatrix) else index_flows(beta)
        self._beta = matrix
        self._rows = None  # beta, once read
        self.a_rest = a_rest

        for i in self.offline_switches:
            if i not in self.g or i not in matrix.masks:
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
        offline, active = set(self.offline_switches), set(self.active_controllers)
        # a world's matrix has a row for every switch, not only the offline ones
        for what, ids, known, kind in (("loads", self.g, offline, "offline switches"),
                                       ("flows", () if beta is matrix else beta, offline,
                                        "offline switches"),
                                       ("residual", self.a_rest, active, "active controllers")):
            unknown = sorted(set(ids) - known)
            if unknown:
                raise InstanceError(f"{what} names ids that are not {kind}: {unknown}")
        # every required pair is present, so only extra pairs change the count
        if len(self.delay) != self.n_switches * self.n_controllers:
            pairs = {(i, j) for i in self.offline_switches for j in self.active_controllers}
            unknown = [f"{i},{j}" for i, j in sorted(set(self.delay) - pairs)]
            raise InstanceError("delay_ms names pairs that are not "
                                f"(offline switch, active controller): {unknown}")

        self._ids = matrix.ids
        self.masks: dict[int, int] = {i: matrix.masks[i] for i in self.offline_switches}
        union = 0
        for m in self.masks.values():
            union |= m
        self.union = union
        self.q_required = q_required
        if not 0 <= self.q_required <= self.n_flows:
            raise InstanceError(
                f"quota {self.q_required} outside [0, {self.n_flows}]"
            )

    @property
    def n_switches(self) -> int:
        return len(self.offline_switches)

    @property
    def n_controllers(self) -> int:
        return len(self.active_controllers)

    @property
    def n_flows(self) -> int:
        return self.union.bit_count()

    @property
    def beta(self) -> dict[int, frozenset[int]]:
        """Each offline switch's flow ids, decoded on the first read, which
        the greedy and the baseline never make.

        A property, not a cached_property: one would reach for the
        instance's __dict__, and an instance with a __dict__ loses the
        interpreter's fast attribute reads in the solvers' loops."""
        if self._rows is None:
            self._rows = {i: self._beta.flows_at(i) for i in self.offline_switches}
        return self._rows

    @cached_property
    def flows(self) -> tuple[int, ...]:
        """Every flow some offline switch carries, ascending; decoded from
        the union on the first read, which the solvers never make."""
        return self.flows_of(self.union)

    def flows_of(self, mask: int) -> tuple[int, ...]:
        """The flow ids of a bitmask over this instance's index, ascending."""
        return flows_of(mask, self._ids)

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
        """Parse an instance document. Ids, loads, flow ids and the quota
        must be whole numbers and keys canonical decimal; nothing truncates."""
        doc = json.loads(text)
        error = InstanceError
        try:
            delay = {}
            for pair, val in doc["delay_ms"].items():
                i, _, j = pair.partition(",")
                ij = (key(i, "delay switch", error), key(j, "delay controller", error))
                delay[ij] = number(val, f"delay {pair}", error)
            return cls(
                offline_switches=_ids(doc["offline_switches"], "offline switch"),
                active_controllers=_ids(doc["active_controllers"], "active controller"),
                delay=delay,
                g={key(k, "load key", error): whole(v, f"load of switch {k}", error)
                   for k, v in doc["loads"].items()},
                beta={key(k, "flows key", error): _ids(v, f"switch {k} flow id")
                      for k, v in doc["flows"].items()},
                a_rest={key(k, "residual key", error):
                        whole(v, f"residual of controller {k}", error)
                        for k, v in doc["residual"].items()},
                q_required=whole(doc["quota"], "quota", error),
                label=doc.get("label", ""),
            )
        except _MALFORMED as e:
            raise InstanceError(f"malformed instance document: {e}") from e

    @classmethod
    def from_file(cls, path) -> "OscmInstance":
        return cls.from_json(FsPath(path).read_text())


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Solution:
    """x: SDN-mode indicator per offline switch; assigned: switch ->
    controller for every SDN switch; y: programmable flow ids, sorted.

    The flows are held as a bitmask over a flow index (`_mask` over
    `_ids`, see flows.index_flows) and y decodes them on every read,
    keeping nothing: a solver's solution shares its instance's index, and
    most callers only count the flows (n_programmable). `==` and repr
    read y, not the mask, so they match a solution built from the ids."""
    x: dict[int, int]
    assigned: dict[int, int]
    objective: float
    quota_met: bool
    _mask: int
    _ids: tuple[int, ...]

    def __init__(self, x: dict[int, int], assigned: dict[int, int], y,
                 objective: float, quota_met: bool = True):
        # any collection of flow ids is its own index, every bit set
        ids = tuple(sorted(y))
        self.__dict__.update(x=x, assigned=assigned, objective=objective,
                             quota_met=quota_met, _mask=(1 << len(ids)) - 1, _ids=ids)

    @classmethod
    def _of_mask(cls, x, assigned, objective, quota_met, mask: int,
                 ids: tuple[int, ...]) -> "Solution":
        """The solution whose flows are the bits of mask over the index ids."""
        sol = cls(x, assigned, (), objective, quota_met)
        sol.__dict__.update(_mask=mask, _ids=ids)
        return sol

    @property
    def y(self) -> tuple[int, ...]:
        if self._mask.bit_count() == len(self._ids):
            return self._ids
        return flows_of(self._mask, self._ids)

    @property
    def n_programmable(self) -> int:
        """len(y), counted without decoding the ids."""
        return self._mask.bit_count()

    def _fields(self) -> tuple:
        return (self.x, self.assigned, self.y, self.objective, self.quota_met)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        names = ("x", "assigned", "y", "objective", "quota_met")
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def recovered_switches(self) -> int:
        return sum(self.x.values())

    def to_json(self) -> str:
        doc = {
            "x": {str(i): v for i, v in sorted(self.x.items())},
            "assigned": {str(i): j for i, j in sorted(self.assigned.items())},
            "y": list(self.y),
            "objective": self.objective,
            "quota_met": self.quota_met,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Solution":
        doc = json.loads(text)
        error = InstanceError
        try:
            quota_met = doc.get("quota_met", True)
            if not isinstance(quota_met, bool):
                raise InstanceError(f"quota_met must be true or false, got {quota_met!r}")
            return cls(
                x={key(k, "switch id", error): whole(v, f"x of switch {k}", error)
                   for k, v in doc["x"].items()},
                assigned={key(k, "switch id", error): whole(v, f"controller of switch {k}", error)
                          for k, v in doc["assigned"].items()},
                y=_ids(doc["y"], "flow id"),
                objective=number(doc["objective"], "objective", error),
                quota_met=quota_met,
            )
        except (InstanceError, *_MALFORMED) as e:
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


def switch_loads(p: dm.Placement, b: BetaMatrix) -> dict[int, int]:
    """Per-switch flow counts: the placement's fixture counts when it
    carries them, otherwise the loads computed from b."""
    if p.flow_counts is not None:
        return dict(p.flow_counts)
    return b.loads()


def build_instance(t: Topology, b: BetaMatrix, p: dm.Placement, s: dm.FailureScenario,
                   q_fraction: float, loads: dict[int, int] | None = None) -> OscmInstance:
    """Assemble the problem for one failure scenario.

    loads defaults to switch_loads(p, b). Switch-to-controller delay is
    that of the shortest path through the topology, read from the offline
    switch's search tree, where a switch's delay to itself is 0.0; no Path
    is built.
    """
    if not 0.0 <= q_fraction <= 1.0:
        raise InstanceError(f"q_fraction {q_fraction} outside [0, 1]")

    if loads is None:
        loads = switch_loads(p, b)

    offline = dm.offline_switches(p, s)
    active = dm.active_controllers(p, s)
    rest = dm.residual_capacity(p, loads, s)

    delay = {}
    for i in offline:
        from_i = shortest_path_tree(t, i).delay
        for j in active:
            delay[(i, j)] = from_i[j]

    inst = OscmInstance(
        offline_switches=offline,
        active_controllers=active,
        delay=delay,
        g={i: loads[i] for i in offline},
        beta=b,
        a_rest=rest,
        q_required=0,
        label=s.label(),
    )
    # the quota reads the flow union the instance built; q_fraction is in [0, 1]
    inst.q_required = math.ceil(q_fraction * inst.n_flows)
    return inst


def _check_dimensions(inst: OscmInstance, sol: Solution, y: tuple[int, ...]):
    """y: sol.y, decoded once by the caller."""
    switches = set(inst.offline_switches)
    if set(sol.x) != switches:
        raise InstanceError("solution x not indexed over the offline switches")
    if not set(sol.assigned) <= switches:
        raise InstanceError("solution assigns unknown switches")
    if not set(sol.assigned.values()) <= set(inst.active_controllers):
        raise InstanceError("solution assigns to unknown controllers")
    if not set(y) <= set(inst.flows):
        raise InstanceError("solution marks unknown flows programmable")


def objective(inst: OscmInstance, sol: Solution) -> float:
    """Total communication overhead: sum of w_ij over assignments."""
    _check_dimensions(inst, sol, sol.y)
    return sum(inst.w(i, j) for i, j in sol.assigned.items())


def validate(inst: OscmInstance, sol: Solution) -> ValidationReport:
    """Check every constraint family and report pass/fail per family."""
    y = sol.y
    _check_dimensions(inst, sol, y)

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
    for l in y:
        if l not in supported:
            support_bad.append(l)

    quota_ok = len(y) >= inst.q_required

    checks = (
        ConstraintCheck("mapping", not mapping_bad, tuple(mapping_bad)),
        ConstraintCheck("capacity", not capacity_bad, tuple(capacity_bad)),
        ConstraintCheck("programmability", not support_bad, tuple(support_bad)),
        ConstraintCheck("quota", quota_ok,
                        () if quota_ok else (f"{len(y)}<{inst.q_required}",)),
    )
    return ValidationReport(checks)


def programmable_flows(inst: OscmInstance, x: dict[int, int]) -> frozenset[int]:
    """Flows carried by at least one SDN-mode switch; each flow counts once
    no matter how many selected switches carry it."""
    mask = 0
    for i in inst.offline_switches:
        if x.get(i, 0):
            mask |= inst.masks[i]
    return frozenset(inst.flows_of(mask))
