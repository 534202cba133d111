"""Switch configuration and mapping instances: data, objective, validation.

An instance fixes, for one failure scenario: the offline switches, the
surviving controllers, per-switch loads g, the overhead matrix w = g * D,
each switch's controllers nearest first and cheapest first, the
programmability sets, residual abilities, and the flow quota.

A world's instances are assembled from its SwitchTable: the controller
facts no failure scenario changes (each switch's delays and controller
orders, each domain's load and flows), read once per world.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path as FsPath

from . import domains as dm
from ._doc import distinct, key, number, record, whole
from .flows import BetaMatrix, flows_of, index_flows
# SwitchTable reads its delays from shortest_path_tree; shortest_path
# stays importable here because perfbench/tracing.py wraps it by name and
# counts the per-pair path queries of the instance builds (none)
from .geo import Topology, shortest_path, shortest_path_tree


class InstanceError(ValueError):
    """Inconsistent instance or solution data."""


# what indexing and iterating a parsed document of the wrong shape raises:
# missing keys, and lists, strings or numbers where a mapping belongs
_MALFORMED = (KeyError, TypeError, AttributeError)

# the required fields of each document; `label` and `quota_met` are optional
_INSTANCE_FIELDS = ("offline_switches", "active_controllers", "delay_ms", "loads", "flows",
                    "residual", "quota")
_SOLUTION_FIELDS = ("x", "assigned", "y", "objective")


def _ids(values, what: str) -> list[int]:
    """Whole-number ids, each listed once."""
    return distinct((whole(v, what, InstanceError) for v in values), what, InstanceError)


def _orders(ids: tuple[int, ...], row: dict[int, float], g: int):
    """(nearest, cheapest): the ascending controller ids in (row[j], j)
    order and in (g * row[j], j) order. A stable sort of ascending ids by
    one key gives the (key, id) order. The cheapest order sorts the
    products themselves: two delays may round to one product, and the
    smaller id then comes first whatever their delay order. A zero-load
    switch costs 0.0 at every controller, so a delay of inf (to a failed
    controller of a world) makes no nan of 0 * inf, which no sort orders."""
    w = {j: g * d for j, d in row.items()} if g else dict.fromkeys(row, 0.0)
    return tuple(sorted(ids, key=row.__getitem__)), tuple(sorted(ids, key=w.__getitem__))


def _check_switches(offline, g, rows, worst_delay):
    """The rules both routes apply to each offline switch i, in this
    order: i has a load in g and a row in rows, its load is nonnegative,
    worst_delay(i), which checks i's delays on the caller's route, gives
    its largest delay, and the dearest overheads summed up to i stay
    finite. No assignment costs more than that sum: the exact search
    starts its incumbent at infinity, and an infinite overhead never
    beats it."""
    dearest = 0.0
    for i in offline:
        if i not in g or i not in rows:
            raise InstanceError(f"switch {i} missing load or flow data")
        if g[i] < 0:
            raise InstanceError(f"switch {i} has negative load")
        dearest += g[i] * worst_delay(i)
        if not math.isfinite(dearest):
            raise InstanceError(f"switch {i}: the dearest overheads up to this switch "
                                f"sum to {dearest}; overheads must stay finite")


class OscmInstance:
    """One scenario's problem. Its attributes are set in one place, _fill,
    from the pieces one of two routes has checked; both routes apply the
    per-switch rules of _check_switches:

    - the constructor, for documents (from_json) and direct construction,
      checks every field: each (offline switch, active controller) delay
      (present, finite, nonnegative), each active controller's residual
      (present, nonnegative), no key outside those ids, no delay pair
      beyond them, and the quota within [0, n_flows]; it indexes the
      rows of flow ids with flows.index_flows and sorts each offline
      switch's active controllers into its two orders;
    - build_instance, for a world, reads each delay from the world's
      SwitchTable and checks only what the world does not guarantee (see
      there): it builds every key and pair from the scenario itself, and
      its delays are sums of link delays the topology loader checked.

    nearest[i] and cheapest[i] list controllers in (delay, id) and in
    (g_i * delay, id) order (see _orders). A world's instance shares its
    table's orders, which list every controller of the world, so a reader
    skips those not in a_rest, the failed ones; a constructed instance's
    list only its active controllers.
    """

    def __init__(self, offline_switches, active_controllers, delay, g, beta, a_rest,
                 q_required, label: str = ""):
        """delay: {(switch, controller): ms}; g: {switch: flow count};
        beta: {switch: flow ids}, rows that flows.index_flows indexes into
        a matrix of their own; a_rest: {controller: flow count}.

        The mappings are stored as given, so ids, counts and the quota must
        already be ints; from_json converts and checks outside documents."""
        offline = tuple(sorted(offline_switches))
        active = tuple(sorted(active_controllers))
        matrix = index_flows(beta)

        def worst_delay(i):
            worst = 0.0
            for j in active:
                d = delay.get((i, j))
                if d is None:
                    raise InstanceError(f"missing delay for switch {i}, controller {j}")
                if not (math.isfinite(d) and d >= 0):
                    raise InstanceError(f"delay {d} for switch {i}, controller {j} "
                                        "must be finite and nonnegative")
                if d > worst:
                    worst = d
            return worst

        _check_switches(offline, g, matrix.masks, worst_delay)
        for j in active:
            if j not in a_rest:
                raise InstanceError(f"controller {j} missing residual ability")
            if a_rest[j] < 0:
                raise InstanceError(f"controller {j} has negative residual ability")
        for what, ids, known, kind in (("loads", g, offline, "offline switches"),
                                       ("flows", beta, offline, "offline switches"),
                                       ("residual", a_rest, active, "active controllers")):
            unknown = sorted(set(ids) - set(known))
            if unknown:
                raise InstanceError(f"{what} names ids that are not {kind}: {unknown}")
        # every required pair is present, so only extra pairs change the count
        if len(delay) != len(offline) * len(active):
            pairs = {(i, j) for i in offline for j in active}
            unknown = [f"{i},{j}" for i, j in sorted(set(delay) - pairs)]
            raise InstanceError("delay_ms names pairs that are not "
                                f"(offline switch, active controller): {unknown}")

        # every row is an offline switch's, so the union ORs them all
        union = 0
        for m in matrix.masks.values():
            union |= m
        if not 0 <= q_required <= union.bit_count():
            raise InstanceError(f"quota {q_required} outside [0, {union.bit_count()}]")
        nearest, cheapest = {}, {}
        for i in offline:
            row = {j: delay[i, j] for j in active}
            nearest[i], cheapest[i] = _orders(active, row, g[i])
        self._fill(label, offline, active, delay, g, a_rest, matrix, union, nearest,
                   cheapest, q_required)

    def _fill(self, label, offline, active, delay, g, a_rest, matrix: BetaMatrix, union,
              nearest, cheapest, q_required) -> "OscmInstance":
        """Set every attribute from the checked pieces of a route, and
        return self. matrix has a row for every offline switch, union is
        the OR of those rows.

        masks[i] holds switch i's flows as an int bitmask over the
        matrix's flow index, counts[i] its bit count, as the matrix
        counted it, and flows_of decodes one. The instance stores no
        row of flow ids: `beta` reads them from the matrix,
        which decodes a row on its first read, so every instance of a
        world shares the rows it decodes, and each read of `flows`
        decodes."""
        self.label = label
        self.offline_switches: tuple[int, ...] = offline
        self.active_controllers: tuple[int, ...] = active
        self.delay, self.g, self.a_rest = delay, g, a_rest
        self._beta, self._ids = matrix, matrix.ids
        masks, counts = matrix.masks, matrix.counts
        self.masks: dict[int, int] = {i: masks[i] for i in offline}
        self.counts: dict[int, int] = {i: counts[i] for i in offline}
        self.union = union
        self.nearest, self.cheapest = nearest, cheapest
        self.q_required = q_required
        return self

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
        """Each offline switch's flow ids, read from the matrix on every
        read, which the greedy and the baseline never make."""
        return {i: self._beta.flows_at(i) for i in self.offline_switches}

    @property
    def flows(self) -> tuple[int, ...]:
        """Every flow some offline switch carries, ascending; decoded from
        the union on every read, which the solvers never make."""
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
            "flows": {str(i): self.flows_of(self.masks[i]) for i in self.offline_switches},
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
        record(doc, {*_INSTANCE_FIELDS, "label"}, "instance document", error,
               required=_INSTANCE_FIELDS)
        label = doc.get("label", "")
        if not isinstance(label, str):
            raise InstanceError(f"label must be a string, got {label!r}")
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
                label=label,
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
            record(doc, {*_SOLUTION_FIELDS, "quota_met"}, "solution", error,
                   required=_SOLUTION_FIELDS)
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


class SwitchTable:
    """The controller facts of one world (topology t, matrix b, placement
    p, per-switch loads) that no failure scenario changes, read once.

    Building it checks p against t by check_coverage, as load_placement
    checks a document. Then, for every switch i of t:
    - delay[i][j] is i's delay to controller j, read once from i's search
      tree, where a switch's delay to itself is 0.0. It is the
      switch-side sum: the controller-side sum over the same path may
      differ in the last bit;
    - nearest[i] and cheapest[i] list every controller in (delay, id) and
      in (loads[i] * delay, id) order (see _orders).
    For every controller j, own[j] is its own-domain load and union[j]
    the OR of its domain's masks (a switch without a row adds none; an
    instance with such a switch offline is refused).

    A delay may be inf where link delays overflow, and a load negative
    where the caller gave one; the table keeps them, and build_instance
    refuses an instance that would read them, by the per-switch rules
    it shares with the constructor (_check_switches).
    """

    def __init__(self, t: Topology, b: BetaMatrix, p: dm.Placement, loads: dict[int, int]):
        dm.check_coverage(t, p.capacity, p.domain_of)
        self.topology, self.matrix, self.placement, self.loads = t, b, p, loads
        ids = p.controller_ids
        at = [(j, t._index[j]) for j in ids]
        self.delay: dict[int, dict[int, float]] = {}
        self.nearest: dict[int, tuple[int, ...]] = {}
        self.cheapest: dict[int, tuple[int, ...]] = {}
        for i in t.node_ids():
            from_i = shortest_path_tree(t, i).delay
            row = self.delay[i] = {j: from_i[k] for j, k in at}
            self.nearest[i], self.cheapest[i] = _orders(ids, row, loads[i])
        self.own = dm.domain_loads(p, loads)
        masks = b.masks
        self.union: dict[int, int] = {}
        for j, sws in p.domains.items():
            union = 0
            for i in sws:
                union |= masks.get(i, 0)
            self.union[j] = union


def build_instance(t: Topology, b: BetaMatrix, p: dm.Placement, s: dm.FailureScenario,
                   q_fraction: float, loads: dict[int, int] | None = None,
                   table: SwitchTable | None = None) -> OscmInstance:
    """Assemble the problem for one failure scenario from the world's
    switch table, in one pass over its (offline switch, active
    controller) pairs, and hand b and the checked pieces to the
    instance's one fill step (OscmInstance._fill).

    table is the SwitchTable of (t, b, p) and its loads, which a World
    keeps; without one, the call builds one from loads, which defaults to
    switch_loads(p, b). The scenario is checked once, by
    surviving_residuals, whose residuals are nonnegative and keyed by the
    active controllers. The instance shares the table's controller
    orders, and its flow union ORs the failed domains' unions.

    The constructor's per-pair and per-key checks are not run: every key
    and pair is built here from the scenario, and a tree delay is a sum
    of link delays the topology loader checked, finite and nonnegative,
    so it can only overflow to inf. Per offline switch this checks what
    the world does not guarantee, by the constructor's rules
    (_check_switches) and with its messages: a flow row in b, a
    nonnegative load (loads may come from the caller), a finite largest
    delay, and a finite running sum of the dearest overheads.
    """
    if not 0.0 <= q_fraction <= 1.0:
        raise InstanceError(f"q_fraction {q_fraction} outside [0, 1]")

    if table is None:
        table = SwitchTable(t, b, p, switch_loads(p, b) if loads is None else loads)
    elif loads is not None or not (table.topology is t and table.matrix is b
                                   and table.placement is p):
        raise InstanceError("a switch table serves only the world and loads it was built from")

    rest = dm.surviving_residuals(p, table.own, s)
    offline = dm.offline_switches(p, s)

    active = tuple(rest)
    loads, delays, delay = table.loads, table.delay, {}

    def worst_delay(i):
        row = delays[i]
        worst = 0.0
        for j in active:
            d = delay[i, j] = row[j]
            if d > worst:
                worst = d
        if worst == math.inf:
            j = next(j for j in active if row[j] == worst)
            raise InstanceError(f"delay {worst} for switch {i}, controller {j} "
                                "must be finite and nonnegative")
        return worst

    _check_switches(offline, loads, b.masks, worst_delay)
    union = 0
    for c in s.failed:
        union |= table.union[c]
    # the quota reads the flow union; q_fraction is in [0, 1], so it is too
    return OscmInstance.__new__(OscmInstance)._fill(
        s.label(), offline, active, delay, {i: loads[i] for i in offline}, rest, b, union,
        table.nearest, table.cheapest, math.ceil(q_fraction * union.bit_count()))


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
