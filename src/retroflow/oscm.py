"""Switch configuration and mapping instances: data, assembly, validation.

An instance fixes, for one failure scenario: the offline switches, the
surviving controllers, per-switch loads g, the overhead matrix w = g * D,
each switch's controllers nearest first and cheapest first, the
programmability sets, residual abilities, and the flow quota.

A World holds the topology, programmability matrix, placement and
per-switch loads, and the controller facts no failure scenario changes
(each switch's delays and controller orders, each domain's load and
flows), read once per world; its instances are assembled from it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path as FsPath

from . import domains as dm
from ._doc import distinct, key, number, parse, record, whole
from .flows import BetaMatrix, flows_of, index_flows
# World reads its delays from shortest_path_tree; shortest_path
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


def _check_switches(offline, active, g, rows, delays):
    """The one loop over the offline switches, on both routes. rows holds
    each switch's flow row, delays its delay row {controller: ms}: the
    World's as they are, or the constructor's pairs grouped by switch.
    Per offline switch i, in this order: a load in g and a flow
    row, the load nonnegative, each active controller's delay, in active
    order, present, finite and nonnegative, and the dearest overheads
    summed up to i finite. No assignment costs more than that sum: the
    exact search starts its incumbent at infinity, and an infinite
    overhead never beats it. It returns nothing; _fill builds the pairs.

    The loop runs for every document and directly built instance, and
    for a world's instance only when its World could not clear every
    instance at once (World.cleared)."""
    dearest, inf = 0.0, math.inf
    for i in offline:
        if i not in g or i not in rows:
            raise InstanceError(f"switch {i} missing load or flow data")
        if g[i] < 0:
            raise InstanceError(f"switch {i} has negative load")
        row, worst = delays[i], 0.0
        for j in active:
            d = row.get(j)
            if d is None:
                raise InstanceError(f"missing delay for switch {i}, controller {j}")
            if not 0.0 <= d < inf:
                raise InstanceError(f"delay {d} for switch {i}, controller {j} "
                                    "must be finite and nonnegative")
            if d > worst:
                worst = d
        dearest += g[i] * worst
        if not math.isfinite(dearest):
            raise InstanceError(f"switch {i}: the dearest overheads up to this switch "
                                f"sum to {dearest}; overheads must stay finite")


class OscmInstance:
    """One scenario's problem. Its attributes are set in one place, _fill,
    from the pieces one of two routes has checked, the delays as one row
    per offline switch, `delay_rows`, which the instance keeps as it is
    given: it builds no (switch, controller) pairs. Both routes hold each
    offline switch's load, flow row and delays to one loop,
    _check_switches:

    - the constructor, for documents (from_json) and direct construction,
      groups its delay pairs by switch into those rows and hands them to
      the loop, then checks each active controller's residual (present,
      nonnegative), no key outside those ids, no delay pair beyond them,
      and the quota within [0, n_flows]; it indexes the rows of flow ids
      with flows.index_flows and sorts each switch's delay row into its
      two orders;
    - build_instance, for a world, hands _fill its World's delay rows,
      and the loop too unless the World has shown once that none of its
      instances can fail it (World.cleared). It builds every key from
      the scenario itself, so it checks nothing else (see there).

    A constructed instance's rows hold exactly its offline switches'
    delays to its active controllers. A world's instance shares
    World.delay, which holds a row for every switch of the world, each
    with every controller, failed ones included; so the readers of
    delays, w and `delay`, answer only offline x active pairs, and the
    solvers and the scoring read a row only at a pair they hold.

    nearest[i] and cheapest[i] list controllers in (delay, id) and in
    (g_i * delay, id) order (see _orders). A world's instance shares its
    World's orders, which list every controller of the world, so a reader
    skips those not in a_rest, the failed ones; a constructed instance's
    list only its active controllers.
    """

    def __init__(self, offline_switches, active_controllers, delay, g, beta, a_rest,
                 q_required, label: str = ""):
        """delay: {(switch, controller): ms}; g: {switch: flow count};
        beta: {switch: flow ids}, rows that flows.index_flows indexes into
        a matrix of their own; a_rest: {controller: flow count}.

        g and a_rest are stored as given, and delay is copied into one
        row per switch, so ids, counts and the quota must already be
        ints; from_json converts and checks outside documents. An offline switch or active controller
        listed twice is refused, in from_json's words."""
        offline = tuple(sorted(distinct(offline_switches, "offline switch", InstanceError)))
        active = tuple(sorted(distinct(active_controllers, "active controller", InstanceError)))
        matrix = index_flows(beta)
        rows = {i: {} for i in offline}
        for (i, j), d in delay.items():
            rows.setdefault(i, {})[j] = d
        _check_switches(offline, active, g, matrix.masks, rows)
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
            switches, controllers = set(offline), set(active)
            unknown = [f"{i},{j}" for i, j in sorted(delay)
                       if i not in switches or j not in controllers]
            raise InstanceError("delay_ms names pairs that are not "
                                f"(offline switch, active controller): {unknown}")

        # the rows are the offline switches' rows, and the index ranks only
        # their flow ids, so the union sets every bit of the index
        union = (1 << len(matrix.ids)) - 1
        if not 0 <= q_required <= union.bit_count():
            raise InstanceError(f"quota {q_required} outside [0, {union.bit_count()}]")
        nearest, cheapest = {}, {}
        for i in offline:
            nearest[i], cheapest[i] = _orders(active, rows[i], g[i])
        self._fill(label, offline, active, rows, g, a_rest, matrix, union, nearest,
                   cheapest, q_required)

    def _fill(self, label, offline, active, rows, g, a_rest, matrix: BetaMatrix, union,
              nearest, cheapest, q_required) -> "OscmInstance":
        """Set every attribute from the checked pieces of a route, and
        return self. rows, each offline switch's delay row {controller:
        ms}, is kept as delay_rows, not copied: a world's instance shares
        its World's rows. matrix has a row for every offline switch,
        union is the OR of those rows.

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
        self.delay_rows: dict[int, dict[int, float]] = rows
        self.g, self.a_rest = g, a_rest
        self._beta, self._ids = matrix, matrix.ids
        masks, counts = matrix.masks, matrix.counts
        self.masks: dict[int, int] = {i: masks[i] for i in offline}
        self.counts: dict[int, int] = {i: counts[i] for i in offline}
        self.union = union
        self.nearest, self.cheapest = nearest, cheapest
        self.q_required = q_required
        return self

    @property
    def n_flows(self) -> int:
        return self.union.bit_count()

    @property
    def delay(self) -> dict[tuple[int, int], float]:
        """{(switch, controller): ms} over offline x active pairs, in
        that order, read from the rows on every read, which no solver
        makes."""
        rows = self.delay_rows
        return {(i, j): row[j] for i in self.offline_switches for row in (rows[i],)
                for j in self.active_controllers}

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
        """Overhead of controller j pulling switch i's flows: g_i * D_ij.
        KeyError((i, j)) unless i is offline and j active, as `delay`
        raises: g holds the offline switches and a_rest the active
        controllers, while a world's rows hold every pair."""
        if i not in self.g or j not in self.a_rest:
            raise KeyError((i, j))
        return self.g[i] * self.delay_rows[i][j]

    def to_json(self) -> str:
        doc = {
            "label": self.label,
            "offline_switches": list(self.offline_switches),
            "active_controllers": list(self.active_controllers),
            "delay_ms": {f"{i},{j}": self.delay_rows[i][j]
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
        error = InstanceError
        doc = parse(text, error)
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
        error = InstanceError
        doc = parse(text, error)
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


class World:
    """Everything a scenario run needs besides the failure itself: the
    topology, the programmability matrix `beta`, the placement, the
    per-switch loads `g`, and the controller facts no failure scenario
    changes, read once, when the world is built (experiment.make_world
    builds one per run).

    loads defaults to the placement's fixture counts (copied) when it
    carries them, otherwise to the loads computed from beta; given loads
    are kept as they are. Building checks the placement against the
    topology by check_coverage, as load_placement checks a document.
    Then, for every switch i of the topology:
    - delay[i][j] is i's delay to controller j, read once from i's search
      tree, where a switch's delay to itself is 0.0. It is the
      switch-side sum: the controller-side sum over the same path may
      differ in the last bit;
    - nearest[i] and cheapest[i] list every controller in (delay, id) and
      in (g[i] * delay, id) order (see _orders).
    For every controller j, own[j] is its own-domain load and union[j]
    the OR of its domain's masks (a switch without a row adds none; an
    instance with such a switch offline is refused).

    The loads must name every switch: a world refuses loads that miss
    one, naming the smallest, before it reads any order. A delay may be
    inf where link delays overflow, and a load negative where the caller
    gave one; the world keeps them.

    cleared says, decided once here, whether every instance of the world
    passes the loop over offline switches (_check_switches): every
    switch has a flow row in beta and a nonnegative load, and the sum
    over all switches, in ascending id, of load * largest delay to any
    controller is finite. That sum bounds every instance's running sum
    of the dearest overheads: tree delays are nonnegative, so each term
    is nonnegative and no smaller than the instance's term for the same
    switch, whose largest delay is over the active controllers alone; an
    instance's offline switches are an ascending subsequence of all
    switches; and float rounding is monotone. A finite sum also leaves
    every delay finite: an inf delay makes its term inf, or nan at a
    zero load, and neither is finite. build_instance runs the loop only
    on a world not cleared, where it names the first fault.
    """

    def __init__(self, topology: Topology, beta: BetaMatrix, placement: dm.Placement,
                 loads: dict[int, int] | None = None):
        dm.check_coverage(topology, placement.capacity, placement.domain_of)
        if loads is None:
            loads = (beta.loads() if placement.flow_counts is None
                     else dict(placement.flow_counts))
        missing = topology._index.keys() - loads.keys()
        if missing:
            raise InstanceError(f"switch {min(missing)} missing load or flow data")
        self.topology, self.beta, self.placement, self.g = topology, beta, placement, loads
        ids = placement.controller_ids
        at = [(j, topology._index[j]) for j in ids]
        masks = beta.masks
        self.delay: dict[int, dict[int, float]] = {}
        self.nearest: dict[int, tuple[int, ...]] = {}
        self.cheapest: dict[int, tuple[int, ...]] = {}
        cleared, dearest = True, 0.0
        for i in topology.node_ids():
            from_i = shortest_path_tree(topology, i).delay
            row = self.delay[i] = {j: from_i[k] for j, k in at}
            g = loads[i]
            self.nearest[i], self.cheapest[i] = _orders(ids, row, g)
            cleared = cleared and g >= 0 and i in masks
            dearest += g * max(row.values())
        self.cleared: bool = cleared and math.isfinite(dearest)
        self.own = dm.domain_loads(placement, loads)
        self.union: dict[int, int] = {}
        for j, sws in placement.domains.items():
            union = 0
            for i in sws:
                union |= masks.get(i, 0)
            self.union[j] = union

    def loads(self) -> dict[int, int]:
        """A copy of the per-switch loads g."""
        return dict(self.g)


def build_instance(t: Topology, b: BetaMatrix, p: dm.Placement, s: dm.FailureScenario,
                   q_fraction: float, loads: dict[int, int] | None = None,
                   world: World | None = None) -> OscmInstance:
    """Assemble the problem for one failure scenario from the world's
    controller facts, and hand b, the world's delay rows and the checked
    pieces to the instance's one fill step (OscmInstance._fill), which
    keeps the rows as they are: the instance shares World.delay and
    builds no delay pairs.

    world is the World of (t, b, p) and its loads, as make_world builds
    it; without one, the call builds one from loads, which defaults as a
    World's do. The scenario is checked once, by surviving_residuals,
    whose residuals are nonnegative and keyed by the active controllers.
    The instance shares the world's controller orders, and its flow
    union ORs the failed domains' unions.

    The constructor's per-key checks are not run: every key and pair is
    built here from the scenario. On a cleared world (see World) no
    instance can fail the constructor's loop over the offline switches,
    so the loop is skipped. On any other world the loop
    (_check_switches) reads the world's rows first, with its messages.
    It checks what such a world does not guarantee: a flow row in b, a
    nonnegative load (loads may come from the caller), finite delays (a
    tree delay sums link delays the topology loader checked, so it can
    only overflow to inf), and a finite running sum of the dearest
    overheads.
    """
    if not 0.0 <= q_fraction <= 1.0:
        raise InstanceError(f"q_fraction {q_fraction} outside [0, 1]")

    if world is None:
        world = World(t, b, p, loads)
    elif loads is not None or not (world.topology is t and world.beta is b
                                   and world.placement is p):
        raise InstanceError("a World serves only the topology, matrix and placement it was "
                            "built from, with its own loads")

    rest = dm.surviving_residuals(p, world.own, s)
    offline = dm.offline_switches(p, s)

    active = tuple(rest)
    if not world.cleared:
        _check_switches(offline, active, world.g, b.masks, world.delay)
    union = 0
    for c in s.failed:
        union |= world.union[c]
    # the quota reads the flow union; q_fraction is in [0, 1], so it is too
    return OscmInstance.__new__(OscmInstance)._fill(
        s.label(), offline, active, world.delay, {i: world.g[i] for i in offline}, rest, b,
        union, world.nearest, world.cheapest, math.ceil(q_fraction * union.bit_count()))


def validate(inst: OscmInstance, sol: Solution) -> ValidationReport:
    """Check every constraint family and report pass/fail per family;
    raise InstanceError first if sol is not indexed over inst."""
    y = sol.y
    switches = set(inst.offline_switches)
    if set(sol.x) != switches:
        raise InstanceError("solution x not indexed over the offline switches")
    if not set(sol.assigned) <= switches:
        raise InstanceError("solution assigns unknown switches")
    if not set(sol.assigned.values()) <= set(inst.active_controllers):
        raise InstanceError("solution assigns to unknown controllers")
    if not set(y) <= set(inst.flows):
        raise InstanceError("solution marks unknown flows programmable")

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
