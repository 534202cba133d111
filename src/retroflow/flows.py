"""Flow population and per-switch programmability.

A switch can reprogram a flow when it sits on the flow's path, is not the
flow's destination, and keeps an alternative route to that destination.
Per-switch load counts exactly those reprogrammable flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .geo import Path, Topology, has_alternative_path, shortest_path, shortest_path_tree


@dataclass(frozen=True, slots=True)
class Flow:
    flow_id: int
    src: int
    dst: int
    path: Path

    def __post_init__(self):
        if self.src == self.dst:
            raise ValueError(f"flow {self.flow_id}: src equals dst")
        if self.path.node_ids[0] != self.src or self.path.node_ids[-1] != self.dst:
            raise ValueError(f"flow {self.flow_id}: path does not join src to dst")


# '0' -> 0 and '1' -> 1, so a binary numeral selects items for compress
_BITS = bytes.maketrans(b"01", b"\0\1")


def index_flows(rows: dict[int, frozenset[int]]) -> tuple[tuple[int, ...], dict[int, int]]:
    """Flow sets as int bitmasks over one flow index: (ids, masks), where
    ids lists every flow id of rows once, ascending, and masks[key] has
    bit k set when ids[k] is in rows[key].

    Bit k is the rank of a flow id, never the id itself: an id may be any
    whole number, negative or beyond any shift. The id-to-rank dict lives
    only while the masks are built.
    """
    ids = tuple(sorted(set().union(*rows.values())))
    rank = {l: k for k, l in enumerate(ids)}
    masks = {}
    for key, row in rows.items():
        # digit k is bit k; reversed, the digits read as a binary numeral
        digits = bytearray(b"0") * len(ids)
        for l in row:
            digits[rank[l]] = 49  # ord("1")
        digits.reverse()
        masks[key] = int(digits or b"0", 2)
    return ids, masks


def flows_of(mask: int, ids: tuple[int, ...]) -> tuple[int, ...]:
    """The flow ids whose bits are set in mask, ascending; ids is the index
    the mask was built over (see index_flows)."""
    return tuple(compress(ids, format(mask, "b")[::-1].encode().translate(_BITS)))


class BetaMatrix:
    """Programmability indicators and the per-switch loads they induce.

    masks[i] has bit k set when switch i can reprogram flow ids[k] (see
    index_flows). A switch's flow ids are decoded on its first flows_at
    and kept for the matrix's life; the loads are counted once.
    """

    def __init__(self, rows: dict[int, frozenset[int]], switch_ids):
        self._rows = {i: frozenset(rows.get(i, frozenset())) for i in switch_ids}
        self.ids, self.masks = index_flows(self._rows)
        self._loads = {i: len(fls) for i, fls in self._rows.items()}

    @classmethod
    def _of_masks(cls, masks: dict[int, int], ids) -> "BetaMatrix":
        """The matrix whose rows are the bits of masks over the index ids;
        no row is decoded until it is read."""
        b = cls.__new__(cls)
        b._rows, b.ids, b.masks = {}, ids, masks
        b._loads = {i: m.bit_count() for i, m in masks.items()}
        return b

    def flows_at(self, switch_id: int) -> frozenset[int]:
        row = self._rows.get(switch_id)
        if row is None:
            try:
                mask = self.masks[switch_id]
            except KeyError:
                raise KeyError(f"unknown switch {switch_id}") from None
            # through a set, whose table is sized as compute_beta's rows are
            row = self._rows[switch_id] = frozenset(set(flows_of(mask, self.ids)))
        return row

    def loads(self) -> dict[int, int]:
        return dict(self._loads)


def programmability(t: Topology) -> BetaMatrix:
    """The matrix compute_beta(generate_flows(t), t) builds, with bit k
    standing for flow id k itself, from one shortest-path tree per source
    and no per-pair query.

    Switch i can reprogram flow src->dst when i is on the path, is not
    dst, and lies in dst's 2-edge-connected component. A simple path
    between two nodes of one component never leaves it, so the flows i
    can reprogram from src are its descendants in src's tree that it
    reaches through nodes of its own component. One walk of the tree,
    children before parents, collects them: the destinations below u
    through a child v of u's component are v and those below v.
    """
    ids = t.node_ids()
    n = len(ids)
    component = t._component
    masks = dict.fromkeys(ids, 0)
    for s, src in enumerate(ids):
        # flow ids run in (src, dst) order, so dst's bit among src's n - 1
        # flows is its position with src left out
        bit = {dst: 1 << (k - (k > s)) for k, dst in enumerate(ids)}
        below: dict[int, int] = {}
        for v, path in reversed(shortest_path_tree(t, src).items()):
            if v == src:
                continue
            u = path.node_ids[-2]
            if component[u] == component[v]:
                below[u] = below.get(u, 0) | bit[v] | below.get(v, 0)
        shift = s * (n - 1)
        for u, m in below.items():
            masks[u] |= m << shift
    # a tuple, not a range: every decoded row then shares one int object
    # per flow id, and set operations across rows match ids by identity
    return BetaMatrix._of_masks(masks, tuple(range(n * (n - 1))))


def generate_flows(t: Topology) -> tuple[Flow, ...]:
    """One flow per ordered node pair src->dst on its shortest path, so a
    topology with n nodes yields n*(n-1) flows. Flow ids follow (src, dst)
    lexicographic order from 0.
    """
    ids = t.node_ids()
    pairs = ((src, dst) for src in ids for dst in ids if src != dst)
    return tuple(Flow(fid, src, dst, shortest_path(t, src, dst))
                 for fid, (src, dst) in enumerate(pairs))


def compute_beta(flows: tuple[Flow, ...], t: Topology) -> BetaMatrix:
    """Indicator per (switch, flow): on the path, not the destination, and
    with an alternative route to the destination.

    The route check depends only on (switch, destination), so it is asked
    once per pair and kept per destination for every later flow to it.
    """
    rows: dict[int, set[int]] = {i: set() for i in t.node_ids()}
    alternative: dict[int, dict[int, bool]] = {}
    for f in flows:
        known = alternative.setdefault(f.dst, {})
        for i in f.path.node_ids[:-1]:
            ok = known.get(i)
            if ok is None:
                ok = known[i] = has_alternative_path(t, i, f.dst)
            if ok:
                rows[i].add(f.flow_id)
    return BetaMatrix({i: frozenset(s) for i, s in rows.items()}, t.node_ids())
