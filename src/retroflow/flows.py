"""Flow population and per-switch programmability.

A switch can reprogram a flow when it sits on the flow's path, is not the
flow's destination, and keeps an alternative route to that destination.
Per-switch load counts exactly those reprogrammable flows.
"""

from __future__ import annotations

from collections.abc import Iterable
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


def index_flows(rows: dict[int, Iterable[int]]) -> BetaMatrix:
    """The matrix of rows (switch -> flow ids) over one flow index: ids
    lists every flow id of rows once, ascending, and masks[switch] has bit
    k set when ids[k] is in the switch's row.

    Bit k is the rank of a flow id, never the id itself: an id may be any
    whole number, negative or beyond any shift. Each mask ORs one shifted
    bit per flow id of its row, so indexing costs O(β entries) shifts; the
    id-to-rank dict lives only while the masks are built.
    """
    ids = tuple(sorted(set().union(*rows.values())))
    rank = {l: k for k, l in enumerate(ids)}
    masks = {}
    for key, row in rows.items():
        mask = 0
        for l in row:
            mask |= 1 << rank[l]
        masks[key] = mask
    return BetaMatrix(masks, ids)


# each step of _set_bits costs O(mask length), so walking the bits beats
# a scan of the whole index only for a few of them: measured, up to about
# one bit in ten ids on small indexes and 30 to 150 bits on large ones
_SPARSE_BITS = 32


def flows_of(mask: int, ids: tuple[int, ...]) -> tuple[int, ...]:
    """The flow ids whose bits are set in mask, ascending; ids is the index
    the mask was built over (see index_flows). A mask with few bits against
    the index walks its set bits; any other is decoded by one scan of the
    index."""
    if mask.bit_count() <= min(_SPARSE_BITS, len(ids) >> 4):
        return _set_bits(mask, ids)
    return tuple(compress(ids, format(mask, "b")[::-1].encode().translate(_BITS)))


def _set_bits(mask: int, ids: tuple[int, ...]) -> tuple[int, ...]:
    """flows_of by walking mask's set bits, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(ids[low.bit_length() - 1])
        mask ^= low
    return tuple(out)


class BetaMatrix:
    """Programmability indicators and the per-switch loads they induce.

    masks[i] has bit k set when switch i can reprogram flow ids[k]; rows
    of flow ids become a matrix through index_flows. A switch's flow ids
    are decoded on its first flows_at and kept for the matrix's life; the
    loads are counted once.
    """

    def __init__(self, masks: dict[int, int], ids: tuple[int, ...]):
        self.masks, self.ids = masks, ids
        self._rows: dict[int, frozenset[int]] = {}
        self._loads = {i: m.bit_count() for i, m in masks.items()}

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
    reaches through nodes of its own component. One walk of the tree's
    parent map in reverse settle order, children before parents, collects
    them: the destinations below u through a child v of u's component are
    v and those below v. No Path is built.
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
        for v, u in reversed(shortest_path_tree(t, src).parent.items()):
            if component[u] == component[v]:
                below[u] = below.get(u, 0) | bit[v] | below.get(v, 0)
        shift = s * (n - 1)
        for u, m in below.items():
            masks[u] |= m << shift
    # a tuple, not a range: every decoded row then shares one int object
    # per flow id, and set operations across rows match ids by identity
    return BetaMatrix(masks, tuple(range(n * (n - 1))))


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
    return index_flows(rows)
