"""Block graphs: a validated DAG of elementary operations.

A block is a directed acyclic multigraph between one virtual input node
(id 0) and one virtual output node (id 1).  Virtual nodes carry no op and
no cost; interior node ids are handed out monotonically and never reused
within one graph lineage.  Every output port feeds exactly one consumer
(fan-out is explicit via Copy), and the block's output shape must equal
its input shape.
"""

from __future__ import annotations

import hashlib
import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import filterfalse
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Optional

from .errors import CycleDetected, GraphError
from .ops import COUPLED_ONLY, OP_INFO, OpKind, Shape, transfer

INPUT = 0
OUTPUT = 1


class Edge(NamedTuple):
    src: int
    src_port: int
    dst: int
    dst_port: int


class NodeShapes(NamedTuple):
    in_shapes: tuple[Shape, ...]
    out_shapes: tuple[Shape, ...]


class Ports(NamedTuple):
    """node -> its in edges and its out edges, each list in port order (ties in edge order)."""

    ins: dict[int, list[Edge]]
    outs: dict[int, list[Edge]]


@dataclass(frozen=True)
class BlockGraph:
    """A labeled block graph that keeps its edge index, digest items and node
    shapes, each derived on first read or, in a child, from its parent's."""

    input_shape: Shape
    ops: dict[int, OpKind]                       # interior nodes only
    edges: tuple[Edge, ...]
    couples: dict[int, tuple[int, ...]]          # node -> coupled partners
    next_id: int = 2

    @staticmethod
    def identity(shape: Shape) -> "BlockGraph":
        shape = Shape(*shape).check()
        return BlockGraph(shape, {}, (Edge(INPUT, 0, OUTPUT, 0),), {})

    def out_edges(self, v: int) -> list[Edge]:
        return self.ports.outs.get(v, [])

    def first_interior(self) -> Optional[int]:
        """The unique successor of the virtual input; None for identity blocks."""
        out = self.out_edges(INPUT)
        if len(out) != 1:
            raise GraphError(f"virtual input must have exactly one out edge, found {len(out)}")
        nxt = out[0].dst
        return None if nxt == OUTPUT else nxt

    @cached_property
    def ports(self) -> Ports:
        """The edge index, kept with the block; every reader shares it, so none
        may modify it.  Built here for a root block from the edges stably sorted
        by port; `child_block` sets a child's from its parent's."""
        ins, outs = {}, {}
        for e in sorted(self.edges, key=itemgetter(1)):
            outs.setdefault(e.src, []).append(e)
        for e in sorted(self.edges, key=itemgetter(3)):
            ins.setdefault(e.dst, []).append(e)
        return Ports(ins, outs)

    @cached_property
    def shapes(self) -> dict[int, NodeShapes]:
        """The node shapes, shared by every reader, so none may modify them:
        `infer_shapes` for a root block; `child_block` sets a child's."""
        return infer_shapes(self)

    @cached_property
    def _digest_items(self) -> tuple[tuple[list, list[str]], ...]:
        """The digest payload's three sections (ops by id, edges, couples by
        id), each as its sorted keys and the repr of each item in that order.
        Built here from every item for a root block; `child_block` sets a
        child's from its parent's."""
        return tuple(_sorted_section(items) for items in _digest_sections(self.ops, self.edges, self.couples))

    @cached_property
    def digest(self) -> str:
        """Stable fingerprint of the labeled graph (ids, ops, edges, couples):
        sha256 of the repr of (input shape, sorted (id, op name) pairs, sorted
        edges, sorted (id, sorted partners) pairs).  A child from `child_block`
        carries its parent's item reprs, so only its edit's items are
        formatted anew."""
        ops, edges, couples = (", ".join(texts) for _, texts in self._digest_items)
        payload = f"({tuple(self.input_shape)!r}, [{ops}], [{edges}], [{couples}])"
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _digest_sections(ops: dict[int, OpKind], edges: Iterable[Edge], couples: dict[int, tuple[int, ...]]):
    """(sort key, repr) of every item of the three digest sections."""
    return ([(v, repr((v, op.value))) for v, op in ops.items()],
            [(e, repr(e)) for e in edges],
            [(v, repr((v, tuple(sorted(p))))) for v, p in couples.items()])


def _sorted_section(items: list[tuple]) -> tuple[list, list[str]]:
    items.sort(key=itemgetter(0))
    return [k for k, _ in items], [text for _, text in items]


def _resorted(section: tuple[list, list[str]], gone: Iterable, added: list[tuple]) -> tuple[list, list[str]]:
    """A copy of a sorted digest section with every item keyed in gone
    dropped and the added (key, repr) items inserted in order."""
    if not gone and not added:
        return section  # never modified, so shared
    keys, texts = list(section[0]), list(section[1])
    for k in gone:
        i, j = bisect_left(keys, k), bisect_right(keys, k)
        del keys[i:j], texts[i:j]
    for k, text in added:
        i = bisect_right(keys, k)
        keys.insert(i, k)
        texts.insert(i, text)
    return keys, texts


def _reindexed(index: dict[int, list[Edge]], end: int, gone: set[Edge], added: tuple[Edge, ...]) -> dict:
    """A copy of one side of an edge index (keyed by edge field `end`: 0 src,
    2 dst) with fresh lists for the nodes the gone and added edges touch, an
    added edge after those of its port or a lower one (field end + 1)."""
    index, port = dict(index), itemgetter(end + 1)
    for e in gone:
        kept = [*filterfalse(gone.__contains__, index.get(e[end], ()))]
        if kept:
            index[e[end]] = kept
        else:
            index.pop(e[end], None)
    for e in added:
        kept = index[e[end]] = [*index.get(e[end], ())]
        kept.insert(bisect_right(kept, e[end + 1], key=port), e)
    return index


def child_block(parent: BlockGraph, dropped: Iterable[int], removed: Iterable[Edge],
                ops: dict[int, OpKind], edges: tuple[Edge, ...],
                couples: dict[int, tuple[int, ...]], shapes: dict[int, NodeShapes]) -> BlockGraph:
    """The parent less the dropped nodes and the removed edges, plus the given
    ops, edges, couples entries and added nodes' shapes; next_id grows past
    the added ids.  The parent is left as it was.

    The child's edges are the parent's in order, less the removed ones, then
    the added ones.  Its edge index, digest items and node shapes are derived
    from the parent's (built first if the parent never had them), not rebuilt
    from every edge; the edit must leave every kept node's shapes as they were.
    """
    dropped, gone = tuple(dropped), set(removed)
    new_ops, new_couples, new_shapes = dict(parent.ops), dict(parent.couples), dict(parent.shapes)
    for v in dropped:
        new_ops.pop(v, None)
        new_couples.pop(v, None)
        new_shapes.pop(v, None)
    new_ops.update(ops)
    new_couples.update(couples)
    new_shapes.update(shapes)
    child = BlockGraph(parent.input_shape, new_ops, (*filterfalse(gone.__contains__, parent.edges), *edges),
                       new_couples, max(parent.next_id, max(ops, default=0) + 1))
    (ins, outs), cache = parent.ports, child.__dict__
    cache["ports"] = Ports(_reindexed(ins, 2, gone, edges), _reindexed(outs, 0, gone, edges))
    doomed = ((*dropped, *ops), gone, (*dropped, *couples))
    cache["_digest_items"] = tuple(map(_resorted, parent._digest_items, doomed,
                                       _digest_sections(ops, edges, couples)))
    cache["shapes"] = new_shapes
    return child


def bfs_reachable(step: Callable[[int], Iterable[int]], starts: Iterable[int]) -> set[int]:
    """Nodes reachable from any of starts by one step or more (a start only if
    another start or a cycle reaches it); step(v) gives v's next nodes."""
    seen: set[int] = set()
    frontier = list(starts)
    while frontier:
        nxt = []
        for v in frontier:
            for s in step(v):
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return seen


def topo_order(block: BlockGraph) -> list[int]:
    """Interior node ids in deterministic topological order (ties by id):
    in-degrees counted in one pass over the edges, then one id-keyed heap
    run over the edge index's out lists."""
    ops, outs = block.ops, block.ports.outs
    indeg = dict.fromkeys(ops, 0)
    for e in block.edges:
        if e.src in ops and e.dst in ops:
            indeg[e.dst] += 1
    ready = [v for v, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for e in outs.get(v, ()):
            s = e.dst
            if s in indeg:
                indeg[s] -= 1
                if indeg[s] == 0:
                    heapq.heappush(ready, s)
    if len(order) != len(ops):
        raise CycleDetected(f"{len(ops) - len(order)} nodes unreachable from a cycle-free order")
    return order


def infer_shapes(block: BlockGraph) -> dict[int, NodeShapes]:
    """Concrete shapes at every node; raises a typed error on any rule violation.

    The virtual input appears with its single out shape and the virtual
    output with its single in shape, so the block's output shape can be
    read off the OUTPUT entry.  One topological order and the block's one
    edge index (`BlockGraph.ports`) serve the whole inference.
    """
    return _infer_in_order(block, topo_order(block))


def _infer_in_order(block: BlockGraph, order: list[int]) -> dict[int, NodeShapes]:
    """infer_shapes along an order the caller has already computed."""
    producers: dict[tuple[int, int], Shape] = {(INPUT, 0): block.input_shape}
    result: dict[int, NodeShapes] = {INPUT: NodeShapes((), (block.input_shape,))}
    ops, in_edges = block.ops, block.ports.ins
    for v in order:
        op = ops[v]
        ins = []
        for e in in_edges.get(v, ()):
            key = e[:2]
            if key not in producers:
                raise GraphError(f"node {v}: input port {e.dst_port} fed by unresolved {key}")
            ins.append(producers[key])
        target = None
        if op is OpKind.UP_SAMPLE:  # restores the input size of its coupled GlobalAvg
            gavg = next((p for p in block.couples.get(v, ()) if ops.get(p) is OpKind.GLOBAL_AVG), None)
            if gavg not in result:
                raise GraphError(f"node {v}: UpSample has no resolved coupled GlobalAvg")
            target = result[gavg].in_shapes[0][1:]
        outs = transfer(op, ins, v, target)
        result[v] = NodeShapes(tuple(ins), outs)
        for port, s in enumerate(outs):
            producers[(v, port)] = s
    out_in = in_edges.get(OUTPUT, [])
    if len(out_in) != 1:
        raise GraphError(f"virtual output must have exactly one in edge, found {len(out_in)}")
    key = (out_in[0].src, out_in[0].src_port)
    if key not in producers:
        raise GraphError(f"virtual output fed by unresolved {key}")
    result[OUTPUT] = NodeShapes((producers[key],), ())
    return result


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def _expect(bad: list[str], v: int, ports: list[int], n_ports: int, kind: str) -> None:
    """Word why ports 0..n_ports-1 of v on one side do not carry one edge each
    and which lie outside; ports holds v's port of each edge there, in edge order."""
    counts: dict[int, int] = {}
    for p in ports:
        counts[p] = counts.get(p, 0) + 1
    for p in range(n_ports):
        n = counts.get(p, 0)
        if n != 1:
            bad.append(f"node {v} {kind} port {p}: {n} edges (want 1)")
    for p in counts:
        if not 0 <= p < n_ports:
            bad.append(f"node {v} {kind} port {p} out of range")


def _port_violations(block: BlockGraph) -> list[str]:
    """Every (node, port) the ops require is fed by exactly one edge on each
    side, and no other is: checked as set equality first, and worded node by
    node only when it fails."""
    ops, edges = block.ops, block.edges
    fed, feeding = {e[2:] for e in edges}, {e[:2] for e in edges}
    if len(fed) == len(feeding) == len(edges):
        infos = [(v, OP_INFO[op]) for v, op in ops.items()]
        want_in = {(v, p) for v, info in infos for p in range(info.in_arity)}
        want_out = {(v, p) for v, info in infos for p in range(info.out_arity)}
        want_in.add((OUTPUT, 0))
        want_out.add((INPUT, 0))
        if fed == want_in and feeding == want_out:
            return []
    bad = [f"edge {tuple(e)} references unknown node {v}"
           for e in edges for v in (e.src, e.dst) if v not in (INPUT, OUTPUT) and v not in ops]
    if bad:
        return bad
    in_ports, out_ports = {}, {}  # node -> its port of each edge on that side, in edge order
    for e in edges:
        out_ports.setdefault(e.src, []).append(e.src_port)
        in_ports.setdefault(e.dst, []).append(e.dst_port)
    _expect(bad, INPUT, out_ports.get(INPUT, []), 1, "output")
    _expect(bad, OUTPUT, in_ports.get(OUTPUT, []), 1, "input")
    if INPUT in in_ports:
        bad.append("virtual input has incoming edges")
    if OUTPUT in out_ports:
        bad.append("virtual output has outgoing edges")
    for v, op in ops.items():
        info = OP_INFO[op]
        _expect(bad, v, in_ports.get(v, []), info.in_arity, "input")
        _expect(bad, v, out_ports.get(v, []), info.out_arity, "output")
    return bad


def _couples_violations(block: BlockGraph, order: list[int]) -> list[str]:
    """Couple checks on an acyclic block with valid ports, given its topological order.

    An edge never goes back in the order, so one sweep from the last node
    to the first gives each node its descendants as a bitset over
    positions, and a directed path joins a pair iff the later node's bit is
    set in the earlier node's descendants.
    """
    bad = []
    ops, outs = block.ops, block.ports.outs
    position = {v: i for i, v in enumerate(order)}
    reach: dict[int, int] = {}
    for v in reversed(order):
        r = 0
        for e in outs.get(v, ()):
            if e.dst in ops:
                r |= reach[e.dst] | 1 << position[e.dst]
        reach[v] = r
    for v, partners in block.couples.items():
        if v not in ops:
            bad.append(f"couples entry references dead node {v}")
            continue
        for p in partners:
            if p not in ops:
                bad.append(f"couple {v}<->{p}: dead partner")
                continue
            if v not in block.couples.get(p, ()):
                bad.append(f"couple {v}->{p} is not symmetric")
            first, last = (v, p) if position[v] <= position[p] else (p, v)
            if not reach[first] >> position[last] & 1:
                bad.append(f"couple {v}<->{p}: no directed path between the pair")
    for v, op in ops.items():
        if op in COUPLED_ONLY and v not in block.couples:
            bad.append(f"node {v} ({op.value}) changes dimensions/fan-out but has no couple")
    return bad


def validate(block: BlockGraph) -> ValidationReport:
    """All invariant violations as data; empty report iff the block is feasible.

    One edge index (`BlockGraph.ports`) serves the port check, the
    topological order, the couple check and shape inference; the order is
    computed once and no adjacency map is built.  The whole block is
    checked on every call, and shapes are inferred from the block itself.
    """
    bad = _port_violations(block)
    if bad:
        return ValidationReport(tuple(bad))
    try:
        order = topo_order(block)
    except CycleDetected as exc:
        return ValidationReport((f"cycle: {exc}",))
    bad.extend(_couples_violations(block, order))
    try:
        shapes = _infer_in_order(block, order)
    except GraphError as exc:
        bad.append(f"shape inference failed: {exc}")
        return ValidationReport(tuple(bad))
    out_shape = shapes[OUTPUT].in_shapes[0]
    if out_shape != block.input_shape:
        bad.append(f"block output shape {out_shape} != input shape {block.input_shape}")
    return ValidationReport(tuple(bad))


def same_graph(a: BlockGraph, b: BlockGraph) -> bool:
    """Identical labeled graphs (ids, ops, edges, couples); next_id is ignored."""
    return (
        a.input_shape == b.input_shape
        and a.ops == b.ops
        and sorted(a.edges) == sorted(b.edges)
        and {v: tuple(sorted(p)) for v, p in a.couples.items()}
        == {v: tuple(sorted(p)) for v, p in b.couples.items()}
    )


class GraphAssembler:
    """Imperative construction helper used by the builders module."""

    def __init__(self, input_shape: Shape):
        self.input_shape = Shape(*input_shape).check()
        self.ops: dict[int, OpKind] = {}
        self.edges: list[Edge] = []
        self.couples: dict[int, list[int]] = {}
        self._next = 2

    def add(self, op: OpKind) -> int:
        v = self._next
        self._next += 1
        self.ops[v] = op
        return v

    def wire(self, src: int, src_port: int, dst: int, dst_port: int) -> None:
        self.edges.append(Edge(src, src_port, dst, dst_port))

    def chain(self, src: tuple[int, int], *ops: OpKind) -> int:
        """Wire a linear run of arity-1 ops starting from (node, port); returns last node."""
        node, port = src
        for op in ops:
            v = self.add(op)
            self.wire(node, port, v, 0)
            node, port = v, 0
        return node

    def couple(self, *nodes: int) -> None:
        for v in nodes:
            others = [u for u in nodes if u != v]
            self.couples.setdefault(v, []).extend(others)

    def finish(self) -> BlockGraph:
        return BlockGraph(
            self.input_shape,
            dict(self.ops),
            tuple(self.edges),
            {v: tuple(p) for v, p in self.couples.items()},
            self._next,
        )
