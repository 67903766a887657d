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


def _kahn(indeg: dict[int, int], outs: dict[int, list[Edge]]):
    """Kahn's sweep from an id-keyed heap: the nodes keyed in indeg (node ->
    its in-degree from keyed nodes, counted down in place) in topological
    order, ties by id.  A node's successors in the edge index's out lists
    are released once the caller resumes; no node on or behind a cycle is
    yielded."""
    ready = [v for v, d in indeg.items() if not d]
    heapq.heapify(ready)
    while ready:
        v = heapq.heappop(ready)
        yield v
        for e in outs.get(v, ()):
            s = e.dst
            if s in indeg:
                indeg[s] -= 1
                if not indeg[s]:
                    heapq.heappush(ready, s)


def topo_order(block: BlockGraph) -> list[int]:
    """Interior node ids in deterministic topological order (ties by id):
    in-degrees counted in one pass over the edges, then one `_kahn` sweep."""
    ops = block.ops
    indeg = dict.fromkeys(ops, 0)
    for e in block.edges:
        if e.src in ops and e.dst in ops:
            indeg[e.dst] += 1
    order = list(_kahn(indeg, block.ports.outs))
    if len(order) != len(ops):
        raise _cycle(len(ops) - len(order))
    return order


def _cycle(unordered: int) -> CycleDetected:
    return CycleDetected(f"{unordered} nodes unreachable from a cycle-free order")


def infer_shapes(block: BlockGraph) -> dict[int, NodeShapes]:
    """Concrete shapes at every node; raises a typed error on any rule violation.

    The virtual input appears with its single out shape and the virtual
    output with its single in shape, so the block's output shape can be
    read off the OUTPUT entry.  One topological order and the block's one
    edge index (`BlockGraph.ports`) serve the whole inference, which also
    reads blocks whose ports `validate` would refuse.
    """
    made = {INPUT: (block.input_shape,)}  # node -> its out shapes
    result = {INPUT: NodeShapes((), made[INPUT])}
    ops, in_edges = block.ops, block.ports.ins
    for v in topo_order(block):
        op = ops[v]
        ins = []
        for e in in_edges.get(v, ()):
            outs = made.get(e.src, ())
            if not 0 <= e.src_port < len(outs):
                raise GraphError(f"node {v}: input port {e.dst_port} fed by unresolved {e[:2]}")
            ins.append(outs[e.src_port])
        target = _upsample_target(block, v, made) if op is OpKind.UP_SAMPLE else None
        made[v] = transfer(op, ins, v, target)
        result[v] = NodeShapes(tuple(ins), made[v])
    out_in = in_edges.get(OUTPUT, [])
    if len(out_in) != 1:
        raise GraphError(f"virtual output must have exactly one in edge, found {len(out_in)}")
    e = out_in[0]
    outs = made.get(e.src, ())
    if not 0 <= e.src_port < len(outs):
        raise GraphError(f"virtual output fed by unresolved {e[:2]}")
    result[OUTPUT] = NodeShapes((outs[e.src_port],), ())
    return result


def _upsample_target(block: BlockGraph, v: int, made: dict[int, tuple[Shape, ...]]) -> tuple[int, int]:
    """The H, W that UpSample v restores: the input size of its coupled
    GlobalAvg, which must already be in made (node -> its out shapes)."""
    gavg = next((p for p in block.couples.get(v, ()) if block.ops.get(p) is OpKind.GLOBAL_AVG), None)
    if gavg not in made:
        raise GraphError(f"node {v}: UpSample has no resolved coupled GlobalAvg")
    e = block.ports.ins[gavg][0]
    return made[e.src][e.src_port][1:]


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


# op -> the ports its in edges and its out edges must carry, 0..n-1 on each side
_WANT_PORTS = {op: ([*range(info.in_arity)], [*range(info.out_arity)]) for op, info in OP_INFO.items()}


def _expect(bad: list[str], block: BlockGraph, v: int, edges: list[Edge], want: list[int], kind: str) -> None:
    """Word how v's edges on one side, in port order (ties in edge order),
    differ from one edge on each port of want: each such port not fed once,
    then each port outside want in the order of its first edge."""
    port = 3 if kind == "input" else 1
    ports = [e[port] for e in edges]
    for p in want:
        n = ports.count(p)
        if n != 1:
            bad.append(f"node {v} {kind} port {p}: {n} edges (want 1)")
    first: dict[int, Edge] = {}  # port outside want -> its first edge
    for e in edges:
        if not 0 <= e[port] < len(want):
            first.setdefault(e[port], e)
    for e in sorted(first.values(), key=block.edges.index):
        bad.append(f"node {v} {kind} port {e[port]} out of range")


def _port_violations(block: BlockGraph) -> list[str]:
    """Every port the ops require is fed by exactly one edge on each side,
    and no other is: one pass over the block's edge index, whose lists are
    in port order, so a side is valid exactly when its ports are 0..n-1.
    Only a side that differs is worded; edges to unknown nodes come alone."""
    ops, (ins, outs) = block.ops, block.ports
    if not (ins.keys() | outs.keys()) - ops.keys() <= {INPUT, OUTPUT}:
        return [f"edge {tuple(e)} references unknown node {v}"
                for e in block.edges for v in (e.src, e.dst) if v not in (INPUT, OUTPUT) and v not in ops]
    bad = []
    _expect(bad, block, INPUT, outs.get(INPUT, []), [0], "output")
    _expect(bad, block, OUTPUT, ins.get(OUTPUT, []), [0], "input")
    if INPUT in ins:
        bad.append("virtual input has incoming edges")
    if OUTPUT in outs:
        bad.append("virtual output has outgoing edges")
    for v, op in ops.items():  # ports read as e[3] (dst_port) and e[1] (src_port): by name costs more
        want_in, want_out = _WANT_PORTS[op]
        edges = ins.get(v, [])
        if [e[3] for e in edges] != want_in:
            _expect(bad, block, v, edges, want_in, "input")
        edges = outs.get(v, [])
        if [e[1] for e in edges] != want_out:
            _expect(bad, block, v, edges, want_out, "output")
    return bad


def validate(block: BlockGraph) -> ValidationReport:
    """All invariant violations as data; empty report iff the block is feasible.

    The port check comes first; once it passes, the id-keyed `_kahn` sweep
    that `topo_order` runs over the block's edge index (`BlockGraph.ports`)
    gives the topological order, each node's ancestors and the node shapes
    together, so the order is computed once and no adjacency map is built.
    The whole block is checked on every call, and shapes are inferred from
    the block itself.
    """
    bad = _port_violations(block)
    if bad:
        return ValidationReport(tuple(bad))
    ops, couples, (ins, outs) = block.ops, block.couples, block.ports
    # Valid ports feed each interior node once per input port, and INPUT
    # feeds exactly one node, so the in-degrees over interior edges follow
    # from the ops alone.
    indeg = {v: OP_INFO[op].in_arity for v, op in ops.items()}
    first = outs[INPUT][0].dst
    if first != OUTPUT:
        indeg[first] -= 1
    # anc: node -> a bitset of itself (bit 1 << its place in the order) and
    # its ancestors; made: node -> its out shapes, until a shape rule fails.
    anc, made, failed = {INPUT: 0}, {INPUT: (block.input_shape,)}, None
    up_sample = OpKind.UP_SAMPLE  # read once: an enum member lookup costs more than the test
    for v in _kahn(indeg, outs):
        edges, a = ins[v], 1 << len(anc)
        if failed is None:
            args = []
            for e in edges:
                a |= anc[e.src]
                args.append(made[e.src][e.src_port])
            op = ops[v]
            try:
                target = _upsample_target(block, v, made) if op is up_sample else None
                made[v] = transfer(op, args, v, target)
            except GraphError as exc:
                failed = f"shape inference failed: {exc}"
        else:
            for e in edges:
                a |= anc[e.src]
        anc[v] = a
    if len(anc) <= len(ops):
        return ValidationReport((f"cycle: {_cycle(len(ops) + 1 - len(anc))}",))
    # A directed path joins v and p != v iff one's ancestors hold the other's
    # bit, that is, iff one's bitset contains the other's.
    for v, partners in couples.items():
        if v not in ops:
            bad.append(f"couples entry references dead node {v}")
            continue
        for p in partners:
            if p not in ops:
                bad.append(f"couple {v}<->{p}: dead partner")
                continue
            if v not in couples.get(p, ()):
                bad.append(f"couple {v}->{p} is not symmetric")
            joined = anc[v] | anc[p]
            if v == p or joined != anc[v] and joined != anc[p]:
                bad.append(f"couple {v}<->{p}: no directed path between the pair")
    for v, op in ops.items():
        if op in COUPLED_ONLY and v not in couples:
            bad.append(f"node {v} ({op.value}) changes dimensions/fan-out but has no couple")
    if failed is not None:
        bad.append(failed)
        return ValidationReport(tuple(bad))
    e = ins[OUTPUT][0]
    out_shape = made[e.src][e.src_port]
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
