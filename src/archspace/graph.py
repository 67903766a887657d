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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

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


@dataclass(frozen=True)
class BlockGraph:
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
        return sorted((e for e in self.edges if e.src == v), key=lambda e: e.src_port)

    def first_interior(self) -> Optional[int]:
        """The unique successor of the virtual input; None for identity blocks."""
        out = self.out_edges(INPUT)
        if len(out) != 1:
            raise GraphError(f"virtual input must have exactly one out edge, found {len(out)}")
        nxt = out[0].dst
        return None if nxt == OUTPUT else nxt

    def with_edges(self, edges: Iterable[Edge], ops=None, couples=None, next_id=None) -> "BlockGraph":
        return BlockGraph(
            self.input_shape,
            dict(self.ops) if ops is None else ops,
            tuple(edges),
            dict(self.couples) if couples is None else couples,
            self.next_id if next_id is None else next_id,
        )

    @cached_property
    def digest(self) -> str:
        """Stable fingerprint of the labeled graph (ids, ops, edges, couples)."""
        payload = repr((
            tuple(self.input_shape),
            sorted((v, op.value) for v, op in self.ops.items()),
            sorted(self.edges),
            sorted((v, tuple(sorted(p))) for v, p in self.couples.items()),
        ))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def in_adjacency(block: BlockGraph) -> dict[int, list[Edge]]:
    """dst node -> in edges sorted by dst_port, built in one pass."""
    adj: dict[int, list[Edge]] = {}
    for e in block.edges:
        adj.setdefault(e.dst, []).append(e)
    for lst in adj.values():
        lst.sort(key=lambda e: e.dst_port)
    return adj


def successor_map(block: BlockGraph) -> dict[int, list[int]]:
    """Interior node -> interior successors, one pass over the edges."""
    succs: dict[int, list[int]] = {v: [] for v in block.ops}
    for e in block.edges:
        if e.src in succs and e.dst in succs:
            succs[e.src].append(e.dst)
    return succs


def predecessor_map(block: BlockGraph) -> dict[int, list[int]]:
    preds: dict[int, list[int]] = {v: [] for v in block.ops}
    for e in block.edges:
        if e.src in preds and e.dst in preds:
            preds[e.dst].append(e.src)
    return preds


def bfs_reachable(adj: dict[int, list[int]], start: int, stop_at: Optional[int] = None) -> set[int]:
    """Nodes reachable from start (excl. start); early exit once stop_at is seen."""
    seen: set[int] = set()
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for s in adj.get(v, ()):
                if s not in seen:
                    seen.add(s)
                    if s == stop_at:
                        return seen
                    nxt.append(s)
        frontier = nxt
    return seen


def topo_order(block: BlockGraph) -> list[int]:
    """Interior node ids in deterministic topological order (ties by id)."""
    indeg = {v: 0 for v in block.ops}
    succs: dict[int, list[int]] = {v: [] for v in block.ops}
    for e in block.edges:
        if e.dst in indeg and e.src != INPUT:
            if e.src in succs:
                succs[e.src].append(e.dst)
                indeg[e.dst] += 1
    ready = [v for v, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for s in succs[v]:
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(ready, s)
    if len(order) != len(block.ops):
        raise CycleDetected(f"{len(block.ops) - len(order)} nodes unreachable from a cycle-free order")
    return order


def infer_shapes(block: BlockGraph) -> dict[int, NodeShapes]:
    """Concrete shapes at every node; raises a typed error on any rule violation.

    The virtual input appears with its single out shape and the virtual
    output with its single in shape, so the block's output shape can be
    read off the OUTPUT entry.
    """
    producers: dict[tuple[int, int], Shape] = {(INPUT, 0): block.input_shape}
    result: dict[int, NodeShapes] = {INPUT: NodeShapes((), (block.input_shape,))}
    in_adj = in_adjacency(block)
    for v in topo_order(block):
        op = block.ops[v]
        ins = []
        for e in in_adj.get(v, ()):
            key = (e.src, e.src_port)
            if key not in producers:
                raise GraphError(f"node {v}: input port {e.dst_port} fed by unresolved {key}")
            ins.append(producers[key])
        target = None
        if op is OpKind.UP_SAMPLE:
            partners = block.couples.get(v, ())
            gavg = next((p for p in partners if block.ops.get(p) is OpKind.GLOBAL_AVG), None)
            if gavg is None or gavg not in result:
                raise GraphError(f"node {v}: UpSample has no resolved coupled GlobalAvg")
            src = result[gavg].in_shapes[0]
            target = (src.h, src.w)
        outs = transfer(op, ins, node=v, upsample_target=target)
        result[v] = NodeShapes(tuple(ins), outs)
        for port, s in enumerate(outs):
            producers[(v, port)] = s
    out_in = in_adj.get(OUTPUT, [])
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


def _port_violations(block: BlockGraph) -> list[str]:
    bad = []
    seen_out: dict[tuple[int, int], int] = {}
    seen_in: dict[tuple[int, int], int] = {}
    for e in block.edges:
        for v in (e.src, e.dst):
            if v not in (INPUT, OUTPUT) and v not in block.ops:
                bad.append(f"edge {tuple(e)} references unknown node {v}")
        seen_out[(e.src, e.src_port)] = seen_out.get((e.src, e.src_port), 0) + 1
        seen_in[(e.dst, e.dst_port)] = seen_in.get((e.dst, e.dst_port), 0) + 1
    if bad:
        return bad

    def expect(counter, v, n_ports, kind):
        for p in range(n_ports):
            n = counter.get((v, p), 0)
            if n != 1:
                bad.append(f"node {v} {kind} port {p}: {n} edges (want 1)")
        for (node, p), n in counter.items():
            if node == v and p >= n_ports:
                bad.append(f"node {v} {kind} port {p} out of range")

    expect(seen_out, INPUT, 1, "output")
    expect(seen_in, OUTPUT, 1, "input")
    if any(key[0] == INPUT for key in seen_in):
        bad.append("virtual input has incoming edges")
    if any(key[0] == OUTPUT for key in seen_out):
        bad.append("virtual output has outgoing edges")
    for v, op in block.ops.items():
        info = OP_INFO[op]
        expect(seen_in, v, info.in_arity, "input")
        expect(seen_out, v, info.out_arity, "output")
    return bad


def _couples_violations(block: BlockGraph) -> list[str]:
    bad = []
    succs = successor_map(block)
    for v, partners in block.couples.items():
        if v not in block.ops:
            bad.append(f"couples entry references dead node {v}")
            continue
        for p in partners:
            if p not in block.ops:
                bad.append(f"couple {v}<->{p}: dead partner")
                continue
            if v not in block.couples.get(p, ()):
                bad.append(f"couple {v}->{p} is not symmetric")
            if p not in bfs_reachable(succs, v, stop_at=p) and v not in bfs_reachable(succs, p, stop_at=v):
                bad.append(f"couple {v}<->{p}: no directed path between the pair")
    for v, op in block.ops.items():
        if op in COUPLED_ONLY and v not in block.couples:
            bad.append(f"node {v} ({op.value}) changes dimensions/fan-out but has no couple")
    return bad


def validate(block: BlockGraph) -> ValidationReport:
    """All invariant violations as data; empty report iff the block is feasible."""
    bad = _port_violations(block)
    if bad:
        return ValidationReport(tuple(bad))
    try:
        topo_order(block)
    except CycleDetected as exc:
        return ValidationReport((f"cycle: {exc}",))
    bad.extend(_couples_violations(block))
    try:
        shapes = infer_shapes(block)
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
