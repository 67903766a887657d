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


class Ports(NamedTuple):
    """node -> its in edges and its out edges, each list in edge order."""

    ins: dict[int, list[Edge]]
    outs: dict[int, list[Edge]]


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
        return sorted(self.ports.outs.get(v, ()), key=lambda e: e.src_port)

    def first_interior(self) -> Optional[int]:
        """The unique successor of the virtual input; None for identity blocks."""
        out = self.out_edges(INPUT)
        if len(out) != 1:
            raise GraphError(f"virtual input must have exactly one out edge, found {len(out)}")
        nxt = out[0].dst
        return None if nxt == OUTPUT else nxt

    @cached_property
    def ports(self) -> Ports:
        """The edge index, built in one pass over the edges and kept with the
        block; every reader shares it, so none may modify it."""
        ins: dict[int, list[Edge]] = {}
        outs: dict[int, list[Edge]] = {}
        for e in self.edges:
            outs.setdefault(e.src, []).append(e)
            ins.setdefault(e.dst, []).append(e)
        return Ports(ins, outs)

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


def _by_dst_port(edges: list[Edge]) -> list[Edge]:
    return sorted(edges, key=lambda e: e.dst_port) if len(edges) > 1 else edges


def successor_map(block: BlockGraph) -> dict[int, list[int]]:
    """Interior node -> interior successors, read off the edge index."""
    outs, ops = block.ports.outs, block.ops
    return {v: [e.dst for e in outs.get(v, ()) if e.dst in ops] for v in ops}


def predecessor_map(block: BlockGraph) -> dict[int, list[int]]:
    ins, ops = block.ports.ins, block.ops
    return {v: [e.src for e in ins.get(v, ()) if e.src in ops] for v in ops}


def bfs_reachable(adj: dict[int, list[int]], starts: Iterable[int], stop_at: Optional[int] = None) -> set[int]:
    """Nodes reachable from any of starts by one edge or more (a start only if
    another start or a cycle reaches it); early exit once stop_at is seen."""
    seen: set[int] = set()
    frontier = list(starts)
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
    succs = successor_map(block)
    indeg = dict.fromkeys(succs, 0)
    for lst in succs.values():
        for s in lst:
            indeg[s] += 1
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
    read off the OUTPUT entry.  One topological order and the block's one
    edge index (`BlockGraph.ports`) serve the whole inference.
    """
    return _infer_in_order(block, topo_order(block))


def upsample_source(block: BlockGraph, v: int, resolved: dict):
    """resolved[g] for the GlobalAvg g coupled to UpSample node v, whose input size v restores."""
    gavg = next((p for p in block.couples.get(v, ()) if block.ops.get(p) is OpKind.GLOBAL_AVG), None)
    if gavg is None or gavg not in resolved:
        raise GraphError(f"node {v}: UpSample has no resolved coupled GlobalAvg")
    return resolved[gavg]


def _infer_in_order(block: BlockGraph, order: list[int]) -> dict[int, NodeShapes]:
    """infer_shapes along an order the caller has already computed."""
    producers: dict[tuple[int, int], Shape] = {(INPUT, 0): block.input_shape}
    result: dict[int, NodeShapes] = {INPUT: NodeShapes((), (block.input_shape,))}
    in_edges = block.ports.ins
    for v in order:
        op = block.ops[v]
        ins = []
        for e in _by_dst_port(in_edges.get(v, [])):
            key = (e.src, e.src_port)
            if key not in producers:
                raise GraphError(f"node {v}: input port {e.dst_port} fed by unresolved {key}")
            ins.append(producers[key])
        target = upsample_source(block, v, result).in_shapes[0][1:] if op is OpKind.UP_SAMPLE else None
        outs = transfer(op, ins, node=v, upsample_target=target)
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
    """Ports 0..n_ports-1 of v on one side carry one edge each; ports holds
    the port of each of v's edges on that side, in edge order."""
    if ports == list(range(n_ports)):
        return
    counts: dict[int, int] = {}
    for p in ports:
        counts[p] = counts.get(p, 0) + 1
    for p in range(n_ports):
        n = counts.get(p, 0)
        if n != 1:
            bad.append(f"node {v} {kind} port {p}: {n} edges (want 1)")
    for p in counts:
        if p >= n_ports:
            bad.append(f"node {v} {kind} port {p} out of range")


def _port_violations(block: BlockGraph) -> list[str]:
    ops = block.ops
    bad = [f"edge {tuple(e)} references unknown node {v}"
           for e in block.edges for v in (e.src, e.dst) if v not in (INPUT, OUTPUT) and v not in ops]
    if bad:
        return bad
    ins, outs = block.ports
    _expect(bad, INPUT, [e.src_port for e in outs.get(INPUT, ())], 1, "output")
    _expect(bad, OUTPUT, [e.dst_port for e in ins.get(OUTPUT, ())], 1, "input")
    if INPUT in ins:
        bad.append("virtual input has incoming edges")
    if OUTPUT in outs:
        bad.append("virtual output has outgoing edges")
    for v, op in ops.items():
        info = OP_INFO[op]
        _expect(bad, v, [e.dst_port for e in ins.get(v, ())], info.in_arity, "input")
        _expect(bad, v, [e.src_port for e in outs.get(v, ())], info.out_arity, "output")
    return bad


def _couples_violations(block: BlockGraph, order: list[int]) -> list[str]:
    """Couple checks on an acyclic block with valid ports, given its topological order.

    An edge never goes back in the order, so a directed path between a
    pair can only start at the earlier node: one search from there answers
    it, once per unordered pair.
    """
    bad = []
    position = {v: i for i, v in enumerate(order)}
    succs = successor_map(block)
    joined: dict[tuple[int, int], bool] = {}
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
            first, last = (v, p) if position[v] <= position[p] else (p, v)
            if (first, last) not in joined:
                joined[first, last] = last in bfs_reachable(succs, (first,), stop_at=last)
            if not joined[first, last]:
                bad.append(f"couple {v}<->{p}: no directed path between the pair")
    for v, op in block.ops.items():
        if op in COUPLED_ONLY and v not in block.couples:
            bad.append(f"node {v} ({op.value}) changes dimensions/fan-out but has no couple")
    return bad


def validate(block: BlockGraph) -> ValidationReport:
    """All invariant violations as data; empty report iff the block is feasible.

    One edge index (`BlockGraph.ports`) serves the port check, the
    topological order, the couple check and shape inference, and the order
    is computed once.  Shapes are inferred from the block itself.
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
