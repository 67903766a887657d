"""Feasibility-preserving node addition and coupled elimination.

One search step: pick a random block and node, then either eliminate the
node (together with its coupled counterpart and everything on paths
between them) or insert a template after it.  Either way the result is
accepted only if the network stays inside the [min, max] Params/FLOPs
budget; after n_try failed attempts the step is a no-op.

Insertion templates are the minimal shape-restoring closures of their
head node, so a template can be spliced into any edge whose shape the head
op accepts (`ops.transfer` decides).  `TEMPLATES` is the one definition:

* single shape-preserving ops (Softmax ... RelPosBias) insert alone;
* Chunk2/Chunk3 insert with Concat2/Concat3 wired straight across;
* Copy inserts with Add or Multiply (two parallel empty branches);
* ConvExp4 with ConvRed4; GlobalAvg with UpSample;
* ConvChunk3 with the attention merge Matmul1 -> Softmax -> Matmul2.

Dimension-changing or multi-output ops never enter a graph alone, which
is what keeps every intermediate network valid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .cost import Budget, block_cost, skeleton_cost, transition_cost
from .errors import GraphError, InfeasibleEdit, StaleEdit
from .graph import (
    BlockGraph,
    Edge,
    INPUT,
    NodeShapes,
    OUTPUT,
    bfs_reachable,
    infer_shapes,
    predecessor_map,
    successor_map,
)
from .network import NetworkSpec
from .ops import COUPLED_ONLY, OP_INFO, Cost, OpKind, Shape, ZERO_COST, op_cost, transfer
from .rng import Rng


class Template(NamedTuple):
    """Ops by position: the entry is position 0 and the exit the last position.
    `wires` are internal edges (src pos, src port, dst pos, dst port) and
    `couple` the positions of the one couple group."""

    ops: tuple[OpKind, ...]
    wires: tuple[tuple[int, int, int, int], ...] = ()
    couple: tuple[int, ...] = ()


_PAIR = ((0, 0, 1, 0),)
_TWO_PORTS = ((0, 0, 1, 0), (0, 1, 1, 1))

TEMPLATES = {
    "softmax": Template((OpKind.SOFTMAX,)),
    "dropout": Template((OpKind.DROPOUT,)),
    "maxpool": Template((OpKind.MAXPOOL,)),
    "mask": Template((OpKind.MASK,)),
    "sigmoid": Template((OpKind.SIGMOID,)),
    "gelu": Template((OpKind.GELU,)),
    "conv1": Template((OpKind.CONV1,)),
    "conv3": Template((OpKind.CONV3,)),
    "convdepth3": Template((OpKind.CONV_DEPTH3,)),
    "convdepth5": Template((OpKind.CONV_DEPTH5,)),
    "batchnorm": Template((OpKind.BATCH_NORM,)),
    "layernorm": Template((OpKind.LAYER_NORM,)),
    "relposbias": Template((OpKind.REL_POS_BIAS,)),
    "chunk2_concat2": Template((OpKind.CHUNK2, OpKind.CONCAT2), _TWO_PORTS, (0, 1)),
    "chunk3_concat3": Template((OpKind.CHUNK3, OpKind.CONCAT3),
                               _TWO_PORTS + ((0, 2, 1, 2),), (0, 1)),
    "copy_add": Template((OpKind.COPY, OpKind.ADD), _TWO_PORTS, (0, 1)),
    "copy_multiply": Template((OpKind.COPY, OpKind.MULTIPLY), _TWO_PORTS, (0, 1)),
    "convexp4_convred4": Template((OpKind.CONV_EXP4, OpKind.CONV_RED4), _PAIR, (0, 1)),
    "globalavg_upsample": Template((OpKind.GLOBAL_AVG, OpKind.UP_SAMPLE), _PAIR, (0, 1)),
    "attention": Template(
        (OpKind.CONV_CHUNK3, OpKind.MATMUL1, OpKind.SOFTMAX, OpKind.MATMUL2),
        ((0, 0, 1, 0), (0, 1, 1, 1), (1, 0, 2, 0), (2, 0, 3, 0), (0, 2, 3, 1)),
        (0, 1, 3),
    ),
}

TEMPLATE_NAMES = tuple(TEMPLATES)


def template_feasible(name: str, shape: Shape) -> bool:
    """Whether the template splices into an edge of `shape`: its head op must
    accept the shape, and the rest restores it by construction."""
    try:
        transfer(TEMPLATES[name].ops[0], [shape])
    except GraphError:
        return False
    return True


@functools.lru_cache(maxsize=256)
def _feasible_templates(shape: Shape) -> tuple[str, ...]:
    # A pure function of the shape, asked on every add try; a walk meets few shapes.
    return tuple(name for name in TEMPLATE_NAMES if template_feasible(name, shape))


def _template_parts(name: str, ids: tuple[int, ...]):
    """ops, internal edges and couples of the template, with node ids by position."""
    if name not in TEMPLATES or len(ids) != len(TEMPLATES[name].ops):
        raise InfeasibleEdit(f"template {name!r} does not take node ids {ids}")
    t = TEMPLATES[name]
    edges = [Edge(ids[a], pa, ids[b], pb) for a, pa, b, pb in t.wires]
    group = [ids[p] for p in t.couple]
    return dict(zip(ids, t.ops)), edges, {v: tuple(u for u in group if u != v) for v in group}


@dataclass(frozen=True)
class Edit:
    kind: str                    # "add" | "eliminate"
    block_index: int
    anchor: int
    block_digest: str
    template: Optional[str] = None
    cut_edge: Optional[Edge] = None
    new_ids: tuple[int, ...] = ()
    doomed: tuple[int, ...] = ()
    bridge: Optional[Edge] = None

    def to_json(self) -> dict:
        d = {"kind": self.kind, "block": self.block_index, "anchor": self.anchor,
             "digest": self.block_digest}
        if self.kind == "add":
            d["template"] = self.template
            d["cut_edge"] = list(self.cut_edge)
            d["new_ids"] = list(self.new_ids)
        else:
            d["doomed"] = list(self.doomed)
            d["bridge"] = list(self.bridge)
        return d

    @staticmethod
    def from_json(d: dict) -> "Edit":
        if d["kind"] == "add":
            return Edit("add", d["block"], d["anchor"], d["digest"], template=d["template"],
                        cut_edge=Edge(*d["cut_edge"]), new_ids=tuple(d["new_ids"]))
        return Edit("eliminate", d["block"], d["anchor"], d["digest"],
                    doomed=tuple(d["doomed"]), bridge=Edge(*d["bridge"]))


@dataclass(frozen=True)
class SearchStepConfig:
    budget: Budget
    rng: Rng
    p_eliminate: float = 0.3
    n_try: int = 10

    def __post_init__(self):
        if not 0.0 <= self.p_eliminate <= 1.0:
            raise ValueError("p_eliminate must be in [0, 1]")
        if self.n_try < 1:
            raise ValueError("n_try must be >= 1")


def minimal_coupled_subgraph(block: BlockGraph, v: int) -> frozenset[int]:
    """The doomed node set for eliminating v.

    A lone shape-preserving node dooms only itself.  A coupled node dooms
    its whole couple group plus every node on any directed path between
    group members, iterated to a fixpoint so nested couples stay intact.
    """
    if v not in block.ops:
        raise InfeasibleEdit(f"node {v} is not an interior node")
    if v not in block.couples:
        if not OP_INFO[block.ops[v]].preserves_shape:
            raise InfeasibleEdit(f"node {v} ({block.ops[v].value}) changes shape but has no couple")
        return frozenset({v})
    succs = successor_map(block)
    preds = predecessor_map(block)
    doomed = {v, *block.couples[v]}
    while True:
        grown = set(doomed)
        for u in doomed:
            grown |= set(block.couples.get(u, ()))
        for a in list(grown):
            desc_a = bfs_reachable(succs, a)
            for b in list(grown):
                if a != b and b in desc_a:
                    grown |= desc_a & bfs_reachable(preds, b)
        if grown == doomed:
            return frozenset(doomed)
        doomed = grown


def _excise_boundary(block: BlockGraph, doomed: frozenset[int]) -> tuple[Edge, Edge]:
    """Unique entry and exit edges of the doomed set; InfeasibleEdit otherwise."""
    entries = [e for e in block.edges if e.src not in doomed and e.dst in doomed]
    exits = [e for e in block.edges if e.src in doomed and e.dst not in doomed]
    if len(entries) != 1 or len(exits) != 1:
        raise InfeasibleEdit(
            f"doomed set has {len(entries)} entry / {len(exits)} exit edges (want 1/1)"
        )
    return entries[0], exits[0]


def apply_block_edit(block: BlockGraph, edit: Edit) -> BlockGraph:
    if edit.block_digest != block.digest:
        raise StaleEdit("edit was proposed against a different block state")
    if edit.kind == "add":
        if edit.cut_edge not in block.edges:
            raise InfeasibleEdit(f"cut edge {edit.cut_edge} not present")
        for i in edit.new_ids:
            if i in block.ops or i in (INPUT, OUTPUT):
                raise InfeasibleEdit(f"node id {i} already in use")
        ops, internal, couples = _template_parts(edit.template, edit.new_ids)
        e = edit.cut_edge
        edges = [x for x in block.edges if x != e]
        edges.append(Edge(e.src, e.src_port, edit.new_ids[0], 0))
        edges.extend(internal)
        edges.append(Edge(edit.new_ids[-1], 0, e.dst, e.dst_port))
        new_ops = dict(block.ops)
        new_ops.update(ops)
        new_couples = dict(block.couples)
        new_couples.update(couples)
        next_id = max(block.next_id, max(edit.new_ids) + 1)
        return block.with_edges(edges, ops=new_ops, couples=new_couples, next_id=next_id)

    doomed = frozenset(edit.doomed)
    missing = doomed - set(block.ops)
    if missing:
        raise InfeasibleEdit(f"doomed nodes {sorted(missing)} not present")
    entry, exit_ = _excise_boundary(block, doomed)
    bridge = Edge(entry.src, entry.src_port, exit_.dst, exit_.dst_port)
    if edit.bridge != bridge:
        raise InfeasibleEdit(f"recorded bridge {edit.bridge} does not match {bridge}")
    edges = [e for e in block.edges if e.src not in doomed and e.dst not in doomed]
    edges.append(bridge)
    new_ops = {v: op for v, op in block.ops.items() if v not in doomed}
    new_couples = {}
    for v, partners in block.couples.items():
        if v in doomed:
            continue
        if any(p in doomed for p in partners):
            raise InfeasibleEdit(f"couple of surviving node {v} reaches into the doomed set")
        new_couples[v] = partners
    return block.with_edges(edges, ops=new_ops, couples=new_couples, next_id=block.next_id)


def apply(spec: NetworkSpec, edit: Edit) -> NetworkSpec:
    """New network with the edit applied; the original is untouched."""
    return spec.with_block(edit.block_index, apply_block_edit(spec.blocks[edit.block_index], edit))


def template_node_shapes(name: str, shape: Shape, ids: tuple[int, ...]) -> dict[int, NodeShapes]:
    """Inferred shapes of the template's nodes when spliced into an edge of `shape`."""
    scratch = BlockGraph.identity(shape)
    edit = Edit("add", 0, INPUT, scratch.digest, template=name,
                cut_edge=Edge(INPUT, 0, OUTPUT, 0), new_ids=ids)
    spliced = apply_block_edit(scratch, edit)
    shapes = infer_shapes(spliced)
    return {v: shapes[v] for v in ids}


class EditPatch(NamedTuple):
    """The ledger entries an edit changes."""

    block: Cost                         # change of the block total
    shapes: dict[int, NodeShapes]       # shapes of the added nodes
    removed: tuple[int, ...]            # ids of the removed nodes
    op_flops: dict[OpKind, int]         # FLOPs change per op, one entry per touched op
    transition: Optional[tuple[int, Cost]]  # (stage, new transition) when the first node changes


@dataclass
class CostState:
    """Incremental network cost bookkeeping for search drivers."""

    spec: NetworkSpec
    shapes: list[dict[int, NodeShapes]]
    block_totals: list[Cost]
    block_op_flops: list[dict[OpKind, int]]
    fixed_overhead: Cost            # stem + head
    transitions: list[Cost]         # pool + projection or fusion adjustment per stage

    @staticmethod
    def from_spec(spec: NetworkSpec) -> "CostState":
        shapes, totals, opflops = [], [], []
        for b in spec.blocks:
            s = infer_shapes(b)
            shapes.append(s)
            rep = block_cost(b, s)
            totals.append(rep.total)
            opflops.append(rep.per_op_flops())
        stem, transitions, head = skeleton_cost(spec)
        fixed = sum((c for _, c in stem + head), ZERO_COST)
        return CostState(spec, shapes, totals, opflops, fixed, [t.total for t in transitions])

    @property
    def total(self) -> Cost:
        return sum(self.transitions + self.block_totals, self.fixed_overhead)

    def network_op_flops(self) -> dict[OpKind, int]:
        acc: dict[OpKind, int] = {}
        for per in self.block_op_flops:
            for op, f in per.items():
                acc[op] = acc.get(op, 0) + f
        return acc

    def preview(self, edit: Edit) -> tuple[Cost, EditPatch]:
        """Signed network-total change of the edit, without applying it, and
        the patch that `after_edit` applies.

        Sound because templates restore the cut edge's shape and bridged
        eliminations preserve every surviving node's shapes, so only the
        touched nodes' entries change, plus the stage transition when the
        edit replaces the first node of a stage's leading block.
        """
        bi = edit.block_index
        block, shapes = self.spec.blocks[bi], self.shapes[bi]
        if edit.kind == "add":
            e = edit.cut_edge
            added = template_node_shapes(edit.template, shapes[e.src].out_shapes[e.src_port], edit.new_ids)
            touched = zip(TEMPLATES[edit.template].ops, added.values())
            sign, removed, entry = 1, (), e.src
            new_first = TEMPLATES[edit.template].ops[0]
        else:
            added, removed = {}, edit.doomed
            touched = [(block.ops[v], shapes[v]) for v in removed]
            sign, entry = -1, edit.bridge.src
            new_first = block.ops.get(edit.bridge.dst)
        change, op_flops = ZERO_COST, {}
        for op, ns in touched:
            params, flops = op_cost(op, ns.in_shapes, ns.out_shapes)
            change = change + Cost(sign * params, sign * flops)
            op_flops[op] = op_flops.get(op, 0) + sign * flops
        delta, transition = change, None
        si = self.spec.block_stage(bi)
        if entry == INPUT and self.spec.stage_first_positions()[si] == bi:
            transition = (si, transition_cost(self.spec, si, new_first).total)
            delta = delta + transition[1] - self.transitions[si]
        return delta, EditPatch(change, added, removed, op_flops, transition)

    def after_edit(self, new_spec: NetworkSpec, edit: Edit) -> "CostState":
        """State for new_spec, applying the edit's preview patch."""
        _, patch = self.preview(edit)
        bi = edit.block_index
        shapes, totals = list(self.shapes), list(self.block_totals)
        opflops, transitions = list(self.block_op_flops), list(self.transitions)
        block_shapes = shapes[bi] = dict(shapes[bi])
        for v in patch.removed:
            del block_shapes[v]
        block_shapes.update(patch.shapes)
        totals[bi] = totals[bi] + patch.block
        per_op = opflops[bi] = dict(opflops[bi])
        for op, f in patch.op_flops.items():
            per_op[op] = per_op.get(op, 0) + f
        if patch.transition is not None:
            transitions[patch.transition[0]] = patch.transition[1]
        return CostState(new_spec, shapes, totals, opflops, self.fixed_overhead, transitions)


def network_delta(state: CostState, edit: Edit) -> Cost:
    """Signed network-total change of the edit: the first half of `state.preview`."""
    return state.preview(edit)[0]


def propose_step(
    spec: NetworkSpec,
    cfg: SearchStepConfig,
    state: Optional[CostState] = None,
) -> Optional[Edit]:
    """One search step; returns an accepted Edit or None after n_try failures."""
    if state is None:
        state = CostState.from_spec(spec)
    total = state.total
    rng = cfg.rng
    for _ in range(cfg.n_try):
        bi = rng.randbelow(len(spec.blocks))
        block = spec.blocks[bi]
        # Anchor order: virtual input first, then interior nodes in creation
        # order (dict order), deterministic for a given edit history.
        anchors = [INPUT, *block.ops]
        v = anchors[rng.randbelow(len(anchors))]
        u = rng.uniform()
        if u < cfg.p_eliminate:
            if v == INPUT:
                continue
            try:
                doomed = minimal_coupled_subgraph(block, v)
                entry, exit_ = _excise_boundary(block, doomed)
            except InfeasibleEdit:
                continue
            edit = Edit(
                "eliminate", bi, v, block.digest,
                doomed=tuple(sorted(doomed)),
                bridge=Edge(entry.src, entry.src_port, exit_.dst, exit_.dst_port),
            )
            d = network_delta(state, edit)
            after = total + d
            if after.params >= cfg.budget.params_min and after.flops >= cfg.budget.flops_min:
                return edit
        else:
            outs = block.out_edges(v)
            e = outs[rng.randbelow(len(outs))]
            shape = state.shapes[bi][e.src].out_shapes[e.src_port]
            feasible = _feasible_templates(shape)
            name = feasible[rng.randbelow(len(feasible))]
            edit = Edit(
                "add", bi, v, block.digest, template=name, cut_edge=e,
                new_ids=tuple(range(block.next_id, block.next_id + len(TEMPLATES[name].ops))),
            )
            d = network_delta(state, edit)
            after = total + d
            if after.params <= cfg.budget.params_max and after.flops <= cfg.budget.flops_max:
                return edit
    return None


def rule_violations(
    block: BlockGraph,
    shapes: Optional[dict[int, NodeShapes]] = None,
    nodes=None,
) -> list[str]:
    """Check the four insertion feasibility rules on a concrete block.

    (a) RelPosBias only where sqrt(H) and sqrt(W) are integral, (b) Chunk2/
    Chunk3 only where C is divisible by 2/3, (c) ConvRed4 only where C is
    divisible by 4, (d) dimension-changing / multi-output nodes are coupled.
    Pass `nodes` to restrict the scan (e.g. to freshly inserted ids).
    """
    import math

    if shapes is None:
        shapes = infer_shapes(block)
    bad = []
    items = block.ops.items() if nodes is None else [(v, block.ops[v]) for v in nodes]
    for v, op in items:
        s = shapes[v].in_shapes[0]
        if op is OpKind.REL_POS_BIAS and (math.isqrt(s.h) ** 2 != s.h or math.isqrt(s.w) ** 2 != s.w):
            bad.append(f"rule a: node {v} RelPosBias at {s}")
        if op is OpKind.CHUNK2 and s.c % 2:
            bad.append(f"rule b: node {v} Chunk2 at C={s.c}")
        if op is OpKind.CHUNK3 and s.c % 3:
            bad.append(f"rule b: node {v} Chunk3 at C={s.c}")
        if op is OpKind.CONV_RED4 and s.c % 4:
            bad.append(f"rule c: node {v} ConvRed4 at C={s.c}")
        if op in COUPLED_ONLY and v not in block.couples:
            bad.append(f"rule d: node {v} ({op.value}) uncoupled")
    return bad
