"""Feasibility-preserving node addition and coupled elimination.

One search step: pick a random block and node, then either eliminate the
node (together with its coupled counterpart and everything on paths
between them) or insert a template after it.  Either way the result is
accepted only if the network stays inside the [min, max] Params/FLOPs
budget; after n_try failed attempts the step is a no-op.

Insertion templates are the minimal shape-restoring closures of their
head node, so a template can be spliced into any edge whose shape the head
op accepts (`ops.transfer` decides).  `TEMPLATES` is derived from the op
rows (`ops.OP_INFO`): every shape-preserving op inserts alone, named by its
lower-cased name (MaxPool2d as ``maxpool``); six head -> tail pairs wire the
head's output ports straight across and couple the two (Chunk2/3 with
Concat2/3, Copy with Add or Multiply, ConvExp4 with ConvRed4, GlobalAvg with
UpSample); only the attention core, ConvChunk3 with Matmul1 -> Softmax ->
Matmul2, is a literal.

Dimension-changing or multi-output ops never enter a graph alone, which
is what keeps every intermediate network valid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .cost import Budget, block_cost_at, skeleton_cost, transition_cost
from .errors import FormatError, GraphError, InfeasibleEdit, StaleEdit, check_at_least
from .graph import (
    BlockGraph,
    Edge,
    INPUT,
    NodeShapes,
    OUTPUT,
    bfs_reachable,
    child_block,
    infer_shapes,
)
from .network import NetworkSpec
from .ops import COUPLED_ONLY, OP_INFO, Cost, OpKind, Shape, ZERO_COST, op_cost, transfer
from .rng import Rng
from .serialize import json_int, json_ints


class Template(NamedTuple):
    """Ops by position: the entry is position 0 and the exit the last position.
    `wires` are internal edges (src pos, src port, dst pos, dst port) and
    `couple` the positions of the one couple group."""

    ops: tuple[OpKind, ...]
    wires: tuple[tuple[int, int, int, int], ...] = ()
    couple: tuple[int, ...] = ()


def _name(op: OpKind) -> str:
    return "maxpool" if op is OpKind.MAXPOOL else op.value.lower()  # the log name predates "2d"


def _pair(head: OpKind, tail: OpKind) -> tuple[str, Template]:
    """head -> tail, the head's output ports wired straight across to the
    tail's inputs, the two coupled; named head_tail."""
    wires = tuple((0, p, 1, p) for p in range(OP_INFO[head].out_arity))
    return f"{_name(head)}_{_name(tail)}", Template((head, tail), wires, (0, 1))


TEMPLATES = dict([
    *((_name(op), Template((op,))) for op, info in OP_INFO.items() if info.preserves_shape),
    *(_pair(head, tail) for head, tail in (
        (OpKind.CHUNK2, OpKind.CONCAT2), (OpKind.CHUNK3, OpKind.CONCAT3), (OpKind.COPY, OpKind.ADD),
        (OpKind.COPY, OpKind.MULTIPLY), (OpKind.CONV_EXP4, OpKind.CONV_RED4),
        (OpKind.GLOBAL_AVG, OpKind.UP_SAMPLE))),
    ("attention", Template(
        (OpKind.CONV_CHUNK3, OpKind.MATMUL1, OpKind.SOFTMAX, OpKind.MATMUL2),
        ((0, 0, 1, 0), (0, 1, 1, 1), (1, 0, 2, 0), (2, 0, 3, 0), (0, 2, 3, 1)),
        (0, 1, 3),
    )),
])

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


def _template_parts(name: str, ids: tuple[int, ...], cut: Edge = Edge(INPUT, 0, OUTPUT, 0)):
    """ops, edges and couples of the template spliced into the cut edge (by
    default an identity block's one edge), with node ids by position."""
    t = TEMPLATES[name]
    edges = (Edge(cut.src, cut.src_port, ids[0], 0), *(Edge(ids[a], pa, ids[b], pb) for a, pa, b, pb in t.wires),
             Edge(ids[-1], 0, cut.dst, cut.dst_port))
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
        """FormatError, KeyError or TypeError for a missing or mistyped field."""
        block, anchor = json_int(d["block"], "edit block"), json_int(d["anchor"], "edit anchor")
        if d["kind"] not in ("add", "eliminate"):
            raise FormatError(f"edit kind must be \"add\" or \"eliminate\", got {d['kind']!r}")
        if not isinstance(d["digest"], str):
            raise FormatError(f"edit digest must be a JSON string, got {d['digest']!r}")
        if d["kind"] == "add":
            if not isinstance(d["template"], str):
                raise FormatError(f"edit template must be a JSON string, got {d['template']!r}")
            return Edit("add", block, anchor, d["digest"], template=d["template"],
                        cut_edge=Edge(*json_ints(d["cut_edge"], "cut_edge", 4)),
                        new_ids=json_ints(d["new_ids"], "new_ids"))
        return Edit("eliminate", block, anchor, d["digest"], doomed=json_ints(d["doomed"], "doomed"),
                    bridge=Edge(*json_ints(d["bridge"], "bridge", 4)))


@dataclass(frozen=True)
class SearchStepConfig:
    budget: Budget
    rng: Rng
    p_eliminate: float = 0.3
    n_try: int = 10

    def __post_init__(self):
        check_step_options(self.p_eliminate, self.n_try)


def check_step_options(p_eliminate: float, n_try: int) -> None:
    """ValueError unless p_eliminate is in [0, 1] and n_try >= 1; every config holding them calls it."""
    if not 0.0 <= p_eliminate <= 1.0:
        raise ValueError(f"p_eliminate must be in [0, 1], got {p_eliminate}")
    check_at_least("n_try", n_try, 1)


def minimal_coupled_subgraph(block: BlockGraph, v: int) -> frozenset[int]:
    """The doomed node set for eliminating v.

    A lone shape-preserving node dooms only itself.  A coupled node dooms
    its whole couple group plus every node on a directed path between two
    group members, iterated to a fixpoint so nested couples stay intact.
    In a DAG those are the nodes both reachable from the group and reaching
    it: one forward and one backward search from the whole group a round,
    each stepping along the block's edge index between interior nodes.
    Path closure is idempotent, so a round ends the search once the couple
    partners of its path-closed set add nothing.
    """
    if v not in block.ops:
        raise InfeasibleEdit(f"node {v} is not an interior node")
    if v not in block.couples:
        if not OP_INFO[block.ops[v]].preserves_shape:
            raise InfeasibleEdit(f"node {v} ({block.ops[v].value}) changes shape but has no couple")
        return frozenset({v})
    (ins, outs), ops = block.ports, block.ops

    def steps(side, end):  # to the interior nodes at edge field end (0 src, 2 dst); none from others
        return lambda u: [e[end] for e in side.get(u, ()) if e[end] in ops] if u in ops else ()

    doomed = {v, *block.couples[v]}
    while True:
        doomed |= bfs_reachable(steps(outs, 2), doomed) & bfs_reachable(steps(ins, 0), doomed)
        grown = doomed.union(*(block.couples.get(u, ()) for u in doomed))
        if grown == doomed:
            return frozenset(doomed)
        doomed = grown


def _excise_boundary(block: BlockGraph, doomed: frozenset[int]) -> Edge:
    """The edge that bridges the doomed set's unique entry and exit edges; InfeasibleEdit otherwise."""
    ins, outs = block.ports
    entries = [e for v in doomed for e in ins.get(v, ()) if e.src not in doomed]
    exits = [e for v in doomed for e in outs.get(v, ()) if e.dst not in doomed]
    if len(entries) != 1 or len(exits) != 1:
        raise InfeasibleEdit(
            f"doomed set has {len(entries)} entry / {len(exits)} exit edges (want 1/1)"
        )
    return Edge(*entries[0][:2], *exits[0][2:])


def apply_block_edit(block: BlockGraph, edit: Edit) -> BlockGraph:
    if edit.block_digest != block.digest:
        raise StaleEdit("edit was proposed against a different block state")
    if edit.kind == "add":
        e, ids = edit.cut_edge, edit.new_ids
        if e not in block.ports.outs.get(e.src, ()):
            raise InfeasibleEdit(f"cut edge {e} not present")
        shape = block.shapes[e.src].out_shapes[e.src_port]
        try:
            shapes = template_node_shapes(edit.template, shape, ids)  # checks the ids first
        except GraphError as exc:  # its "node N: " prefix names the memo's scratch id, not a node of this block
            rule = str(exc).partition(": ")[2]
            raise InfeasibleEdit(f"template {edit.template!r} does not fit cut edge {e} at {shape}: {rule}") from exc
        if min(ids) < block.next_id:
            raise InfeasibleEdit(f"node ids {ids} must be at least next_id {block.next_id}")
        return child_block(block, (), (e,), *_template_parts(edit.template, ids, e), shapes)

    doomed = frozenset(edit.doomed)
    missing = doomed - set(block.ops)
    if missing:
        raise InfeasibleEdit(f"doomed nodes {sorted(missing)} not present")
    bridge = _excise_boundary(block, doomed)
    if edit.bridge != bridge:
        raise InfeasibleEdit(f"recorded bridge {edit.bridge} does not match {bridge}")
    for v, partners in block.couples.items():
        if v not in doomed and any(p in doomed for p in partners):
            raise InfeasibleEdit(f"couple of surviving node {v} reaches into the doomed set")
    ins, outs = block.ports
    removed = [x for v in doomed for side in (ins, outs) for x in side.get(v, ())]
    return child_block(block, doomed, removed, {}, (bridge,), {}, {})


def apply(spec: NetworkSpec, edit: Edit) -> NetworkSpec:
    """New network with the edit applied; the original is untouched."""
    if not 0 <= edit.block_index < len(spec.blocks):
        raise InfeasibleEdit(f"edit names block {edit.block_index} of {len(spec.blocks)}")
    return spec.with_block(edit.block_index, apply_block_edit(spec.blocks[edit.block_index], edit))


@functools.lru_cache(maxsize=1024)
def _template_shapes(name: str, shape: Shape) -> tuple[NodeShapes, ...]:
    # Shapes by template position: a pure function of (name, shape), asked on
    # every add try, while a walk meets few shapes.  Errors are not cached.
    ids = tuple(range(2, 2 + len(TEMPLATES[name].ops)))
    shapes = infer_shapes(BlockGraph(Shape(*shape).check(), *_template_parts(name, ids)))
    return tuple(shapes[v] for v in ids)


def template_node_shapes(name: str, shape: Shape, ids: tuple[int, ...]) -> dict[int, NodeShapes]:
    """Inferred shapes of the template's nodes when spliced into an edge of `shape`,
    read from a memo by template position and relabelled to `ids`; InfeasibleEdit
    unless `ids` are distinct interior ids, one per template position."""
    if (name not in TEMPLATES or len(ids) != len(TEMPLATES[name].ops)
            or len(set(ids) - {INPUT, OUTPUT}) != len(ids)):
        raise InfeasibleEdit(f"template {name!r} does not take node ids {ids}")
    return dict(zip(ids, _template_shapes(name, shape)))


class EditPatch(NamedTuple):
    """The ledger entries an edit changes."""

    block: Cost                         # change of the block total
    op_flops: dict[OpKind, int]         # FLOPs change per op, one entry per touched op


@dataclass
class CostState:
    """Incremental network cost bookkeeping for search drivers: the network,
    its total and its FLOPs per op (an op stays listed at 0 once every node
    of it is gone).  Each block carries its own node shapes."""

    spec: NetworkSpec
    total: Cost
    op_flops: dict[OpKind, int]
    # (edit, delta, patch) of the last `preview`; states and edits are never mutated.
    _previewed: Optional[tuple[Edit, Cost, EditPatch]] = field(
        default=None, init=False, repr=False, compare=False)

    @staticmethod
    def from_spec(spec: NetworkSpec) -> "CostState":
        stem, transitions, head = skeleton_cost(spec)
        total = sum([c for _, c in stem + head] + [t.total for t in transitions], ZERO_COST)
        op_flops = {}
        for b in spec.blocks:
            rep = block_cost_at(b, b.shapes)
            total = total + rep.total
            for _, op, cost in rep.nodes:
                op_flops[op] = op_flops.get(op, 0) + cost.flops
        return CostState(spec, total, op_flops)

    @property
    def shapes(self) -> list[dict[int, NodeShapes]]:
        """Each block's `BlockGraph.shapes`, read-only, for the benchmark's workloads; goes with their next change."""
        return [b.shapes for b in self.spec.blocks]

    def network_op_flops(self) -> dict[OpKind, int]:
        return dict(self.op_flops)

    def preview(self, edit: Edit) -> tuple[Cost, EditPatch]:
        """Signed network-total change of the edit, without applying it, and
        the patch that `after_edit` applies.

        Sound because templates restore the cut edge's shape and bridged
        eliminations preserve every surviving node's shapes, so only the
        touched nodes' entries change.  When the edit replaces the first node
        of a stage's leading block, the delta also holds the change of that
        stage's transition, recomputed for the old and the new first op.
        """
        bi = edit.block_index
        block = self.spec.blocks[bi]
        if edit.kind == "add":
            e = edit.cut_edge
            added = template_node_shapes(edit.template, block.shapes[e.src].out_shapes[e.src_port], edit.new_ids)
            touched = zip(TEMPLATES[edit.template].ops, added.values())
            sign, entry = 1, e.src
            new_first = TEMPLATES[edit.template].ops[0]
        else:
            touched = [(block.ops[v], block.shapes[v]) for v in edit.doomed]
            sign, entry = -1, edit.bridge.src
            new_first = block.ops.get(edit.bridge.dst)
        change, op_flops = ZERO_COST, {}
        for op, ns in touched:
            params, flops = op_cost(op, ns.in_shapes, ns.out_shapes)
            change = change + Cost(sign * params, sign * flops)
            op_flops[op] = op_flops.get(op, 0) + sign * flops
        delta = change
        si = self.spec.block_stage(bi)
        if entry == INPUT and self.spec.stage_first_positions()[si] == bi:
            old_first = self.spec.stage_entry(si)[1]
            delta = delta + (transition_cost(self.spec, si, new_first).total
                             - transition_cost(self.spec, si, old_first).total)
        patch = EditPatch(change, op_flops)
        self._previewed = (edit, delta, patch)
        return delta, patch

    def after_edit(self, new_spec: NetworkSpec, edit: Edit) -> "CostState":
        """State for new_spec, applying the edit's preview patch: the one this
        state's last `preview` made when that was for this edit object."""
        hit = self._previewed
        delta, patch = hit[1:] if hit is not None and hit[0] is edit else self.preview(edit)
        op_flops = dict(self.op_flops)
        for op, f in patch.op_flops.items():
            op_flops[op] = op_flops.get(op, 0) + f
        return CostState(new_spec, self.total + delta, op_flops)


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
                bridge = _excise_boundary(block, doomed)
            except InfeasibleEdit:
                continue
            edit = Edit("eliminate", bi, v, block.digest, doomed=tuple(sorted(doomed)), bridge=bridge)
            after = total + network_delta(state, edit)
            if after.params >= cfg.budget.params_min and after.flops >= cfg.budget.flops_min:
                return edit
        else:
            outs = block.out_edges(v)
            e = outs[rng.randbelow(len(outs))]
            shape = block.shapes[e.src].out_shapes[e.src_port]
            feasible = _feasible_templates(shape)
            name = feasible[rng.randbelow(len(feasible))]
            edit = Edit(
                "add", bi, v, block.digest, template=name, cut_edge=e,
                new_ids=tuple(range(block.next_id, block.next_id + len(TEMPLATES[name].ops))),
            )
            after = total + network_delta(state, edit)
            if after.params <= cfg.budget.params_max and after.flops <= cfg.budget.flops_max:
                return edit
    return None


def rule_violations(block: BlockGraph, shapes: dict[int, NodeShapes]) -> list[str]:
    """Check the four insertion feasibility rules on a concrete block, a-c as
    each op's row (`ops.OP_INFO`) states them: (a) the row's `requires` holds
    (RelPosBias: integral sqrt(H), sqrt(W); Mask: H == W), (b, c) the row's
    `scale` denominator divides C (Chunk2/Chunk3: 2/3, ConvRed4: 4; reported
    as rule b), (d) dimension-changing / multi-output nodes are coupled."""
    bad = []
    for v, op in block.ops.items():
        info, s = OP_INFO[op], shapes[v].in_shapes[0]
        if info.requires is not None and not info.requires[1](s):
            bad.append(f"rule a: node {v} {op.value} requires {info.requires[0]}, got {s}")
        if s.c % info.scale[1]:
            bad.append(f"rule b: node {v} {op.value} requires C divisible by {info.scale[1]}, got C={s.c}")
        if op in COUPLED_ONLY and v not in block.couples:
            bad.append(f"rule d: node {v} ({op.value}) uncoupled")
    return bad
