"""Analytic Params/FLOPs accounting per node, per block, and per network.

All counts are exact integers.  FLOPs include every multiplication and
addition of a single forward pass, which intentionally differs from
runtime profilers.  Python integers are unbounded, so accumulation cannot
overflow or wrap.

Network totals are stem + transitions + blocks + head.  When a stage
projection is fused into the first convolution of the stage's leading
block, the projection disappears and a per-stage fusion adjustment term
(replacing that conv's standalone cost with its cost at the previous
stage's channel count) keeps the fused convolution costed exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import BlockGraph, NodeShapes, infer_shapes, topo_order
from .network import FUSABLE_OPS, NetworkSpec, assemble_network, stem_spatial
from .ops import Cost, OpKind, Shape, ZERO_COST, op_cost


@dataclass(frozen=True)
class Budget:
    params_min: int
    params_max: int
    flops_min: int
    flops_max: int

    def __post_init__(self):
        if min(self.params_min, self.flops_min) < 0:
            raise ValueError("budget bounds must be non-negative")
        if self.params_min > self.params_max or self.flops_min > self.flops_max:
            raise ValueError("budget min must not exceed max")

    def contains(self, cost: Cost) -> bool:
        return (
            self.params_min <= cost.params <= self.params_max
            and self.flops_min <= cost.flops <= self.flops_max
        )


def node_cost(op: OpKind, input_shape: Shape, upsample_target: Optional[tuple[int, int]] = None) -> Cost:
    """Cost of one node from its (primary) input shape.

    Multi-input ops take equal-shaped inputs except Matmul2, whose cost is
    a function of its second input (C,H,W) given here.  UpSample needs its
    coupled target size.
    """
    s = Shape(*input_shape)
    if op is OpKind.MATMUL2:
        return op_cost(op, [Shape(1, s.h * s.h, s.w * s.w), s], [s])
    if op is OpKind.UP_SAMPLE:
        if upsample_target is None:
            raise ValueError("UpSample cost needs the coupled target size")
        out = Shape(s.c, upsample_target[0], upsample_target[1])
        return op_cost(op, [s], [out])
    ins = [s] * 3 if op is OpKind.CONCAT3 else [s] * 2 if op in (
        OpKind.CONCAT2, OpKind.ADD, OpKind.MULTIPLY, OpKind.MATMUL1
    ) else [s]
    from .ops import transfer

    return op_cost(op, ins, transfer(op, ins))


@dataclass(frozen=True)
class BlockCostReport:
    nodes: tuple[tuple[int, OpKind, Cost], ...]
    total: Cost

    def per_op_flops(self) -> dict[OpKind, int]:
        acc: dict[OpKind, int] = {}
        for _, op, cost in self.nodes:
            acc[op] = acc.get(op, 0) + cost.flops
        return acc


def block_cost(block: BlockGraph, shapes: Optional[dict[int, NodeShapes]] = None) -> BlockCostReport:
    """Per-node breakdown and totals at the block's inferred shapes."""
    if shapes is None:
        shapes = infer_shapes(block)
    rows = []
    total = ZERO_COST
    for v in topo_order(block):
        ns = shapes[v]
        cost = op_cost(block.ops[v], ns.in_shapes, ns.out_shapes)
        rows.append((v, block.ops[v], cost))
        total = total + cost
    return BlockCostReport(tuple(rows), total)


def conv2d_cost(c_in: int, c_out: int, kernel: int, out_h: int, out_w: int) -> Cost:
    """Standard dense conv with bias, counted at output positions."""
    return Cost(c_out * (kernel * kernel * c_in + 1), 2 * kernel * kernel * c_in * c_out * out_h * out_w)


_FUSABLE_OUT = {OpKind.CONV1: (1, 1), OpKind.CONV3: (3, 1), OpKind.CONV_EXP4: (1, 4), OpKind.CONV_CHUNK3: (1, 3)}


def fused_conv_cost(op: OpKind, c_in: int, block_shape: Shape) -> Cost:
    """Cost of a block-leading conv when it consumes c_in channels instead of block C."""
    kernel, mult = _FUSABLE_OUT[op]
    c_out = mult * block_shape.c
    return conv2d_cost(c_in, c_out, kernel, block_shape.h, block_shape.w)


def stem_cost(in_channels: int, stem_channels: int, resolution: tuple[int, int]) -> tuple[tuple[str, Cost], ...]:
    (h1, w1), (h2, w2) = stem_spatial(resolution)
    return (
        ("conv3x3_s2_a", conv2d_cost(in_channels, stem_channels, 3, h1, w1)),
        ("gelu_a", Cost(0, 3 * stem_channels * h1 * w1)),
        ("conv3x3_s2_b", conv2d_cost(stem_channels, stem_channels, 3, h2, w2)),
        ("gelu_b", Cost(0, 3 * stem_channels * h2 * w2)),
    )


def pool_cost(c_in: int, out_spatial: tuple[int, int]) -> Cost:
    return Cost(0, 9 * c_in * out_spatial[0] * out_spatial[1])


def head_cost(c_in: int, num_classes: int, in_spatial: tuple[int, int]) -> tuple[tuple[str, Cost], ...]:
    return (
        ("global_avg", Cost(0, c_in * in_spatial[0] * in_spatial[1])),
        ("fc", Cost(c_in * num_classes + num_classes, 2 * c_in * num_classes)),
    )


@dataclass(frozen=True)
class TransitionCost:
    pool: Cost
    projection: Optional[Cost]      # None when fused
    fusion_adjustment: Cost         # zero when not fused
    fused: bool

    @property
    def total(self) -> Cost:
        extra = self.projection if self.projection is not None else self.fusion_adjustment
        return self.pool + extra


def transition_cost(spec: NetworkSpec, si: int, first_op: Optional[OpKind]) -> TransitionCost:
    """Pool, then the 1x1 projection into stage si; when the stage's first
    block starts with a fusable conv `first_op`, the projection is replaced by
    an adjustment from that conv's standalone cost to its fused-input cost."""
    st = spec.stages[si]
    c_prev = spec.stem_out_channels if si == 0 else spec.stages[si - 1].channels
    shape = Shape(st.channels, *st.spatial)
    pool = pool_cost(c_prev, st.spatial)
    if first_op in FUSABLE_OPS:
        adj = fused_conv_cost(first_op, c_prev, shape) - node_cost(first_op, shape)
        return TransitionCost(pool, None, adj, True)
    return TransitionCost(pool, conv2d_cost(c_prev, st.channels, 1, *st.spatial), ZERO_COST, False)


def skeleton_cost(spec: NetworkSpec):
    """Stem terms, per-stage transitions and head terms: all but the blocks."""
    transitions = []
    for si, bi in enumerate(spec.stage_first_positions()):
        first = spec.blocks[bi].first_interior()
        transitions.append(transition_cost(spec, si, None if first is None else spec.blocks[bi].ops[first]))
    last = spec.stages[-1]
    return (stem_cost(spec.in_channels, spec.stem_out_channels, spec.input_resolution),
            tuple(transitions), head_cost(last.channels, spec.num_classes, last.spatial))


@dataclass(frozen=True)
class NetworkCostReport:
    stem: tuple[tuple[str, Cost], ...]
    transitions: tuple[TransitionCost, ...]
    blocks: tuple[BlockCostReport, ...]
    head: tuple[tuple[str, Cost], ...]
    total: Cost

    def to_json(self) -> dict:
        return {
            "params": self.total.params,
            "flops": self.total.flops,
            "stem": [{"term": n, "params": c.params, "flops": c.flops} for n, c in self.stem],
            "transitions": [
                {
                    "pool_flops": t.pool.flops,
                    "projection": None if t.projection is None
                    else {"params": t.projection.params, "flops": t.projection.flops},
                    "fused": t.fused,
                    "fusion_adjustment": {
                        "params": t.fusion_adjustment.params,
                        "flops": t.fusion_adjustment.flops,
                    },
                }
                for t in self.transitions
            ],
            "blocks": [
                {
                    "params": b.total.params,
                    "flops": b.total.flops,
                    "nodes": [
                        {"id": v, "op": op.value, "params": c.params, "flops": c.flops}
                        for v, op, c in b.nodes
                    ],
                }
                for b in self.blocks
            ],
            "head": [{"term": n, "params": c.params, "flops": c.flops} for n, c in self.head],
        }


def network_cost(spec: NetworkSpec) -> NetworkCostReport:
    """Totals for stem + transitions + blocks + head, fusion costed once.

    Recomputed from scratch, so it is the oracle for the search ledger.
    """
    assemble_network(spec)  # raises AssemblyError on an invalid network
    stem, transitions, head = skeleton_cost(spec)
    blocks = tuple(block_cost(b) for b in spec.blocks)
    terms = [c for _, c in stem + head] + [t.total for t in transitions] + [b.total for b in blocks]
    return NetworkCostReport(stem, transitions, blocks, head, sum(terms, ZERO_COST))
