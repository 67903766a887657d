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
from .ops import OP_INFO, Cost, OpKind, Shape, ZERO_COST, conv2d_cost, op_cost


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


@dataclass(frozen=True)
class BlockCostReport:
    nodes: tuple[tuple[int, OpKind, Cost], ...]
    total: Cost


def block_cost(block: BlockGraph) -> BlockCostReport:
    """Per-node breakdown and totals at shapes inferred from the block itself,
    not read from `BlockGraph.shapes`, so the search ledger has an oracle."""
    return block_cost_at(block, infer_shapes(block))


def block_cost_at(block: BlockGraph, shapes: dict[int, NodeShapes]) -> BlockCostReport:
    """Per-node breakdown, in topological order, and totals at the given node shapes."""
    rows = []
    total = ZERO_COST
    for v in topo_order(block):
        ns = shapes[v]
        cost = op_cost(block.ops[v], ns.in_shapes, ns.out_shapes)
        rows.append((v, block.ops[v], cost))
        total = total + cost
    return BlockCostReport(tuple(rows), total)


def fused_conv_cost(op: OpKind, c_in: int, block_shape: Shape) -> Cost:
    """Cost of a block-leading conv when it consumes c_in channels instead of block C."""
    conv = OP_INFO[op].conv
    return conv2d_cost(c_in, conv.mult * block_shape.c, conv.kernel, block_shape.h, block_shape.w)


def _per_element(op: OpKind, c: int, spatial: tuple[int, int]) -> Cost:
    """A skeleton op's cost over c channels at `spatial`, from the op's row."""
    return Cost(0, OP_INFO[op].per_element * c * spatial[0] * spatial[1])


def stem_cost(in_channels: int, stem_channels: int, resolution: tuple[int, int]) -> tuple[tuple[str, Cost], ...]:
    s1, s2 = stem_spatial(resolution)
    return (
        ("conv3x3_s2_a", conv2d_cost(in_channels, stem_channels, 3, *s1)),
        ("gelu_a", _per_element(OpKind.GELU, stem_channels, s1)),
        ("conv3x3_s2_b", conv2d_cost(stem_channels, stem_channels, 3, *s2)),
        ("gelu_b", _per_element(OpKind.GELU, stem_channels, s2)),
    )


def head_cost(c_in: int, num_classes: int, in_spatial: tuple[int, int]) -> tuple[tuple[str, Cost], ...]:
    return (
        ("global_avg", _per_element(OpKind.GLOBAL_AVG, c_in, in_spatial)),
        ("fc", Cost(c_in * num_classes + num_classes, 2 * c_in * num_classes)),
    )


@dataclass(frozen=True)
class TransitionCost:
    pool: Cost
    projection: Optional[Cost]      # None when fused
    fusion_adjustment: Cost         # zero when not fused

    @property
    def fused(self) -> bool:
        return self.projection is None

    @property
    def total(self) -> Cost:
        extra = self.projection if self.projection is not None else self.fusion_adjustment
        return self.pool + extra


def transition_cost(spec: NetworkSpec, si: int, first_op: Optional[OpKind]) -> TransitionCost:
    """Pool, then the 1x1 projection into stage si from the channels that
    `NetworkSpec.stage_entry` gives; when the stage's first block starts with
    a fusable conv `first_op`, the projection is replaced by an adjustment
    from that conv's standalone cost to its fused-input cost."""
    st = spec.stages[si]
    c_in = spec.stage_entry(si)[0]
    pool = _per_element(OpKind.MAXPOOL, c_in, st.spatial)
    if first_op in FUSABLE_OPS:
        adj = fused_conv_cost(first_op, c_in, st.shape) - fused_conv_cost(first_op, st.channels, st.shape)
        return TransitionCost(pool, None, adj)
    return TransitionCost(pool, conv2d_cost(c_in, st.channels, 1, *st.spatial), ZERO_COST)


def skeleton_cost(spec: NetworkSpec):
    """Stem terms, per-stage transitions and head terms: all but the blocks."""
    transitions = tuple(transition_cost(spec, si, spec.stage_entry(si)[1])
                        for si in range(len(spec.stages)))
    last = spec.stages[-1]
    return (stem_cost(spec.in_channels, spec.stem_out_channels, spec.input_resolution),
            transitions, head_cost(last.channels, spec.num_classes, last.spatial))


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
