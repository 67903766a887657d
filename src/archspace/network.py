"""Hierarchical network skeleton: stem, staged blocks with transitions, head.

The stem is two 3x3 stride-2 convolutions (each followed by a GELU), for a
4x spatial reduction.  Every stage begins with a 3x3 stride-2 max pool and
a 1x1 channel projection; when the stage's first block starts with a
Conv1/Conv3/ConvExp4/ConvChunk3 node, the projection is merged into that
convolution (one conv from the previous stage's channels) and costed once.
The head is a global average pool plus a fully connected classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import AssemblyError, FormatError
from .graph import BlockGraph, validate
from .ops import OpKind, Shape

FUSABLE_OPS = frozenset({OpKind.CONV1, OpKind.CONV3, OpKind.CONV_EXP4, OpKind.CONV_CHUNK3})


def halve(x: int) -> int:
    """Output extent of a stride-2 kernel-3 padding-1 window over x."""
    return (x + 1) // 2


@dataclass(frozen=True)
class StageSpec:
    n_blocks: int
    channels: int
    spatial: tuple[int, int]

    @property
    def shape(self) -> Shape:
        """The input (and output) shape of each of the stage's blocks."""
        return Shape(self.channels, *self.spatial)


@dataclass(frozen=True)
class NetworkSpec:
    in_channels: int
    stem_out_channels: int
    input_resolution: tuple[int, int]
    stages: tuple[StageSpec, ...]
    blocks: tuple[BlockGraph, ...]
    num_classes: int

    def block_stage(self, index: int) -> int:
        i = index
        for si, st in enumerate(self.stages):
            if i < st.n_blocks:
                return si
            i -= st.n_blocks
        raise IndexError(index)

    def stage_first_positions(self) -> tuple[int, ...]:
        firsts, pos = [], 0
        for st in self.stages:
            firsts.append(pos)
            pos += st.n_blocks
        return tuple(firsts)

    def stage_entry(self, si: int) -> tuple[int, Optional[OpKind]]:
        """What enters stage si: the channels of the stem (si == 0) or of the
        previous stage, and the first op of the stage's leading block (None
        for an identity block), which decides whether the projection fuses."""
        c_in = self.stem_out_channels if si == 0 else self.stages[si - 1].channels
        lead = self.blocks[self.stage_first_positions()[si]]
        return c_in, lead.ops.get(lead.first_interior())

    def with_block(self, index: int, block: BlockGraph) -> "NetworkSpec":
        blocks = list(self.blocks)
        blocks[index] = block
        return NetworkSpec(self.in_channels, self.stem_out_channels, self.input_resolution,
                           self.stages, tuple(blocks), self.num_classes)


def stem_spatial(resolution: tuple[int, int]) -> tuple[tuple[int, int], tuple[int, int]]:
    h, w = resolution
    first = (halve(h), halve(w))
    return first, (halve(first[0]), halve(first[1]))


def stage_spatial_chain(resolution: tuple[int, int], n_stages: int) -> list[tuple[int, int]]:
    hw = stem_spatial(resolution)[1]
    chain = []
    for _ in range(n_stages):
        hw = (halve(hw[0]), halve(hw[1]))
        chain.append(hw)
    return chain


def make_network(
    stem_out_channels: int,
    input_resolution: tuple[int, int],
    stage_blocks: Sequence[int],
    stage_channels: Sequence[int],
    num_classes: int,
    blocks: Optional[Sequence[BlockGraph]] = None,
    in_channels: int = 3,
) -> NetworkSpec:
    """Build a NetworkSpec with the derived per-stage spatial dims.

    Blocks default to identity blocks at each stage's shape.
    """
    if len(stage_blocks) != len(stage_channels):
        raise FormatError("stage_blocks and stage_channels must have equal length")
    chain = stage_spatial_chain(input_resolution, len(stage_blocks))
    stages = tuple(
        StageSpec(n, c, hw) for n, c, hw in zip(stage_blocks, stage_channels, chain)
    )
    if blocks is None:
        blocks = []
        for st in stages:
            blocks.extend(BlockGraph.identity(st.shape) for _ in range(st.n_blocks))
    blocks = tuple(blocks)
    if len(blocks) != sum(stage_blocks):
        raise FormatError(f"expected {sum(stage_blocks)} blocks, got {len(blocks)}")
    return NetworkSpec(
        in_channels=in_channels,
        stem_out_channels=stem_out_channels,
        input_resolution=tuple(input_resolution),
        stages=stages,
        blocks=blocks,
        num_classes=num_classes,
    )


def validate_network(spec: NetworkSpec) -> list[str]:
    """All network-level violations, including per-block validation."""
    bad = []
    if spec.in_channels < 1 or spec.stem_out_channels < 1 or spec.num_classes < 1:
        bad.append("channel and class counts must be >= 1")
    if not spec.stages:
        bad.append("network has no stages")
    if sum(st.n_blocks for st in spec.stages) != len(spec.blocks):
        bad.append("stage block counts do not match the block list length")
        return bad
    chain = stage_spatial_chain(spec.input_resolution, len(spec.stages))
    for si, (st, hw) in enumerate(zip(spec.stages, chain)):
        if st.spatial != hw:
            bad.append(f"stage {si}: spatial {st.spatial} inconsistent with downsampling chain {hw}")
        if st.n_blocks < 1 or st.channels < 1:
            bad.append(f"stage {si}: n_blocks and channels must be >= 1")
    for bi, block in enumerate(spec.blocks):
        want = spec.stages[spec.block_stage(bi)].shape
        if block.input_shape != want:
            bad.append(f"block {bi}: input shape {block.input_shape} != stage shape {want}")
            continue
        report = validate(block)
        for v in report.violations:
            bad.append(f"block {bi}: {v}")
    return bad


@dataclass(frozen=True)
class ExecutablePlan:
    """A valid network and, per block position, the channel count the
    block's entry conv consumes when its stage's projection is fused into
    it, else None.  A stage whose leading block holds None keeps its 1x1
    projection."""

    spec: NetworkSpec
    fused_entry: tuple[Optional[int], ...]


def assemble_network(spec: NetworkSpec) -> ExecutablePlan:
    """Execution plan; raises AssemblyError, whose message names each bad block."""
    bad = validate_network(spec)
    if bad:
        raise AssemblyError("; ".join(bad))
    fused_entry: list[Optional[int]] = [None] * len(spec.blocks)
    for si, bi in enumerate(spec.stage_first_positions()):
        c_in, first_op = spec.stage_entry(si)
        if first_op in FUSABLE_OPS:
            fused_entry[bi] = c_in
    return ExecutablePlan(spec, tuple(fused_entry))
