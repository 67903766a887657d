"""The 27 elementary operations: arity, shape-transfer rules, cost rules.

Conventions used throughout the package:

* Tensors inside a block are rank-3 with axis order (C, H, W).
* FLOPs count every multiplication and addition of a single forward pass,
  so totals will not match runtime profilers that only count MACs.
* Convolution geometry is stated once, in ``CONV`` (dense, with bias) and
  ``DEPTHWISE`` (no bias); the cost rules, the fused stage projection and
  the interpreter's init, forward and backward all read it.
* ``ConvRed4`` is realized as a full 1x1 convolution to 4C channels
  followed by a fixed (parameter-free) mean over groups of 16 channels,
  which yields a C -> C/4 reduction whose trainable-scalar count equals
  its cost-rule value 4C(C+1) exactly.
* ``RelPosBias`` cost uses the half-integer product 2(sqrt(H)-1/2)(sqrt(W)-1/2)
  rounded half-up; the interpreter allocates the full (2*sqrt(H)-1)(2*sqrt(W)-1)
  relative-offset table, which is the documented exception where cost and
  allocation differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Sequence

from .errors import DivisibilityViolation, GraphError, NonSquareSpatial, ShapeMismatch


class Shape(NamedTuple):
    """(channels, height, width); every dim >= 1."""

    c: int
    h: int
    w: int

    def check(self) -> "Shape":
        if min(self) < 1:
            raise ValueError(f"shape dims must be >= 1, got {tuple(self)}")
        return self

    @property
    def numel(self) -> int:
        return self.c * self.h * self.w

    def __str__(self):
        return f"({self.c},{self.h},{self.w})"


class OpKind(Enum):
    SOFTMAX = "Softmax"
    DROPOUT = "Dropout"
    MAXPOOL = "MaxPool2d"
    MASK = "Mask"
    SIGMOID = "Sigmoid"
    GELU = "GELU"
    CONV1 = "Conv1"
    CONV3 = "Conv3"
    CONV_DEPTH3 = "ConvDepth3"
    CONV_DEPTH5 = "ConvDepth5"
    BATCH_NORM = "BatchNorm"
    LAYER_NORM = "LayerNorm"
    REL_POS_BIAS = "RelPosBias"
    CHUNK2 = "Chunk2"
    CHUNK3 = "Chunk3"
    COPY = "Copy"
    CONCAT2 = "Concat2"
    CONCAT3 = "Concat3"
    ADD = "Add"
    CONV_CHUNK3 = "ConvChunk3"
    CONV_EXP4 = "ConvExp4"
    CONV_RED4 = "ConvRed4"
    MULTIPLY = "Multiply"
    MATMUL1 = "Matmul1"
    MATMUL2 = "Matmul2"
    GLOBAL_AVG = "GlobalAvg"
    UP_SAMPLE = "UpSample"


OP_BY_NAME = {op.value: op for op in OpKind}


@dataclass(frozen=True)
class OpInfo:
    in_arity: int
    out_arity: int
    parameterized: bool
    preserves_shape: bool  # single input, single output, out shape == in shape


OP_INFO = {
    OpKind.SOFTMAX: OpInfo(1, 1, False, True),
    OpKind.DROPOUT: OpInfo(1, 1, False, True),
    OpKind.MAXPOOL: OpInfo(1, 1, False, True),
    OpKind.MASK: OpInfo(1, 1, False, True),
    OpKind.SIGMOID: OpInfo(1, 1, False, True),
    OpKind.GELU: OpInfo(1, 1, False, True),
    OpKind.CONV1: OpInfo(1, 1, True, True),
    OpKind.CONV3: OpInfo(1, 1, True, True),
    OpKind.CONV_DEPTH3: OpInfo(1, 1, True, True),
    OpKind.CONV_DEPTH5: OpInfo(1, 1, True, True),
    OpKind.BATCH_NORM: OpInfo(1, 1, True, True),
    OpKind.LAYER_NORM: OpInfo(1, 1, True, True),
    OpKind.REL_POS_BIAS: OpInfo(1, 1, True, True),
    OpKind.CHUNK2: OpInfo(1, 2, False, False),
    OpKind.CHUNK3: OpInfo(1, 3, False, False),
    OpKind.COPY: OpInfo(1, 2, False, False),
    OpKind.CONCAT2: OpInfo(2, 1, False, False),
    OpKind.CONCAT3: OpInfo(3, 1, False, False),
    OpKind.ADD: OpInfo(2, 1, False, False),
    OpKind.CONV_CHUNK3: OpInfo(1, 3, True, False),
    OpKind.CONV_EXP4: OpInfo(1, 1, True, False),
    OpKind.CONV_RED4: OpInfo(1, 1, True, False),
    OpKind.MULTIPLY: OpInfo(2, 1, False, False),
    OpKind.MATMUL1: OpInfo(2, 1, False, False),
    OpKind.MATMUL2: OpInfo(2, 1, False, False),
    OpKind.GLOBAL_AVG: OpInfo(1, 1, False, False),
    OpKind.UP_SAMPLE: OpInfo(1, 1, False, False),
}

# Dense convolutions with bias: (kernel, output channels per input channel).
# Padding is kernel // 2, so every one keeps H and W.
CONV = {
    OpKind.CONV1: (1, 1),
    OpKind.CONV3: (3, 1),
    OpKind.CONV_CHUNK3: (1, 3),
    OpKind.CONV_EXP4: (1, 4),
    OpKind.CONV_RED4: (1, 4),
}

# Depthwise convolutions without bias: kernel.
DEPTHWISE = {OpKind.CONV_DEPTH3: 3, OpKind.CONV_DEPTH5: 5}

# Ops whose insertion changes dimensions or fan-out and therefore only ever
# enter a graph together with a shape-restoring counterpart.
COUPLED_ONLY = frozenset(
    op for op, info in OP_INFO.items() if not info.preserves_shape
)


class Cost(NamedTuple):
    """Trainable scalar count and mult+add count; negative values are deltas."""

    params: int
    flops: int

    def __add__(self, other):
        return Cost(self.params + other[0], self.flops + other[1])

    def __sub__(self, other):
        return Cost(self.params - other[0], self.flops - other[1])

    def __neg__(self):
        return Cost(-self.params, -self.flops)


ZERO_COST = Cost(0, 0)


def _isqrt_exact(n: int) -> Optional[int]:
    r = math.isqrt(n)
    return r if r * r == n else None


def transfer(
    op: OpKind,
    in_shapes: Sequence[Shape],
    node: object = "?",
    upsample_target: Optional[tuple[int, int]] = None,
) -> tuple[Shape, ...]:
    """Output shapes of `op` for the given input shapes, or a typed error."""
    info = OP_INFO[op]
    if len(in_shapes) != info.in_arity:
        raise GraphError(f"node {node}: {op.value} takes {info.in_arity} inputs, got {len(in_shapes)}")
    s = in_shapes[0]

    if info.preserves_shape:
        if op is OpKind.MASK and s.h != s.w:
            raise NonSquareSpatial(node, f"Mask requires H == W, got {s}")
        if op is OpKind.REL_POS_BIAS:
            if _isqrt_exact(s.h) is None or _isqrt_exact(s.w) is None:
                raise NonSquareSpatial(node, f"RelPosBias requires integer sqrt(H), sqrt(W), got {s}")
        return (s,)

    if op is OpKind.CHUNK2:
        if s.c % 2:
            raise DivisibilityViolation(node, f"Chunk2 requires C divisible by 2, got C={s.c}")
        return (Shape(s.c // 2, s.h, s.w),) * 2
    if op is OpKind.CHUNK3:
        if s.c % 3:
            raise DivisibilityViolation(node, f"Chunk3 requires C divisible by 3, got C={s.c}")
        return (Shape(s.c // 3, s.h, s.w),) * 3
    if op is OpKind.COPY:
        return (s, s)
    if op in (OpKind.CONCAT2, OpKind.CONCAT3):
        for other in in_shapes[1:]:
            if other != s:
                raise ShapeMismatch(node, s, other)
        return (Shape(s.c * len(in_shapes), s.h, s.w),)
    if op in (OpKind.ADD, OpKind.MULTIPLY):
        if in_shapes[1] != s:
            raise ShapeMismatch(node, s, in_shapes[1])
        return (s,)
    if op is OpKind.CONV_CHUNK3:
        return (s, s, s)
    if op is OpKind.CONV_EXP4:
        return (Shape(4 * s.c, s.h, s.w),)
    if op is OpKind.CONV_RED4:
        if s.c % 4:
            raise DivisibilityViolation(node, f"ConvRed4 requires C divisible by 4, got C={s.c}")
        return (Shape(s.c // 4, s.h, s.w),)
    if op is OpKind.MATMUL1:
        if in_shapes[1] != s:
            raise ShapeMismatch(node, s, in_shapes[1])
        return (Shape(1, s.h * s.h, s.w * s.w),)
    if op is OpKind.MATMUL2:
        y = in_shapes[1]
        want = Shape(1, y.h * y.h, y.w * y.w)
        if s != want:
            raise ShapeMismatch(node, want, s)
        return (y,)
    if op is OpKind.GLOBAL_AVG:
        return (Shape(s.c, 1, 1),)
    if op is OpKind.UP_SAMPLE:
        if (s.h, s.w) != (1, 1):
            raise ShapeMismatch(node, Shape(s.c, 1, 1), s)
        if upsample_target is None:
            raise GraphError(f"node {node}: UpSample has no coupled GlobalAvg to define its target size")
        return (Shape(s.c, upsample_target[0], upsample_target[1]),)
    raise AssertionError(op)


def rel_pos_bias_params(h: int, w: int) -> int:
    """2(sqrt(H)-1/2)(sqrt(W)-1/2) rounded half-up; always half-integer."""
    u, v = math.isqrt(h), math.isqrt(w)
    return ((2 * u - 1) * (2 * v - 1) + 1) // 2


def rel_pos_bias_table(h: int, w: int) -> tuple[int, int]:
    """Shape of the relative-offset table the interpreter allocates."""
    u, v = math.isqrt(h), math.isqrt(w)
    return (2 * u - 1, 2 * v - 1)


def conv2d_cost(c_in: int, c_out: int, kernel: int, out_h: int, out_w: int) -> Cost:
    """Standard dense conv with bias, counted at output positions."""
    return Cost(c_out * (kernel * kernel * c_in + 1), 2 * kernel * kernel * c_in * c_out * out_h * out_w)


def op_cost(op: OpKind, in_shapes: Sequence[Shape], out_shapes: Sequence[Shape]) -> Cost:
    """Exact params/FLOPs of one node given its inferred shapes."""
    s = in_shapes[0]
    c, h, w = s
    chw = c * h * w
    if op is OpKind.SOFTMAX:
        return Cost(0, c * h * (3 * w - 1))
    if op in (OpKind.DROPOUT, OpKind.MASK):
        return Cost(0, chw)
    if op is OpKind.MAXPOOL:
        return Cost(0, 9 * chw)
    if op in (OpKind.SIGMOID, OpKind.GELU):
        return Cost(0, 3 * chw)
    if op in CONV:
        k, m = CONV[op]
        return conv2d_cost(c, m * c, k, h, w)
    if op in DEPTHWISE:
        k = DEPTHWISE[op]
        return Cost(k * k * c, 2 * k * k * chw)
    if op in (OpKind.BATCH_NORM, OpKind.LAYER_NORM):
        return Cost(2 * c, 2 * chw)
    if op is OpKind.REL_POS_BIAS:
        return Cost(rel_pos_bias_params(h, w), chw)
    if op in (OpKind.CHUNK2, OpKind.CHUNK3, OpKind.COPY, OpKind.CONCAT2, OpKind.CONCAT3):
        return ZERO_COST
    if op is OpKind.ADD:
        return Cost(0, chw)
    if op is OpKind.MULTIPLY:
        return Cost(0, 4 * chw)
    if op is OpKind.MATMUL1:
        return Cost(0, 2 * c * h * h * w * w)
    if op is OpKind.MATMUL2:
        y = in_shapes[1]
        return Cost(0, 2 * y.c * y.h * y.h * y.w * y.w)
    if op is OpKind.GLOBAL_AVG:
        return Cost(0, chw)
    if op is OpKind.UP_SAMPLE:
        o = out_shapes[0]
        return Cost(0, o.c * o.h * o.w)
    raise AssertionError(op)
