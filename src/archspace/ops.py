"""The 27 elementary operations, one ``OP_INFO`` row each: arity, shape
rule, FLOPs rule, parameter tensor shapes and convolution geometry.

Conventions used throughout the package:

* Tensors inside a block are rank-3 with axis order (C, H, W).
* FLOPs count every multiplication and addition of a single forward pass,
  so totals will not match runtime profilers that only count MACs.
* An op is defined once, by its row: ``transfer`` and ``op_cost`` read it,
  and so do the fused stage projection and the interpreter's init, forward
  and backward.  A cost rule's params are the summed sizes of the row's
  parameter tensors.
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
from typing import Callable, NamedTuple, Optional, Sequence

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

    # Members are singletons: hash by identity, in C, not by Enum's Python code.
    __hash__ = object.__hash__


OP_BY_NAME = {op.value: op for op in OpKind}


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


class Conv(NamedTuple):
    """Convolution geometry: a kernel x kernel window with padding kernel // 2,
    so H and W are kept, and mult output channels per input channel.  A
    depthwise conv filters each channel alone and has no bias."""

    kernel: int
    mult: int = 1
    depthwise: bool = False

    def tensors(self, s: Shape, c_in: int) -> dict[str, tuple[int, ...]]:
        k, c_out = self.kernel, self.mult * s.c
        if self.depthwise:
            return {"weight": (c_out, k, k)}
        return {"weight": (c_out, c_in, k, k), "bias": (c_out,)}

    def flops(self, s: Shape, o: Shape) -> int:
        """A multiplication and an addition per weight scalar at each position."""
        return 2 * self.kernel ** 2 * (1 if self.depthwise else s.c) * self.mult * s.c * s.h * s.w


@dataclass(frozen=True)
class OpInfo:
    """One op's one definition.  Shape rule, unless `rule` states another:
    every input equals the first, which meets `requires`, and each output has
    C*num/den channels, (num, den) = scale.  FLOPs: per_element times the
    input's size, or `flops` of the first input and output shapes.  `tensors`
    maps the input shape and the channels consumed to the parameter tensors'
    shapes, whose sizes sum to the cost's params unless `params` states them."""

    in_arity: int
    out_arity: int
    per_element: int = 0
    flops: Optional[Callable[[Shape, Shape], int]] = None
    scale: tuple[int, int] = (1, 1)
    requires: Optional[tuple[str, Callable[[Shape], bool]]] = None
    rule: Optional[Callable[..., tuple[Shape, ...]]] = None  # (in_shapes, node, upsample_target)
    tensors: Optional[Callable[[Shape, int], dict[str, tuple[int, ...]]]] = None
    params: Optional[Callable[[Shape], int]] = None
    conv: Optional[Conv] = None

    @property
    def parameterized(self) -> bool:
        return self.tensors is not None

    @property
    def preserves_shape(self) -> bool:
        """Single input, single output, out shape == in shape."""
        return self.in_arity == self.out_arity == 1 and self.rule is None and self.scale == (1, 1)


def _scale_shift(s: Shape, c_in: int) -> dict[str, tuple[int, ...]]:
    return {"scale": (s.c,), "shift": (s.c,)}


def _conv_row(conv: Conv, out_arity: int = 1, scale: tuple[int, int] = (1, 1)) -> OpInfo:
    return OpInfo(1, out_arity, flops=conv.flops, scale=scale, tensors=conv.tensors, conv=conv)


def conv2d_cost(c_in: int, c_out: int, kernel: int, out_h: int, out_w: int) -> Cost:
    """Standard dense conv with bias, counted at output positions."""
    return Cost(c_out * (kernel * kernel * c_in + 1), 2 * kernel * kernel * c_in * c_out * out_h * out_w)


def rel_pos_bias_table(h: int, w: int) -> tuple[int, int]:
    """Shape of the relative-offset table the interpreter allocates."""
    u, v = math.isqrt(h), math.isqrt(w)
    return (2 * u - 1, 2 * v - 1)


def _matmul1(ins: Sequence[Shape], node: object, target) -> tuple[Shape, ...]:
    s = ins[0]
    if ins[1] != s:
        raise ShapeMismatch(node, s, ins[1])
    return (Shape(1, s.h * s.h, s.w * s.w),)


def _matmul2(ins: Sequence[Shape], node: object, target) -> tuple[Shape, ...]:
    y = ins[1]
    want = Shape(1, y.h * y.h, y.w * y.w)
    if ins[0] != want:
        raise ShapeMismatch(node, want, ins[0])
    return (y,)


def _upsample(ins: Sequence[Shape], node: object, target) -> tuple[Shape, ...]:
    s = ins[0]
    if (s.h, s.w) != (1, 1):
        raise ShapeMismatch(node, Shape(s.c, 1, 1), s)
    if target is None:
        raise GraphError(f"node {node}: UpSample has no coupled GlobalAvg to define its target size")
    return (Shape(s.c, *target),)


OP_INFO = {
    OpKind.SOFTMAX: OpInfo(1, 1, flops=lambda s, o: s.c * s.h * (3 * s.w - 1)),
    OpKind.DROPOUT: OpInfo(1, 1, per_element=1),
    OpKind.MAXPOOL: OpInfo(1, 1, per_element=9),
    OpKind.MASK: OpInfo(1, 1, per_element=1, requires=("H == W", lambda s: s.h == s.w)),
    OpKind.SIGMOID: OpInfo(1, 1, per_element=3),
    OpKind.GELU: OpInfo(1, 1, per_element=3),
    OpKind.CONV1: _conv_row(Conv(1)),
    OpKind.CONV3: _conv_row(Conv(3)),
    OpKind.CONV_DEPTH3: _conv_row(Conv(3, depthwise=True)),
    OpKind.CONV_DEPTH5: _conv_row(Conv(5, depthwise=True)),
    OpKind.BATCH_NORM: OpInfo(1, 1, per_element=2, tensors=_scale_shift),
    OpKind.LAYER_NORM: OpInfo(1, 1, per_element=2, tensors=_scale_shift),
    # Cost params: 2(sqrt(H)-1/2)(sqrt(W)-1/2), half the table rounded half-up.
    OpKind.REL_POS_BIAS: OpInfo(
        1, 1, per_element=1,
        requires=("integer sqrt(H), sqrt(W)", lambda s: all(math.isqrt(n) ** 2 == n for n in (s.h, s.w))),
        tensors=lambda s, c_in: {"table": rel_pos_bias_table(s.h, s.w)},
        params=lambda s: (math.prod(rel_pos_bias_table(s.h, s.w)) + 1) // 2),
    OpKind.CHUNK2: OpInfo(1, 2, scale=(1, 2)),
    OpKind.CHUNK3: OpInfo(1, 3, scale=(1, 3)),
    OpKind.COPY: OpInfo(1, 2),
    OpKind.CONCAT2: OpInfo(2, 1, scale=(2, 1)),
    OpKind.CONCAT3: OpInfo(3, 1, scale=(3, 1)),
    OpKind.ADD: OpInfo(2, 1, per_element=1),
    OpKind.CONV_CHUNK3: _conv_row(Conv(1, 3), out_arity=3),
    OpKind.CONV_EXP4: _conv_row(Conv(1, 4), scale=(4, 1)),
    OpKind.CONV_RED4: _conv_row(Conv(1, 4), scale=(1, 4)),
    OpKind.MULTIPLY: OpInfo(2, 1, per_element=4),
    OpKind.MATMUL1: OpInfo(2, 1, flops=lambda s, o: 2 * s.c * o.h * o.w, rule=_matmul1),
    OpKind.MATMUL2: OpInfo(2, 1, flops=lambda s, o: 2 * o.c * s.h * s.w, rule=_matmul2),
    OpKind.GLOBAL_AVG: OpInfo(1, 1, per_element=1, rule=lambda ins, *_: (Shape(ins[0].c, 1, 1),)),
    OpKind.UP_SAMPLE: OpInfo(1, 1, flops=lambda s, o: o.c * o.h * o.w, rule=_upsample),
}

# Ops whose insertion changes dimensions or fan-out and therefore only ever
# enter a graph together with a shape-restoring counterpart.
COUPLED_ONLY = frozenset(
    op for op, info in OP_INFO.items() if not info.preserves_shape
)


def transfer(
    op: OpKind,
    in_shapes: Sequence[Shape],
    node: object = "?",
    upsample_target: Optional[tuple[int, int]] = None,
) -> tuple[Shape, ...]:
    """Output shapes of `op` for the given input shapes, or a typed error."""
    info = OP_INFO[op]
    if info.requires is None and op not in COUPLED_ONLY and len(in_shapes) == 1:
        return (in_shapes[0],)  # what the default rule gives a shape-preserving op
    if len(in_shapes) != info.in_arity:
        raise GraphError(f"node {node}: {op.value} takes {info.in_arity} inputs, got {len(in_shapes)}")
    if info.rule is not None:
        return info.rule(in_shapes, node, upsample_target)
    s = in_shapes[0]
    for other in in_shapes[1:]:
        if other != s:
            raise ShapeMismatch(node, s, other)
    num, den = info.scale
    if s.c % den:
        raise DivisibilityViolation(node, f"{op.value} requires C divisible by {den}, got C={s.c}")
    if info.requires is not None and not info.requires[1](s):
        raise NonSquareSpatial(node, f"{op.value} requires {info.requires[0]}, got {s}")
    return (s if num == den else Shape(s.c * num // den, s.h, s.w),) * info.out_arity


def op_cost(op: OpKind, in_shapes: Sequence[Shape], out_shapes: Sequence[Shape]) -> Cost:
    """Exact params/FLOPs of one node given its inferred shapes."""
    info = OP_INFO[op]
    s = in_shapes[0]
    flops = info.per_element * s.c * s.h * s.w if info.flops is None else info.flops(s, out_shapes[0])
    if info.tensors is None:
        return Cost(0, flops)
    if info.params is not None:
        return Cost(info.params(s), flops)
    return Cost(sum(math.prod(t) for t in info.tensors(s, s.c).values()), flops)
