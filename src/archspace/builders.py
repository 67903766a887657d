"""Constructors for canonical hand-crafted modules as block graphs.

These serve as search seeds and as oracles: each builder output passes
validation, and the attention builder is checked against a loop-based
scaled-dot-product reference.  Norm/activation placement inside MBConv
follows the usual inverted-bottleneck layout (conv -> norm -> GELU); the
exact node sequences are documented here and asserted in tests, they are
not claims about any particular diagram.
"""

from __future__ import annotations

from .errors import FormatError, GraphError, InfeasibleShape
from .graph import BlockGraph, GraphAssembler, INPUT, OUTPUT
from .ops import OpKind, Shape


def _se_subgraph(g: GraphAssembler, src: tuple[int, int]) -> int:
    """Squeeze-excite: Copy -> (GlobalAvg .. Sigmoid -> UpSample) -> Multiply."""
    copy = g.add(OpKind.COPY)
    g.wire(src[0], src[1], copy, 0)
    gavg = g.add(OpKind.GLOBAL_AVG)
    g.wire(copy, 1, gavg, 0)
    up = g.chain((gavg, 0), OpKind.CONV1, OpKind.GELU, OpKind.CONV1, OpKind.SIGMOID, OpKind.UP_SAMPLE)
    mult = g.add(OpKind.MULTIPLY)
    g.wire(copy, 0, mult, 0)
    g.wire(up, 0, mult, 1)
    g.couple(copy, mult)
    g.couple(gavg, up)
    return mult


def build_identity(shape: Shape) -> BlockGraph:
    return BlockGraph.identity(shape)


def build_squeeze_excite(shape: Shape) -> BlockGraph:
    g = GraphAssembler(shape)
    mult = _se_subgraph(g, (INPUT, 0))
    g.wire(mult, 0, OUTPUT, 0)
    return g.finish()


def build_mbconv4(shape: Shape) -> BlockGraph:
    """Inverted bottleneck, expansion 4, with squeeze-excite, in a residual."""
    g = GraphAssembler(shape)
    copy = g.add(OpKind.COPY)
    g.wire(INPUT, 0, copy, 0)
    exp = g.add(OpKind.CONV_EXP4)
    g.wire(copy, 0, exp, 0)
    dw_end = g.chain(
        (exp, 0), OpKind.BATCH_NORM, OpKind.GELU, OpKind.CONV_DEPTH3, OpKind.BATCH_NORM, OpKind.GELU
    )
    mult = _se_subgraph(g, (dw_end, 0))
    red = g.add(OpKind.CONV_RED4)
    g.wire(mult, 0, red, 0)
    bn = g.chain((red, 0), OpKind.BATCH_NORM)
    add = g.add(OpKind.ADD)
    g.wire(copy, 1, add, 0)
    g.wire(bn, 0, add, 1)
    g.wire(add, 0, OUTPUT, 0)
    g.couple(copy, add)
    g.couple(exp, red)
    return g.finish()


def build_resnet_basic(shape: Shape) -> BlockGraph:
    g = GraphAssembler(shape)
    copy = g.add(OpKind.COPY)
    g.wire(INPUT, 0, copy, 0)
    tail = g.chain((copy, 0), OpKind.CONV3, OpKind.BATCH_NORM, OpKind.GELU, OpKind.CONV3, OpKind.BATCH_NORM)
    add = g.add(OpKind.ADD)
    g.wire(tail, 0, add, 0)
    g.wire(copy, 1, add, 1)
    g.wire(add, 0, OUTPUT, 0)
    g.couple(copy, add)
    return g.finish()


def _attention_head(g: GraphAssembler, src: tuple[int, int]) -> int:
    """ConvChunk3 -> Matmul1(Q,K) -> RelPosBias -> Softmax -> Matmul2(., V)."""
    qkv = g.add(OpKind.CONV_CHUNK3)
    g.wire(src[0], src[1], qkv, 0)
    m1 = g.add(OpKind.MATMUL1)
    g.wire(qkv, 0, m1, 0)
    g.wire(qkv, 1, m1, 1)
    sm = g.chain((m1, 0), OpKind.REL_POS_BIAS, OpKind.SOFTMAX)
    m2 = g.add(OpKind.MATMUL2)
    g.wire(sm, 0, m2, 0)
    g.wire(qkv, 2, m2, 1)
    g.couple(qkv, m1, m2)
    return m2


def build_attention2h(shape: Shape) -> BlockGraph:
    """Two-head self-attention in a residual; per-head width C/2 via Chunk2."""
    g = GraphAssembler(shape)
    copy = g.add(OpKind.COPY)
    g.wire(INPUT, 0, copy, 0)
    chunk = g.add(OpKind.CHUNK2)
    g.wire(copy, 0, chunk, 0)
    h1 = _attention_head(g, (chunk, 0))
    h2 = _attention_head(g, (chunk, 1))
    cat = g.add(OpKind.CONCAT2)
    g.wire(h1, 0, cat, 0)
    g.wire(h2, 0, cat, 1)
    proj = g.chain((cat, 0), OpKind.CONV1)
    add = g.add(OpKind.ADD)
    g.wire(copy, 1, add, 0)
    g.wire(proj, 0, add, 1)
    g.wire(add, 0, OUTPUT, 0)
    g.couple(copy, add)
    g.couple(chunk, cat)
    return g.finish()


_BUILDERS = {
    "identity": build_identity,
    "mbconv4": build_mbconv4,
    "attention2h": build_attention2h,
    "resnet_basic": build_resnet_basic,
    "squeeze_excite": build_squeeze_excite,
}
VARIANTS = tuple(_BUILDERS)


def build(variant: str, input_shape: Shape) -> BlockGraph:
    """Construct the named variant at the given shape; raises FormatError for an
    unknown variant and InfeasibleShape, with the refusing op row's text, for a misfit."""
    if variant not in _BUILDERS:
        raise FormatError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    shape = Shape(*input_shape).check()
    block = _BUILDERS[variant](shape)
    try:
        block.shapes  # inferred by the op rows' rules, and kept with the block
    except GraphError as exc:
        raise InfeasibleShape(f"{variant} does not fit {shape}: {exc}") from exc
    return block
