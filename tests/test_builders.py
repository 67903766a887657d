import numpy as np
import pytest

import archspace as a
from archspace.errors import InfeasibleShape
from archspace.graph import topo_order, validate
from archspace.interpreter import forward, init_params
from archspace.ops import OpKind, Shape
from archspace.rng import Rng

from _oracles import attention2h_oracle


def test_identity_builder_is_empty_and_free():
    blk = a.build("identity", Shape(4, 4, 4))
    assert not blk.ops
    assert a.block_cost(blk).total == (0, 0)


def test_every_builder_output_validates_empty():
    cases = [
        ("mbconv4", Shape(8, 4, 4)),
        ("attention2h", Shape(8, 16, 16)),
        ("resnet_basic", Shape(5, 6, 6)),
        ("squeeze_excite", Shape(3, 4, 4)),
        ("identity", Shape(2, 2, 2)),
    ]
    for variant, shape in cases:
        assert validate(a.build(variant, shape)).ok, variant


def test_mbconv4_has_one_coupled_expansion_reduction_pair():
    blk = a.build("mbconv4", Shape(8, 4, 4))
    exps = [v for v, op in blk.ops.items() if op is OpKind.CONV_EXP4]
    reds = [v for v, op in blk.ops.items() if op is OpKind.CONV_RED4]
    assert len(exps) == 1 and len(reds) == 1
    assert blk.couples[exps[0]] == (reds[0],)
    assert blk.couples[reds[0]] == (exps[0],)


def test_infeasible_builder_shapes_raise():
    # odd channels: refused with Chunk2's row text
    with pytest.raises(InfeasibleShape, match=r"^attention2h does not fit \(7,16,16\): "
                                              r"node 3: Chunk2 requires C divisible by 2, got C=7$"):
        a.build("attention2h", Shape(7, 16, 16))


@pytest.mark.parametrize("shape", [Shape(8, 15, 16), Shape(8, 3, 5), Shape(8, 2, 2)])
def test_attention2h_needs_only_an_even_c(shape):
    """RelPosBias runs on the (H^2, W^2) attention map, whose sides are squares
    whatever H and W are, so any spatial size builds, validates and runs."""
    blk = a.build("attention2h", shape)
    assert validate(blk).ok
    x = Rng(1).normal((2, *shape))
    assert forward(blk, init_params(blk, Rng(0)), x).shape == x.shape


def _zero_convs(store):
    for tensors in store.tensors.values():
        for name, arr in tensors.items():
            if name in ("weight", "bias"):
                arr[:] = 0.0


def test_residual_identity_with_zero_weights():
    for variant in ("mbconv4", "resnet_basic"):
        blk = a.build(variant, Shape(8, 4, 4))
        store = init_params(blk, Rng(0))
        _zero_convs(store)
        x = Rng(1).normal((4, 8, 4, 4))
        y = forward(blk, store, x)
        np.testing.assert_array_equal(y, x)


def test_attention_matches_loop_oracle():
    blk = a.build("attention2h", Shape(8, 16, 16))
    store = init_params(blk, Rng(5))
    # exercise the bias path too: random relative-position tables
    for v in topo_order(blk):
        if blk.ops[v] is OpKind.REL_POS_BIAS:
            t = store.tensors[v]["table"]
            t[:] = Rng(100 + v).normal(t.shape)
    x = Rng(6).normal((8, 16, 16))
    got = forward(blk, store, x)
    want = attention2h_oracle(blk, store, x)
    assert np.max(np.abs(got - want)) < 1e-9


def test_attention_heads_consume_chunk_halves_in_topo_order():
    # The oracle assumes head order follows chunk port order.
    blk = a.build("attention2h", Shape(8, 16, 16))
    chunk = next(v for v, op in blk.ops.items() if op is OpKind.CHUNK2)
    qkvs = [v for v in topo_order(blk) if blk.ops[v] is OpKind.CONV_CHUNK3]
    targets = {e.src_port: e.dst for e in blk.edges if e.src == chunk}
    assert targets[0] == qkvs[0] and targets[1] == qkvs[1]
