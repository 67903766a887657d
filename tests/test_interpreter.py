import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import archspace as a
from archspace.errors import GraphError
from archspace.graph import BlockGraph, Edge, GraphAssembler, INPUT, OUTPUT, infer_shapes
from archspace.interpreter import (
    ParamStore,
    erf,
    forward,
    forward_network,
    init_network_params,
    init_params,
    matmul1,
    matmul2,
    maxpool2d,
    sigmoid,
)
from archspace.mutation import TEMPLATE_NAMES, TEMPLATES, _template_parts
from archspace.ops import OP_INFO, OpKind, Shape, op_cost, rel_pos_bias_table
from archspace.rng import Rng

from _oracles import matmul1_loops, matmul2_loops


def single_op_block(op, shape):
    g = GraphAssembler(shape)
    v = g.chain((INPUT, 0), op)
    g.wire(v, 0, OUTPUT, 0)
    return g.finish(), v


def test_matmul1_all_ones():
    x = np.ones((1, 1, 2, 2))
    out = matmul1(x, x)
    assert out.shape == (1, 1, 4, 4)
    np.testing.assert_allclose(out, 1.0)


def test_softmax_uniform():
    blk, _ = single_op_block(OpKind.SOFTMAX, Shape(1, 1, 3))
    y = forward(blk, init_params(blk, Rng(0)), np.zeros((1, 1, 3)))
    np.testing.assert_allclose(y, 1.0 / 3.0)


def test_matmuls_match_loop_oracles():
    rng = Rng(2024)
    for c, h, w in itertools.product(range(1, 5), range(1, 5), range(1, 5)):
        x = rng.normal((c, h, w))
        y = rng.normal((c, h, w))
        got = matmul1(x[None], y[None])[0]
        assert np.max(np.abs(got - matmul1_loops(x, y))) < 1e-12
        am = rng.normal((1, h * h, w * w))
        got2 = matmul2(am[None], y[None])[0]
        assert np.max(np.abs(got2 - matmul2_loops(am, y))) < 1e-12


def test_chunk_concat_inverse_exact():
    for chunk_op, cat_op, n in [(OpKind.CHUNK2, OpKind.CONCAT2, 2), (OpKind.CHUNK3, OpKind.CONCAT3, 3)]:
        g = GraphAssembler(Shape(6, 3, 3))
        ch = g.add(chunk_op)
        cat = g.add(cat_op)
        g.wire(INPUT, 0, ch, 0)
        for p in range(n):
            g.wire(ch, p, cat, p)
        g.wire(cat, 0, OUTPUT, 0)
        g.couple(ch, cat)
        blk = g.finish()
        x = Rng(1).normal((2, 6, 3, 3))
        y = forward(blk, init_params(blk, Rng(0)), x)
        np.testing.assert_array_equal(y, x)


def test_copy_add_doubles():
    g = GraphAssembler(Shape(2, 2, 2))
    copy = g.add(OpKind.COPY)
    add = g.add(OpKind.ADD)
    g.wire(INPUT, 0, copy, 0)
    g.wire(copy, 0, add, 0)
    g.wire(copy, 1, add, 1)
    g.wire(add, 0, OUTPUT, 0)
    g.couple(copy, add)
    blk = g.finish()
    x = Rng(1).normal((1, 2, 2, 2))
    np.testing.assert_allclose(forward(blk, init_params(blk, Rng(0)), x), 2 * x)


def test_maxpool_borders_use_in_bounds_neighbors():
    x = -np.arange(1, 10, dtype=float).reshape(1, 1, 3, 3)  # all negative
    y = maxpool2d(x)
    # window around (0,0) covers {-1,-2,-4,-5}; max is -1 (no zero padding leak)
    assert y[0, 0, 0, 0] == -1.0
    assert y[0, 0, 2, 2] == -5.0
    assert y.shape == x.shape


def test_mask_zeroes_far_from_diagonal():
    blk, _ = single_op_block(OpKind.MASK, Shape(1, 8, 8))
    x = np.ones((1, 1, 8, 8))
    y = forward(blk, init_params(blk, Rng(0)), x)
    assert y[0, 0, 0, 5] == 1.0 and y[0, 0, 0, 6] == 0.0
    assert y[0, 0, 7, 2] == 1.0 and y[0, 0, 7, 1] == 0.0


def test_dropout_is_identity():
    blk, _ = single_op_block(OpKind.DROPOUT, Shape(4, 8, 8))
    x = Rng(2).normal((2, 4, 8, 8))
    y = forward(blk, init_params(blk, Rng(0)), x)
    np.testing.assert_array_equal(y, x)


def test_batchnorm_normalizes_current_batch():
    blk, _ = single_op_block(OpKind.BATCH_NORM, Shape(3, 5, 5))
    store = init_params(blk, Rng(0))
    x = Rng(1).normal((8, 3, 5, 5), mean=4.0, std=2.5)
    y = forward(blk, store, x)
    np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)
    np.testing.assert_allclose(y.std(axis=(0, 2, 3)), 1.0, atol=1e-3)


def test_layernorm_normalizes_channels():
    blk, _ = single_op_block(OpKind.LAYER_NORM, Shape(16, 2, 2))
    store = init_params(blk, Rng(0))
    x = Rng(1).normal((3, 16, 2, 2), mean=-2.0, std=3.0)
    y = forward(blk, store, x)
    np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-12)


def test_relposbias_constant_diagonal_offsets():
    blk, v = single_op_block(OpKind.REL_POS_BIAS, Shape(1, 4, 4))
    store = init_params(blk, Rng(0))
    table = store.tensors[v]["table"]
    assert table.shape == (3, 3)
    table[:] = np.arange(9.0).reshape(3, 3)
    x = np.zeros((1, 1, 4, 4))
    y = forward(blk, store, x)[0, 0]
    # flat index a = h1*2 + h2 -> relative row h1 - h2
    assert y[0, 0] == table[1, 1]   # (0,0) vs (0,0)
    assert y[1, 2] == table[0, 2]   # h1-h2 = -1, w1-w2 = +1
    assert y[2, 1] == table[2, 0]


def _feasible_shape_for(op, rng):
    c = 1 + rng.randbelow(24)
    h = 1 + rng.randbelow(10)
    w = 1 + rng.randbelow(10)
    if op is OpKind.REL_POS_BIAS:
        h = (1 + rng.randbelow(3)) ** 2
        w = (1 + rng.randbelow(3)) ** 2
    if op is OpKind.MASK:
        w = h
    if op is OpKind.CHUNK2:
        c *= 2
    if op is OpKind.CHUNK3:
        c *= 3
    if op is OpKind.CONV_RED4:
        c *= 4
    return Shape(c, h, w)


_TEMPLATE_OF = {}
for name in TEMPLATE_NAMES:
    ids = tuple(range(2, 2 + len(TEMPLATES[name].ops)))
    ops = _template_parts(name, ids)[0]
    for i, op in ops.items():
        _TEMPLATE_OF.setdefault(op, (name, ids, i))


def test_parameter_counts_match_cost_formulas_for_all_ops():
    """For every parameterized op over 100 random feasible shapes, allocated
    scalars equal the cost rule exactly; RelPosBias is the documented
    exception where the allocation is the full table."""
    rng = Rng(31337)
    params_ops = [op for op, info in OP_INFO.items() if info.parameterized]
    for op in params_ops:
        name, ids, node = _TEMPLATE_OF[op]
        for _ in range(100):
            shape = _feasible_shape_for(template_head_shape_op(op), rng)
            scratch = BlockGraph.identity(shape)
            from archspace.mutation import Edit, apply_block_edit
            from archspace.graph import Edge
            edit = Edit("add", 0, INPUT, scratch.digest, template=name,
                        cut_edge=Edge(INPUT, 0, OUTPUT, 0), new_ids=ids)
            blk = apply_block_edit(scratch, edit)
            shapes = infer_shapes(blk)
            store = init_params(blk, rng.child(shape.c, shape.h, shape.w))
            got = sum(t.size for t in store.tensors.get(node, {}).values())
            s_in = shapes[node].in_shapes[0]
            formula = op_cost(op, shapes[node].in_shapes, shapes[node].out_shapes).params
            if op is OpKind.REL_POS_BIAS:
                table = rel_pos_bias_table(s_in.h, s_in.w)
                assert got == table[0] * table[1]
                assert formula == (table[0] * table[1] + 1) // 2
            else:
                assert got == formula, (op, shape)


def template_head_shape_op(op):
    # shape constraints bind on the template's entry edge
    if op is OpKind.CONV_RED4:
        return OpKind.CONV_EXP4  # red4 enters via the expansion template
    return op


def test_identity_block_has_empty_store():
    blk = BlockGraph.identity(Shape(3, 3, 3))
    assert init_params(blk, Rng(0)).scalar_count() == 0


def test_conv1_store_size_example():
    blk, v = single_op_block(OpKind.CONV1, Shape(4, 2, 2))
    assert init_params(blk, Rng(0)).scalar_count() == 4 * 5


def test_builder_store_sizes_equal_cost_params():
    for variant, shape in [("mbconv4", Shape(8, 4, 4)), ("resnet_basic", Shape(6, 5, 5)),
                           ("squeeze_excite", Shape(5, 3, 3))]:
        blk = a.build(variant, shape)
        store = init_params(blk, Rng(1))
        assert store.scalar_count() == a.block_cost(blk).total.params, variant


def test_forward_is_deterministic():
    blk = a.build("mbconv4", Shape(8, 4, 4))
    store = init_params(blk, Rng(7))
    x = Rng(8).normal((3, 8, 4, 4))
    y1 = forward(blk, store, x)
    y2 = forward(blk, store, x)
    assert y1.tobytes() == y2.tobytes()


def test_network_forward_contracts(desk_spec):
    plan = a.assemble_network(desk_spec)
    params = init_network_params(plan, Rng(0))
    x = Rng(1).normal((2, 3, 32, 32))
    logits = forward_network(plan, params, x)
    assert logits.shape == (2, 10)
    # zero classifier weights -> identically zero logits
    params.head[0][:] = 0.0
    params.head[1][:] = 0.0
    np.testing.assert_array_equal(forward_network(plan, params, x), 0.0)


def test_network_forward_same_seed_bitwise(desk_spec):
    def run():
        plan = a.assemble_network(desk_spec)
        params = init_network_params(plan, Rng(4))
        x = Rng(5).normal((2, 3, 32, 32))
        return forward_network(plan, params, x)

    assert run().tobytes() == run().tobytes()


def test_network_param_count_matches_cost(desk_spec):
    # no RelPosBias in mbconv/resnet/identity; attention tables diverge by
    # the documented exception, so count them out explicitly
    plan = a.assemble_network(desk_spec)
    params = init_network_params(plan, Rng(0))
    table_scalars = 0
    formula_scalars = 0
    for bi, blk in enumerate(desk_spec.blocks):
        shapes = infer_shapes(blk)
        for v, op in blk.ops.items():
            if op is OpKind.REL_POS_BIAS:
                s = shapes[v].in_shapes[0]
                t = rel_pos_bias_table(s.h, s.w)
                table_scalars += t[0] * t[1]
                formula_scalars += (t[0] * t[1] + 1) // 2
    total = a.network_cost(desk_spec).total.params
    assert params.scalar_count() - table_scalars == total - formula_scalars


def test_upsample_restores_coupled_spatial():
    blk = a.build("squeeze_excite", Shape(3, 5, 7))
    store = init_params(blk, Rng(0))
    y = forward(blk, store, Rng(1).normal((2, 3, 5, 7)))
    assert y.shape == (2, 3, 5, 7)


def test_uncoupled_upsample_raises_the_shape_inference_error():
    # INPUT -> GlobalAvg -> UpSample -> OUTPUT with no couples: forward fails
    # the way infer_shapes does, not with a bare StopIteration.
    blk = BlockGraph(Shape(2, 3, 3), {2: OpKind.GLOBAL_AVG, 3: OpKind.UP_SAMPLE},
                     (Edge(INPUT, 0, 2, 0), Edge(2, 0, 3, 0), Edge(3, 0, OUTPUT, 0)), {}, 4)
    msg = "node 3: UpSample has no resolved coupled GlobalAvg"
    with pytest.raises(GraphError, match=msg):
        infer_shapes(blk)
    with pytest.raises(GraphError, match=msg):
        forward(blk, ParamStore(), np.zeros((1, 2, 3, 3)))


def test_erf_and_sigmoid_match_scipy_within_4_ulp():
    special = pytest.importorskip("scipy.special")
    x = Rng(0).normal(200_000, std=3.0)
    for got, want in ((erf(x), special.erf(x)), (sigmoid(x), special.expit(x))):
        assert got.dtype == np.float64
        assert np.max(np.abs(got - want) / np.spacing(np.abs(want))) <= 4


def test_sigmoid_saturates_exactly_without_warnings():
    blk, _ = single_op_block(OpKind.SIGMOID, Shape(1, 1, 2))
    x = np.array([-1000.0, 1000.0]).reshape(1, 1, 1, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = forward(blk, init_params(blk, Rng(0)), x)
    assert y.reshape(-1).tolist() == [0.0, 1.0]


def test_import_loads_no_scipy():
    src = Path(a.__file__).resolve().parent.parent
    code = "import archspace, archspace.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
