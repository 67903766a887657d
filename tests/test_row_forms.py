"""The reverse sweep's D + A F row form against the sweep that spreads every
row over the batch from the first BatchNorm on (``vjp_rows_spread_oracle``),
and the shapes and memory of the rows the sweep carries."""

import tracemalloc

import numpy as np
import pytest

import archspace as a
from archspace import interpreter, proxy
from archspace.graph import OUTPUT, Edge
from archspace.interpreter import init_params
from archspace.ops import OpKind, Shape
from archspace.proxy import block_gradients
from archspace.rng import Rng

from _oracles import vjp_rows_spread_oracle
from test_gradients import BUILDER_BLOCKS, _insert, op_block, problem
from test_vkdnw_pins import BATCH as POOL_BATCH, pool_networks


def pool_problem(block):
    store = init_params(block, Rng(0))
    u = Rng(2).normal(block.input_shape.numel)
    return store, Rng(1).normal((POOL_BATCH, *block.input_shape)), u / np.linalg.norm(u)


def oracle_gradients(monkeypatch, block, store, batch, u):
    with monkeypatch.context() as m:
        m.setattr(proxy, "vjp_rows", vjp_rows_spread_oracle)
        return block_gradients(block, store, batch, u)


def assert_matches_oracle(monkeypatch, block, store, batch, u):
    got = block_gradients(block, store, batch, u)
    want = oracle_gradients(monkeypatch, block, store, batch, u)
    assert got.shape == want.shape and want.any()
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    return got, want


def spanning_rows(monkeypatch, block, store, batch, u):
    """The row count of every cotangent spanning the batch that reaches a
    backward rule, by node."""
    seen = []
    real = interpreter._vjp_node

    def recorded(tape, v, op, gs, *rest):
        seen.extend((v, g.shape[0]) for g in gs if g.shape[1] != 1)
        return real(tape, v, op, gs, *rest)

    with monkeypatch.context() as m:
        m.setattr(interpreter, "_vjp_node", recorded)
        block_gradients(block, store, batch, u)
    return seen


def test_every_pool_block_matches_the_spread_oracle(monkeypatch):
    blocks = [b for net in pool_networks() for b in net.blocks]
    assert len(blocks) == 12
    for block in blocks:
        store, batch, u = pool_problem(block)
        if store.scalar_count():
            assert_matches_oracle(monkeypatch, block, store, batch, u)


@pytest.mark.parametrize("variant,shape", BUILDER_BLOCKS, ids=lambda p: str(p))
def test_builder_blocks_match_the_spread_oracle(monkeypatch, variant, shape):
    block = a.build(variant, shape)
    assert_matches_oracle(monkeypatch, block, *problem(block))


def _copy_add(shape, branches):
    """Conv1 -> Copy -> Add with a BatchNorm on the given Copy -> Add edges."""
    block = op_block("copy_add", shape)
    copy, add = (v for v in sorted(block.ops) if v != 2)
    for port in branches:
        block = _insert(block, "batchnorm", Edge(copy, port, add, port))
    return block


# (BatchNorm branches, C, most rows spanning the batch) at 10 rows: one
# BatchNorm keeps its 2C = 8 bases; two at C = 2 keep 4 each, and the Copy
# meets bases 0 .. 4 from one branch and 4 .. 8 from the other; two at C = 4
# fold at the second (8 + 8 >= 10).
COPY_ADD = {"one_branch": ((0,), 4, 8), "both_branches_kept": ((0, 1), 2, 8),
            "both_branches_folded": ((0, 1), 4, 10)}


@pytest.mark.parametrize("case", list(COPY_ADD))
def test_copy_add_with_batchnorms_matches_the_spread_oracle(monkeypatch, case):
    branches, c, most = COPY_ADD[case]
    block = _copy_add(Shape(c, 4, 4), branches)
    assert_matches_oracle(monkeypatch, block, *problem(block))
    assert max(r for _, r in spanning_rows(monkeypatch, block, *problem(block))) == most


def test_chunks_with_different_bases_match_the_spread_oracle(monkeypatch):
    # A BatchNorm in one chunk of Chunk2 -> Concat2: the Chunk2 meets F on
    # one port and none on the other.
    block = op_block("chunk2_concat2", Shape(4, 4, 4))
    chunk = next(v for v, op in block.ops.items() if op is OpKind.CHUNK2)
    concat = next(v for v, op in block.ops.items() if op is OpKind.CONCAT2)
    block = _insert(block, "batchnorm", Edge(chunk, 0, concat, 0))
    assert_matches_oracle(monkeypatch, block, *problem(block))
    assert {v for v, _ in spanning_rows(monkeypatch, block, *problem(block))} >= {chunk}


# Two BatchNorms in series at 10 rows: C = 2 keeps both BatchNorms' bases
# (4 + 4 < 10), C = 4 folds at the second (8 + 8 >= 10) and C = 6 at the
# first (12 >= 10), where the rows spanning the batch are all 10.
SERIES = {2: 8, 4: 10, 6: 10}


@pytest.mark.parametrize("c", list(SERIES))
def test_batchnorms_in_series_match_the_spread_oracle(monkeypatch, c):
    block = op_block("batchnorm", Shape(c, 4, 4))
    bn = next(v for v, op in block.ops.items() if op is OpKind.BATCH_NORM)
    block = _insert(block, "batchnorm", Edge(bn, 0, OUTPUT, 0))
    assert_matches_oracle(monkeypatch, block, *problem(block))
    rows = [r for _, r in spanning_rows(monkeypatch, block, *problem(block))]
    assert max(rows) == SERIES[c]


@pytest.mark.parametrize("variant,shape", [("resnet_basic", Shape(8, 2, 2)), ("mbconv4", Shape(4, 4, 4))],
                         ids=lambda p: str(p))
def test_one_row_per_sweep_matches_the_spread_oracle(monkeypatch, variant, shape):
    monkeypatch.setattr(proxy, "_SWEEP_ELEMENTS", 1)
    block = a.build(variant, shape)
    assert_matches_oracle(monkeypatch, block, *problem(block))


def test_rows_upstream_of_a_batchnorm_stay_per_sample(monkeypatch):
    # Pool block (0, 2), resnet_basic at (8, 2, 2) and B = 64: the two
    # BatchNorms bring 16 and then 32 bases, where every row used to span
    # the batch from the first one on.
    block = pool_networks()[0].blocks[2]
    rows = spanning_rows(monkeypatch, block, *pool_problem(block))
    assert rows and max(r for _, r in rows) == 32
    assert sorted({r for _, r in rows}) == [16, 32]


def test_the_fold_gives_the_oracles_rows(monkeypatch):
    # resnet_basic at (48, 2, 2) with B = 16: 2C = 96 >= 16, so the first
    # BatchNorm folds and the sweep is the oracle's, bit for bit.
    block = a.build("resnet_basic", Shape(48, 2, 2))
    store = init_params(block, Rng(0))
    batch = Rng(1).normal((16, *block.input_shape))
    u = Rng(2).normal(block.input_shape.numel)
    u /= np.linalg.norm(u)
    rows = spanning_rows(monkeypatch, block, store, batch, u)
    assert rows and {r for _, r in rows} == {16}
    got = block_gradients(block, store, batch, u)
    assert got.tobytes() == oracle_gradients(monkeypatch, block, store, batch, u).tobytes()


def test_pool_block_peak_stays_under_the_spread_sweep():
    """Pool block (0, 2) at B = 64: ``block_gradients`` peaked at 5,322,102
    traced bytes when every row spread over the batch at the first
    BatchNorm, whose rule built a (64, 64, 8, 2, 2) input cotangent before
    any op upstream ran.  It reads 2,732,198 with the bases."""
    block = pool_networks()[0].blocks[2]
    store, batch, u = pool_problem(block)
    block_gradients(block, store, batch, u)
    tracemalloc.start()
    try:
        block_gradients(block, store, batch, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_322_102
