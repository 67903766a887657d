"""The reverse sweep's two row forms against central finite differences
(``fd_gradients``): a row stays on its own sample down to the first
BatchNorm and spans the batch from there.  The blocks are the scoring pool,
the builder blocks in chunks of rows, and BatchNorm arrangements where rows
of both forms meet at one node."""

import numpy as np
import pytest

from archspace import interpreter
from archspace.graph import OUTPUT, Edge
from archspace.ops import OpKind, Shape
from archspace.proxy import block_gradients, fd_gradients

from test_gradients import (
    BUILDER_BLOCKS,
    _insert,
    assert_builder_matches,
    assert_gradients_match,
    op_block,
    pool_problem,
)
from test_vkdnw_pins import pool_networks


def test_every_pool_block_matches_finite_differences():
    blocks = [b for net in pool_networks() for b in net.blocks]
    assert len(blocks) == 12
    for block in blocks:
        store, batch, u = pool_problem(block)
        got, want = block_gradients(block, store, batch, u), fd_gradients(block, store, batch, u)
        assert want.any()
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5 * np.abs(want).max())


@pytest.mark.parametrize("variant,shape", BUILDER_BLOCKS, ids=lambda p: str(p))
def test_builder_blocks_match_finite_differences(monkeypatch, variant, shape):
    # Sweeps of 3 rows: the chunks start at samples 0, 3, 6 and 9.
    monkeypatch.setattr(interpreter.Tape, "rows_per_sweep", lambda self: 3)
    assert_builder_matches(variant, shape)


def _copy_add(shape, branches):
    """Conv1 -> Copy -> Add with a BatchNorm on the given Copy -> Add edges."""
    block = op_block("copy_add", shape)
    copy, add = (v for v in sorted(block.ops) if v != 2)
    for port in branches:
        block = _insert(block, "batchnorm", Edge(copy, port, add, port))
    return block


# (BatchNorm branches, C): the Copy meets rows of both forms, or full rows
# from both branches at C = 2 and at C = 4.
COPY_ADD = {"one_branch": ((0,), 4), "both_branches_kept": ((0, 1), 2),
            "both_branches_folded": ((0, 1), 4)}


@pytest.mark.parametrize("case", list(COPY_ADD))
def test_copy_add_with_batchnorms_matches_finite_differences(case):
    branches, c = COPY_ADD[case]
    assert_gradients_match(_copy_add(Shape(c, 4, 4), branches))


def test_chunks_of_both_row_forms_match_finite_differences():
    # A BatchNorm in one chunk of Chunk2 -> Concat2: the Chunk2 meets full
    # rows on one port and per-sample rows on the other.
    block = op_block("chunk2_concat2", Shape(4, 4, 4))
    chunk = next(v for v, op in block.ops.items() if op is OpKind.CHUNK2)
    concat = next(v for v, op in block.ops.items() if op is OpKind.CONCAT2)
    assert_gradients_match(_insert(block, "batchnorm", Edge(chunk, 0, concat, 0)))


@pytest.mark.parametrize("c", [2, 4, 6])
def test_batchnorms_in_series_match_finite_differences(c):
    # The second BatchNorm takes full rows from the first.
    block = op_block("batchnorm", Shape(c, 4, 4))
    bn = next(v for v, op in block.ops.items() if op is OpKind.BATCH_NORM)
    assert_gradients_match(_insert(block, "batchnorm", Edge(bn, 0, OUTPUT, 0)))


@pytest.mark.parametrize("variant,shape", [("resnet_basic", Shape(8, 2, 2)), ("mbconv4", Shape(4, 4, 4))],
                         ids=lambda p: str(p))
def test_one_row_per_sweep_matches_finite_differences(monkeypatch, variant, shape):
    monkeypatch.setattr(interpreter, "_SWEEP_ELEMENTS", 1)
    assert_builder_matches(variant, shape)
