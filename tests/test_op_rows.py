"""Each op's `ops.OP_INFO` row against the per-op `if op is ...` chains kept in
`_oracles.py`: `transfer`, `op_cost`, `init_params` and the forward pass.

Shapes: a grid over every op, with matching, mismatched and wrong-arity
inputs.  Blocks: the builder variants and every other block the seeded
c04-budget walk of `test_validate_oracle` visits, with a fused entry
channel count where the block starts with a dense conv.  Output shapes
must be equal or fail with the same error type and message; costs equal;
parameter arrays and forward outputs equal bit for bit.
"""

import itertools

import archspace as a
from archspace.builders import VARIANTS
from archspace.interpreter import _FORWARD, forward, init_params
from archspace.ops import OP_INFO, OpKind, Shape, op_cost, transfer
from archspace.rng import Rng

from _oracles import (
    CONV,
    PRESERVES_SHAPE,
    forward_oracle,
    init_params_oracle,
    op_cost_oracle,
    transfer_oracle,
)
from test_validate_oracle import walk_blocks

GRID = [Shape(c, h, w) for c in (1, 2, 3, 4, 6, 12) for h in (1, 2, 4, 9) for w in (1, 3, 4)]


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the oracle must fail the same way, whatever the type
        return type(exc), str(exc)


def _inputs(op, s):
    """Input lists for op around shape s: the well-formed one, a mismatched
    partner where the op takes more than one input, and one input too many."""
    n = OP_INFO[op].in_arity
    cases = [[s] * n, [s] * (n + 1)]
    if n > 1:
        cases.append([s] * (n - 1) + [Shape(s.c + 1, s.h, s.w)])
        cases.append([Shape(1, s.h * s.h, s.w * s.w)] + [s] * (n - 1))
    return cases


def test_every_op_has_a_row_and_a_forward_rule():
    assert set(OP_INFO) == set(OpKind) == set(_FORWARD)
    assert {op for op, row in OP_INFO.items() if row.preserves_shape} == PRESERVES_SHAPE


def test_transfer_and_op_cost_match_oracles_over_shape_grid():
    compared = 0
    for op, s, target in itertools.product(OpKind, GRID, (None, (4, 4))):
        for ins in _inputs(op, s):
            got = _outcome(transfer, op, ins, node=7, upsample_target=target)
            assert got == _outcome(transfer_oracle, op, ins, node=7, upsample_target=target), (op, ins)
            if isinstance(got, tuple) and isinstance(got[0], Shape):
                assert op_cost(op, ins, got) == op_cost_oracle(op, ins, got), (op, ins)
                compared += 1
    assert compared > 1000


def _same_params(got, want):
    assert list(got.tensors) == list(want.tensors)
    for v, tensors in got.tensors.items():
        assert list(tensors) == list(want.tensors[v])
        for name, arr in tensors.items():
            assert arr.shape == want.tensors[v][name].shape
            assert arr.tobytes() == want.tensors[v][name].tobytes(), (v, name)


def _blocks():
    yield from (a.build(variant, Shape(12, 4, 4)) for variant in VARIANTS)
    yield from walk_blocks()[::2]


def test_init_params_and_forward_match_oracles_on_walk_blocks():
    assert {op for b in _blocks() for op in b.ops.values()} == set(OpKind)
    seen = set()
    for i, block in enumerate(_blocks()):
        if block.digest in seen:
            continue
        seen.add(block.digest)
        rng = Rng(i)
        store = init_params(block, rng)
        _same_params(store, init_params_oracle(block, rng))
        if block.ops.get(block.first_interior()) in CONV:
            _same_params(init_params(block, rng, entry_in_channels=5),
                         init_params_oracle(block, rng, entry_in_channels=5))
        x = Rng(i + 1).normal((2, *block.input_shape))
        assert forward(block, store, x).tobytes() == forward_oracle(block, store, x).tobytes()
    assert len(seen) > 900
