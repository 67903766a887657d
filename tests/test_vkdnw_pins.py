"""Byte pins for vkdnw scores at the default batch of 64 over the benchmark's
scoring pool: the C=8 desk network and the networks that seed-7 walks of 20
and 40 steps reach from it inside the 1.5k-2.8k params box.

A block with more than 5·B parameters (P > 320 here) scores exactly 0
without a sweep, so 9 of the 12 pool blocks are swept.  Unlike the
four-sample block pins of test_conv_pins, those sweep their rows in one
sweep or, where a cotangent spanning the batch would outgrow the sweep
bound, in several: a row stays on its own sample down to the first
BatchNorm and spans the batch from there.

The pins were recorded when the spectrum moved from G's singular values to
the eigenvalues of the smaller Gram matrix and BatchNorm's backward rule
began to take per-sample rows itself.  A deliberate change of these bytes
updates them and is recorded in CHANGES.md.
"""

import hashlib
import struct

import archspace as a
from archspace import interpreter, proxy
from archspace.ops import OpKind, Shape
from archspace.rng import Rng
from archspace.search import WalkConfig, random_walk

BATCH = 64
POOL_BUDGET = a.Budget(1_500, 2_800, 0, 10**12)
WALK_SEED = 7
WALK_STEPS = (20, 40)

POOL_PINS = (
    "7f2d6ea001f535ea1a695452ea5f06f2b425d17205f401c6803acfe0ea3b1486",
    "2f3a15511a2e81aa1896aa4f7e903c32e0638ac500b49b1b9891a2e341c55ef3",
    "13f04a427d7409be3bbc4259ad0f24c8f6144a15d25ccef8ca5b46b8be50b0ff",
)


def pool_networks():
    blocks = [
        a.build("attention2h", Shape(8, 4, 4)),
        a.build("squeeze_excite", Shape(8, 4, 4)),
        a.build("resnet_basic", Shape(8, 2, 2)),
        a.build("squeeze_excite", Shape(8, 2, 2)),
    ]
    base = a.make_network(8, (32, 32), (2, 2), (8, 8), 10, blocks=blocks)
    walks = [random_walk(base, WalkConfig(steps=s, budget=POOL_BUDGET, seed=WALK_SEED))[0]
             for s in WALK_STEPS]
    return [base, *walks]


def _score_digest(j, net):
    score = proxy.score_network(net, proxy.ProxyId.VKDNW, Rng(0).child(j), batch_size=BATCH)
    data = struct.pack(f"<{1 + len(score.per_block)}d", score.value, *score.per_block)
    return hashlib.sha256(data).hexdigest()


def test_vkdnw_pool_scores_are_pinned():
    pool = pool_networks()
    assert tuple(_score_digest(j, net) for j, net in enumerate(pool)) == POOL_PINS


def test_pool_reaches_full_rows_in_one_sweep_and_in_several():
    sweeps = set()
    for net in pool_networks():
        for block in net.blocks:
            if OpKind.BATCH_NORM not in block.ops.values():
                continue
            store = interpreter.init_params(block, Rng(0))
            tape = interpreter.forward_tape(block, store, Rng(1).normal((BATCH, *block.input_shape)))
            sweeps.add(tape.rows_per_sweep() < BATCH)
    assert sweeps == {False, True}
