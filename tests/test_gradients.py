"""Reverse-mode block gradients against the finite-difference oracle,
BatchNorm's backward rule against its full-row form, and the Gram-dual
spectrum against a dense P x P eigendecomposition and against G's singular
values."""

import functools
import struct
import tracemalloc

import numpy as np
import pytest

import archspace as a
from archspace import proxy
from archspace.graph import INPUT, OUTPUT, BlockGraph, Edge
from archspace.interpreter import Tape, _vjp_node, init_params
from archspace.mutation import TEMPLATE_NAMES, TEMPLATES, Edit, _template_parts, apply_block_edit
from archspace.ops import OpKind, Shape
from archspace.proxy import (
    FisherSpectrum,
    ProxyId,
    block_gradients,
    fd_gradients,
    score_network,
    spectrum_of,
    vkdnw_score,
)
from archspace.rng import Rng

from _oracles import batchnorm_vjp_full_oracle, spectrum_svd_oracle
from test_vkdnw_pins import BATCH as POOL_BATCH, pool_networks

BATCH = 10


def _insert(block: BlockGraph, template: str, cut: Edge) -> BlockGraph:
    ids = tuple(range(block.next_id, block.next_id + len(TEMPLATES[template].ops)))
    return apply_block_edit(block, Edit("add", 0, cut.src, block.digest, template=template,
                                        cut_edge=cut, new_ids=ids))


def op_block(template: str, shape: Shape) -> BlockGraph:
    """A Conv1 followed by the template, so even a parameter-free op has a
    parameter upstream and its backward rule is exercised."""
    block = _insert(BlockGraph.identity(shape), "conv1", Edge(INPUT, 0, OUTPUT, 0))
    return _insert(block, template, Edge(2, 0, OUTPUT, 0))


# Chunk3 needs C divisible by 3; Mask, RelPosBias and the attention
# template need square, square-number spatial sizes.
OP_SHAPE = Shape(6, 4, 4)


def problem(block: BlockGraph, seed: int = 0):
    """Parameters with noise on top of the init (biases, shifts and tables start
    at zero), a batch and a unit projection."""
    store = init_params(block, Rng(seed))
    noise = Rng(seed).child(99)
    for v, named in store.tensors.items():
        for i, arr in enumerate(named.values()):
            arr += 0.1 * noise.child(v, i).normal(arr.shape)
    rng = Rng(seed).child(1)
    batch = rng.child(0).normal((BATCH, *block.input_shape))
    u = rng.child(1).normal(block.input_shape.numel)
    return store, batch, u / np.linalg.norm(u)


def pool_problem(block: BlockGraph):
    """The init parameters, a batch of the pool's size and a unit projection."""
    store = init_params(block, Rng(0))
    u = Rng(2).normal(block.input_shape.numel)
    return store, Rng(1).normal((POOL_BATCH, *block.input_shape)), u / np.linalg.norm(u)


def readme_network():
    """The README's ``build --variant mbconv4,resnet_basic --stem 12 ...`` network."""
    args = (12, (32, 32), (2, 2), (24, 48), 10)
    stages = a.make_network(*args).stages
    return a.make_network(*args, blocks=[a.build(v, st.shape) for v, st in
                                         zip(("mbconv4", "resnet_basic"), stages)
                                         for _ in range(st.n_blocks)])


def assert_gradients_match(block: BlockGraph, h: float = proxy.DEFAULT_FD_STEP):
    store, batch, u = problem(block)
    got = block_gradients(block, store, batch, u)
    want = fd_gradients(block, store, batch, u, h=h)
    assert got.shape == want.shape == (BATCH, store.scalar_count())
    assert want.any()
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5 * np.abs(want).max())
    return got


def assert_deciles_match_dense(g: np.ndarray):
    """Gram-dual deciles equal those of eigvalsh on the P x P Fisher, to 1e-9
    of the largest eigenvalue (the dense path leaves roundoff where the dual
    has exact zeros)."""
    dense = np.clip(np.linalg.eigvalsh(g.T @ g / g.shape[0]), 0.0, None)
    want = np.quantile(np.sort(dense), [k / 10 for k in range(1, 10)], method="linear")
    got = np.array(spectrum_of(g).deciles)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * dense.max())


def test_op_blocks_cover_every_op():
    covered = set()
    for name in TEMPLATE_NAMES:
        ops = _template_parts(name, tuple(range(len(TEMPLATES[name].ops))))[0]
        covered.update(ops.values())
    assert covered == set(OpKind)


@pytest.mark.parametrize("template", TEMPLATE_NAMES)
def test_op_gradients_match_finite_differences(template):
    block = op_block(template, OP_SHAPE)
    # Central differences at the default step straddle a change of the
    # maximum in some MaxPool window; a smaller step stays on one side.
    h = 1e-6 if template == "maxpool" else proxy.DEFAULT_FD_STEP
    g = assert_gradients_match(block, h=h)
    assert_deciles_match_dense(g)


BUILDER_BLOCKS = [
    ("squeeze_excite", Shape(4, 4, 4)),
    ("resnet_basic", Shape(4, 4, 4)),
    ("attention2h", Shape(4, 4, 4)),
    ("mbconv4", Shape(4, 4, 4)),
    ("squeeze_excite", Shape(8, 2, 2)),
    ("resnet_basic", Shape(8, 2, 2)),
    ("attention2h", Shape(8, 4, 4)),
]


@functools.cache
def builder_fd(variant: str, shape: Shape) -> np.ndarray:
    """The finite-difference G of a builder block on ``problem``, computed once."""
    block = a.build(variant, shape)
    return fd_gradients(block, *problem(block))


def assert_builder_matches(variant: str, shape: Shape) -> np.ndarray:
    block = a.build(variant, shape)
    got, want = block_gradients(block, *problem(block)), builder_fd(variant, shape)
    assert got.shape == want.shape and want.any()
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5 * np.abs(want).max())
    return got


@pytest.mark.parametrize("variant,shape", BUILDER_BLOCKS, ids=lambda p: str(p))
def test_builder_gradients_match_finite_differences(variant, shape):
    assert_deciles_match_dense(assert_builder_matches(variant, shape))


def test_batch_and_sample_rows_meet_at_a_copy():
    # Conv1 -> Copy -> (BatchNorm on one branch) -> Add: the Copy receives rows
    # spanning the batch from one branch and per-sample rows from the other.
    block = op_block("copy_add", OP_SHAPE)
    copy, add = (v for v in sorted(block.ops) if v != 2)
    g = assert_gradients_match(_insert(block, "batchnorm", Edge(copy, 0, add, 0)))
    assert_deciles_match_dense(g)


def test_row_chunks_do_not_change_gradients(monkeypatch):
    block = a.build("mbconv4", Shape(4, 4, 4))
    store, batch, u = problem(block)
    whole = block_gradients(block, store, batch, u)
    monkeypatch.setattr(proxy, "_SWEEP_ELEMENTS", 1)  # one row per sweep
    np.testing.assert_allclose(block_gradients(block, store, batch, u), whole,
                               rtol=1e-12, atol=1e-12 * np.abs(whole).max())


def test_gram_dual_pads_exact_zeros():
    rng = Rng(4)
    g = rng.normal((10, 150))
    spec = spectrum_of(g)
    assert len(spec.eigenvalues) == 150
    assert spec.eigenvalues[10:] == (0.0,) * 140
    assert spec.deciles == (0.0,) * 9   # P > 10 B: every decile is a padded zero
    # fewer parameters than samples: P eigenvalues, all from the singular values
    small = spectrum_of(g[:, :4])
    assert len(small.eigenvalues) == 4 and min(small.eigenvalues) > 0.0
    assert spectrum_of(np.zeros((10, 0))).deciles == (0.0,) * 9


def test_vkdnw_is_exactly_zero_once_p_exceeds_five_b():
    # At rank B = 16 the top B of P sorted eigenvalues are the nonzero ones:
    # P >= 5 B + 1 leaves at most one nonzero decile, whose normalized
    # entropy is exactly 0, and P >= 10 B + 1 leaves none.
    g = Rng(6).normal((16, 161))
    for p, nonzero in [(80, 2), (81, 1), (160, 1), (161, 0)]:
        spec = spectrum_of(g[:, :p])
        assert sum(d > 0.0 for d in spec.deciles) == nonzero, p
        assert (vkdnw_score(spec) == 0.0) == (p > 80), p
    # The structural pattern, min(B, P) ones at the top of P sorted zeros:
    # numpy's linear deciles 1-8 are all 0 exactly when P > 5 B, and the
    # score is 0 exactly then.
    for b in (10, 16, 33, 64, 100, 256):
        for p in (5 * b, 5 * b + 1, 10 * b + 1):
            pattern = np.zeros(p)
            pattern[p - min(b, p):] = 1.0
            deciles = np.quantile(pattern, [k / 10 for k in range(1, 10)], method="linear")
            assert (not deciles[:8].any()) == (p > 5 * b), (b, p)
            assert (vkdnw_score(FisherSpectrum((), tuple(deciles))) == 0.0) == (p > 5 * b), (b, p)


def test_a_block_with_p_above_five_b_scores_zero_without_a_sweep(monkeypatch):
    """Pool block (0, 2) (P = 1,200 at B = 64) and every block of the README
    network (P above 5 B at B = 16 and 64) score +0.0, the bytes the full
    sweep and eigensolve gave, without calling ``block_gradients``."""
    calls = []
    real = proxy.block_gradients
    monkeypatch.setattr(proxy, "block_gradients", lambda *args: calls.append(args) or real(*args))
    block = pool_networks()[0].blocks[2]
    assert init_params(block, Rng(0)).scalar_count() == 1_200
    assert struct.pack("<d", proxy._score_one_block(block, Rng(0).child(0, 2), POOL_BATCH)) == bytes(8)
    net = readme_network()
    for b in (16, 64):
        score = score_network(net, ProxyId.VKDNW, Rng(3), batch_size=b)
        assert struct.pack("<5d", score.value, *score.per_block) == bytes(40), b
    assert calls == []


def test_gram_dual_zeroes_singular_values_past_the_rank():
    # P = 30 < 10 B with rank 3: the nine singular values past the rank are
    # roundoff and must count as exact zeros, like the padding.
    rng = Rng(5)
    core = rng.normal((12, 3))
    g = core @ rng.normal((3, 30))
    spec = spectrum_of(g)
    assert len(spec.eigenvalues) == 30
    assert spec.eigenvalues[3:] == (0.0,) * 27
    top = np.linalg.svd(g, compute_uv=False)[:3] ** 2 / 12
    np.testing.assert_allclose(spec.eigenvalues[:3], top, rtol=1e-12)
    # deciles sit at sorted positions 2.9, 5.8, ..., 26.1: positions 18-26 are
    # the cut singular values, so the first eight deciles are exactly zero and
    # the ninth is a tenth of the smallest nonzero eigenvalue
    assert spec.deciles[:8] == (0.0,) * 8
    np.testing.assert_allclose(spec.deciles[8], 0.1 * top[2], rtol=1e-9)
    assert proxy.vkdnw_score(spec) == 0.0


def _batchnorm_vjp(g, x, scale, start, want_x=True):
    rows = g.shape[0]
    align = (lambda a: a[None]) if g.shape[1] != 1 else (lambda a: a[start:start + rows, None])
    tape = Tape(block=None, params=None, values={})
    gins, grads = _vjp_node(tape, 0, OpKind.BATCH_NORM, [g], [x], [None],
                            {"scale": scale, "shift": np.zeros_like(scale)}, align, [want_x])
    return gins[0], grads


# (rows, samples per row, start): per-sample rows from the batch's first
# sample and from a later one, and rows spanning the batch (a BatchNorm with
# another one downstream).
BN_ROWS = {"sample_rows_at_0": (4, 1, 0), "sample_rows_at_5": (4, 1, 5), "full_rows": (4, 10, 0)}


@pytest.mark.parametrize("want_x", [True, False])
@pytest.mark.parametrize("form", BN_ROWS)
def test_batchnorm_rule_matches_its_full_row_form(form, want_x):
    rows, s, start = BN_ROWS[form]
    rng = Rng(60)
    x, scale = rng.child(0).normal((10, 3, 2, 3)), rng.child(1).normal(3)
    g = rng.child(2).normal((rows, s, 3, 2, 3))
    gx, grads = _batchnorm_vjp(g, x, scale, start, want_x)
    gx_want, grads_want = batchnorm_vjp_full_oracle(g, x, scale, start)
    assert list(grads) == list(grads_want)
    for name in grads:
        np.testing.assert_allclose(grads[name], grads_want[name], rtol=1e-12,
                                   atol=1e-12 * np.abs(grads_want[name]).max())
    if not want_x:
        assert gx is None
        return
    assert gx.shape == gx_want.shape == (rows, 10, 3, 2, 3)
    np.testing.assert_allclose(gx, gx_want, rtol=1e-12, atol=1e-12 * np.abs(gx_want).max())


def test_batchnorm_rule_on_sample_rows_peaks_under_the_full_row_rule():
    """Per-sample rows at the pool's (64, 1, 8, 2, 2): the input cotangent
    spans the batch, and at its peak the rule allocates at most 2.14 times
    that cotangent's bytes, what the full-row rule took on rows already
    spread over the batch (3.14 counting the spread).  It reads 1.16."""
    x, scale = Rng(50).normal((64, 8, 2, 2)), Rng(51).normal(8)
    g = Rng(53).normal((64, 1, 8, 2, 2))
    tracemalloc.start()
    try:
        gx, _ = _batchnorm_vjp(g, x, scale, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / gx.nbytes <= 2.14


def _assert_spectrum_matches_svd(g):
    """The same count of exact zeros as G's singular values give, and deciles
    within 1e-9 of the largest eigenvalue."""
    got, want = spectrum_of(g), spectrum_svd_oracle(g)
    assert len(got.eigenvalues) == len(want.eigenvalues) == g.shape[1]
    assert got.eigenvalues.count(0.0) == want.eigenvalues.count(0.0)
    np.testing.assert_allclose(got.deciles, want.deciles, rtol=0.0, atol=1e-9 * want.eigenvalues[0])


def test_spectrum_matches_the_svd_on_every_pool_block():
    seen = [block_gradients(b, *pool_problem(b)) for net in pool_networks() for b in net.blocks]
    assert len(seen) == 12
    assert any(g.shape[1] < g.shape[0] for g in seen)  # a block with P < B
    for g in seen:
        _assert_spectrum_matches_svd(g)


# Ranks below min(B, P) with B < P, and two with P < B, one of them full rank.
@pytest.mark.parametrize("b,p,rank", [(16, 100, 11), (16, 100, 14), (64, 200, 40),
                                      (64, 30, 20), (64, 24, 24)])
def test_spectrum_matches_the_svd_on_synthetic_gradients(b, p, rank):
    rng = Rng(70).child(b, p, rank)
    g = rng.child(0).normal((b, rank)) @ rng.child(1).normal((rank, p))
    spec = spectrum_of(g)
    assert spec.eigenvalues.count(0.0) == p - rank
    _assert_spectrum_matches_svd(g)
