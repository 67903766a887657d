"""Reverse-mode block gradients against the finite-difference oracle, and the
Gram-dual spectrum against a dense P x P eigendecomposition."""

import numpy as np
import pytest

import archspace as a
from archspace import proxy
from archspace.graph import INPUT, OUTPUT, BlockGraph, Edge
from archspace.interpreter import init_params
from archspace.mutation import TEMPLATE_NAMES, TEMPLATES, Edit, _template_parts, apply_block_edit
from archspace.ops import OpKind, Shape
from archspace.proxy import block_gradients, fd_gradients, spectrum_of
from archspace.rng import Rng

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
    got = np.array(spectrum_of(g, gradients=True).deciles)
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


@pytest.mark.parametrize("variant,shape", BUILDER_BLOCKS, ids=lambda p: str(p))
def test_builder_gradients_match_finite_differences(variant, shape):
    g = assert_gradients_match(a.build(variant, shape))
    assert_deciles_match_dense(g)


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
    spec = spectrum_of(g, gradients=True)
    assert len(spec.eigenvalues) == 150
    assert spec.eigenvalues[10:] == (0.0,) * 140
    assert spec.deciles == (0.0,) * 9   # P > 10 B: every decile is a padded zero
    # fewer parameters than samples: P eigenvalues, all from the singular values
    small = spectrum_of(g[:, :4], gradients=True)
    assert len(small.eigenvalues) == 4 and min(small.eigenvalues) > 0.0
    assert spectrum_of(np.zeros((10, 0)), gradients=True).deciles == (0.0,) * 9


def test_gram_dual_zeroes_singular_values_past_the_rank():
    # P = 30 < 10 B with rank 3: the nine singular values past the rank are
    # roundoff and must count as exact zeros, like the padding.
    rng = Rng(5)
    core = rng.normal((12, 3))
    g = core @ rng.normal((3, 30))
    spec = spectrum_of(g, gradients=True)
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
