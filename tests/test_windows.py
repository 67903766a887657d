"""Every k x k window kernel of the interpreter (conv, depthwise conv and
MaxPool forwards, their backward rules and the MaxPool tie masks) against the
loop it replaced, bit for bit: the same values from the same float operations
in the same order, so every forward, gradient and score byte stays put."""

import tracemalloc

import numpy as np
import pytest

from archspace.interpreter import (
    Tape,
    _conv_vjp,
    _depthwise_vjp,
    _maxpool_masks,
    _vjp_node,
    conv2d,
    depthwise_conv2d,
    maxpool2d,
)
from archspace.ops import OpKind
from archspace.rng import Rng

from _oracles import (
    conv2d_loops,
    conv_vjp_loops,
    depthwise_conv2d_loops,
    depthwise_vjp_loops,
    maxpool2d_loops,
    maxpool_masks_loops,
    maxpool_vjp_loops,
)

N, C, H, W = 5, 3, 5, 7  # odd spatial sizes, unequal, so no axis is confused
ROWS, START = 3, 1


def assert_bitwise(got, want):
    assert got.shape == want.shape and np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # tells -0.0 from 0.0


def _x(seed=0, h=H, w=W):
    return Rng(seed).normal((N, C, h, w))


# The two cotangent row forms, (samples per row, align): each row on one
# sample of its own, or each row over the whole batch.
FORMS = {"diagonal": (1, lambda a: a[START:START + ROWS, None]), "full": (N, lambda a: a[None])}

# The spatial sizes of the pool's smallest maps, where a k x k window can be
# wider than the map, so an offset's clipped range comes out empty.
SMALL = [(1, 1), (2, 2), (1, 3), (2, 5)]


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv2d_matches_its_loops(k, stride):
    rng = Rng(k)
    w, b = rng.child(0).normal((4, C, k, k)), rng.child(1).normal(4)
    assert_bitwise(conv2d(_x(), w, b, stride=stride), conv2d_loops(_x(), w, b, stride, k // 2))


@pytest.mark.parametrize("k", [1, 3, 5])
def test_depthwise_conv2d_matches_its_loops(k):
    w = Rng(k).normal((C, k, k))
    assert_bitwise(depthwise_conv2d(_x(), w), depthwise_conv2d_loops(_x(), w, k // 2))


@pytest.mark.parametrize("stride", [1, 2])
def test_maxpool2d_matches_its_loops(stride):
    assert_bitwise(maxpool2d(_x(), stride=stride), maxpool2d_loops(_x(), 3, stride, 1))


def _assert_vjps_equal(got, want):
    (gx, grads), (gx_want, grads_want) = got, want
    assert (gx is None) == (gx_want is None)
    if gx is not None:
        assert_bitwise(gx, gx_want)
    assert list(grads) == list(grads_want)
    for name in grads:
        assert_bitwise(grads[name], grads_want[name])


def _check_conv_vjp(k, form, want_x, hw):
    s, align = FORMS[form]
    rng = Rng(10 + k)
    w, g = rng.child(0).normal((4, C, k, k)), rng.child(1).normal((ROWS, s, 4, *hw))
    _assert_vjps_equal(_conv_vjp(g, _x(0, *hw), w, align, want_x),
                       conv_vjp_loops(g, _x(0, *hw), w, k // 2, align, want_x))


def _check_depthwise_vjp(k, form, want_x, hw):
    s, align = FORMS[form]
    rng = Rng(20 + k)
    w, g = rng.child(0).normal((C, k, k)), rng.child(1).normal((ROWS, s, C, *hw))
    _assert_vjps_equal(_depthwise_vjp(g, _x(0, *hw), w, align, want_x),
                       depthwise_vjp_loops(g, _x(0, *hw), w, k // 2, align, want_x))


def _check_maxpool(form, hw):
    s, align = FORMS[form]
    # small integers, so windows tie and the first-in-scan-order rule is exercised
    x = np.floor(2.0 * _x(1, *hw))
    out = maxpool2d(x)
    masks = _maxpool_masks(x, out)
    want_masks = maxpool_masks_loops(x, out)
    assert len(masks) == len(want_masks) == 9
    for m, want in zip(masks, want_masks):
        assert_bitwise(m, want)
    assert (sum(m.astype(int) for m in masks) == 1).all()  # each output taken exactly once
    g = Rng(30).normal((ROWS, s, C, *hw))
    tape = Tape(block=None, params=None, values={})
    gins, grads = _vjp_node(tape, 0, OpKind.MAXPOOL, [g], [x], [out], {}, align, [True])
    assert grads == {}
    assert_bitwise(gins[0], maxpool_vjp_loops(g, x, want_masks, align))


@pytest.mark.parametrize("want_x", [True, False])
@pytest.mark.parametrize("form", ["diagonal", "full"])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv_vjp_matches_its_loops(k, form, want_x):
    _check_conv_vjp(k, form, want_x, (H, W))


@pytest.mark.parametrize("want_x", [True, False])
@pytest.mark.parametrize("form", ["diagonal", "full"])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_depthwise_vjp_matches_its_loops(k, form, want_x):
    _check_depthwise_vjp(k, form, want_x, (H, W))


@pytest.mark.parametrize("form", ["diagonal", "full"])
def test_maxpool_masks_and_scatter_match_their_loops(form):
    _check_maxpool(form, (H, W))


@pytest.mark.parametrize("hw", SMALL)
@pytest.mark.parametrize("form", ["diagonal", "full"])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_window_vjps_match_their_loops_on_small_maps(k, form, hw):
    _check_conv_vjp(k, form, True, hw)
    _check_depthwise_vjp(k, form, True, hw)
    if k == 3:
        _check_maxpool(form, hw)


@pytest.mark.parametrize("vjp, w_shape", [(_conv_vjp, (8, 8, 3, 3)), (_depthwise_vjp, (8, 3, 3))])
def test_full_row_window_vjps_peak_under_five_cotangents(vjp, w_shape):
    """A full-row sweep at the pool's (64, 64, 8, 2, 2): the window adjoint
    allocates at most five times the cotangent's bytes at its peak."""
    g = Rng(40).normal((64, 64, 8, 2, 2))
    x, w = Rng(41).normal((64, 8, 2, 2)), Rng(42).normal(w_shape)
    tracemalloc.start()
    try:
        vjp(g, x, w, lambda a: a[None], True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / g.nbytes <= 5.0
