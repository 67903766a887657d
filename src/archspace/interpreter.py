"""Reference forward executor over float64 numpy arrays.

Semantics of the elementary ops, where not obvious:

* Softmax normalizes along the last (W) axis.
* Every conv and pool window is k x k and same-padded by k // 2 (zeros for
  a conv, -inf for MaxPool2d), so stride s gives (n - 1) // s + 1 outputs
  along an axis of n.  ``_taps`` states that window once and ``_untap`` its
  adjoint, which works on a rows-last cotangent and adds each offset's
  clipped window into the map unpadded; every window rule reads them.
* MaxPool2d is kernel 3, stride 1 in a block; border windows take the max
  over in-bounds neighbors only.  The stem convs and the stage-transition
  pools use stride 2.
* Mask zeroes every position with |h - w| > 5 (square spatial maps only).
* Matmul1 produces out[(h1,h2),(w1,w2)] = sum_c x[c,h1,w1] y[c,h2,w2] / sqrt(C)
  with the H^2 axis indexing (h1,h2) and the W^2 axis indexing (w1,w2);
  Matmul2 contracts out[c,h,w] = sum_{h~,w~} a[(h,h~),(w,w~)] y[c,h~,w~].
* Dropout is the identity: the interpreter runs inference only.
* BatchNorm uses current-batch statistics over (N, H, W); nothing is
  trained so there are no running averages.  LayerNorm normalizes over
  channels at each position.
* UpSample broadcasts (C,1,1) back to the spatial size recorded from its
  coupled GlobalAvg's input during the same execution.

Reverse mode: ``forward_tape`` records every value of a forward, and
``vjp_rows`` runs one backward sweep over it with a backward rule per op,
for many output cotangents ("rows") at once: each row lives on one sample
down to the first BatchNorm and spans the batch from there; see the notes
above ``Tape``.

Parameter initialization allocates each op's ``OP_INFO`` tensors: a weight
~ N(0, 2/fan_in) over its dims after the first, a scale ones, the rest zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ShapeMismatch
from .graph import BlockGraph, INPUT, OUTPUT, topo_order
from .network import ExecutablePlan
from .ops import OP_INFO, OpKind
from .rng import Rng

_BN_EPS = 1e-5
_LN_EPS = 1e-5
_POOL = 3  # MaxPool's window, in blocks and in the stage transitions


@dataclass
class ParamStore:
    tensors: dict[int, dict[str, np.ndarray]] = field(default_factory=dict)

    def scalar_count(self) -> int:
        return sum(int(a.size) for node in self.tensors.values() for a in node.values())


def _he_weight(rng: Rng, shape: tuple[int, ...]) -> np.ndarray:
    return rng.normal(shape, std=math.sqrt(2.0 / math.prod(shape[1:])))


def init_params(block: BlockGraph, rng: Rng, entry_in_channels: Optional[int] = None) -> ParamStore:
    """Deterministic parameters for every parameterized node of the block.

    entry_in_channels overrides the input channel count of the block's
    first node when a stage projection has been fused into it.
    """
    shapes = block.shapes
    first = block.first_interior()
    store = ParamStore()
    for v in topo_order(block):
        tensors = OP_INFO[block.ops[v]].tensors
        if tensors is None:
            continue
        s = shapes[v].in_shapes[0]
        c_in = entry_in_channels if v == first and entry_in_channels is not None else s.c
        node_rng = rng.child(v)
        store.tensors[v] = {
            name: _he_weight(node_rng, shape) if name == "weight"
            else np.ones(shape) if name == "scale" else np.zeros(shape)
            for name, shape in tensors(s, c_in).items()
        }
    return store


def _taps(x, k, stride=1, fill=0.0):
    """The k x k window over x's last two axes, same-padded by k // 2 with
    fill: (dy, dx, view) per offset in row-major order, each view taking every
    stride-th position, so an axis of n gives (n - 1) // stride + 1 outputs."""
    h, w = x.shape[-2:]
    p = k // 2
    if p:
        x = np.pad(x, ((0, 0),) * (x.ndim - 2) + ((p, p), (p, p)), constant_values=fill)
    for dy in range(k):
        for dx in range(k):
            yield dy, dx, x[..., dy:dy + h:stride, dx:dx + w:stride]


def _untap(g, c, k, term):
    """The adjoint of _taps at stride 1 from a cotangent g (R, S, C_g, H, W)
    to (R, S, c, H, W), worked rows-last as (C, H, W, R, S): for each offset,
    term(dy, dx, win, src) is the (c, ...) contribution of win, the rows-last
    g at the source positions src that the offset moves inside the map, and
    is added there.  Nothing is padded, and each position sums its terms
    from +0.0 in row-major offset order."""
    rows, s, _, h, w = g.shape
    gt = np.ascontiguousarray(g.transpose(2, 3, 4, 0, 1))
    out = np.zeros((c, h, w, rows, s))
    p = k // 2
    for dy in range(k):
        y0, y1 = max(0, dy - p), min(h, h + dy - p)
        for dx in range(k):
            x0, x1 = max(0, dx - p), min(w, w + dx - p)
            if y0 < y1 and x0 < x1:  # a window wider than the map misses it at its far offsets
                src = (slice(None), slice(y0 + p - dy, y1 + p - dy), slice(x0 + p - dx, x1 + p - dx))
                out[:, y0:y1, x0:x1] += term(dy, dx, gt[src], src)
    return np.ascontiguousarray(out.transpose(3, 4, 0, 1, 2))


def conv2d(x, w, b, stride=1):
    if x.shape[1] != w.shape[1]:
        raise ShapeMismatch("conv", f"C_in={w.shape[1]}", f"C_in={x.shape[1]}")
    out = np.zeros((x.shape[0], w.shape[0], *x[..., ::stride, ::stride].shape[2:]))
    for dy, dx, xs in _taps(x, w.shape[-1], stride):
        out += np.einsum("oc,nchw->nohw", w[:, :, dy, dx], xs, optimize=True)
    out += b[None, :, None, None]
    return out


def depthwise_conv2d(x, w):
    out = np.zeros_like(x)
    for dy, dx, xs in _taps(x, w.shape[-1]):
        out += xs * w[None, :, dy, dx, None, None]
    return out


def maxpool2d(x, stride=1):
    out = np.full(x[..., ::stride, ::stride].shape, -np.inf)
    for _, _, xs in _taps(x, _POOL, stride, -np.inf):
        np.maximum(out, xs, out=out)
    return out


_erf = np.frompyfunc(math.erf, 1, 1)


def erf(x):
    return np.asarray(_erf(x), dtype=np.float64)


def sigmoid(x):
    # exp(-x) overflows to inf for x < -709, and 1 / inf is the exact 0.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def gelu(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def _softmax_last(x):
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def _rel_pos_index(hh, ww):
    # The H^2 axis flattens (h1, h2) and the W^2 axis flattens (w1, w2);
    # the bias depends on the relative offsets (h1 - h2, w1 - w2).
    u, v = math.isqrt(hh), math.isqrt(ww)
    a = np.arange(hh)
    b = np.arange(ww)
    return a // u - a % u + (u - 1), b // v - b % v + (v - 1)


def _rel_pos_add(x, table):
    ih, iw = _rel_pos_index(*x.shape[2:])
    return x + table[ih[:, None], iw[None, :]][None, None, :, :]


def matmul1(x, y):
    c = x.shape[1]
    out = np.einsum("ncab,ncde->nadbe", x, y, optimize=True) / math.sqrt(c)
    n, h, _, w, _ = out.shape
    return out.reshape(n, 1, h * h, w * w)


def matmul2(a, y):
    n, c, h, w = y.shape
    av = a.reshape(n, h, h, w, w)
    return np.einsum("nabcd,nebd->neac", av, y, optimize=True)


def _band(h):
    hh, ww = np.ogrid[:h, :h]
    return np.abs(hh - ww) <= 5


def _conv(ins, p, row, _):
    if row.conv.depthwise:
        return [depthwise_conv2d(ins[0], p["weight"])]
    y = conv2d(ins[0], p["weight"], p["bias"])
    return np.split(y, row.out_arity, axis=1)


def _group_mean(y):  # the fixed mean over groups of 16 channels that ends ConvRed4
    return y.reshape(y.shape[0], -1, 16, *y.shape[2:]).mean(axis=2)


def _norm(axes, eps):
    def rule(ins, p, *_):
        x = ins[0]
        mu = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        xn = (x - mu) / np.sqrt(var + eps)
        return [xn * p["scale"][None, :, None, None] + p["shift"][None, :, None, None]]
    return rule


def _split(ins, p, row, _):
    return np.split(ins[0], row.out_arity, axis=1)


def _concat(ins, *_):
    return [np.concatenate(ins, axis=1)]


# op -> forward rule (inputs, parameter tensors, OP_INFO row, UpSample target
# size) -> outputs, each a (N,C,H,W) array.
_FORWARD = {
    OpKind.SOFTMAX: lambda ins, *_: [_softmax_last(ins[0])],
    OpKind.DROPOUT: lambda ins, *_: [ins[0]],
    OpKind.MAXPOOL: lambda ins, *_: [maxpool2d(ins[0])],
    OpKind.MASK: lambda ins, *_: [ins[0] * _band(ins[0].shape[2])[None, None, :, :]],
    OpKind.SIGMOID: lambda ins, *_: [sigmoid(ins[0])],
    OpKind.GELU: lambda ins, *_: [gelu(ins[0])],
    **{op: _conv for op, row in OP_INFO.items() if row.conv},
    OpKind.BATCH_NORM: _norm((0, 2, 3), _BN_EPS),
    OpKind.LAYER_NORM: _norm(1, _LN_EPS),
    OpKind.REL_POS_BIAS: lambda ins, p, *_: [_rel_pos_add(ins[0], p["table"])],
    OpKind.CHUNK2: _split,
    OpKind.CHUNK3: _split,
    OpKind.COPY: lambda ins, *_: [ins[0], ins[0].copy()],
    OpKind.CONCAT2: _concat,
    OpKind.CONCAT3: _concat,
    OpKind.ADD: lambda ins, *_: [ins[0] + ins[1]],
    OpKind.CONV_RED4: lambda *args: [_group_mean(_conv(*args)[0])],
    OpKind.MULTIPLY: lambda ins, *_: [ins[0] * ins[1]],
    OpKind.MATMUL1: lambda ins, *_: [matmul1(ins[0], ins[1])],
    OpKind.MATMUL2: lambda ins, *_: [matmul2(ins[0], ins[1])],
    OpKind.GLOBAL_AVG: lambda ins, *_: [ins[0].mean(axis=(2, 3), keepdims=True)],
    OpKind.UP_SAMPLE: lambda ins, p, row, hw: [np.broadcast_to(ins[0], (*ins[0].shape[:2], *hw)).copy()],
}


def _run(block, params, x, entry_in_channels=None):
    """Every (node, port) value of one execution on a (N,C,H,W) batch."""
    want_c = entry_in_channels if entry_in_channels is not None else block.input_shape.c
    want = (want_c, block.input_shape.h, block.input_shape.w)
    if tuple(x.shape[1:]) != want:
        raise ShapeMismatch(INPUT, want, tuple(x.shape[1:]))

    produced: dict[tuple[int, int], np.ndarray] = {(INPUT, 0): x}
    in_edges = block.ports.ins
    for v in topo_order(block):
        op = block.ops[v]
        ins = [produced[(e.src, e.src_port)] for e in in_edges.get(v, [])]
        hw = block.shapes[v].out_shapes[0][1:] if op is OpKind.UP_SAMPLE else None
        outs = _FORWARD[op](ins, params.tensors.get(v, {}), OP_INFO[op], hw)
        for port, arr in enumerate(outs):
            produced[(v, port)] = arr
    out_edge = in_edges[OUTPUT][0]
    produced[(OUTPUT, 0)] = produced[(out_edge.src, out_edge.src_port)]
    return produced


def forward(
    block: BlockGraph,
    params: ParamStore,
    x: np.ndarray,
    entry_in_channels: Optional[int] = None,
) -> np.ndarray:
    """Run the block on a (N,C,H,W) or (C,H,W) array; returns same rank as given."""
    squeeze = x.ndim == 3
    produced = _run(block, params, x[None] if squeeze else x, entry_in_channels)
    out = produced[(OUTPUT, 0)]
    return out[0] if squeeze else out


# --- reverse mode ------------------------------------------------------------
#
# A cotangent carries a leading row axis: shape (R, S, C, H, W).  Row k is the
# cotangent of one scalar output, s_{start+k}, and comes in one of two forms:
#
# * per-sample (S == 1): row k lives on sample start+k alone, which holds
#   from the block output back to the first op that mixes samples;
# * full (S == N): row k spans the whole batch.  BatchNorm is the only op
#   that mixes samples; its rule takes rows in either form and returns full
#   ones, and a node that meets rows of both forms spreads its per-sample
#   rows out onto their samples.
#
# A forward array (N, ...) meets a cotangent through ``align``: x[None] for
# full rows, x[start:start+R, None] for per-sample ones; both broadcast
# against (R, S, ...), and align(arange(N)) names the sample of each entry.
# Parameter gradients come out per row, (R, *param.shape).

_MIXES_SAMPLES = frozenset({OpKind.BATCH_NORM})


@dataclass
class Tape:
    """A recorded forward: every (node, port) value, and the per-node
    quantities the backward rules reuse from one row chunk to the next."""

    block: BlockGraph
    params: ParamStore
    values: dict[tuple[int, int], np.ndarray]
    cache: dict[int, object] = field(default_factory=dict)

    def rows_per_sweep(self, max_elements: int) -> int:
        """How many of the batch's rows one sweep may carry: all of them when
        no op mixes samples, else as many as keep a cotangent that spans the
        batch within max_elements."""
        n = self.values[(INPUT, 0)].shape[0]
        if not _MIXES_SAMPLES.intersection(self.block.ops.values()):
            return n
        widest = max(a[0].size for a in self.values.values())
        return max(1, min(n, max_elements // (n * widest)))


def forward_tape(block: BlockGraph, params: ParamStore, x: np.ndarray) -> Tape:
    """Forward a (N,C,H,W) batch and keep what the backward rules need."""
    return Tape(block, params, _run(block, params, x))


def _to_full(g, start, n):
    rows = g.shape[0]
    full = np.zeros((rows, n, *g.shape[2:]))
    full[np.arange(rows), start + np.arange(rows)] = g[:, 0]
    return full


def _ein(subscripts, g, a):
    """einsum of a cotangent with an aligned forward array that may have a
    single row for all rows."""
    if a.shape[0] == 1 and g.shape[0] != 1:
        first, rest = subscripts.split(",")
        subscripts, a = first + "," + rest[1:], a[0]
    return np.einsum(subscripts, g, a, optimize=True)


def _conv_vjp(g, x, w, align, want_x):
    rows, s, o, h, wd = g.shape
    gm = g.transpose(0, 2, 1, 3, 4).reshape(rows, o, s * h * wd)
    gw = np.empty((rows, *w.shape))
    for dy, dx, xs in _taps(align(x), w.shape[-1]):
        gw[..., dy, dx] = gm @ xs.transpose(0, 1, 3, 4, 2).reshape(xs.shape[0], s * h * wd, -1)
    grads = {"weight": gw, "bias": g.sum(axis=(1, 3, 4))}
    if not want_x:
        return None, grads
    del gm  # freed before the adjoint allocates its own copies of g
    if w.shape[-1] == 1:
        # No window: one GEMM of every position's channels, each sum then
        # added to +0.0 as _untap adds it.
        gx = (np.moveaxis(g, 2, -1).reshape(-1, o) @ w[:, :, 0, 0]).reshape(rows, s, h, wd, -1)
        return np.add(np.moveaxis(gx, -1, 2), 0.0, out=np.empty((rows, s, w.shape[1], h, wd))), grads

    def term(dy, dx, win, _):  # one GEMM per source row of the window
        by_row = win.swapaxes(0, 1)
        gx = w[:, :, dy, dx].T @ by_row.reshape(*by_row.shape[:2], -1)
        return gx.reshape(by_row.shape[0], -1, *by_row.shape[2:]).swapaxes(0, 1)
    return _untap(g, w.shape[1], w.shape[-1], term), grads


def _depthwise_vjp(g, x, w, align, want_x):
    gw = np.empty((g.shape[0], *w.shape))
    for dy, dx, xs in _taps(align(x), w.shape[-1]):
        gw[:, :, dy, dx] = np.einsum("rschw,rschw->rc", g, xs)
    if not want_x:
        return None, {"weight": gw}
    return _untap(g, g.shape[2], w.shape[-1], lambda dy, dx, win, _:
                  win * w[:, dy, dx, None, None, None, None]), {"weight": gw}


def _norm_stats(x, axes, eps):
    inv = 1.0 / np.sqrt(x.var(axis=axes, keepdims=True) + eps)
    return (x - x.mean(axis=axes, keepdims=True)) * inv, inv


def _maxpool_masks(x, out):
    """Which window offset supplies each output; the first in scan order on ties."""
    taken = np.zeros(out.shape, dtype=bool)
    masks = []
    for _, _, xs in _taps(x, _POOL, fill=-np.inf):
        m = (xs == out) & ~taken
        taken |= m
        masks.append(m)
    return masks


def _cached(tape, v, make):
    if v not in tape.cache:
        tape.cache[v] = make()
    return tape.cache[v]


def _vjp_node(tape, v, op, gs, ins, outs, params, align, want):
    """Input cotangents (None where not wanted) and parameter gradients of one node."""
    g = gs[0]
    x = ins[0]
    one = lambda gx: ([gx], {})  # noqa: E731
    if op is OpKind.SOFTMAX:
        y = align(outs[0])
        return one(y * (g - (g * y).sum(axis=-1, keepdims=True)))
    if op is OpKind.DROPOUT:
        return one(g)
    if op is OpKind.MAXPOOL:
        masks = _cached(tape, v, lambda: _maxpool_masks(x, outs[0]))
        return one(_untap(g, g.shape[2], _POOL, lambda dy, dx, win, src:
                          win * align(masks[_POOL * dy + dx]).transpose(2, 3, 4, 0, 1)[src]))
    if op is OpKind.MASK:
        return one(g * _band(x.shape[2]))
    if op is OpKind.SIGMOID:
        y = align(outs[0])
        return one(g * y * (1.0 - y))
    if op is OpKind.GELU:
        d = _cached(tape, v, lambda: 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
                    + x * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))
        return one(g * align(d))
    if op in (OpKind.CHUNK2, OpKind.CHUNK3, OpKind.CONV_CHUNK3):
        g = np.concatenate(gs, axis=2)
        if op is not OpKind.CONV_CHUNK3:
            return one(g)
    if op is OpKind.CONV_RED4:
        g = np.repeat(g, 16, axis=2) / 16.0
    conv = OP_INFO[op].conv
    if conv is not None:
        vjp = _depthwise_vjp if conv.depthwise else _conv_vjp
        gx, grads = vjp(g, x, params["weight"], align, want[0])
        return [gx], grads
    if op is OpKind.BATCH_NORM:
        # Statistics couple every sample, so the input cotangent spans the
        # batch whichever form the rows arrive in: k (g - gb/m - x̂ gsc/m),
        # with g only on the samples its rows live on.
        xn, inv = _cached(tape, v, lambda: _norm_stats(x, (0, 2, 3), _BN_EPS))
        m = x.shape[0] * x.shape[2] * x.shape[3]
        gb = g.sum(axis=(1, 3, 4))
        gsc = _ein("rschw,rschw->rc", g, align(xn))
        grads = {"scale": gsc, "shift": gb}
        if not want[0]:
            return [None], grads
        k = inv[0, :, 0, 0] * params["scale"]
        gx = xn[None] * (-k / m * gsc)[:, None, :, None, None]
        gx += (-k / m * gb)[:, None, :, None, None]
        kg = k[:, None, None] * g
        if g.shape[1] == 1:
            gx[np.arange(g.shape[0]), align(np.arange(x.shape[0]))[:, 0]] += kg[:, 0]
        else:
            gx += kg
        return [gx], grads
    if op is OpKind.LAYER_NORM:
        xn, inv = _cached(tape, v, lambda: _norm_stats(x, 1, _LN_EPS))
        xn, inv = align(xn), align(inv)
        grads = {"scale": np.einsum("rschw,rschw->rc", g, xn), "shift": g.sum(axis=(1, 3, 4))}
        if not want[0]:
            return [None], grads
        gn = g * params["scale"][:, None, None]
        gx = inv * (gn - gn.mean(axis=2, keepdims=True) - xn * (gn * xn).mean(axis=2, keepdims=True))
        return [gx], grads
    if op is OpKind.REL_POS_BIAS:
        table = params["table"]
        ih, iw = _rel_pos_index(*x.shape[2:])
        flat = (ih[:, None] * table.shape[1] + iw[None, :]).ravel()
        per_pos = g.sum(axis=(1, 2)).reshape(g.shape[0], -1)
        gt = np.zeros((table.size, g.shape[0]))
        np.add.at(gt, flat, per_pos.T)
        return [g], {"table": gt.T.reshape(g.shape[0], *table.shape)}
    if op is OpKind.COPY:
        return one(gs[0] + gs[1])
    if op in (OpKind.CONCAT2, OpKind.CONCAT3):
        edges = np.cumsum([a.shape[1] for a in ins])[:-1]
        return np.split(g, edges, axis=2), {}
    if op is OpKind.ADD:
        return [g, g], {}
    if op is OpKind.MULTIPLY:
        return [g * align(ins[1]) if want[0] else None, g * align(ins[0]) if want[1] else None], {}
    if op is OpKind.MATMUL1:
        y = ins[1]
        c, h, w = x.shape[1:]
        g5 = g.reshape(g.shape[0], g.shape[1], h, h, w, w) / math.sqrt(c)
        return [_ein("rsadbe,rscde->rscab", g5, align(y)) if want[0] else None,
                _ein("rsadbe,rscab->rscde", g5, align(x)) if want[1] else None], {}
    if op is OpKind.MATMUL2:
        y = ins[1]
        n, c, h, w = y.shape
        ga = _ein("rseac,rsebd->rsabcd", g, align(y)).reshape(*g.shape[:2], 1, h * h, w * w) \
            if want[0] else None
        gy = _ein("rseac,rsabcd->rsebd", g, align(x.reshape(n, h, h, w, w))) if want[1] else None
        return [ga, gy], {}
    if op is OpKind.GLOBAL_AVG:
        h, w = x.shape[2:]
        return one(np.broadcast_to(g / (h * w), (*g.shape[:3], h, w)))
    if op is OpKind.UP_SAMPLE:
        return one(g.sum(axis=(3, 4), keepdims=True))
    raise AssertionError(op)


def vjp_rows(tape: Tape, ct: np.ndarray, start: int = 0) -> dict[int, dict[str, np.ndarray]]:
    """Per-row parameter gradients of a block from one reverse sweep.

    ``ct`` is the cotangent of the block output with a leading row axis,
    (R, 1, C, H, W) with row k on sample start+k.  Returns node -> name ->
    (R, *param.shape).
    """
    block = tape.block
    n = tape.values[(INPUT, 0)].shape[0]
    rows = ct.shape[0]
    in_edges = block.ports.ins
    order = topo_order(block)
    # Nodes with a parameter at or above them; no other node needs a cotangent.
    needs: set[int] = set()
    for v in order:
        if OP_INFO[block.ops[v]].parameterized or any(e.src in needs for e in in_edges.get(v, ())):
            needs.add(v)
    out_edge = in_edges[OUTPUT][0]
    # Every port feeds exactly one edge, so each cotangent arrives once.
    pending: dict[tuple[int, int], np.ndarray] = {(out_edge.src, out_edge.src_port): ct}
    grads: dict[int, dict[str, np.ndarray]] = {}
    for v in reversed(order):
        if v not in needs:
            continue
        op = block.ops[v]
        ports = range(OP_INFO[op].out_arity)
        gs = [pending.pop((v, p)) for p in ports]
        if any(g.shape[1] != 1 for g in gs):
            gs = [_to_full(g, start, n) if g.shape[1] == 1 else g for g in gs]
            align = lambda a: a[None]  # noqa: E731
        else:
            align = lambda a: a[start:start + rows, None]  # noqa: E731
        outs = [tape.values[(v, p)] for p in ports]
        edges = in_edges[v]
        ins = [tape.values[(e.src, e.src_port)] for e in edges]
        want = [e.src in needs for e in edges]
        gins, node_grads = _vjp_node(tape, v, op, gs, ins, outs,
                                     tape.params.tensors.get(v, {}), align, want)
        if node_grads:
            grads[v] = node_grads
        for e, w, gi in zip(edges, want, gins):
            if w:
                pending[(e.src, e.src_port)] = gi
    return grads


@dataclass
class NetworkParams:
    stem: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    projections: tuple[Optional[tuple[np.ndarray, np.ndarray]], ...]
    blocks: tuple[ParamStore, ...]
    head: tuple[np.ndarray, np.ndarray]

    def scalar_count(self) -> int:
        n = sum(w.size + b.size for w, b in self.stem)
        n += sum(w.size + b.size for p in self.projections if p is not None for w, b in [p])
        n += sum(s.scalar_count() for s in self.blocks)
        n += self.head[0].size + self.head[1].size
        return int(n)


def init_network_params(plan: ExecutablePlan, rng: Rng) -> NetworkParams:
    spec = plan.spec
    s = spec.stem_out_channels
    stem = (
        (_he_weight(rng.child(0, 0), (s, spec.in_channels, 3, 3)), np.zeros(s)),
        (_he_weight(rng.child(0, 1), (s, s, 3, 3)), np.zeros(s)),
    )
    projections = []
    for si, bi in enumerate(spec.stage_first_positions()):
        if plan.fused_entry[bi] is not None:
            projections.append(None)
        else:
            c_in, c_out = spec.stage_entry(si)[0], spec.stages[si].channels
            w = _he_weight(rng.child(1, si), (c_out, c_in, 1, 1))
            projections.append((w, np.zeros(c_out)))
    blocks = tuple(
        init_params(b, rng.child(2, i), entry_in_channels=plan.fused_entry[i])
        for i, b in enumerate(spec.blocks)
    )
    head_w = _he_weight(rng.child(3), (spec.num_classes, spec.stages[-1].channels))
    return NetworkParams(stem, tuple(projections), blocks, (head_w, np.zeros(spec.num_classes)))


def forward_network(plan: ExecutablePlan, params: NetworkParams, x: np.ndarray) -> np.ndarray:
    """Stem -> stages (pool, projection, blocks) -> head; returns (N, num_classes)."""
    spec = plan.spec
    if x.ndim == 3:
        x = x[None]
    if tuple(x.shape[1:]) != (spec.in_channels, *spec.input_resolution):
        raise ShapeMismatch("stem", (spec.in_channels, *spec.input_resolution), tuple(x.shape[1:]))
    for w, b in params.stem:
        x = gelu(conv2d(x, w, b, stride=2))
    pos = 0
    for si, st in enumerate(spec.stages):
        x = maxpool2d(x, stride=2)
        proj = params.projections[si]
        if proj is not None:
            x = conv2d(x, proj[0], proj[1])
        for _ in range(st.n_blocks):
            x = forward(spec.blocks[pos], params.blocks[pos], x,
                        entry_in_channels=plan.fused_entry[pos])
            pos += 1
    x = x.mean(axis=(2, 3))
    return x @ params.head[0].T + params.head[1]
