"""Reference forward executor over float64 numpy arrays.

Semantics of the elementary ops, where not obvious:

* Softmax normalizes along the last (W) axis.
* MaxPool2d is kernel 3, stride 1; border windows take the max over
  in-bounds neighbors only, so the shape is preserved without injecting
  padding values.
* Mask zeroes every position with |h - w| > 5 (square spatial maps only).
* Matmul1 produces out[(h1,h2),(w1,w2)] = sum_c x[c,h1,w1] y[c,h2,w2] / sqrt(C)
  with the H^2 axis indexing (h1,h2) and the W^2 axis indexing (w1,w2);
  Matmul2 contracts out[c,h,w] = sum_{h~,w~} a[(h,h~),(w,w~)] y[c,h~,w~].
* Dropout is the identity in deterministic mode; stochastic mode drops
  with p = 0.5 and scales survivors by 2.
* BatchNorm uses current-batch statistics over (N, H, W); nothing is
  trained so there are no running averages.  LayerNorm normalizes over
  channels at each position.
* UpSample broadcasts (C,1,1) back to the spatial size recorded from its
  coupled GlobalAvg's input during the same execution.

Reverse mode: ``forward_tape`` records every value of a forward, and
``vjp_rows`` runs one backward sweep over it with a backward rule per op,
for many output cotangents ("rows") at once; see the notes above ``Tape``.

Parameter initialization: conv weights ~ N(0, 2/fan_in), biases zero,
norm scales one, shifts zero, relative-position tables zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import erf, expit

from .errors import ShapeMismatch
from .graph import BlockGraph, INPUT, OUTPUT, in_adjacency, infer_shapes, topo_order
from .network import ExecutablePlan
from .ops import OP_INFO, OpKind, Shape, rel_pos_bias_table
from .rng import Rng

_BN_EPS = 1e-5
_LN_EPS = 1e-5


@dataclass
class EvalContext:
    mode: str = "deterministic"
    rng: Optional[Rng] = None

    def __post_init__(self):
        if self.mode not in ("deterministic", "stochastic"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "stochastic" and self.rng is None:
            raise ValueError("stochastic mode needs an rng")


@dataclass
class ParamStore:
    tensors: dict[int, dict[str, np.ndarray]] = field(default_factory=dict)

    def scalar_count(self) -> int:
        return sum(int(a.size) for node in self.tensors.values() for a in node.values())


def _he_weight(rng: Rng, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    return rng.normal(shape, std=math.sqrt(2.0 / fan_in))


def init_params(block: BlockGraph, rng: Rng, entry_in_channels: Optional[int] = None) -> ParamStore:
    """Deterministic parameters for every parameterized node of the block.

    entry_in_channels overrides the input channel count of the block's
    first node when a stage projection has been fused into it.
    """
    shapes = infer_shapes(block)
    first = block.first_interior()
    store = ParamStore()
    for v in topo_order(block):
        op = block.ops[v]
        s = shapes[v].in_shapes[0] if shapes[v].in_shapes else None
        c_in = s.c if s else 0
        if v == first and entry_in_channels is not None:
            c_in = entry_in_channels
        node_rng = rng.child(v)
        p: dict[str, np.ndarray] = {}
        if op is OpKind.CONV1:
            p["weight"] = _he_weight(node_rng, (s.c, c_in, 1, 1), c_in)
            p["bias"] = np.zeros(s.c)
        elif op is OpKind.CONV3:
            p["weight"] = _he_weight(node_rng, (s.c, c_in, 3, 3), 9 * c_in)
            p["bias"] = np.zeros(s.c)
        elif op is OpKind.CONV_DEPTH3:
            p["weight"] = _he_weight(node_rng, (s.c, 3, 3), 9)
        elif op is OpKind.CONV_DEPTH5:
            p["weight"] = _he_weight(node_rng, (s.c, 5, 5), 25)
        elif op in (OpKind.BATCH_NORM, OpKind.LAYER_NORM):
            p["scale"] = np.ones(s.c)
            p["shift"] = np.zeros(s.c)
        elif op is OpKind.REL_POS_BIAS:
            p["table"] = np.zeros(rel_pos_bias_table(s.h, s.w))
        elif op is OpKind.CONV_CHUNK3:
            p["weight"] = _he_weight(node_rng, (3 * s.c, c_in, 1, 1), c_in)
            p["bias"] = np.zeros(3 * s.c)
        elif op in (OpKind.CONV_EXP4, OpKind.CONV_RED4):
            p["weight"] = _he_weight(node_rng, (4 * s.c, c_in, 1, 1), c_in)
            p["bias"] = np.zeros(4 * s.c)
        if p:
            store.tensors[v] = p
    return store


def conv2d(x, w, b=None, stride=1, padding=0):
    n, cin, h, win = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ShapeMismatch("conv", f"C_in={cin_w}", f"C_in={cin}")
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    hout = (h + 2 * padding - kh) // stride + 1
    wout = (win + 2 * padding - kw) // stride + 1
    out = np.zeros((n, cout, hout, wout))
    for dy in range(kh):
        for dx in range(kw):
            xs = xp[:, :, dy:dy + stride * hout:stride, dx:dx + stride * wout:stride]
            out += np.einsum("oc,nchw->nohw", w[:, :, dy, dx], xs, optimize=True)
    if b is not None:
        out += b[None, :, None, None]
    return out


def depthwise_conv2d(x, w, padding):
    n, c, h, win = x.shape
    k = w.shape[-1]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros_like(x)
    for dy in range(k):
        for dx in range(k):
            out += xp[:, :, dy:dy + h, dx:dx + win] * w[None, :, dy, dx, None, None]
    return out


def maxpool2d(x, kernel=3, stride=1, padding=1):
    n, c, h, w = x.shape
    xp = np.pad(
        x, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
        constant_values=-np.inf,
    )
    hout = (h + 2 * padding - kernel) // stride + 1
    wout = (w + 2 * padding - kernel) // stride + 1
    out = np.full((n, c, hout, wout), -np.inf)
    for dy in range(kernel):
        for dx in range(kernel):
            np.maximum(out, xp[:, :, dy:dy + stride * hout:stride, dx:dx + stride * wout:stride], out=out)
    return out


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


def _exec_node(op, node, ins, params, ctx):
    x = ins[0]
    if op is OpKind.SOFTMAX:
        return [_softmax_last(x)]
    if op is OpKind.DROPOUT:
        if ctx.mode == "deterministic":
            return [x]
        keep = (ctx.rng.uniform01(x.size).reshape(x.shape) >= 0.5)
        return [x * keep * 2.0]
    if op is OpKind.MAXPOOL:
        return [maxpool2d(x)]
    if op is OpKind.MASK:
        return [x * _band(x.shape[2])[None, None, :, :]]
    if op is OpKind.SIGMOID:
        return [expit(x)]
    if op is OpKind.GELU:
        return [gelu(x)]
    if op in (OpKind.CONV1, OpKind.CONV3):
        pad = 1 if op is OpKind.CONV3 else 0
        return [conv2d(x, params["weight"], params["bias"], padding=pad)]
    if op is OpKind.CONV_DEPTH3:
        return [depthwise_conv2d(x, params["weight"], padding=1)]
    if op is OpKind.CONV_DEPTH5:
        return [depthwise_conv2d(x, params["weight"], padding=2)]
    if op is OpKind.BATCH_NORM:
        mu = x.mean(axis=(0, 2, 3), keepdims=True)
        var = x.var(axis=(0, 2, 3), keepdims=True)
        xn = (x - mu) / np.sqrt(var + _BN_EPS)
        return [xn * params["scale"][None, :, None, None] + params["shift"][None, :, None, None]]
    if op is OpKind.LAYER_NORM:
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        xn = (x - mu) / np.sqrt(var + _LN_EPS)
        return [xn * params["scale"][None, :, None, None] + params["shift"][None, :, None, None]]
    if op is OpKind.REL_POS_BIAS:
        return [_rel_pos_add(x, params["table"])]
    if op is OpKind.CHUNK2:
        c = x.shape[1] // 2
        return [x[:, :c], x[:, c:]]
    if op is OpKind.CHUNK3:
        c = x.shape[1] // 3
        return [x[:, :c], x[:, c:2 * c], x[:, 2 * c:]]
    if op is OpKind.COPY:
        return [x, x.copy()]
    if op in (OpKind.CONCAT2, OpKind.CONCAT3):
        return [np.concatenate(ins, axis=1)]
    if op is OpKind.ADD:
        return [ins[0] + ins[1]]
    if op is OpKind.MULTIPLY:
        return [ins[0] * ins[1]]
    if op is OpKind.CONV_CHUNK3:
        y = conv2d(x, params["weight"], params["bias"])
        c = y.shape[1] // 3
        return [y[:, :c], y[:, c:2 * c], y[:, 2 * c:]]
    if op is OpKind.CONV_EXP4:
        return [conv2d(x, params["weight"], params["bias"])]
    if op is OpKind.CONV_RED4:
        y = conv2d(x, params["weight"], params["bias"])
        n, c4, h, w = y.shape
        return [y.reshape(n, c4 // 16, 16, h, w).mean(axis=2)]
    if op is OpKind.MATMUL1:
        return [matmul1(ins[0], ins[1])]
    if op is OpKind.MATMUL2:
        return [matmul2(ins[0], ins[1])]
    if op is OpKind.GLOBAL_AVG:
        return [x.mean(axis=(2, 3), keepdims=True)]
    raise AssertionError(op)


def _run(block, params, x, ctx, entry_in_channels=None):
    """Every (node, port) value of one execution on a (N,C,H,W) batch."""
    want_c = entry_in_channels if entry_in_channels is not None else block.input_shape.c
    want = (want_c, block.input_shape.h, block.input_shape.w)
    if tuple(x.shape[1:]) != want:
        raise ShapeMismatch(INPUT, want, tuple(x.shape[1:]))

    produced: dict[tuple[int, int], np.ndarray] = {(INPUT, 0): x}
    gavg_spatial: dict[int, tuple[int, int]] = {}
    in_adj = in_adjacency(block)
    for v in topo_order(block):
        op = block.ops[v]
        ins = [produced[(e.src, e.src_port)] for e in in_adj.get(v, ())]
        if op is OpKind.GLOBAL_AVG:
            gavg_spatial[v] = ins[0].shape[2:]
        if op is OpKind.UP_SAMPLE:
            partners = block.couples.get(v, ())
            gavg = next(p for p in partners if block.ops.get(p) is OpKind.GLOBAL_AVG)
            th, tw = gavg_spatial[gavg]
            outs = [np.broadcast_to(ins[0], (*ins[0].shape[:2], th, tw)).copy()]
        else:
            outs = _exec_node(op, v, ins, params.tensors.get(v, {}), ctx)
        for port, arr in enumerate(outs):
            produced[(v, port)] = arr
    out_edge = in_adj[OUTPUT][0]
    produced[(OUTPUT, 0)] = produced[(out_edge.src, out_edge.src_port)]
    return produced


def forward(
    block: BlockGraph,
    params: ParamStore,
    x: np.ndarray,
    ctx: Optional[EvalContext] = None,
    entry_in_channels: Optional[int] = None,
) -> np.ndarray:
    """Run the block on a (N,C,H,W) or (C,H,W) array; returns same rank as given."""
    squeeze = x.ndim == 3
    produced = _run(block, params, x[None] if squeeze else x, ctx or EvalContext(), entry_in_channels)
    out = produced[(OUTPUT, 0)]
    return out[0] if squeeze else out


# --- reverse mode ------------------------------------------------------------
#
# A cotangent carries a leading row axis: shape (R, S, C, H, W).  Row k is the
# cotangent of one scalar output, s_{start+k}, and comes in one of two forms:
#
# * diagonal (S == 1): row k lives on sample start+k alone, which holds
#   from the block output back to the first op that mixes samples;
# * full (S == N): row k spans the whole batch.  BatchNorm is the only op
#   that mixes samples, so its rule turns diagonal rows full.
#
# A forward array (N, ...) meets a cotangent through ``align``: x[None] for
# full rows, x[start:start+R, None] for diagonal ones; both broadcast against
# (R, S, ...).  Parameter gradients come out per row, (R, *param.shape).

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
    """Forward a (N,C,H,W) batch in deterministic mode and keep what the
    backward rules need."""
    return Tape(block, params, _run(block, params, x, EvalContext()))


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


def _pad(x, pad, value=0.0):
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=value)


def _conv_vjp(g, x, w, pad, align, want_x):
    rows, s, o, h, wd = g.shape
    kh, kw = w.shape[2:]
    xa = align(_pad(x, pad) if pad else x)
    gm = g.transpose(0, 2, 1, 3, 4).reshape(rows, o, s * h * wd)
    gw = np.empty((rows, *w.shape))
    for dy in range(kh):
        for dx in range(kw):
            xs = xa[:, :, :, dy:dy + h, dx:dx + wd]
            gw[..., dy, dx] = gm @ xs.transpose(0, 1, 3, 4, 2).reshape(xs.shape[0], s * h * wd, -1)
    grads = {"weight": gw, "bias": g.sum(axis=(1, 3, 4))}
    if not want_x:
        return None, grads
    gx = np.zeros((rows, s, w.shape[1], h + 2 * pad, wd + 2 * pad))
    for dy in range(kh):
        for dx in range(kw):
            gx[:, :, :, dy:dy + h, dx:dx + wd] += np.einsum(
                "oc,rsohw->rschw", w[:, :, dy, dx], g, optimize=True)
    return gx[:, :, :, pad:pad + h, pad:pad + wd], grads


def _depthwise_vjp(g, x, w, pad, align, want_x):
    rows, s, c, h, wd = g.shape
    k = w.shape[-1]
    xa = align(_pad(x, pad))
    gw = np.empty((rows, c, k, k))
    for dy in range(k):
        for dx in range(k):
            gw[:, :, dy, dx] = np.einsum("rschw,rschw->rc", g, xa[:, :, :, dy:dy + h, dx:dx + wd])
    if not want_x:
        return None, {"weight": gw}
    gx = np.zeros((rows, s, c, h + 2 * pad, wd + 2 * pad))
    for dy in range(k):
        for dx in range(k):
            gx[:, :, :, dy:dy + h, dx:dx + wd] += g * w[:, dy, dx, None, None]
    return gx[:, :, :, pad:pad + h, pad:pad + wd], {"weight": gw}


def _norm_stats(x, axes, eps):
    inv = 1.0 / np.sqrt(x.var(axis=axes, keepdims=True) + eps)
    return (x - x.mean(axis=axes, keepdims=True)) * inv, inv


def _maxpool_masks(x, out):
    """Which window offset supplies each output; the first in scan order on ties."""
    h, w = x.shape[2:]
    xp = _pad(x, 1, -np.inf)
    taken = np.zeros(out.shape, dtype=bool)
    masks = []
    for dy in range(3):
        for dx in range(3):
            m = (xp[:, :, dy:dy + h, dx:dx + w] == out) & ~taken
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
        return one(g)  # the tape is deterministic, where Dropout is the identity
    if op is OpKind.MAXPOOL:
        masks = _cached(tape, v, lambda: _maxpool_masks(x, outs[0]))
        h, w = x.shape[2:]
        gx = np.zeros((*g.shape[:3], h + 2, w + 2))
        for i, m in enumerate(masks):
            dy, dx = divmod(i, 3)
            gx[:, :, :, dy:dy + h, dx:dx + w] += g * align(m)
        return one(gx[:, :, :, 1:-1, 1:-1])
    if op is OpKind.MASK:
        return one(g * _band(x.shape[2]))
    if op is OpKind.SIGMOID:
        y = align(outs[0])
        return one(g * y * (1.0 - y))
    if op is OpKind.GELU:
        d = _cached(tape, v, lambda: 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
                    + x * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))
        return one(g * align(d))
    if op in (OpKind.CONV1, OpKind.CONV3):
        gx, grads = _conv_vjp(g, x, params["weight"], 1 if op is OpKind.CONV3 else 0, align, want[0])
        return [gx], grads
    if op in (OpKind.CONV_DEPTH3, OpKind.CONV_DEPTH5):
        pad = 1 if op is OpKind.CONV_DEPTH3 else 2
        gx, grads = _depthwise_vjp(g, x, params["weight"], pad, align, want[0])
        return [gx], grads
    if op is OpKind.BATCH_NORM:
        # Rows are full here: statistics couple every sample of the batch.
        xn, inv = _cached(tape, v, lambda: _norm_stats(x, (0, 2, 3), _BN_EPS))
        m = x.shape[0] * x.shape[2] * x.shape[3]
        gb = g.sum(axis=(1, 3, 4))
        gsc = np.einsum("rnchw,nchw->rc", g, xn, optimize=True)
        grads = {"scale": gsc, "shift": gb}
        if not want[0]:
            return [None], grads
        k = inv[None] * params["scale"][:, None, None]
        gx = k * (g - (gb / m)[:, None, :, None, None] - xn[None] * (gsc / m)[:, None, :, None, None])
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
    if op in (OpKind.CHUNK2, OpKind.CHUNK3, OpKind.CONV_CHUNK3):
        gy = np.concatenate(gs, axis=2)
        if op is not OpKind.CONV_CHUNK3:
            return one(gy)
        gx, grads = _conv_vjp(gy, x, params["weight"], 0, align, want[0])
        return [gx], grads
    if op is OpKind.COPY:
        return one(gs[0] + gs[1])
    if op in (OpKind.CONCAT2, OpKind.CONCAT3):
        edges = np.cumsum([a.shape[1] for a in ins])[:-1]
        return np.split(g, edges, axis=2), {}
    if op is OpKind.ADD:
        return [g, g], {}
    if op is OpKind.MULTIPLY:
        return [g * align(ins[1]) if want[0] else None, g * align(ins[0]) if want[1] else None], {}
    if op is OpKind.CONV_EXP4:
        gx, grads = _conv_vjp(g, x, params["weight"], 0, align, want[0])
        return [gx], grads
    if op is OpKind.CONV_RED4:
        gx, grads = _conv_vjp(np.repeat(g, 16, axis=2) / 16.0, x, params["weight"], 0, align, want[0])
        return [gx], grads
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
    (R, 1, C, H, W) with row k on sample start+k, or (R, N, C, H, W) over the
    whole batch.  Returns node -> name -> (R, *param.shape).
    """
    block = tape.block
    n = tape.values[(INPUT, 0)].shape[0]
    rows = ct.shape[0]
    in_adj = in_adjacency(block)
    order = topo_order(block)
    # Nodes with a parameter at or above them; no other node needs a cotangent.
    needs: set[int] = set()
    for v in order:
        if OP_INFO[block.ops[v]].parameterized or any(e.src in needs for e in in_adj.get(v, ())):
            needs.add(v)
    out_edge = in_adj[OUTPUT][0]
    # Every port feeds exactly one edge, so each cotangent arrives once.
    pending: dict[tuple[int, int], np.ndarray] = {(out_edge.src, out_edge.src_port): ct}
    grads: dict[int, dict[str, np.ndarray]] = {}
    for v in reversed(order):
        if v not in needs:
            continue
        op = block.ops[v]
        ports = range(OP_INFO[op].out_arity)
        gs = [pending.pop((v, p)) for p in ports]
        full = op in _MIXES_SAMPLES or any(g.shape[1] != 1 for g in gs)
        if full:
            gs = [_to_full(g, start, n) if g.shape[1] == 1 else g for g in gs]
            align = lambda a: a[None]  # noqa: E731
        else:
            align = lambda a: a[start:start + rows, None]  # noqa: E731
        outs = [tape.values[(v, p)] for p in ports]
        edges = in_adj[v]
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
        (_he_weight(rng.child(0, 0), (s, spec.in_channels, 3, 3), 9 * spec.in_channels), np.zeros(s)),
        (_he_weight(rng.child(0, 1), (s, s, 3, 3), 9 * s), np.zeros(s)),
    )
    projections = []
    for si, tp in enumerate(plan.transitions):
        if tp.fused:
            projections.append(None)
        else:
            w = _he_weight(rng.child(1, si), (tp.out_channels, tp.in_channels, 1, 1), tp.in_channels)
            projections.append((w, np.zeros(tp.out_channels)))
    blocks = tuple(
        init_params(b, rng.child(2, i), entry_in_channels=plan.fused_entry[i])
        for i, b in enumerate(spec.blocks)
    )
    c_last = spec.stages[-1].channels
    head_w = _he_weight(rng.child(3), (spec.num_classes, c_last), c_last)
    return NetworkParams(stem, tuple(projections), blocks, (head_w, np.zeros(spec.num_classes)))


def forward_network(
    plan: ExecutablePlan,
    params: NetworkParams,
    x: np.ndarray,
    ctx: Optional[EvalContext] = None,
) -> np.ndarray:
    """Stem -> stages (pool, projection, blocks) -> head; returns (N, num_classes)."""
    ctx = ctx or EvalContext()
    spec = plan.spec
    if x.ndim == 3:
        x = x[None]
    if tuple(x.shape[1:]) != (spec.in_channels, *spec.input_resolution):
        raise ShapeMismatch("stem", (spec.in_channels, *spec.input_resolution), tuple(x.shape[1:]))
    for w, b in params.stem:
        x = gelu(conv2d(x, w, b, stride=2, padding=1))
    pos = 0
    for si, st in enumerate(spec.stages):
        x = maxpool2d(x, kernel=3, stride=2, padding=1)
        proj = params.projections[si]
        if proj is not None:
            x = conv2d(x, proj[0], proj[1])
        for _ in range(st.n_blocks):
            x = forward(spec.blocks[pos], params.blocks[pos], x, ctx,
                        entry_in_channels=plan.fused_entry[pos])
            pos += 1
    x = x.mean(axis=(2, 3))
    return x @ params.head[0].T + params.head[1]
