"""Independent reference implementations used as test oracles.

Everything here is deliberately written with plain loops (or hand-rolled
linear algebra) and never calls into the interpreter's execution path.
"""

import hashlib
import heapq
import math
import re

import numpy as np

import archspace as a
from archspace.errors import (
    CycleDetected,
    DivisibilityViolation,
    GraphError,
    InfeasibleEdit,
    NonSquareSpatial,
    ShapeMismatch,
)
from archspace.graph import (
    INPUT,
    OUTPUT,
    BlockGraph,
    Edge,
    NodeShapes,
    Ports,
    ValidationReport,
)
from archspace.interpreter import (
    ParamStore,
    _band,
    _rel_pos_add,
    _softmax_last,
    gelu,
    matmul1,
    matmul2,
    sigmoid,
)
from archspace.mutation import Edit, apply_block_edit
from archspace.ops import COUPLED_ONLY, OP_INFO, Cost, OpKind, Shape, ZERO_COST, rel_pos_bias_table


def matmul1_loops(x, y):
    """out[(h1,h2),(w1,w2)] = sum_c x[c,h1,w1] y[c,h2,w2] / sqrt(C)."""
    c, h, w = x.shape
    out = np.zeros((1, h * h, w * w))
    scale = 1.0 / math.sqrt(c)
    for h1 in range(h):
        for h2 in range(h):
            for w1 in range(w):
                for w2 in range(w):
                    s = 0.0
                    for m in range(c):
                        s += x[m, h1, w1] * y[m, h2, w2]
                    out[0, h1 * h + h2, w1 * w + w2] = scale * s
    return out


def matmul2_loops(am, y):
    """out[c,h,w] = sum_{ht,wt} a[(h,ht),(w,wt)] y[c,ht,wt]."""
    c, h, w = y.shape
    out = np.zeros((c, h, w))
    for ci in range(c):
        for hi in range(h):
            for wi in range(w):
                s = 0.0
                for ht in range(h):
                    for wt in range(w):
                        s += am[0, hi * h + ht, wi * w + wt] * y[ci, ht, wt]
                out[ci, hi, wi] = s
    return out


def softmax_rows_loops(m):
    """Row softmax along the last axis of a 2-D array, with plain loops."""
    out = np.zeros_like(m)
    rows, cols = m.shape
    for r in range(rows):
        mx = max(m[r, j] for j in range(cols))
        es = [math.exp(m[r, j] - mx) for j in range(cols)]
        z = sum(es)
        for j in range(cols):
            out[r, j] = es[j] / z
    return out


def relpos_add_loops(am, table):
    """Add table[(h1-h2), (w1-w2)] offsets to the (1, H^2, W^2) matrix."""
    _, hh, ww = am.shape
    u, v = math.isqrt(hh), math.isqrt(ww)
    out = am.copy()
    for i in range(hh):
        dh = i // u - i % u
        for j in range(ww):
            dw = j // v - j % v
            out[0, i, j] += table[dh + u - 1, dw + v - 1]
    return out


# The interpreter's window kernels as they were before one tap generator
# served them all: each states its own k x k loop, padding and crop.

def _pad(x, pad, value=0.0):
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=value)


def conv2d_loops(x, w, b, stride=1, padding=0):
    n, cin, h, win = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ShapeMismatch("conv", f"C_in={cin_w}", f"C_in={cin}")
    xp = _pad(x, padding)
    hout = (h + 2 * padding - kh) // stride + 1
    wout = (win + 2 * padding - kw) // stride + 1
    out = np.zeros((n, cout, hout, wout))
    for dy in range(kh):
        for dx in range(kw):
            xs = xp[:, :, dy:dy + stride * hout:stride, dx:dx + stride * wout:stride]
            out += np.einsum("oc,nchw->nohw", w[:, :, dy, dx], xs, optimize=True)
    out += b[None, :, None, None]
    return out


def depthwise_conv2d_loops(x, w, padding):
    n, c, h, win = x.shape
    k = w.shape[-1]
    xp = _pad(x, padding)
    out = np.zeros_like(x)
    for dy in range(k):
        for dx in range(k):
            out += xp[:, :, dy:dy + h, dx:dx + win] * w[None, :, dy, dx, None, None]
    return out


def maxpool2d_loops(x, kernel=3, stride=1, padding=1):
    n, c, h, w = x.shape
    xp = _pad(x, padding, -np.inf)
    hout = (h + 2 * padding - kernel) // stride + 1
    wout = (w + 2 * padding - kernel) // stride + 1
    out = np.full((n, c, hout, wout), -np.inf)
    for dy in range(kernel):
        for dx in range(kernel):
            np.maximum(out, xp[:, :, dy:dy + stride * hout:stride, dx:dx + stride * wout:stride], out=out)
    return out


def conv_vjp_loops(g, x, w, pad, align, want_x):
    """Input cotangent and parameter gradients of conv2d_loops at stride 1;
    g is (R, S, C_out, H, W) and align maps an (N, ...) array onto its rows."""
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


def depthwise_vjp_loops(g, x, w, pad, align, want_x):
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


def maxpool_masks_loops(x, out):
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


def maxpool_vjp_loops(g, x, masks, align):
    """The MaxPool input cotangent: g scattered back through each offset's mask."""
    h, w = x.shape[2:]
    gx = np.zeros((*g.shape[:3], h + 2, w + 2))
    for i, m in enumerate(masks):
        dy, dx = divmod(i, 3)
        gx[:, :, :, dy:dy + h, dx:dx + w] += g * align(m)
    return gx[:, :, :, 1:-1, 1:-1]


def attention2h_oracle(block, store, x):
    """Two-head scaled-dot-product attention with the block's weights.

    Shares the parameter tensors but re-implements the computation from
    scratch: 1x1 projections by matrix algebra, the attention core by the
    explicit loop formulas above, residual add at the end.
    """
    qkv_nodes = [v for v in topo_order_oracle(block) if block.ops[v] is OpKind.CONV_CHUNK3]
    rel_nodes = [v for v in topo_order_oracle(block) if block.ops[v] is OpKind.REL_POS_BIAS]
    proj_node = next(v for v in topo_order_oracle(block) if block.ops[v] is OpKind.CONV1)
    assert len(qkv_nodes) == 2 and len(rel_nodes) == 2

    c, h, w = x.shape
    half = c // 2
    heads_in = [x[:half], x[half:]]
    outs = []
    for head, (qkv, rel) in enumerate(zip(qkv_nodes, rel_nodes)):
        xh = heads_in[head]
        wgt = store.tensors[qkv]["weight"][:, :, 0, 0]
        bias = store.tensors[qkv]["bias"]
        y = wgt @ xh.reshape(half, h * w) + bias[:, None]
        q = y[:half].reshape(half, h, w)
        k = y[half:2 * half].reshape(half, h, w)
        v = y[2 * half:].reshape(half, h, w)
        logits = matmul1_loops(q, k)
        logits = relpos_add_loops(logits, store.tensors[rel]["table"])
        weights = softmax_rows_loops(logits[0])[None]
        outs.append(matmul2_loops(weights, v))
    cat = np.concatenate(outs, axis=0)
    wp = store.tensors[proj_node]["weight"][:, :, 0, 0]
    bp = store.tensors[proj_node]["bias"]
    proj = (wp @ cat.reshape(c, h * w) + bp[:, None]).reshape(c, h, w)
    return x + proj


def check_dot(text):
    """Structural well-formedness of DOT output."""
    assert text.startswith("digraph"), "must open a digraph"
    assert text.count("{") == text.count("}"), "unbalanced braces"
    declared = set(re.findall(r'^\s*"([^"]+)"\s*\[', text, re.M))
    edges = re.findall(r'^\s*"([^"]+)"\s*->\s*"([^"]+)"', text, re.M)
    assert edges, "no edges rendered"
    for src, dst in edges:
        assert src in declared, f"edge source {src} undeclared"
        assert dst in declared, f"edge target {dst} undeclared"
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith(("digraph", "subgraph", "}", "{")):
            assert stripped.endswith((";", "{")), f"unterminated statement: {stripped!r}"


def fuzz_network(seed, steps=15, budget=None):
    """A random valid in-budget network produced by a short seeded walk."""
    from archspace.ops import Shape

    blocks = [
        a.build("mbconv4", Shape(24, 4, 4)),
        a.build("attention2h", Shape(24, 4, 4)),
        a.build("resnet_basic", Shape(48, 2, 2)),
        a.build("identity", Shape(48, 2, 2)),
    ]
    spec = a.make_network(12, (32, 32), (2, 2), (24, 48), 10, blocks=blocks)
    budget = budget or a.Budget(50_000, 400_000, 1_000_000, 30_000_000)
    cfg = a.WalkConfig(steps=steps, budget=budget, seed=seed, p_eliminate=0.4)
    net, _ = a.random_walk(spec, cfg)
    return net


# --- block validation as it was before the shared edge index ----------------
#
# Counters over (node, port) keys scanned once per node, two BFS runs per
# couple entry, and topological sort and shape inference that each read
# block.edges on their own.


def topo_order_oracle(block):
    indeg = {v: 0 for v in block.ops}
    succs = {v: [] for v in block.ops}
    for e in block.edges:
        if e.dst in indeg and e.src != INPUT:
            if e.src in succs:
                succs[e.src].append(e.dst)
                indeg[e.dst] += 1
    ready = [v for v, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for s in succs[v]:
            indeg[s] -= 1
            if indeg[s] == 0:
                heapq.heappush(ready, s)
    if len(order) != len(block.ops):
        raise CycleDetected(f"{len(block.ops) - len(order)} nodes unreachable from a cycle-free order")
    return order


def infer_shapes_oracle(block):
    producers = {(INPUT, 0): block.input_shape}
    result = {INPUT: NodeShapes((), (block.input_shape,))}
    in_adj = {}
    for e in block.edges:
        in_adj.setdefault(e.dst, []).append(e)
    for lst in in_adj.values():
        lst.sort(key=lambda e: e.dst_port)
    for v in topo_order_oracle(block):
        op = block.ops[v]
        ins = []
        for e in in_adj.get(v, ()):
            key = (e.src, e.src_port)
            if key not in producers:
                raise GraphError(f"node {v}: input port {e.dst_port} fed by unresolved {key}")
            ins.append(producers[key])
        target = None
        if op is OpKind.UP_SAMPLE:
            partners = block.couples.get(v, ())
            gavg = next((p for p in partners if block.ops.get(p) is OpKind.GLOBAL_AVG), None)
            if gavg is None or gavg not in result:
                raise GraphError(f"node {v}: UpSample has no resolved coupled GlobalAvg")
            src = result[gavg].in_shapes[0]
            target = (src.h, src.w)
        outs = transfer_oracle(op, ins, node=v, upsample_target=target)
        result[v] = NodeShapes(tuple(ins), outs)
        for port, s in enumerate(outs):
            producers[(v, port)] = s
    out_in = in_adj.get(OUTPUT, [])
    if len(out_in) != 1:
        raise GraphError(f"virtual output must have exactly one in edge, found {len(out_in)}")
    key = (out_in[0].src, out_in[0].src_port)
    if key not in producers:
        raise GraphError(f"virtual output fed by unresolved {key}")
    result[OUTPUT] = NodeShapes((producers[key],), ())
    return result


def _port_violations_oracle(block):
    bad = []
    seen_out = {}
    seen_in = {}
    for e in block.edges:
        for v in (e.src, e.dst):
            if v not in (INPUT, OUTPUT) and v not in block.ops:
                bad.append(f"edge {tuple(e)} references unknown node {v}")
        seen_out[(e.src, e.src_port)] = seen_out.get((e.src, e.src_port), 0) + 1
        seen_in[(e.dst, e.dst_port)] = seen_in.get((e.dst, e.dst_port), 0) + 1
    if bad:
        return bad

    def expect(counter, v, n_ports, kind):
        for p in range(n_ports):
            n = counter.get((v, p), 0)
            if n != 1:
                bad.append(f"node {v} {kind} port {p}: {n} edges (want 1)")
        for (node, p), n in counter.items():
            if node == v and not 0 <= p < n_ports:
                bad.append(f"node {v} {kind} port {p} out of range")

    expect(seen_out, INPUT, 1, "output")
    expect(seen_in, OUTPUT, 1, "input")
    if any(key[0] == INPUT for key in seen_in):
        bad.append("virtual input has incoming edges")
    if any(key[0] == OUTPUT for key in seen_out):
        bad.append("virtual output has outgoing edges")
    for v, op in block.ops.items():
        info = OP_INFO[op]
        expect(seen_in, v, info.in_arity, "input")
        expect(seen_out, v, info.out_arity, "output")
    return bad


def _couples_violations_oracle(block):
    bad = []
    succs = successor_map(block)
    for v, partners in block.couples.items():
        if v not in block.ops:
            bad.append(f"couples entry references dead node {v}")
            continue
        for p in partners:
            if p not in block.ops:
                bad.append(f"couple {v}<->{p}: dead partner")
                continue
            if v not in block.couples.get(p, ()):
                bad.append(f"couple {v}->{p} is not symmetric")
            if p not in bfs_reachable(succs, (v,), stop_at=p) and v not in bfs_reachable(succs, (p,), stop_at=v):
                bad.append(f"couple {v}<->{p}: no directed path between the pair")
    for v, op in block.ops.items():
        if op in COUPLED_ONLY and v not in block.couples:
            bad.append(f"node {v} ({op.value}) changes dimensions/fan-out but has no couple")
    return bad


def validate_oracle(block):
    bad = _port_violations_oracle(block)
    if bad:
        return ValidationReport(tuple(bad))
    try:
        topo_order_oracle(block)
    except CycleDetected as exc:
        return ValidationReport((f"cycle: {exc}",))
    bad.extend(_couples_violations_oracle(block))
    try:
        shapes = infer_shapes_oracle(block)
    except GraphError as exc:
        bad.append(f"shape inference failed: {exc}")
        return ValidationReport(tuple(bad))
    out_shape = shapes[OUTPUT].in_shapes[0]
    if out_shape != block.input_shape:
        bad.append(f"block output shape {out_shape} != input shape {block.input_shape}")
    return ValidationReport(tuple(bad))


def template_node_shapes_oracle(name, shape, ids):
    """Splice the template into a scratch identity block and infer it whole."""
    scratch = BlockGraph.identity(shape)
    edit = Edit("add", 0, INPUT, scratch.digest, template=name,
                cut_edge=Edge(INPUT, 0, OUTPUT, 0), new_ids=ids)
    shapes = infer_shapes_oracle(apply_block_edit(scratch, edit))
    return {v: shapes[v] for v in ids}


def successor_map(block):
    """Interior node -> interior successors, by one scan of the edge list."""
    succs = {v: [] for v in block.ops}
    for e in block.edges:
        if e.src in succs and e.dst in succs:
            succs[e.src].append(e.dst)
    return succs


def predecessor_map(block):
    """Interior node -> interior predecessors, by one scan of the edge list."""
    preds = {v: [] for v in block.ops}
    for e in block.edges:
        if e.src in preds and e.dst in preds:
            preds[e.dst].append(e.src)
    return preds


def bfs_reachable(adj, starts, stop_at=None):
    """Nodes reachable from any of starts by one edge or more (a start only if
    another start or a cycle reaches it); early exit once stop_at is seen."""
    seen = set()
    frontier = list(starts)
    while frontier:
        nxt = []
        for v in frontier:
            for s in adj.get(v, ()):
                if s not in seen:
                    seen.add(s)
                    if s == stop_at:
                        return seen
                    nxt.append(s)
        frontier = nxt
    return seen


def minimal_coupled_subgraph_oracle(block, v):
    """The doomed set by one search per ordered pair of group members: every
    node reachable from a and reaching b, for each b reachable from a."""
    if v not in block.ops:
        raise InfeasibleEdit(f"node {v} is not an interior node")
    if v not in block.couples:
        if not OP_INFO[block.ops[v]].preserves_shape:
            raise InfeasibleEdit(f"node {v} ({block.ops[v].value}) changes shape but has no couple")
        return frozenset({v})
    succs = successor_map(block)
    preds = predecessor_map(block)
    doomed = {v, *block.couples[v]}
    while True:
        grown = set(doomed)
        for u in doomed:
            grown |= set(block.couples.get(u, ()))
        for a in list(grown):
            desc_a = bfs_reachable(succs, (a,))
            for b in list(grown):
                if a != b and b in desc_a:
                    grown |= desc_a & bfs_reachable(preds, (b,))
        if grown == doomed:
            return frozenset(doomed)
        doomed = grown


def excise_boundary_oracle(block, doomed):
    """Entry and exit edges of the doomed set, by two scans of the edge list."""
    entries = [e for e in block.edges if e.src not in doomed and e.dst in doomed]
    exits = [e for e in block.edges if e.src in doomed and e.dst not in doomed]
    if len(entries) != 1 or len(exits) != 1:
        raise InfeasibleEdit(
            f"doomed set has {len(entries)} entry / {len(exits)} exit edges (want 1/1)"
        )
    return entries[0], exits[0]


def bridge_oracle(block, doomed):
    """The edge from the entry edge's source to the exit edge's destination."""
    entry, exit_ = excise_boundary_oracle(block, doomed)
    return Edge(entry.src, entry.src_port, exit_.dst, exit_.dst_port)


def out_edges_oracle(block, v):
    return sorted((e for e in block.edges if e.src == v), key=lambda e: e.src_port)


# --- derived block state, rebuilt from the whole block ------------------------
#
# `BlockGraph.ports` and `BlockGraph.digest` as every block computed them before
# a child block carried its parent's edge index and digest items.

def ports_oracle(block):
    """The edge index, built in one pass over the block's edges."""
    ins, outs = {}, {}
    for e in block.edges:
        outs.setdefault(e.src, []).append(e)
        ins.setdefault(e.dst, []).append(e)
    return Ports(ins, outs)


def digest_oracle(block):
    """sha256 of the repr of every sorted node, edge and couple."""
    payload = repr((
        tuple(block.input_shape),
        sorted((v, op.value) for v, op in block.ops.items()),
        sorted(block.edges),
        sorted((v, tuple(sorted(p))) for v, p in block.couples.items()),
    ))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# --- per-op rules as `if op is ...` chains ------------------------------------
#
# The shape, cost, init and forward rules as they read before each op became one
# row of ops.OP_INFO: conv geometry in two tables, one branch per op.

CONV = {  # dense convolutions with bias: (kernel, output channels per input channel)
    OpKind.CONV1: (1, 1),
    OpKind.CONV3: (3, 1),
    OpKind.CONV_CHUNK3: (1, 3),
    OpKind.CONV_EXP4: (1, 4),
    OpKind.CONV_RED4: (1, 4),
}
DEPTHWISE = {OpKind.CONV_DEPTH3: 3, OpKind.CONV_DEPTH5: 5}  # no bias: kernel
PRESERVES_SHAPE = frozenset({  # one input, one output of the input's shape
    OpKind.SOFTMAX, OpKind.DROPOUT, OpKind.MAXPOOL, OpKind.MASK, OpKind.SIGMOID, OpKind.GELU,
    OpKind.CONV1, OpKind.CONV3, OpKind.CONV_DEPTH3, OpKind.CONV_DEPTH5, OpKind.BATCH_NORM,
    OpKind.LAYER_NORM, OpKind.REL_POS_BIAS,
})


def _isqrt_exact(n):
    r = math.isqrt(n)
    return r if r * r == n else None


def transfer_oracle(op, in_shapes, node="?", upsample_target=None):
    info = OP_INFO[op]
    if len(in_shapes) != info.in_arity:
        raise GraphError(f"node {node}: {op.value} takes {info.in_arity} inputs, got {len(in_shapes)}")
    s = in_shapes[0]

    if op in PRESERVES_SHAPE:
        if op is OpKind.MASK and s.h != s.w:
            raise NonSquareSpatial(node, f"Mask requires H == W, got {s}")
        if op is OpKind.REL_POS_BIAS:
            if _isqrt_exact(s.h) is None or _isqrt_exact(s.w) is None:
                raise NonSquareSpatial(node, f"RelPosBias requires integer sqrt(H), sqrt(W), got {s}")
        return (s,)

    if op is OpKind.CHUNK2:
        if s.c % 2:
            raise DivisibilityViolation(node, f"Chunk2 requires C divisible by 2, got C={s.c}")
        return (Shape(s.c // 2, s.h, s.w),) * 2
    if op is OpKind.CHUNK3:
        if s.c % 3:
            raise DivisibilityViolation(node, f"Chunk3 requires C divisible by 3, got C={s.c}")
        return (Shape(s.c // 3, s.h, s.w),) * 3
    if op is OpKind.COPY:
        return (s, s)
    if op in (OpKind.CONCAT2, OpKind.CONCAT3):
        for other in in_shapes[1:]:
            if other != s:
                raise ShapeMismatch(node, s, other)
        return (Shape(s.c * len(in_shapes), s.h, s.w),)
    if op in (OpKind.ADD, OpKind.MULTIPLY):
        if in_shapes[1] != s:
            raise ShapeMismatch(node, s, in_shapes[1])
        return (s,)
    if op is OpKind.CONV_CHUNK3:
        return (s, s, s)
    if op is OpKind.CONV_EXP4:
        return (Shape(4 * s.c, s.h, s.w),)
    if op is OpKind.CONV_RED4:
        if s.c % 4:
            raise DivisibilityViolation(node, f"ConvRed4 requires C divisible by 4, got C={s.c}")
        return (Shape(s.c // 4, s.h, s.w),)
    if op is OpKind.MATMUL1:
        if in_shapes[1] != s:
            raise ShapeMismatch(node, s, in_shapes[1])
        return (Shape(1, s.h * s.h, s.w * s.w),)
    if op is OpKind.MATMUL2:
        y = in_shapes[1]
        want = Shape(1, y.h * y.h, y.w * y.w)
        if s != want:
            raise ShapeMismatch(node, want, s)
        return (y,)
    if op is OpKind.GLOBAL_AVG:
        return (Shape(s.c, 1, 1),)
    if op is OpKind.UP_SAMPLE:
        if (s.h, s.w) != (1, 1):
            raise ShapeMismatch(node, Shape(s.c, 1, 1), s)
        if upsample_target is None:
            raise GraphError(f"node {node}: UpSample has no coupled GlobalAvg to define its target size")
        return (Shape(s.c, upsample_target[0], upsample_target[1]),)
    raise AssertionError(op)


def _conv2d_cost(c_in, c_out, kernel, out_h, out_w):
    return Cost(c_out * (kernel * kernel * c_in + 1), 2 * kernel * kernel * c_in * c_out * out_h * out_w)


def op_cost_oracle(op, in_shapes, out_shapes):
    s = in_shapes[0]
    c, h, w = s
    chw = c * h * w
    if op is OpKind.SOFTMAX:
        return Cost(0, c * h * (3 * w - 1))
    if op in (OpKind.DROPOUT, OpKind.MASK):
        return Cost(0, chw)
    if op is OpKind.MAXPOOL:
        return Cost(0, 9 * chw)
    if op in (OpKind.SIGMOID, OpKind.GELU):
        return Cost(0, 3 * chw)
    if op in CONV:
        k, m = CONV[op]
        return _conv2d_cost(c, m * c, k, h, w)
    if op in DEPTHWISE:
        k = DEPTHWISE[op]
        return Cost(k * k * c, 2 * k * k * chw)
    if op in (OpKind.BATCH_NORM, OpKind.LAYER_NORM):
        return Cost(2 * c, 2 * chw)
    if op is OpKind.REL_POS_BIAS:
        u, v = math.isqrt(h), math.isqrt(w)
        return Cost(((2 * u - 1) * (2 * v - 1) + 1) // 2, chw)
    if op in (OpKind.CHUNK2, OpKind.CHUNK3, OpKind.COPY, OpKind.CONCAT2, OpKind.CONCAT3):
        return ZERO_COST
    if op is OpKind.ADD:
        return Cost(0, chw)
    if op is OpKind.MULTIPLY:
        return Cost(0, 4 * chw)
    if op is OpKind.MATMUL1:
        return Cost(0, 2 * c * h * h * w * w)
    if op is OpKind.MATMUL2:
        y = in_shapes[1]
        return Cost(0, 2 * y.c * y.h * y.h * y.w * y.w)
    if op is OpKind.GLOBAL_AVG:
        return Cost(0, chw)
    if op is OpKind.UP_SAMPLE:
        o = out_shapes[0]
        return Cost(0, o.c * o.h * o.w)
    raise AssertionError(op)


def init_params_oracle(block, rng, entry_in_channels=None):
    shapes = infer_shapes_oracle(block)
    first = block.first_interior()
    store = ParamStore()
    for v in topo_order_oracle(block):
        op = block.ops[v]
        s = shapes[v].in_shapes[0] if shapes[v].in_shapes else None
        c_in = s.c if s else 0
        if v == first and entry_in_channels is not None:
            c_in = entry_in_channels
        node_rng = rng.child(v)
        p = {}
        if op in CONV:
            k, m = CONV[op]
            p["weight"] = node_rng.normal((m * s.c, c_in, k, k), std=math.sqrt(2.0 / (k * k * c_in)))
            p["bias"] = np.zeros(m * s.c)
        elif op in DEPTHWISE:
            k = DEPTHWISE[op]
            p["weight"] = node_rng.normal((s.c, k, k), std=math.sqrt(2.0 / (k * k)))
        elif op in (OpKind.BATCH_NORM, OpKind.LAYER_NORM):
            p["scale"] = np.ones(s.c)
            p["shift"] = np.zeros(s.c)
        elif op is OpKind.REL_POS_BIAS:
            p["table"] = np.zeros(rel_pos_bias_table(s.h, s.w))
        if p:
            store.tensors[v] = p
    return store


def exec_node_oracle(op, ins, params):
    x = ins[0]
    if op is OpKind.SOFTMAX:
        return [_softmax_last(x)]
    if op is OpKind.DROPOUT:
        return [x]
    if op is OpKind.MAXPOOL:
        return [maxpool2d_loops(x)]
    if op is OpKind.MASK:
        return [x * _band(x.shape[2])[None, None, :, :]]
    if op is OpKind.SIGMOID:
        return [sigmoid(x)]
    if op is OpKind.GELU:
        return [gelu(x)]
    if op in CONV:
        y = conv2d_loops(x, params["weight"], params["bias"], padding=CONV[op][0] // 2)
        if op is OpKind.CONV_RED4:
            n, c4, h, w = y.shape
            y = y.reshape(n, c4 // 16, 16, h, w).mean(axis=2)
        return np.split(y, OP_INFO[op].out_arity, axis=1)
    if op in DEPTHWISE:
        return [depthwise_conv2d_loops(x, params["weight"], padding=DEPTHWISE[op] // 2)]
    if op is OpKind.BATCH_NORM:
        mu = x.mean(axis=(0, 2, 3), keepdims=True)
        var = x.var(axis=(0, 2, 3), keepdims=True)
        xn = (x - mu) / np.sqrt(var + 1e-5)
        return [xn * params["scale"][None, :, None, None] + params["shift"][None, :, None, None]]
    if op is OpKind.LAYER_NORM:
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        xn = (x - mu) / np.sqrt(var + 1e-5)
        return [xn * params["scale"][None, :, None, None] + params["shift"][None, :, None, None]]
    if op is OpKind.REL_POS_BIAS:
        return [_rel_pos_add(x, params["table"])]
    if op in (OpKind.CHUNK2, OpKind.CHUNK3):
        return np.split(x, OP_INFO[op].out_arity, axis=1)
    if op is OpKind.COPY:
        return [x, x.copy()]
    if op in (OpKind.CONCAT2, OpKind.CONCAT3):
        return [np.concatenate(ins, axis=1)]
    if op is OpKind.ADD:
        return [ins[0] + ins[1]]
    if op is OpKind.MULTIPLY:
        return [ins[0] * ins[1]]
    if op is OpKind.MATMUL1:
        return [matmul1(ins[0], ins[1])]
    if op is OpKind.MATMUL2:
        return [matmul2(ins[0], ins[1])]
    if op is OpKind.GLOBAL_AVG:
        return [x.mean(axis=(2, 3), keepdims=True)]
    raise AssertionError(op)


def forward_oracle(block, params, x):
    """The block output on a (N,C,H,W) batch, one exec_node_oracle call per node."""
    in_adj = {}
    for e in block.edges:
        in_adj.setdefault(e.dst, []).append(e)
    produced = {(INPUT, 0): x}
    gavg_spatial = {}
    for v in topo_order_oracle(block):
        op = block.ops[v]
        ins = [produced[(e.src, e.src_port)] for e in sorted(in_adj[v], key=lambda e: e.dst_port)]
        if op is OpKind.GLOBAL_AVG:
            gavg_spatial[v] = ins[0].shape[2:]
        if op is OpKind.UP_SAMPLE:
            gavg = next(p for p in block.couples[v] if block.ops.get(p) is OpKind.GLOBAL_AVG)
            th, tw = gavg_spatial[gavg]
            outs = [np.broadcast_to(ins[0], (*ins[0].shape[:2], th, tw)).copy()]
        else:
            outs = exec_node_oracle(op, ins, params.tensors.get(v, {}))
        for port, arr in enumerate(outs):
            produced[(v, port)] = arr
    e = in_adj[OUTPUT][0]
    return produced[(e.src, e.src_port)]
