"""`validate`, `topo_order` and `infer_shapes` against the reference versions
in `_oracles.py`, which read the raw edge list the way the library did
before it kept one edge index per block, and `BlockGraph.digest` and
`BlockGraph.ports` against their from-scratch versions there.

Inputs: every builder variant, every block a seeded 2,000-step walk in the
c04 budget visits, every block of a logged README walk replayed edit by
edit from the parsed README network, and corruptions of the c04 walk's
blocks, each of the kinds below.  Violation strings must match as tuples,
in order; `topo_order` and `infer_shapes` must return the same value or
raise the same error with the same message; the digest and the edge
index (its lists in order) must be equal.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

import archspace as a
from archspace.builders import VARIANTS
from archspace.errors import ArchSpaceError
from archspace.graph import OUTPUT, BlockGraph, Edge, infer_shapes, topo_order, validate
from archspace.mutation import CostState, SearchStepConfig, apply, propose_step
from archspace.ops import OP_INFO, OpKind, Shape
from archspace.rng import Rng
from archspace.search import SearchLog, WalkConfig, random_walk
from archspace.serialize import parse_document, serialize

from _oracles import digest_oracle, infer_shapes_oracle, ports_oracle, topo_order_oracle, validate_oracle

C04_BUDGET = a.Budget(50_000, 250_000, 1_000_000, 6_000_000)


def _outcome(fn, block):
    try:
        return fn(block)
    except Exception as exc:  # the oracle must fail the same way, whatever the type
        return type(exc), str(exc)


def assert_matches_oracle(block):
    assert validate(block).violations == validate_oracle(block).violations
    assert _outcome(topo_order, block) == _outcome(topo_order_oracle, block)
    assert _outcome(infer_shapes, block) == _outcome(infer_shapes_oracle, block)
    assert _outcome(lambda b: b.shapes, block) == _outcome(infer_shapes_oracle, block)
    assert block.digest == digest_oracle(block)
    assert block.ports == ports_oracle(block)


@functools.cache
def walk_blocks():
    """The desk blocks and every block a 2,000-step c04-budget walk makes."""
    blocks = [
        a.build("mbconv4", Shape(24, 4, 4)),
        a.build("attention2h", Shape(24, 4, 4)),
        a.build("resnet_basic", Shape(48, 2, 2)),
        a.build("identity", Shape(48, 2, 2)),
    ]
    net = a.make_network(12, (32, 32), (2, 2), (24, 48), 10, blocks=blocks)
    state = CostState.from_spec(net)
    visited = list(net.blocks)
    root = Rng(0xC4)
    for step in range(1, 2001):
        edit = propose_step(net, SearchStepConfig(C04_BUDGET, root.child(1, step), 0.45), state)
        if edit is not None:
            net = apply(net, edit)
            state = state.after_edit(net, edit)
            visited.append(net.blocks[edit.block_index])
    return tuple(visited)


@functools.cache
def replayed_blocks():
    """The parsed README network's blocks and every block that replaying the
    JSONL log of a 600-step README walk makes from them, edit by edit."""
    blocks = [a.build("mbconv4", Shape(24, 4, 4)) for _ in range(2)]
    blocks += [a.build("resnet_basic", Shape(48, 2, 2)) for _ in range(2)]
    spec = a.make_network(12, (32, 32), (2, 2), (24, 48), 10, blocks=blocks)
    _, log = random_walk(spec, WalkConfig(600, a.Budget(50_000, 250_000, 1_000_000, 20_000_000), 7))
    net = parse_document(serialize(spec))
    visited = list(net.blocks)
    edits = SearchLog.from_jsonl(log.to_jsonl()).edits()
    assert {e.kind for e in edits} == {"add", "eliminate"}
    for edit in edits:
        net = apply(net, edit)
        visited.append(net.blocks[edit.block_index])
    return tuple(visited)


def test_builder_variants_match_oracle():
    seen = 0
    for variant in VARIANTS:
        for shape in [Shape(c, h, w) for c in (1, 2, 3, 4, 6, 8, 12, 24) for h, w in ((1, 1), (4, 4), (3, 5), (16, 16))]:
            try:
                block = a.build(variant, shape)
            except ArchSpaceError:
                continue
            assert validate(block).ok, (variant, shape)
            assert_matches_oracle(block)
            seen += 1
    assert seen > len(VARIANTS) * 10


def test_walk_blocks_match_oracle():
    blocks = walk_blocks()
    assert len(blocks) > 1500
    for block in blocks:
        assert validate(block).ok
        assert_matches_oracle(block)


def test_replayed_blocks_match_oracle():
    blocks = replayed_blocks()
    assert len(blocks) > 400
    for block in blocks:
        assert validate(block).ok
        assert_matches_oracle(block)


# --- corruptions ----------------------------------------------------------------


def _with(block, input_shape=None, ops=None, edges=None, couples=None):
    return BlockGraph(
        block.input_shape if input_shape is None else input_shape,
        dict(block.ops) if ops is None else ops,
        block.edges if edges is None else tuple(edges),
        dict(block.couples) if couples is None else couples,
        block.next_id,
    )


def _index(draw, seq):
    return draw(st.integers(0, len(seq) - 1))


def _edge_kind(corrupt):
    """Edge corruptions leave a block without edges as it is."""
    @functools.wraps(corrupt)
    def guarded(draw, block):
        return corrupt(draw, block) if block.edges else block
    return guarded


@_edge_kind
def drop_edge(draw, block):
    edges = list(block.edges)
    del edges[_index(draw, edges)]
    return _with(block, edges=edges)


@_edge_kind
def duplicate_edge(draw, block):
    edges = list(block.edges)
    edges.insert(draw(st.integers(0, len(edges))), edges[_index(draw, edges)])
    return _with(block, edges=edges)


@_edge_kind
def port_out_of_range(draw, block):
    edges = list(block.edges)
    i = _index(draw, edges)
    e = edges[i]
    port = draw(st.sampled_from([-1, 1, 2, 3, 5]))
    edges[i] = e._replace(src_port=port) if draw(st.booleans()) else e._replace(dst_port=port)
    return _with(block, edges=edges)


@_edge_kind
def unknown_node(draw, block):
    edges = list(block.edges)
    i = _index(draw, edges)
    ghost = draw(st.sampled_from([block.next_id, block.next_id + 7, -3]))
    edges[i] = edges[i]._replace(src=ghost) if draw(st.booleans()) else edges[i]._replace(dst=ghost)
    return _with(block, edges=edges)


@_edge_kind
def reverse_edge(draw, block):
    edges = list(block.edges)
    i = _index(draw, edges)
    e = edges[i]
    edges[i] = Edge(e.dst, e.dst_port, e.src, e.src_port)
    return _with(block, edges=edges)


def back_edge(draw, block):
    """A cycle that keeps every port fed once: the out edge b->c of a later
    node and the in edge z->a of an earlier one become b->a and z->c."""
    try:
        order = topo_order(block)
    except ArchSpaceError:
        return block
    if len(order) < 2:
        return block
    i = draw(st.integers(0, len(order) - 2))
    first, later = order[i], order[draw(st.integers(i + 1, len(order) - 1))]
    edges = list(block.edges)
    into = next((k for k, e in enumerate(edges) if e.dst == first), None)
    out = next((k for k, e in enumerate(edges) if e.src == later), None)
    if into is None or out is None:
        return block
    z, b = edges[into], edges[out]
    edges[into] = Edge(b.src, b.src_port, z.dst, z.dst_port)
    edges[out] = Edge(z.src, z.src_port, b.dst, b.dst_port)
    return _with(block, edges=edges)


def swap_in_ports(draw, block):
    """Two in edges of one multi-input node trade their input ports, so every
    port stays fed once and only the shapes can tell."""
    ops = block.ops
    nodes = sorted({e.dst for e in block.edges if e.dst in ops and OP_INFO[ops[e.dst]].in_arity > 1})
    if not nodes:
        return block
    v = draw(st.sampled_from(nodes))
    into = [k for k, e in enumerate(block.edges) if e.dst == v]
    if len(into) < 2:
        return block
    i = draw(st.integers(0, len(into) - 2))
    j = draw(st.integers(i + 1, len(into) - 1))
    edges = list(block.edges)
    x, y = edges[into[i]], edges[into[j]]
    edges[into[i]], edges[into[j]] = x._replace(dst_port=y.dst_port), y._replace(dst_port=x.dst_port)
    return _with(block, edges=edges)


def one_sided_couple(draw, block):
    if not block.couples:
        return block
    couples = dict(block.couples)
    v = draw(st.sampled_from(sorted(couples)))
    if not couples[v]:
        return block
    p = draw(st.sampled_from(couples[v]))
    couples[p] = tuple(u for u in couples.get(p, ()) if u != v)
    return _with(block, couples=couples)


def couple_without_path(draw, block):
    if not block.ops:
        return block
    nodes = sorted(block.ops)
    v, p = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
    couples = dict(block.couples)
    couples[v] = (*couples.get(v, ()), p)
    couples[p] = (*couples.get(p, ()), v)
    return _with(block, couples=couples)


def uncouple(draw, block):
    if not block.couples:
        return block
    couples = dict(block.couples)
    del couples[draw(st.sampled_from(sorted(couples)))]
    return _with(block, couples=couples)


def widen_output(draw, block):
    """A ConvExp4 (with an empty couple entry) in front of the virtual output."""
    v = block.next_id
    edges = list(block.edges)
    i = next((k for k, e in enumerate(edges) if e.dst == OUTPUT), None)
    if i is None:
        return block
    edges[i:i + 1] = [edges[i]._replace(dst=v), Edge(v, 0, OUTPUT, 0)]
    ops = {**block.ops, v: OpKind.CONV_EXP4}
    return BlockGraph(block.input_shape, ops, tuple(edges), {**block.couples, v: ()}, v + 1)


def swap_op(draw, block):
    if not block.ops:
        return block
    v = draw(st.sampled_from(sorted(block.ops)))
    return _with(block, ops={**block.ops, v: draw(st.sampled_from(list(OpKind)))})


def change_input_shape(draw, block):
    s = block.input_shape
    return _with(block, input_shape=Shape(draw(st.integers(1, 2 * s.c)), s.h, s.w))


def self_couple(draw, block):
    """A node coupled to itself: no directed path joins a node to itself."""
    if not block.ops:
        return block
    v = draw(st.sampled_from(sorted(block.ops)))
    return _with(block, couples={**block.couples, v: (*block.couples.get(v, ()), v)})


def uncouple_and_reshape(draw, block):
    """A couple violation and a shape failure in one block."""
    return change_input_shape(draw, uncouple(draw, block))


def renumber(draw, block):
    """An interior node takes a fresh id above every other, so a GlobalAvg
    can outnumber the UpSample it still comes before in the order."""
    if not block.ops:
        return block
    v, fresh = draw(st.sampled_from(sorted(block.ops))), block.next_id

    def new(u):
        return fresh if u == v else u

    ops = {new(u): op for u, op in block.ops.items()}
    edges = [Edge(new(e.src), e.src_port, new(e.dst), e.dst_port) for e in block.edges]
    couples = {new(u): tuple(map(new, partners)) for u, partners in block.couples.items()}
    return BlockGraph(block.input_shape, ops, tuple(edges), couples, fresh + 1)


CORRUPTIONS = (drop_edge, duplicate_edge, port_out_of_range, unknown_node, reverse_edge,
               back_edge, swap_in_ports, one_sided_couple, couple_without_path, uncouple, widen_output,
               swap_op, change_input_shape, self_couple, uncouple_and_reshape, renumber)


@st.composite
def corrupted_blocks(draw):
    block = draw(st.sampled_from(walk_blocks()))
    for _ in range(draw(st.integers(1, 2))):
        block = draw(st.sampled_from(CORRUPTIONS))(draw, block)
    return block


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(corrupted_blocks())
def test_corrupted_blocks_match_oracle(block):
    assert_matches_oracle(block)


def test_each_corruption_kind_reaches_its_violation():
    blk = a.build("attention2h", Shape(8, 4, 4))
    order = topo_order(blk)
    coupled = sorted(blk.couples)[0]
    # Two nodes on parallel heads: neither reaches the other.
    heads = [v for v in order if blk.ops[v] is OpKind.MATMUL1]
    softmax = next(v for v in order if blk.ops[v] is OpKind.SOFTMAX)
    matmul2, add = (next(v for v in order if blk.ops[v] is op) for op in (OpKind.MATMUL2, OpKind.ADD))
    pick = {
        drop_edge: ([0], "edges (want 1)"),
        duplicate_edge: ([0, 0], "2 edges (want 1)"),
        port_out_of_range: ([0, 5, True], "output port 5 out of range"),
        unknown_node: ([0, blk.next_id + 7, False], "references unknown node"),
        reverse_edge: ([1], "edges (want 1)"),
        back_edge: ([0, len(order) - 1], "cycle:"),
        swap_in_ports: ([matmul2, 0, 1], "shape inference failed"),
        one_sided_couple: ([coupled, blk.couples[coupled][0]], "is not symmetric"),
        couple_without_path: ([heads[0], heads[1]], "no directed path between the pair"),
        uncouple: ([coupled], "has no couple"),
        widen_output: ([], "block output shape"),
        swap_op: ([softmax, OpKind.CONV_EXP4], "shape inference failed"),
        change_input_shape: ([5], "shape inference failed"),
        self_couple: ([softmax], f"couple {softmax}<->{softmax}: no directed path between the pair"),
        uncouple_and_reshape: ([coupled, 5], "shape inference failed"),
        renumber: ([softmax], None),
    }
    assert set(pick) == set(CORRUPTIONS)
    for corrupt, (choices, expected) in pick.items():
        queue = list(choices)
        bad = corrupt(lambda _strategy: queue.pop(0), blk)
        assert not queue, corrupt.__name__
        report = validate(bad)
        if expected is None:
            assert report.ok, (corrupt.__name__, report.violations)
        else:
            assert any(expected in v for v in report.violations), (corrupt.__name__, report.violations)
        assert_matches_oracle(bad)
    # A negative port is out of range on either side of its edge.
    for src_side, kind in ((True, "output"), (False, "input")):
        queue = [0, -1, src_side]
        bad = port_out_of_range(lambda _strategy: queue.pop(0), blk)
        assert any(v.endswith(f"{kind} port -1 out of range") for v in validate(bad).violations), kind
        assert_matches_oracle(bad)
    # Add's two inputs have one shape, so trading its ports keeps the block valid.
    queue = [add, 0, 1]
    swapped = swap_in_ports(lambda _strategy: queue.pop(0), blk)
    assert swapped.edges != blk.edges and validate(swapped).ok
    assert_matches_oracle(swapped)
    # The couple words come before the shape failure.
    queue = [coupled, 5]
    words = validate(uncouple_and_reshape(lambda _strategy: queue.pop(0), blk)).violations
    assert words[-1].startswith("shape inference failed") and any("has no couple" in w for w in words[:-1])
    # A GlobalAvg renumbered above its UpSample still comes before it in the order.
    se = a.build("squeeze_excite", Shape(8, 4, 4))
    gavg, up = (next(v for v, op in se.ops.items() if op is kind) for kind in (OpKind.GLOBAL_AVG, OpKind.UP_SAMPLE))
    queue = [gavg]
    moved = renumber(lambda _strategy: queue.pop(0), se)
    order = topo_order(moved)
    assert se.next_id > up and order.index(se.next_id) < order.index(up)
    assert validate(moved).ok
    assert_matches_oracle(moved)


def test_out_of_range_ports_are_worded_in_edge_order():
    # The edge index keeps each list in port order; the worded port check
    # must still list a node's out-of-range ports as the edges give them.
    blk = a.build("attention2h", Shape(8, 4, 4))
    add = next(v for v, op in blk.ops.items() if op is OpKind.ADD)
    into = [k for k, e in enumerate(blk.edges) if e.dst == add]
    edges = list(blk.edges)
    for k, port in zip(into, (7, 5)):
        edges[k] = edges[k]._replace(dst_port=port)
    bad = _with(blk, edges=edges)
    worded = [f"node {add} input port {p} out of range" for p in (7, 5)]
    assert [v for v in validate(bad).violations if v in worded] == worded
    assert_matches_oracle(bad)
