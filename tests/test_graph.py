import pytest

import archspace as a
from archspace import graph, network
from archspace.errors import AssemblyError, DivisibilityViolation, NonSquareSpatial
from archspace.graph import (
    INPUT,
    OUTPUT,
    BlockGraph,
    Edge,
    GraphAssembler,
    infer_shapes,
    same_graph,
    topo_order,
    validate,
)
from archspace.ops import OpKind, Shape, transfer


def chain_block(shape, *ops):
    g = GraphAssembler(shape)
    last = g.chain((INPUT, 0), *ops)
    g.wire(last, 0, OUTPUT, 0)
    return g.finish()


def test_identity_block_validates_empty():
    assert validate(BlockGraph.identity(Shape(4, 4, 4))).ok


def test_chunk2_shape_rule():
    out = transfer(OpKind.CHUNK2, [Shape(4, 8, 8)])
    assert out == (Shape(2, 8, 8), Shape(2, 8, 8))


def test_matmul1_shape_rule():
    out = transfer(OpKind.MATMUL1, [Shape(3, 4, 5), Shape(3, 4, 5)])
    assert out == (Shape(1, 16, 25),)


def test_chunk3_divisibility_violation():
    with pytest.raises(DivisibilityViolation):
        transfer(OpKind.CHUNK3, [Shape(4, 8, 8)])


def test_relposbias_needs_square_roots():
    assert transfer(OpKind.REL_POS_BIAS, [Shape(2, 4, 9)]) == (Shape(2, 4, 9),)
    with pytest.raises(NonSquareSpatial):
        transfer(OpKind.REL_POS_BIAS, [Shape(2, 5, 4)])


def test_mask_needs_square_spatial():
    with pytest.raises(NonSquareSpatial):
        transfer(OpKind.MASK, [Shape(2, 4, 5)])


def test_unterminated_expansion_breaks_block_transparency():
    g = GraphAssembler(Shape(4, 4, 4))
    v = g.add(OpKind.CONV_EXP4)
    g.wire(INPUT, 0, v, 0)
    g.wire(v, 0, OUTPUT, 0)
    g.couple(v, v)  # silence the couple rule; the shape violation is the point
    report = validate(g.finish())
    assert any("output shape" in viol for viol in report.violations)


def test_builders_validate_empty():
    for variant, shape in [
        ("mbconv4", Shape(8, 4, 4)),
        ("attention2h", Shape(8, 16, 16)),
        ("resnet_basic", Shape(6, 5, 5)),
        ("squeeze_excite", Shape(7, 3, 3)),
        ("identity", Shape(4, 4, 4)),
    ]:
        assert validate(a.build(variant, shape)).ok, variant


def test_topo_chain_and_diamond():
    blk = chain_block(Shape(2, 2, 2), OpKind.GELU, OpKind.SIGMOID, OpKind.DROPOUT)
    order = topo_order(blk)
    assert order == sorted(blk.ops)

    g = GraphAssembler(Shape(2, 2, 2))
    copy = g.add(OpKind.COPY)
    x1 = g.add(OpKind.GELU)
    x2 = g.add(OpKind.SIGMOID)
    add = g.add(OpKind.ADD)
    g.wire(INPUT, 0, copy, 0)
    g.wire(copy, 0, x1, 0)
    g.wire(copy, 1, x2, 0)
    g.wire(x1, 0, add, 0)
    g.wire(x2, 0, add, 1)
    g.wire(add, 0, OUTPUT, 0)
    g.couple(copy, add)
    blk = g.finish()
    order = topo_order(blk)
    assert order[0] == copy and order[-1] == add


def test_topo_every_edge_goes_forward():
    blk = a.build("mbconv4", Shape(8, 4, 4))
    pos = {v: i for i, v in enumerate(topo_order(blk))}
    for e in blk.edges:
        if e.src in pos and e.dst in pos:
            assert pos[e.src] < pos[e.dst]


def test_infer_shapes_idempotent_on_builders():
    blk = a.build("attention2h", Shape(8, 16, 16))
    first = infer_shapes(blk)
    assert infer_shapes(blk) == first
    assert first[OUTPUT].in_shapes[0] == blk.input_shape


def test_block_transparency_under_channel_scaling():
    # Any valid block stays shape-closed when C is scaled by a factor that
    # preserves all divisibility constraints.
    for variant, shape in [("mbconv4", Shape(8, 4, 4)), ("attention2h", Shape(8, 16, 16))]:
        blk = a.build(variant, shape)
        scaled = BlockGraph(
            Shape(shape.c * 12, shape.h, shape.w),
            dict(blk.ops), blk.edges, dict(blk.couples), blk.next_id,
        )
        shapes = infer_shapes(scaled)
        assert shapes[OUTPUT].in_shapes[0] == scaled.input_shape


def test_upsample_requires_coupled_globalavg():
    g = GraphAssembler(Shape(4, 1, 1))
    up = g.add(OpKind.UP_SAMPLE)
    g.wire(INPUT, 0, up, 0)
    g.wire(up, 0, OUTPUT, 0)
    report = validate(g.finish())
    assert not report.ok


def test_same_graph_ignores_edge_order():
    blk = a.build("resnet_basic", Shape(4, 3, 3))
    shuffled = BlockGraph(blk.input_shape, dict(blk.ops), tuple(reversed(blk.edges)),
                          dict(blk.couples), blk.next_id)
    assert same_graph(blk, shuffled)


def test_desk_network_assembles():
    spec = a.make_network(4, (32, 32), (1, 1), (8, 16), 10)
    assert len(spec.blocks) == 2
    assert spec.stages[-1].channels == 16
    a.assemble_network(spec)
    assert network.stem_spatial((32, 32)) == ((16, 16), (8, 8))
    assert spec.stages[0].spatial == (4, 4)
    assert spec.stages[1].spatial == (2, 2)


def test_reference_search_configuration_has_twelve_blocks():
    spec = a.make_network(64, (224, 224), (2, 3, 5, 2), (96, 192, 384, 768), 1000)
    assert len(spec.blocks) == 12
    assert [st.spatial for st in spec.stages] == [(28, 28), (14, 14), (7, 7), (4, 4)]
    a.assemble_network(spec)


def test_block_stage_mismatch_names_block_index():
    spec = a.make_network(4, (32, 32), (1, 1), (8, 16), 10)
    bad = spec.with_block(1, BlockGraph.identity(Shape(8, 2, 2)))
    with pytest.raises(AssemblyError) as exc:
        a.assemble_network(bad)
    assert str(exc.value).startswith("block 1: ")


def test_assembly_error_names_the_block_once():
    # A Copy whose second output port feeds nothing.
    shape = Shape(8, 4, 4)
    copy = BlockGraph(shape, {2: OpKind.COPY}, (Edge(INPUT, 0, 2, 0), Edge(2, 0, OUTPUT, 0)), {}, 3)
    spec = a.make_network(4, (32, 32), (1, 1), (8, 16), 10).with_block(0, copy)
    with pytest.raises(AssemblyError) as exc:
        a.assemble_network(spec)
    assert str(exc.value).startswith("block 0: node 2") and str(exc.value).count("block 0:") == 1


def test_validate_sorts_topologically_once(monkeypatch):
    """validate orders the block inside its own sweep: it calls neither
    topo_order nor infer_shapes and runs no search per couple pair, on a
    valid block and on one with a couple that no path joins; and once a
    valid block's edge index is built, it never iterates the block's edges."""
    blk = a.build("attention2h", Shape(8, 4, 4))
    heads = [v for v in topo_order(blk) if blk.ops[v] is OpKind.MATMUL1]  # on parallel heads
    couples = {**blk.couples, heads[0]: (*blk.couples[heads[0]], heads[1]),
               heads[1]: (*blk.couples[heads[1]], heads[0])}
    unjoined = BlockGraph(blk.input_shape, dict(blk.ops), blk.edges, couples, blk.next_id)
    calls = {name: [] for name in ("topo_order", "infer_shapes", "bfs_reachable", "iter(edges)")}

    class CountedEdges(tuple):
        def __iter__(self):
            calls["iter(edges)"].append(())
            return super().__iter__()

    indexed = BlockGraph(blk.input_shape, dict(blk.ops), CountedEdges(blk.edges), dict(blk.couples), blk.next_id)
    assert indexed.ports == blk.ports

    def counted(name, fn):
        return lambda *args, **kwargs: calls[name].append(args) or fn(*args, **kwargs)

    for name in ("topo_order", "infer_shapes", "bfs_reachable"):
        monkeypatch.setattr(graph, name, counted(name, getattr(graph, name)))
    no_path = tuple(f"couple {v}<->{p}: no directed path between the pair" for v, p in (heads, heads[::-1]))
    for block, violations in ((blk, ()), (unjoined, no_path), (indexed, ())):
        for lst in calls.values():
            lst.clear()
        assert validate(block).violations == violations
        assert {name: len(lst) for name, lst in calls.items()} == {
            "topo_order": 0, "infer_shapes": 0, "bfs_reachable": 0, "iter(edges)": 0}
