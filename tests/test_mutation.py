import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import archspace as a
from archspace import cost, graph, mutation
from archspace.errors import ArchSpaceError, InfeasibleEdit, StaleEdit
from archspace.graph import (
    Edge,
    GraphAssembler,
    INPUT,
    NodeShapes,
    OUTPUT,
    child_block,
    infer_shapes,
    same_graph,
    validate,
)
from archspace.mutation import (
    CostState,
    Edit,
    SearchStepConfig,
    TEMPLATE_NAMES,
    TEMPLATES,
    apply,
    apply_block_edit,
    minimal_coupled_subgraph,
    propose_step,
    rule_violations,
    template_feasible,
    template_node_shapes,
)
from archspace.ops import OpKind, Shape
from archspace.rng import Rng
from archspace.search import WalkConfig, random_walk
from archspace.serialize import parse_document, serialize

from _oracles import (
    TEMPLATES_ORACLE,
    digest_oracle,
    excise_boundary_oracle,
    infer_shapes_oracle,
    ports_oracle,
    template_node_shapes_oracle,
)


def residual_with_conv1(shape=Shape(4, 3, 3)):
    g = GraphAssembler(shape)
    copy = g.add(OpKind.COPY)
    conv = g.add(OpKind.CONV1)
    add = g.add(OpKind.ADD)
    g.wire(INPUT, 0, copy, 0)
    g.wire(copy, 0, conv, 0)
    g.wire(conv, 0, add, 0)
    g.wire(copy, 1, add, 1)
    g.wire(add, 0, OUTPUT, 0)
    g.couple(copy, add)
    return g.finish(), copy, conv, add


def test_lone_shape_preserving_node_dooms_only_itself():
    g = GraphAssembler(Shape(2, 2, 2))
    v = g.chain((INPUT, 0), OpKind.GELU)
    g.wire(v, 0, OUTPUT, 0)
    blk = g.finish()
    assert minimal_coupled_subgraph(blk, v) == {v}


def test_residual_elimination_sweeps_the_branch():
    blk, copy, conv, add = residual_with_conv1()
    assert minimal_coupled_subgraph(blk, copy) == {copy, conv, add}
    assert minimal_coupled_subgraph(blk, add) == {copy, conv, add}


def test_expansion_pair_sweeps_between_nodes():
    g = GraphAssembler(Shape(2, 2, 2))
    exp = g.add(OpKind.CONV_EXP4)
    gelu = g.add(OpKind.GELU)
    red = g.add(OpKind.CONV_RED4)
    g.wire(INPUT, 0, exp, 0)
    g.wire(exp, 0, gelu, 0)
    g.wire(gelu, 0, red, 0)
    g.wire(red, 0, OUTPUT, 0)
    g.couple(exp, red)
    blk = g.finish()
    assert minimal_coupled_subgraph(blk, exp) == {exp, gelu, red}


def test_attention_group_elimination_and_softmax_alone():
    blk = a.build("attention2h", Shape(8, 16, 16))
    qkv = next(v for v, op in blk.ops.items() if op is OpKind.CONV_CHUNK3)
    doomed = minimal_coupled_subgraph(blk, qkv)
    ops_doomed = {blk.ops[v] for v in doomed}
    assert {OpKind.CONV_CHUNK3, OpKind.MATMUL1, OpKind.SOFTMAX, OpKind.MATMUL2,
            OpKind.REL_POS_BIAS} == ops_doomed
    # softmax between the matmuls removes alone and leaves a valid graph
    sm = next(v for v in doomed if blk.ops[v] is OpKind.SOFTMAX)
    assert minimal_coupled_subgraph(blk, sm) == {sm}
    edit = Edit("eliminate", 0, sm, blk.digest, doomed=(sm,),
                bridge=_bridge_for(blk, {sm}))
    out = apply_block_edit(blk, edit)
    assert validate(out).ok


def _bridge_for(blk, doomed):
    entry = next(e for e in blk.edges if e.src not in doomed and e.dst in doomed)
    exit_ = next(e for e in blk.edges if e.src in doomed and e.dst not in doomed)
    return Edge(entry.src, entry.src_port, exit_.dst, exit_.dst_port)


def test_nested_pair_elimination_keeps_outer_structure():
    blk = a.build("mbconv4", Shape(8, 4, 4))
    gavg = next(v for v, op in blk.ops.items() if op is OpKind.GLOBAL_AVG)
    doomed = minimal_coupled_subgraph(blk, gavg)
    edit = Edit("eliminate", 0, gavg, blk.digest,
                doomed=tuple(sorted(doomed)), bridge=_bridge_for(blk, doomed))
    out = apply_block_edit(blk, edit)
    assert validate(out).ok
    assert any(op is OpKind.CONV_EXP4 for op in out.ops.values())


def test_add_then_eliminate_restores_graph(desk_spec):
    blk = desk_spec.blocks[0]
    edge = blk.out_edges(INPUT)[0]
    for name in TEMPLATE_NAMES:
        if not template_feasible(name, blk.input_shape):
            continue
        ids = tuple(range(blk.next_id, blk.next_id + len(TEMPLATES[name].ops)))
        added = apply_block_edit(blk, Edit("add", 0, INPUT, blk.digest,
                                           template=name, cut_edge=edge, new_ids=ids))
        assert validate(added).ok, name
        head = ids[0]
        doomed = minimal_coupled_subgraph(added, head)
        assert doomed == set(ids) or doomed == {head}
        restored = apply_block_edit(
            added,
            Edit("eliminate", 0, head, added.digest,
                 doomed=tuple(sorted(set(ids))), bridge=_bridge_for(added, set(ids))),
        )
        assert same_graph(restored, blk), name


def test_node_ids_never_reused_after_elimination(desk_spec):
    blk = desk_spec.blocks[3]
    edge = blk.out_edges(INPUT)[0]
    ids = (blk.next_id,)
    added = apply_block_edit(blk, Edit("add", 3, INPUT, blk.digest,
                                       template="gelu", cut_edge=edge, new_ids=ids))
    removed = apply_block_edit(added, Edit("eliminate", 3, ids[0], added.digest,
                                           doomed=ids, bridge=_bridge_for(added, set(ids))))
    assert removed.next_id == added.next_id  # monotone, not rewound
    # an add may not bring back an eliminated id: neither one it added, nor a builder's
    res = a.build("resnet_basic", Shape(8, 2, 2))
    gelu = next(v for v, op in res.ops.items() if op is OpKind.GELU)
    res_removed = apply_block_edit(res, Edit("eliminate", 0, gelu, res.digest,
                                             doomed=(gelu,), bridge=_bridge_for(res, {gelu})))
    for blk, gone in ((removed, ids[0]), (res_removed, gelu)):
        readd = Edit("add", 0, INPUT, blk.digest, template="gelu",
                     cut_edge=blk.out_edges(INPUT)[0], new_ids=(gone,))
        with pytest.raises(InfeasibleEdit, match=f"must be at least next_id {blk.next_id}"):
            apply_block_edit(blk, readd)


def test_propose_on_identity_network_is_always_addition():
    spec = a.make_network(4, (32, 32), (1, 1), (8, 16), 10)
    budget = a.Budget(0, 10**9, 0, 10**12)
    for seed in range(5):
        cfg = SearchStepConfig(budget=budget, rng=Rng(seed), p_eliminate=0.0)
        edit = propose_step(spec, cfg)
        assert edit is not None and edit.kind == "add"


def test_saturated_budget_yields_noop():
    # C = 5: no chunk template is feasible, so every insertion costs flops.
    spec = a.make_network(4, (16, 16), (1,), (5,), 10)
    total = a.network_cost(spec).total
    budget = a.Budget(0, total.params, 0, total.flops)
    cfg = SearchStepConfig(budget=budget, rng=Rng(0), p_eliminate=0.0, n_try=50)
    assert propose_step(spec, cfg) is None


def test_apply_rejects_stale_edit(desk_spec, desk_budget):
    cfg = SearchStepConfig(budget=desk_budget, rng=Rng(1), p_eliminate=0.0)
    edit = propose_step(desk_spec, cfg)
    mutated = apply(desk_spec, edit)
    with pytest.raises(StaleEdit):
        apply(mutated, edit)


def test_child_blocks_leave_their_parent_as_it_was(desk_spec):
    """A child carries its parent's edge index, digest items and node shapes;
    building it must not change the parent's."""
    parent = desk_spec.blocks[1]  # attention2h: couples, multi-port nodes
    digest, shapes = parent.digest, dict(parent.shapes)
    cut = parent.out_edges(INPUT)[0]
    add = Edit("add", 1, INPUT, digest, template="attention", cut_edge=cut,
               new_ids=tuple(range(parent.next_id, parent.next_id + 4)))
    doomed = minimal_coupled_subgraph(parent, sorted(parent.couples)[0])
    entry, exit_ = excise_boundary_oracle(parent, doomed)
    eliminate = Edit("eliminate", 1, entry.dst, digest, doomed=tuple(sorted(doomed)),
                     bridge=Edge(entry.src, entry.src_port, exit_.dst, exit_.dst_port))
    children = {}
    for edit in (add, eliminate):
        children[edit.kind] = child = apply_block_edit(parent, edit)
        assert parent.ports == ports_oracle(parent)
        assert parent.digest == digest == digest_oracle(parent)
        assert parent.shapes == shapes == infer_shapes_oracle(parent)
        assert child.ports == ports_oracle(child) and child.digest == digest_oracle(child)
        assert child.shapes == infer_shapes_oracle(child)
        assert validate(child).ok
    grandchild = apply_block_edit(children["add"], Edit(
        "add", 1, cut.dst, children["add"].digest, template="gelu",
        cut_edge=children["add"].out_edges(cut.dst)[0], new_ids=(children["add"].next_id,)))
    assert grandchild.ports == ports_oracle(grandchild) and grandchild.digest == digest_oracle(grandchild)
    assert grandchild.shapes == infer_shapes_oracle(grandchild)
    assert children["add"].ports == ports_oracle(children["add"])
    assert parent.ports == ports_oracle(parent) and parent.digest == digest
    with pytest.raises(StaleEdit):
        apply_block_edit(children["add"], eliminate)
    with pytest.raises(StaleEdit):
        apply_block_edit(children["eliminate"], add)


def test_child_block_of_an_unread_parent_matches_the_oracles(desk_spec):
    """A child made from a parsed block whose digest, edge index and shapes
    were never read still gets all three right, and the parent's digest and
    shapes stay as they were."""
    document = serialize(desk_spec)
    probe = parse_document(document).blocks[1]  # attention2h: couples, multi-port nodes
    doomed = minimal_coupled_subgraph(probe, sorted(probe.couples)[0])
    entry, exit_ = excise_boundary_oracle(probe, doomed)
    cut = next(e for e in probe.edges if e.src == INPUT)
    v, s = probe.next_id, probe.input_shape
    edits = {
        "add": ((), (cut,), {v: OpKind.GELU},
                (Edge(cut.src, cut.src_port, v, 0), Edge(v, 0, cut.dst, cut.dst_port)), {},
                {v: NodeShapes((s,), (s,))}),
        "eliminate": (doomed, [e for e in probe.edges if e.src in doomed or e.dst in doomed], {},
                      (Edge(entry.src, entry.src_port, exit_.dst, exit_.dst_port),), {}, {}),
    }
    for kind, (dropped, removed, ops, edges, couples, shapes) in edits.items():
        parent = parse_document(document).blocks[1]
        assert not {"digest", "ports", "shapes"} & parent.__dict__.keys()
        child = child_block(parent, dropped, removed, ops, edges, couples, shapes)
        assert child.ports == ports_oracle(child), kind
        assert child.digest == digest_oracle(child), kind
        assert child.shapes == infer_shapes_oracle(child), kind
        assert validate(child).ok, kind
        assert parent.digest == digest_oracle(parent) == probe.digest, kind
        assert parent.shapes == infer_shapes_oracle(parent), kind


def test_apply_rejects_an_absent_cut_edge(desk_spec):
    blk = desk_spec.blocks[0]
    e = blk.out_edges(INPUT)[0]
    for cut in (e._replace(dst_port=1), e._replace(src_port=1), e._replace(dst=OUTPUT),
                e._replace(src=blk.next_id + 5)):
        edit = Edit("add", 0, INPUT, blk.digest, template="gelu", cut_edge=cut, new_ids=(blk.next_id,))
        with pytest.raises(InfeasibleEdit, match="not present"):
            apply_block_edit(blk, edit)


def test_walk_preserves_validity_budget_and_rules(desk_spec, desk_budget):
    state = CostState.from_spec(desk_spec)
    root = Rng(77)
    net = desk_spec
    applied = 0
    for step in range(1, 2001):
        cfg = SearchStepConfig(budget=desk_budget, rng=root.child(step), p_eliminate=0.4)
        edit = propose_step(net, cfg, state)
        if edit is None:
            continue
        net = apply(net, edit)
        state = state.after_edit(net, edit)
        applied += 1
        blk = net.blocks[edit.block_index]
        assert validate(blk).ok
        assert rule_violations(blk, blk.shapes) == []
        assert desk_budget.contains(state.total)
    assert applied > 1000
    assert not a.validate_network(net)


def test_rule_violations_reads_rules_a_to_c_from_the_op_rows():
    """A one-node block at a shape its op's row refuses: Mask's H == W is
    checked like RelPosBias's square roots and the Chunk/ConvRed4 divisors."""
    for op, s, want in [
        (OpKind.MASK, Shape(4, 2, 3), ["rule a: node 2 Mask requires H == W, got (4,2,3)"]),
        (OpKind.REL_POS_BIAS, Shape(4, 2, 4),
         ["rule a: node 2 RelPosBias requires integer sqrt(H), sqrt(W), got (4,2,4)"]),
        (OpKind.CHUNK3, Shape(4, 2, 2), ["rule b: node 2 Chunk3 requires C divisible by 3, got C=4",
                                         "rule d: node 2 (Chunk3) uncoupled"]),
        (OpKind.CONV_RED4, Shape(6, 2, 2), ["rule b: node 2 ConvRed4 requires C divisible by 4, got C=6",
                                            "rule d: node 2 (ConvRed4) uncoupled"]),
        (OpKind.MASK, Shape(4, 3, 3), []),
    ]:
        blk = a.BlockGraph(s, {2: op}, (Edge(INPUT, 0, 2, 0), Edge(2, 0, OUTPUT, 0)), {})
        assert rule_violations(blk, {2: NodeShapes((s,), (s,))}) == want, op


def test_thousand_edit_ledger_matches_recomputation(desk_spec, desk_budget):
    state = CostState.from_spec(desk_spec)
    root = Rng(13)
    net = desk_spec
    edits = 0
    for step in range(1, 4001):
        cfg = SearchStepConfig(budget=desk_budget, rng=root.child(step), p_eliminate=0.4)
        edit = propose_step(net, cfg, state)
        if edit is None:
            continue
        net = apply(net, edit)
        state = state.after_edit(net, edit)
        edits += 1
        if edits % 100 == 0:
            assert state.total == a.network_cost(net).total
        if edits >= 1000:
            break
    assert edits == 1000
    assert state.total == a.network_cost(net).total


def test_rules_cover_every_template_feasibility():
    # feasibility predicate matches the shape rules the validator enforces
    assert not template_feasible("chunk2_concat2", Shape(5, 4, 4))
    assert template_feasible("chunk2_concat2", Shape(6, 4, 4))
    assert not template_feasible("chunk3_concat3", Shape(8, 4, 4))
    assert not template_feasible("mask", Shape(4, 3, 5))
    assert not template_feasible("relposbias", Shape(4, 8, 4))
    assert template_feasible("relposbias", Shape(4, 9, 4))
    assert template_feasible("attention", Shape(1, 1, 1))


def test_templates_derived_from_op_rows_match_the_literal_table():
    # Equal as dicts and in key order, which `propose_step` draws by index.
    assert TEMPLATES == TEMPLATES_ORACLE
    assert list(TEMPLATES) == list(TEMPLATES_ORACLE) == list(TEMPLATE_NAMES)


def _shapes_or_error(fn, name, shape, ids):
    try:
        return fn(name, shape, ids)
    except Exception as exc:
        return type(exc)


def test_template_shape_memo_matches_scratch_splice():
    grid = [Shape(c, h, w) for c in range(1, 25) for h in (1, 2, 3, 4, 5, 9, 16)
            for w in (1, 2, 3, 4, 5, 9, 16)]
    infeasible = 0
    for name, t in TEMPLATES.items():
        n = len(t.ops)
        for ids, shapes in (((17, 40, 41, 99)[:n], grid),
                            (tuple(range(2, 2 + n)), grid[::7]),
                            (tuple(range(500 + n, 500, -1)), grid[::7])):
            for shape in shapes:
                got = _shapes_or_error(template_node_shapes, name, shape, ids)
                assert got == _shapes_or_error(template_node_shapes_oracle, name, shape, ids), (name, shape, ids)
                infeasible += isinstance(got, type)
        for ids in ((), tuple(range(2, 3 + n))):
            for shape in (Shape(6, 4, 4), Shape(5, 3, 2)):
                assert _shapes_or_error(template_node_shapes, name, shape, ids) is InfeasibleEdit
                assert _shapes_or_error(template_node_shapes_oracle, name, shape, ids) is InfeasibleEdit
        # Ids the template cannot take: a virtual node's id, or one id twice.
        repeated = [(7,) * n] if n > 1 else []
        for ids in [(INPUT, *range(2, 1 + n)), (*range(2, 1 + n), OUTPUT), *repeated]:
            assert _shapes_or_error(template_node_shapes, name, Shape(6, 4, 4), ids) is InfeasibleEdit
            assert issubclass(_shapes_or_error(template_node_shapes_oracle, name, Shape(6, 4, 4), ids),
                              ArchSpaceError)
    assert infeasible > 0
    with pytest.raises(InfeasibleEdit):
        template_node_shapes("nope", Shape(6, 4, 4), (2,))


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p_eliminate=st.floats(0.0, 1.0))
def test_ledger_matches_recomputation_after_random_edits(seed, p_eliminate):
    blocks = [
        a.build("mbconv4", Shape(24, 4, 4)),
        a.build("attention2h", Shape(24, 4, 4)),
        a.build("resnet_basic", Shape(48, 2, 2)),
        a.build("identity", Shape(48, 2, 2)),
    ]
    net = a.make_network(12, (32, 32), (2, 2), (24, 48), 10, blocks=blocks)
    budget = a.Budget(50_000, 250_000, 1_000_000, 20_000_000)
    state = CostState.from_spec(net)
    root = Rng(seed)
    for step in range(1, 201):
        edit = propose_step(net, SearchStepConfig(budget, root.child(step), p_eliminate), state)
        if edit is not None:
            net = apply(net, edit)
            state = state.after_edit(net, edit)
    report = a.network_cost(net)
    assert state.total == report.total
    for bi, block in enumerate(net.blocks):
        assert block.shapes == infer_shapes(block)
    per_op = {}
    for b in report.blocks:
        for _, op, cost in b.nodes:
            per_op[op] = per_op.get(op, 0) + cost.flops
    assert {op: f for op, f in state.network_op_flops().items() if f} == \
        {op: f for op, f in per_op.items() if f}


def test_a_walk_infers_each_seed_block_once(desk_spec, desk_budget, monkeypatch):
    """The ledger costs the seed blocks at `BlockGraph.shapes`, so a 50-step
    walk of the desk network runs `infer_shapes` once per seed block and once
    per template-memo miss: 34 calls, where costing the seeds from scratch as
    well made 38.  The seed is read from its document, so its blocks carry no
    shapes yet (`build` infers those of the blocks it makes)."""
    desk_spec = parse_document(serialize(desk_spec))
    mutation._template_shapes.cache_clear()
    calls = []
    real = graph.infer_shapes

    def counted(block):
        calls.append(block)
        return real(block)

    for module in (graph, cost, mutation):
        monkeypatch.setattr(module, "infer_shapes", counted)
    random_walk(desk_spec, WalkConfig(steps=50, budget=desk_budget, seed=1))
    assert len(calls) == 34
    assert [sum(b is seed for b in calls) for seed in desk_spec.blocks] == [1, 1, 1, 1]
