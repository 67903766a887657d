import pytest

import archspace as a
from archspace import mutation
from archspace.cost import Budget, block_cost, network_cost
from archspace.graph import BlockGraph, Edge, GraphAssembler, INPUT, OUTPUT
from archspace.mutation import (
    TEMPLATE_NAMES,
    TEMPLATES,
    CostState,
    Edit,
    SearchStepConfig,
    _excise_boundary,
    apply,
    minimal_coupled_subgraph,
    network_delta,
    propose_step,
    template_feasible,
)
from archspace.ops import OpKind, Shape, op_cost, transfer
from archspace.rng import Rng


def test_conv3_cost():
    s = Shape(8, 4, 4)
    assert op_cost(OpKind.CONV3, [s], [s]) == (8 * (9 * 8 + 1), 18 * 64 * 16)


def test_conv_costs_match_operation_table():
    # README operation table at (C,H,W) = (8,4,4), written out by hand so a
    # wrong entry in ops.CONV / ops.DEPTHWISE cannot pass unseen.
    s = Shape(8, 4, 4)
    table = {
        OpKind.CONV1: (72, 2048),          # C(C+1), 2C^2HW
        OpKind.CONV3: (584, 18432),        # C(9C+1), 18C^2HW
        OpKind.CONV_DEPTH3: (72, 2304),    # 9C, 18CHW
        OpKind.CONV_DEPTH5: (200, 6400),   # 25C, 50CHW
        OpKind.CONV_CHUNK3: (216, 6144),   # 3C(C+1), 6C^2HW
        OpKind.CONV_EXP4: (288, 8192),     # 4C(C+1), 8C^2HW
        OpKind.CONV_RED4: (288, 8192),     # 4C(C+1), 8C^2HW
    }
    assert {op: op_cost(op, [s], transfer(op, [s])) for op in table} == table


def test_every_op_matches_operation_table():
    # All 27 rows of the README operation table at (C,H,W) = (12,4,4), written
    # out by hand: C divides by 2, 3 and 4, and sqrt(4) is an integer.  Params
    # come from the README column, not from the allocated tensors, so a wrong
    # tensor shape in ops.OP_INFO cannot pass unseen.
    s = Shape(12, 4, 4)
    x2, x3 = [s, s], [s, s, s]
    table = {  # op: (input shapes, output shapes, params, FLOPs)
        OpKind.SOFTMAX: ([s], [s], 0, 528),                          # CH(3W-1)
        OpKind.DROPOUT: ([s], [s], 0, 192),                          # CHW
        OpKind.MAXPOOL: ([s], [s], 0, 1728),                         # 9CHW
        OpKind.MASK: ([s], [s], 0, 192),                             # CHW
        OpKind.SIGMOID: ([s], [s], 0, 576),                          # 3CHW
        OpKind.GELU: ([s], [s], 0, 576),                             # 3CHW
        OpKind.CONV1: ([s], [s], 156, 4608),                         # C(C+1), 2C^2HW
        OpKind.CONV3: ([s], [s], 1308, 41472),                       # C(9C+1), 18C^2HW
        OpKind.CONV_DEPTH3: ([s], [s], 108, 3456),                   # 9C, 18CHW
        OpKind.CONV_DEPTH5: ([s], [s], 300, 9600),                   # 25C, 50CHW
        OpKind.BATCH_NORM: ([s], [s], 24, 384),                      # 2C, 2CHW
        OpKind.LAYER_NORM: ([s], [s], 24, 384),                      # 2C, 2CHW
        OpKind.REL_POS_BIAS: ([s], [s], 5, 192),                     # 4.5 half-up, CHW
        OpKind.CHUNK2: ([s], [Shape(6, 4, 4)] * 2, 0, 0),
        OpKind.CHUNK3: ([s], [Shape(4, 4, 4)] * 3, 0, 0),
        OpKind.COPY: ([s], x2, 0, 0),
        OpKind.CONCAT2: (x2, [Shape(24, 4, 4)], 0, 0),
        OpKind.CONCAT3: (x3, [Shape(36, 4, 4)], 0, 0),
        OpKind.ADD: (x2, [s], 0, 192),                               # CHW
        OpKind.CONV_CHUNK3: ([s], x3, 468, 13824),                   # 3C(C+1), 6C^2HW
        OpKind.CONV_EXP4: ([s], [Shape(48, 4, 4)], 624, 18432),      # 4C(C+1), 8C^2HW
        OpKind.CONV_RED4: ([s], [Shape(3, 4, 4)], 624, 18432),       # 4C(C+1), 8C^2HW
        OpKind.MULTIPLY: (x2, [s], 0, 768),                          # 4CHW
        OpKind.MATMUL1: (x2, [Shape(1, 16, 16)], 0, 6144),           # 2CH^2W^2
        OpKind.MATMUL2: ([Shape(1, 16, 16), s], [s], 0, 6144),       # 2CH^2W^2
        OpKind.GLOBAL_AVG: ([s], [Shape(12, 1, 1)], 0, 192),         # CHW
        OpKind.UP_SAMPLE: ([Shape(12, 1, 1)], [s], 0, 192),          # CHW of the output
    }
    assert set(table) == set(OpKind)
    for op, (ins, outs, params, flops) in table.items():
        got = transfer(op, ins, upsample_target=(4, 4))
        assert list(got) == outs, op
        assert op_cost(op, ins, got) == (params, flops), op


def test_softmax_cost():
    s = Shape(2, 3, 4)
    assert op_cost(OpKind.SOFTMAX, [s], [s]) == (0, 2 * 3 * (3 * 4 - 1))


def test_chunk2_is_free():
    assert op_cost(OpKind.CHUNK2, [Shape(6, 5, 7)], [Shape(3, 5, 7)] * 2) == (0, 0)


def test_matmul1_flops():
    assert op_cost(OpKind.MATMUL1, [Shape(3, 2, 2)] * 2, [Shape(1, 4, 4)]) == (0, 2 * 3 * 4 * 4)


def test_gelu_block_cost():
    g = GraphAssembler(Shape(2, 2, 2))
    v = g.chain((INPUT, 0), OpKind.GELU)
    g.wire(v, 0, OUTPUT, 0)
    assert block_cost(g.finish()).total == (0, 24)


def test_identity_block_is_free():
    assert block_cost(BlockGraph.identity(Shape(5, 5, 5))).total == (0, 0)


def test_mbconv4_matches_hand_summed_form():
    # Node-by-node closed form at (C,H,W) = (8,4,4); expansion width 32.
    params = (
        4 * 8 * 9        # expansion conv
        + 2 * 32         # batch norm after expansion
        + 9 * 32         # depthwise 3x3
        + 2 * 32         # batch norm after depthwise
        + 32 * 33        # squeeze conv a
        + 32 * 33        # squeeze conv b
        + 4 * 32 * 33    # reduction conv
        + 2 * 8          # final batch norm
    )
    flops = (
        8 * 64 * 16          # expansion
        + 2 * 32 * 16        # bn
        + 3 * 32 * 16        # gelu
        + 18 * 32 * 16       # depthwise
        + 2 * 32 * 16        # bn
        + 3 * 32 * 16        # gelu
        + 32 * 16            # global avg
        + 2 * 32 * 32 * 1    # squeeze conv a at (32,1,1)
        + 3 * 32             # gelu at (32,1,1)
        + 2 * 32 * 32 * 1    # squeeze conv b
        + 3 * 32             # sigmoid
        + 32 * 16            # upsample back to (32,4,4)
        + 4 * 32 * 16        # multiply
        + 8 * 32 * 32 * 16   # reduction conv at (32,4,4)
        + 2 * 8 * 16         # final bn at (8,4,4)
        + 8 * 16             # residual add
    )
    total = block_cost(a.build("mbconv4", Shape(8, 4, 4))).total
    assert total == (params, flops)


def test_upsample_cost_uses_target_size():
    assert op_cost(OpKind.UP_SAMPLE, [Shape(6, 1, 1)], [Shape(6, 4, 5)]) == (0, 6 * 4 * 5)


def test_relposbias_cost_rounds_half_up():
    # H = W = 16: table is 7x7 = 49, formula value 24.5 rounds to 25.
    for s, params in [(Shape(3, 16, 16), 25), (Shape(3, 1, 1), 1)]:
        assert op_cost(OpKind.REL_POS_BIAS, [s], [s]).params == params


def test_identity_network_costs_overhead_only():
    spec = a.make_network(4, (32, 32), (1, 1), (8, 16), 10)
    rep = network_cost(spec)
    assert all(b.total == (0, 0) for b in rep.blocks)
    stem = sum((c for _, c in rep.stem), start=a.Cost(0, 0))
    trans = sum((t.total for t in rep.transitions), start=a.Cost(0, 0))
    head = sum((c for _, c in rep.head), start=a.Cost(0, 0))
    assert rep.total == stem + trans + head
    # head classifier: C*K + K params
    assert rep.head[1][1].params == 16 * 10 + 10


def test_adding_gelu_changes_network_flops_by_3chw(desk_spec):
    base = network_cost(desk_spec).total
    blk = desk_spec.blocks[3]  # identity at (48,2,2)
    g = GraphAssembler(Shape(48, 2, 2))
    v = g.chain((INPUT, 0), OpKind.GELU)
    g.wire(v, 0, OUTPUT, 0)
    spec2 = desk_spec.with_block(3, g.finish())
    after = network_cost(spec2).total
    assert after.params - base.params == 0
    assert after.flops - base.flops == 3 * 48 * 2 * 2


def test_reference_configuration_within_budgets():
    # Builder blocks at the reference scale: inverted bottlenecks early,
    # plain conv residuals in the middle, attention at the end.
    stages = [(2, 96, "mbconv4"), (3, 192, "resnet_basic"),
              (5, 384, "resnet_basic"), (2, 768, "attention2h")]
    spec0 = a.make_network(64, (224, 224), [s[0] for s in stages],
                           [s[1] for s in stages], 1000)
    blocks = []
    for (n, c, variant), st in zip(stages, spec0.stages):
        for _ in range(n):
            blocks.append(a.build(variant, Shape(c, *st.spatial)))
    spec = a.make_network(64, (224, 224), [s[0] for s in stages],
                          [s[1] for s in stages], 1000, blocks=blocks)
    total = network_cost(spec).total
    assert 1_000_000 < total.params <= 27_000_000
    assert 100_000_000 < total.flops <= 20_000_000_000


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(10, 5, 0, 0)
    with pytest.raises(ValueError):
        Budget(-1, 5, 0, 10)
    b = Budget(1, 5, 2, 10)
    assert b.contains(a.Cost(3, 5)) and not b.contains(a.Cost(0, 5))


def _random_edits(spec, budget, seed, n):
    state = CostState.from_spec(spec)
    root = Rng(seed)
    out = []
    net = spec
    for step in range(1, n + 1):
        cfg = SearchStepConfig(budget=budget, rng=root.child(step), p_eliminate=0.4)
        edit = propose_step(net, cfg, state)
        if edit is None:
            continue
        out.append((net, state, edit))
        net = apply(net, edit)
        state = state.after_edit(net, edit)
    return out


def _eliminate_first(spec, bi):
    blk = spec.blocks[bi]
    first = blk.first_interior()
    doomed = minimal_coupled_subgraph(blk, first)
    entry, exit_ = _excise_boundary(blk, doomed)
    return Edit("eliminate", bi, first, blk.digest, doomed=tuple(sorted(doomed)),
                bridge=Edge(entry.src, entry.src_port, exit_.dst, exit_.dst_port))


def _first_node_edits(spec):
    """Edits that replace the first node of each stage's leading block: every
    feasible template on its input edge, the elimination of its first node,
    and the elimination of each inserted template again."""
    state = CostState.from_spec(spec)
    out = []
    for bi in spec.stage_first_positions():
        blk = spec.blocks[bi]
        out.append((spec, state, _eliminate_first(spec, bi)))
        for name in TEMPLATE_NAMES:
            if template_feasible(name, blk.input_shape):
                ids = tuple(range(blk.next_id, blk.next_id + len(TEMPLATES[name].ops)))
                edit = Edit("add", bi, INPUT, blk.digest, template=name,
                            cut_edge=blk.out_edges(INPUT)[0], new_ids=ids)
                added = apply(spec, edit)
                out.append((spec, state, edit))
                out.append((added, state.after_edit(added, edit), _eliminate_first(added, bi)))
    return out


def _nonzero(per_op):
    return {op: f for op, f in per_op.items() if f}


def _per_op_flops(report):
    acc = {}
    for _, op, cost in report.nodes:
        acc[op] = acc.get(op, 0) + cost.flops
    return acc


def test_delta_cost_matches_recomputation(desk_spec, desk_budget):
    for net, state, edit in _random_edits(desk_spec, desk_budget, 17, 300):
        old = block_cost(net.blocks[edit.block_index])
        new = block_cost(apply(net, edit).blocks[edit.block_index])
        patch = state.preview(edit)[1]
        assert old.total + patch.block == new.total, edit
        per_op = _per_op_flops(old)
        for op, f in patch.op_flops.items():
            per_op[op] = per_op.get(op, 0) + f
        assert _nonzero(per_op) == _nonzero(_per_op_flops(new)), edit


def test_network_delta_matches_recomputation(desk_spec, desk_budget):
    fusion = _first_node_edits(desk_spec)
    # Each cuts or bridges the input edge of a stage's leading block, and some
    # change that stage's transition term.
    assert all(edit.block_index in net.stage_first_positions()
               and (edit.cut_edge or edit.bridge).src == INPUT for net, _, edit in fusion)
    assert any(network_cost(net).transitions != network_cost(apply(net, edit)).transitions
               for net, _, edit in fusion)
    for net, state, edit in _random_edits(desk_spec, desk_budget, 23, 300) + fusion:
        after = apply(net, edit)
        expected = network_cost(after).total
        assert state.total + network_delta(state, edit) == expected, edit
        assert state.after_edit(after, edit).total == expected, edit


def test_elimination_deltas_never_increase_totals(desk_spec, desk_budget):
    seen = 0
    for net, state, edit in _random_edits(desk_spec, desk_budget, 29, 400):
        if edit.kind == "eliminate":
            patch = state.preview(edit)[1]
            assert patch.block.params <= 0 and patch.block.flops <= 0
            assert all(f <= 0 for f in patch.op_flops.values())
            seen += 1
    assert seen > 10


def test_fusion_costs_projection_exactly_once():
    g = GraphAssembler(Shape(24, 4, 4))
    tail = g.chain((INPUT, 0), OpKind.CONV3, OpKind.GELU)
    g.wire(tail, 0, OUTPUT, 0)
    lead = g.finish()
    spec = a.make_network(12, (32, 32), (1, 1), (24, 48), 10,
                          blocks=[lead, BlockGraph.identity(Shape(48, 2, 2))])
    rep = network_cost(spec)
    assert rep.transitions[0].fused and rep.transitions[0].projection is None
    assert not rep.transitions[1].fused
    # Fused: the 3x3 conv consumes 12 stem channels instead of 24 block
    # channels and no 1x1 projection exists.
    expected_params = (
        24 * (9 * 12 + 1)       # fused lead conv
        + 48 * (24 + 1)         # stage-2 projection
        + 12 * (9 * 3 + 1) + 12 * (9 * 12 + 1)  # stem convs
        + 48 * 10 + 10          # head
    )
    assert rep.total.params == expected_params


def _count_op_costs(monkeypatch):
    """The ops that `mutation` costs from now on, one entry per costed node."""
    costed = []

    def counted(op, in_shapes, out_shapes):
        costed.append(op)
        return op_cost(op, in_shapes, out_shapes)

    monkeypatch.setattr(mutation, "op_cost", counted)
    return costed


def _edit_size(edit):
    return len(TEMPLATES[edit.template].ops) if edit.kind == "add" else len(edit.doomed)


def _assert_ledger_is_rebuilt(state):
    fresh = CostState.from_spec(state.spec)
    assert state.total == fresh.total
    assert state.shapes == fresh.shapes
    assert _nonzero(state.op_flops) == _nonzero(fresh.op_flops)


def test_after_edit_costs_the_accepted_edit_once(desk_spec, desk_budget, monkeypatch):
    costed = _count_op_costs(monkeypatch)
    state, root, kinds = CostState.from_spec(desk_spec), Rng(31), []
    for step in range(1, 61):
        costed.clear()
        edit = propose_step(state.spec, SearchStepConfig(desk_budget, root.child(step), 0.4), state)
        if edit is None:
            continue
        assert len(costed) >= _edit_size(edit)
        costed.clear()
        new_spec = apply(state.spec, edit)
        fresh = CostState.from_spec(state.spec).after_edit(new_spec, edit)
        assert len(costed) == _edit_size(edit), edit
        costed.clear()
        # The accepted edit was the last one previewed; applying it costs nothing more.
        state = state.after_edit(new_spec, edit)
        assert costed == [], edit
        _assert_ledger_is_rebuilt(state)
        _assert_ledger_is_rebuilt(fresh)
        kinds.append(edit.kind)
    assert {"add", "eliminate"} <= set(kinds)


def test_after_edit_previews_an_equal_edit_afresh(desk_spec, desk_budget, monkeypatch):
    costed = _count_op_costs(monkeypatch)
    for net, state, edit in _random_edits(desk_spec, desk_budget, 37, 40):
        state.preview(edit)
        twin = Edit.from_json(edit.to_json())
        assert twin == edit and twin is not edit
        costed.clear()
        after = state.after_edit(apply(net, edit), twin)
        assert len(costed) == _edit_size(edit), edit
        _assert_ledger_is_rebuilt(after)


def test_a_state_applies_only_its_own_preview(desk_spec, desk_budget, monkeypatch):
    costed = _count_op_costs(monkeypatch)
    for net, state, edit in _random_edits(desk_spec, desk_budget, 41, 40):
        after_net = apply(net, edit)
        own = state.preview(edit)[1]
        other = CostState.from_spec(net)
        costed.clear()
        _assert_ledger_is_rebuilt(other.after_edit(after_net, edit))
        assert len(costed) == _edit_size(edit), edit
        assert other.preview(edit)[1] is not own
        costed.clear()
        _assert_ledger_is_rebuilt(state.after_edit(after_net, edit))
        _assert_ledger_is_rebuilt(other.after_edit(after_net, edit))
        assert costed == [], edit
