"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines stream.
"""

import hashlib
import itertools
import math
import time

import numpy as np
import pytest

import archspace as a
from archspace.graph import (
    BlockGraph,
    Edge,
    GraphAssembler,
    INPUT,
    OUTPUT,
    infer_shapes,
    validate,
)
from archspace.interpreter import forward, init_params, matmul1, matmul2
from archspace.mutation import (
    CostState,
    Edit,
    SearchStepConfig,
    TEMPLATE_NAMES,
    TEMPLATES,
    _template_parts,
    apply,
    apply_block_edit,
    propose_step,
    rule_violations,
)
from archspace.ops import OP_INFO, OpKind, Shape, op_cost, rel_pos_bias_table
from archspace.protocol import emit_protocol
from archspace.proxy import FisherSpectrum, ProxyId, fd_gradients, vkdnw_score
from archspace.rng import Rng
from archspace.search import EvoConfig, SearchLog, WalkConfig, evolve, random_walk, replay_edits
from archspace.serialize import parse_document, serialize

from _oracles import attention2h_oracle, fuzz_network, matmul1_loops, matmul2_loops

LOG9 = math.log(9.0)


def _ok(n, msg):
    print(f"ACCEPTANCE {n}: PASS - {msg}")


# --- 1. cost oracle ---------------------------------------------------------

_TEMPLATE_OF = {}
for _name in TEMPLATE_NAMES:
    _ids = tuple(range(2, 2 + len(TEMPLATES[_name].ops)))
    _ops = _template_parts(_name, _ids)[0]
    for _i, _op in _ops.items():
        _TEMPLATE_OF.setdefault(_op, (_name, _ids, _i))


def _feasible_shape(op, rng):
    c = 1 + rng.randbelow(24)
    h = 1 + rng.randbelow(10)
    w = 1 + rng.randbelow(10)
    if op is OpKind.REL_POS_BIAS:
        h = (1 + rng.randbelow(3)) ** 2
        w = (1 + rng.randbelow(3)) ** 2
    if op is OpKind.MASK:
        w = h
    if op is OpKind.CHUNK2:
        c *= 2
    if op is OpKind.CHUNK3:
        c *= 3
    return Shape(c, h, w)


def test_c01_cost_oracle_params_equal_interpreter_counts():
    start = time.time()
    rng = Rng(0xC0)
    checked = 0
    for op, info in OP_INFO.items():
        if not info.parameterized:
            continue
        name, ids, node = _TEMPLATE_OF[op]
        entry_op = OpKind.CONV_EXP4 if op is OpKind.CONV_RED4 else op
        for _ in range(100):
            shape = _feasible_shape(entry_op, rng)
            scratch = BlockGraph.identity(shape)
            blk = apply_block_edit(scratch, Edit(
                "add", 0, INPUT, scratch.digest, template=name,
                cut_edge=Edge(INPUT, 0, OUTPUT, 0), new_ids=ids))
            shapes = infer_shapes(blk)
            store = init_params(blk, rng.child(checked))
            got = sum(t.size for t in store.tensors.get(node, {}).values())
            formula = op_cost(op, shapes[node].in_shapes, shapes[node].out_shapes).params
            if op is OpKind.REL_POS_BIAS:
                s = shapes[node].in_shapes[0]
                th, tw = rel_pos_bias_table(s.h, s.w)
                assert got == th * tw, "allocation is the full relative table"
                assert formula == (th * tw + 1) // 2, "cost rule rounds the half-integer up"
            else:
                assert got == formula, (op, shape)
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    _ok(1, f"{checked} op/shape pairs, params formula == allocated scalars ({elapsed:.1f}s)")


# --- 2. matmul equivalence --------------------------------------------------

def test_c02_matmul_loop_oracles():
    start = time.time()
    rng = Rng(0xC2)
    worst = 0.0
    for c, h, w in itertools.product(range(1, 5), repeat=3):
        x = rng.normal((c, h, w))
        y = rng.normal((c, h, w))
        d1 = np.max(np.abs(matmul1(x[None], y[None])[0] - matmul1_loops(x, y)))
        am = rng.normal((1, h * h, w * w))
        d2 = np.max(np.abs(matmul2(am[None], y[None])[0] - matmul2_loops(am, y)))
        worst = max(worst, d1, d2)
    elapsed = time.time() - start
    assert worst < 1e-12
    assert elapsed < 10.0
    _ok(2, f"64 shapes, max abs error {worst:.2e} ({elapsed:.1f}s)")


# --- 3. attention reconstruction --------------------------------------------

def test_c03_attention_reconstruction():
    blk = a.build("attention2h", Shape(8, 16, 16))
    store = init_params(blk, Rng(0xC3))
    from archspace.graph import topo_order

    for v in topo_order(blk):
        if blk.ops[v] is OpKind.REL_POS_BIAS:
            t = store.tensors[v]["table"]
            t[:] = Rng(1000 + v).normal(t.shape)
    x = Rng(7).normal((8, 16, 16))
    got = forward(blk, store, x)
    want = attention2h_oracle(blk, store, x)
    err = float(np.max(np.abs(got - want)))
    assert err < 1e-9
    _ok(3, f"two-head attention vs loop oracle at (8,16,16), max abs error {err:.2e}")


# --- 4 + 5. the 100k-step walk ----------------------------------------------

WALK_STEPS = 100_000
WALK_BUDGET = a.Budget(50_000, 250_000, 1_000_000, 6_000_000)
TRAILING = 10_000


@pytest.fixture(scope="module")
def safety_walk():
    blocks = [
        a.build("mbconv4", Shape(24, 4, 4)),
        a.build("attention2h", Shape(24, 4, 4)),
        a.build("resnet_basic", Shape(48, 2, 2)),
        a.build("identity", Shape(48, 2, 2)),
    ]
    spec = a.make_network(12, (32, 32), (2, 2), (24, 48), 10, blocks=blocks)
    state = CostState.from_spec(spec)
    assert WALK_BUDGET.contains(state.total), "seed must start inside the budget"

    root = Rng(0xC4)
    net = spec
    seen_ops = set(state.op_flops)
    applied = 0
    noops = 0
    trailing_max_share = 0.0
    start = time.time()
    for step in range(1, WALK_STEPS + 1):
        cfg = SearchStepConfig(budget=WALK_BUDGET, rng=root.child(1, step),
                               p_eliminate=0.45)
        edit = propose_step(net, cfg, state)
        if edit is None:
            noops += 1
        else:
            net = apply(net, edit)
            state = state.after_edit(net, edit)
            applied += 1
            bi = edit.block_index
            blk = net.blocks[bi]
            # per-step: full validation of the mutated block, the four
            # insertion rules, and budget membership
            assert validate(blk).ok, f"step {step}: {validate(blk).violations}"
            assert rule_violations(blk, blk.shapes) == [], f"step {step}"
            if edit.kind == "add":
                ops_map = _template_parts(edit.template, edit.new_ids)[0]
                seen_ops |= set(ops_map.values())
        assert WALK_BUDGET.contains(state.total), f"step {step}: {state.total}"
        if step > WALK_STEPS - TRAILING:
            per_op = state.network_op_flops()
            denom = sum(per_op.values())
            if denom:
                trailing_max_share = max(trailing_max_share, max(per_op.values()) / denom)
        if step % 10_000 == 0:
            assert state.total == a.network_cost(net).total
            assert not a.validate_network(net)
    elapsed = time.time() - start
    assert not a.validate_network(net)
    return {
        "elapsed": elapsed,
        "applied": applied,
        "noops": noops,
        "seen_ops": seen_ops,
        "trailing_max_share": trailing_max_share,
        "final_nodes": sum(len(b.ops) for b in net.blocks),
    }


def test_c04_walk_safety(safety_walk):
    w = safety_walk
    assert w["applied"] + w["noops"] == WALK_STEPS
    assert w["applied"] > WALK_STEPS // 2
    assert w["elapsed"] < 300.0
    _ok(4, f"{WALK_STEPS} steps, {w['applied']} edits, zero validation/budget/rule "
           f"failures ({w['elapsed']:.0f}s, final graph {w['final_nodes']} nodes)")


def test_c05_walk_non_degeneracy(safety_walk):
    w = safety_walk
    missing = set(OpKind) - w["seen_ops"]
    assert not missing, f"never-inserted ops: {missing}"
    assert w["trailing_max_share"] <= 0.95
    _ok(5, f"all 27 ops appeared; max trailing-{TRAILING} FLOPs share "
           f"{w['trailing_max_share']:.3f} <= 0.95")


# --- 6. decile entropy exactness --------------------------------------------

def test_c06_decile_entropy():
    def sp(d):
        return FisherSpectrum((), tuple(float(x) for x in d))

    assert abs(vkdnw_score(sp([4.2] * 9)) - LOG9) < 1e-12
    assert vkdnw_score(sp([0, 0, 0, 7.0, 0, 0, 0, 0, 0])) == 0.0
    rng = Rng(0xC6)
    worst_scale = 0.0
    for i in range(10_000):
        d = np.abs(rng.normal(9)) * (10.0 ** (rng.randbelow(13) - 6))
        s = vkdnw_score(sp(d))
        assert 0.0 <= s <= LOG9 + 1e-12
        if i % 10 == 0:
            c = 10.0 ** (rng.randbelow(9) - 4)
            worst_scale = max(worst_scale, abs(s - vkdnw_score(sp(c * d))))
    assert worst_scale < 1e-12
    _ok(6, f"uniform=log9, point-mass=0, bounds over 10000 spectra, "
           f"scale drift {worst_scale:.1e}")


# --- 7. finite-difference fidelity ------------------------------------------

def test_c07_finite_difference_fidelity():
    worst = 0.0
    for extra in ((), (OpKind.SIGMOID,), (OpKind.GELU,)):
        g = GraphAssembler(Shape(1, 3, 3))
        v = g.chain((INPUT, 0), OpKind.CONV1, *extra)
        g.wire(v, 0, OUTPUT, 0)
        blk = g.finish()
        store = init_params(blk, Rng(0xC7))
        wval = float(store.tensors[2]["weight"][0, 0, 0, 0])
        rng = Rng(1 + len(extra))
        batch = rng.normal((10, 1, 3, 3))
        u = rng.normal(9)
        u /= np.linalg.norm(u)
        grads = fd_gradients(blk, store, batch, u, h=1e-4)
        y = wval * batch
        if not extra:
            act, dact = y, np.ones_like(y)
        elif extra[0] is OpKind.SIGMOID:
            s = 1.0 / (1.0 + np.exp(-y))
            act, dact = s, s * (1 - s)
        else:
            act = 0.5 * y * (1 + np.vectorize(math.erf)(y / math.sqrt(2)))
            dact = 0.5 * (1 + np.vectorize(math.erf)(y / math.sqrt(2))) \
                + y * np.exp(-y * y / 2) / math.sqrt(2 * math.pi)
        want_w = (dact * batch).reshape(10, -1) @ u
        want_b = dact.reshape(10, -1) @ u
        rel_w = np.max(np.abs(grads[:, 0] - want_w) / np.maximum(np.abs(want_w), 1e-9))
        rel_b = np.max(np.abs(grads[:, 1] - want_b) / np.maximum(np.abs(want_b), 1e-9))
        worst = max(worst, float(rel_w), float(rel_b))
    assert worst < 1e-5
    _ok(7, f"analytic vs central differences at h=1e-4, worst relative error {worst:.1e}")


# --- 8. evolve contract ------------------------------------------------------

def test_c08_evolve_contract():
    blocks = [
        a.build("mbconv4", Shape(24, 4, 4)),
        a.build("attention2h", Shape(24, 4, 4)),
        a.build("resnet_basic", Shape(48, 2, 2)),
        a.build("identity", Shape(48, 2, 2)),
    ]
    spec = a.make_network(12, (32, 32), (2, 2), (24, 48), 10, blocks=blocks)
    seed_flops = a.network_cost(spec).total.flops

    def cfg(threads):
        return EvoConfig(total_steps=200, population_size=16, steps_per_candidate=5,
                         proxy_id=ProxyId.NEG_FLOPS, seed=0xC8,
                         budget=a.Budget(50_000, 250_000, 1_000_000, 20_000_000),
                         p_eliminate=0.4, threads=threads)

    best, log = evolve(spec, cfg(1))
    best_flops = a.network_cost(best).total.flops
    assert best_flops <= seed_flops
    mins = [r["population_min"] for r in log.records if "population_min" in r]
    assert len(mins) == 200
    assert all(b >= c for b, c in zip(mins[1:], mins))
    best_threaded, log_threaded = evolve(spec, cfg(4))
    assert serialize(best_threaded) == serialize(best)
    assert log_threaded.to_jsonl() == log.to_jsonl()
    _ok(8, f"200 iterations: best FLOPs {best_flops} <= seed {seed_flops}, "
           f"population min monotone, serial == threaded")


# --- 9. round-trip and replay -------------------------------------------------

def test_c09_roundtrip_and_replay():
    for seed in range(1000):
        net = fuzz_network(seed, steps=12)
        parsed = parse_document(serialize(net))
        assert all(a.same_graph(x, y) for x, y in zip(net.blocks, parsed.blocks))
        assert all(x.ops.keys() == y.ops.keys()
                   for x, y in zip(net.blocks, parsed.blocks))
        assert a.network_cost(parsed).total == a.network_cost(net).total

    blocks = [
        a.build("mbconv4", Shape(24, 4, 4)),
        a.build("attention2h", Shape(24, 4, 4)),
        a.build("resnet_basic", Shape(48, 2, 2)),
        a.build("identity", Shape(48, 2, 2)),
    ]
    spec = a.make_network(12, (32, 32), (2, 2), (24, 48), 10, blocks=blocks)
    budget = a.Budget(50_000, 250_000, 1_000_000, 20_000_000)
    net, log = random_walk(spec, WalkConfig(steps=2500, budget=budget,
                                            seed=0xC9, p_eliminate=0.45))
    # The walk log's bytes; a deliberate change updates the pin and is
    # recorded in CHANGES.md.
    assert hashlib.sha256(log.to_jsonl().encode()).hexdigest() == \
        "71f13c5a014dca6c56f103092f7bfa0399749fbf1b4c87d9dc3cc027900016c0"
    edits = SearchLog.from_jsonl(log.to_jsonl()).edits()
    assert len(edits) >= 1000
    replayed = replay_edits(spec, edits)
    assert all(a.same_graph(x, y) for x, y in zip(replayed.blocks, net.blocks))
    _ok(9, f"1000 fuzzed networks round-trip isomorphically; {len(edits)}-edit "
           f"log replays to the final network")


# --- 10. protocol emission ----------------------------------------------------

def test_c10_protocol_emission():
    cls = emit_protocol("classification", gpu_count=8)
    assert (cls["dataset"], cls["head"], cls["epochs"], cls["warmup_epochs"]) == \
        ("ImageNet-1k", "FC", 150, 5)
    assert (cls["batch_size_per_gpu"], cls["optimizer"], cls["weight_decay"]) == (48, "AdamW", 0.05)
    assert cls["lr_schedule"] == "cosine"
    assert cls["warmup_lr"] == pytest.approx(8e-7)
    assert cls["min_lr"] == pytest.approx(8e-6)
    assert cls["base_lr"] == pytest.approx(8e-4)
    assert cls["data_augmentation"] == ["rand-m15-n2-mstd0.5"]
    assert (cls["gradient_clip"], cls["drop_path"], cls["input_resolution"]) == (1.0, 0.2, [224, 224])

    det = emit_protocol("detection")
    assert (det["dataset"], det["head"], det["epochs"], det["warmup_epochs"]) == \
        ("COCO", "Mask R-CNN", 12, 5)
    assert (det["batch_size_per_gpu"], det["optimizer"], det["weight_decay"]) == (4, "AdamW", 0.05)
    assert det["lr_schedule"] == "multi-step"
    assert (det["warmup_lr"], det["min_lr"], det["base_lr"]) == \
        ("N*1e-07", "N*2.5e-06", "N*2.5e-05")
    assert det["data_augmentation"] == ["RandFlip0.5"]
    assert (det["gradient_clip"], det["drop_path"], det["input_resolution"]) == (1.0, 0.1, [1280, 800])

    seg = emit_protocol("segmentation", gpu_count=4)
    assert (seg["dataset"], seg["head"], seg["epochs"], seg["warmup_epochs"]) == \
        ("ADE20K", "UperNet", 125, 5)
    assert (seg["batch_size_per_gpu"], seg["optimizer"], seg["weight_decay"]) == (4, "AdamW", 0.05)
    assert seg["lr_schedule"] == "linear"
    assert seg["warmup_lr"] == pytest.approx(4e-7)
    assert seg["min_lr"] == 0.0
    assert seg["base_lr"] == pytest.approx(6e-5)
    assert seg["data_augmentation"] == ["PhotoMetricDist.", "RandFlip0.5"]
    assert (seg["gradient_clip"], seg["drop_path"], seg["input_resolution"]) == (1.0, 0.3, [512, 512])
    _ok(10, "all protocol cells match for classification/detection/segmentation")
