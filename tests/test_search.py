import hashlib
import re

import pytest

import archspace as a
from archspace import search
from archspace.errors import AssemblyError, BudgetError, InfeasibleEdit
from archspace.proxy import ProxyId
from archspace.search import (
    EvoConfig,
    SearchLog,
    WalkConfig,
    evolve,
    random_walk,
    replay_edits,
    size_orthogonality_report,
)


def test_zero_step_walk_logs_only_the_seed(desk_spec, desk_budget):
    net, log = random_walk(desk_spec, WalkConfig(steps=0, budget=desk_budget, seed=1))
    assert net is desk_spec
    assert len(log.records) == 1 and log.records[0]["step"] == 0


def test_walk_costs_stay_in_budget(desk_spec, desk_budget):
    net, log = random_walk(desk_spec, WalkConfig(steps=1500, budget=desk_budget,
                                                 seed=2, p_eliminate=0.4))
    for rec in log.records:
        assert desk_budget.params_min <= rec["params"] <= desk_budget.params_max
        assert desk_budget.flops_min <= rec["flops"] <= desk_budget.flops_max
    assert not a.validate_network(net)


def test_walk_log_replays_to_the_same_network(desk_spec, desk_budget):
    net, log = random_walk(desk_spec, WalkConfig(steps=800, budget=desk_budget,
                                                 seed=3, p_eliminate=0.4))
    # through the serialized form, as the CLI replay does
    restored = SearchLog.from_jsonl(log.to_jsonl())
    replayed = replay_edits(desk_spec, restored.edits())
    assert all(a.same_graph(x, y) for x, y in zip(replayed.blocks, net.blocks))
    assert a.network_cost(replayed).total == a.network_cost(net).total


def test_replay_refuses_an_edit_that_breaks_a_shape_rule(desk_spec):
    # RelPosBias needs integer square roots of H and W, and block 2 is at (48, 2, 2).
    blk = desk_spec.blocks[2]
    edit = a.Edit("add", 2, a.INPUT, blk.digest, template="relposbias",
                  cut_edge=blk.out_edges(a.INPUT)[0], new_ids=(blk.next_id,))
    with pytest.raises(InfeasibleEdit, match="RelPosBias requires integer sqrt"):
        replay_edits(desk_spec, [edit])


def test_replay_refuses_an_invalid_seed_before_any_edit(desk_spec):
    # Seed block 0 lost an edge, so its shapes cannot be inferred: the seed is
    # refused whole, before the edit's block index is looked at.
    blk = desk_spec.blocks[0]
    bad = a.BlockGraph(blk.input_shape, blk.ops, blk.edges[1:], blk.couples, blk.next_id)
    edit = a.Edit("add", 7, a.INPUT, bad.digest, template="gelu",
                  cut_edge=blk.edges[0], new_ids=(blk.next_id,))
    with pytest.raises(AssemblyError, match="block 0"):
        replay_edits(desk_spec.with_block(0, bad), [edit])


def test_walk_is_reproducible(desk_spec, desk_budget):
    cfg = WalkConfig(steps=400, budget=desk_budget, seed=11, p_eliminate=0.4)
    _, log1 = random_walk(desk_spec, cfg)
    _, log2 = random_walk(desk_spec, cfg)
    assert log1.to_jsonl() == log2.to_jsonl()


def test_record_every_thins_the_log(desk_spec, desk_budget):
    _, log = random_walk(desk_spec, WalkConfig(steps=100, budget=desk_budget, seed=5,
                                               record_every=25, p_eliminate=0.4))
    recorded = [r["step"] for r in log.records if "op_flops" in r]
    assert recorded == [0, 25, 50, 75, 100]


def _desk_evo(steps=40, proxy=ProxyId.NEG_FLOPS, population=8, seed=21, threads=1,
              budget=None):
    return EvoConfig(total_steps=steps, population_size=population,
                     steps_per_candidate=5, proxy_id=proxy, seed=seed,
                     budget=budget or a.Budget(50_000, 250_000, 1_000_000, 20_000_000),
                     p_eliminate=0.4, batch_size=10, threads=threads)


def test_walk_config_refuses_record_every_below_one(desk_budget):
    for record_every in (0, -3):
        with pytest.raises(ValueError, match="record_every"):
            WalkConfig(steps=5, budget=desk_budget, seed=0, record_every=record_every)


def test_walk_config_refuses_negative_steps(desk_budget):
    WalkConfig(steps=0, budget=desk_budget, seed=0)
    with pytest.raises(ValueError, match="steps must be >= 0"):
        WalkConfig(steps=-5, budget=desk_budget, seed=0)


def test_evo_config_refuses_negative_steps_per_candidate():
    EvoConfig(steps_per_candidate=0)
    with pytest.raises(ValueError, match="steps_per_candidate"):
        EvoConfig(steps_per_candidate=-2)


def test_evo_config_refuses_threads_below_one():
    for threads in (0, -1):
        with pytest.raises(ValueError, match="threads"):
            EvoConfig(threads=threads)


def test_evo_config_refuses_an_empty_population():
    for total_steps in (0, 10):
        with pytest.raises(ValueError, match="population_size"):
            EvoConfig(total_steps=total_steps, population_size=0)


def test_configs_refuse_out_of_range_step_and_scoring_fields_when_built(desk_budget):
    """Each bound is checked once, when the config holding the value is built."""
    for make, says in [
        (lambda: WalkConfig(steps=5, budget=desk_budget, seed=0, n_try=0), "n_try must be >= 1, got 0"),
        (lambda: WalkConfig(steps=5, budget=desk_budget, seed=0, p_eliminate=1.5),
         r"p_eliminate must be in \[0, 1\], got 1.5"),
        (lambda: EvoConfig(n_try=0), "n_try must be >= 1, got 0"),
        (lambda: EvoConfig(p_eliminate=-0.1), r"p_eliminate must be in \[0, 1\], got -0.1"),
        (lambda: EvoConfig(proxy_id=ProxyId.VKDNW, batch_size=9), "batch_size must be >= 10 for vkdnw, got 9"),
    ]:
        with pytest.raises(ValueError, match=f"^{says}$"):
            make()
    EvoConfig(proxy_id=ProxyId.NEG_FLOPS, batch_size=9)  # only vkdnw draws a batch


def test_configs_refuse_a_seed_out_of_range_when_built(desk_spec, desk_budget, monkeypatch):
    """Rng's range and message, raised before any seed network is costed."""
    costed = []
    monkeypatch.setattr(search, "_seed_state", lambda *args: costed.append(args))
    for seed in (-1, 2**64):
        with pytest.raises(ValueError) as rng_refusal:
            a.Rng(seed)
        for run in (lambda: random_walk(desk_spec, WalkConfig(steps=1, budget=desk_budget, seed=seed)),
                    lambda: evolve(desk_spec, EvoConfig(total_steps=1, population_size=1, seed=seed))):
            with pytest.raises(ValueError, match=f"^{re.escape(str(rng_refusal.value))}$"):
                run()
    assert costed == []


def test_evolve_single_slot_population(desk_spec, desk_budget):
    cfg = _desk_evo(steps=10, proxy=ProxyId.RANDOM, population=1)
    best, log = evolve(desk_spec, cfg)
    assert not a.validate_network(best)
    children = [r for r in log.records if r["step"] > 0]
    assert len(children) == 10
    assert all("score" in r for r in children)


def test_evolve_negflops_improves_and_min_is_monotone(desk_spec):
    cfg = _desk_evo(steps=60)
    best, log = evolve(desk_spec, cfg)
    seed_flops = a.network_cost(desk_spec).total.flops
    assert a.network_cost(best).total.flops <= seed_flops
    mins = [r["population_min"] for r in log.records if "population_min" in r]
    assert all(b >= c for b, c in zip(mins[1:], mins))
    assert cfg.budget.contains(a.network_cost(best).total)


def test_evolve_is_reproducible_and_thread_invariant(desk_spec):
    best1, log1 = evolve(desk_spec, _desk_evo(steps=25))
    best2, log2 = evolve(desk_spec, _desk_evo(steps=25))
    assert log1.to_jsonl() == log2.to_jsonl()
    assert a.serialize(best1) == a.serialize(best2)
    best3, log3 = evolve(desk_spec, _desk_evo(steps=25, threads=4))
    assert a.serialize(best1) == a.serialize(best3)
    assert log1.to_jsonl() == log3.to_jsonl()


def test_evolve_with_vkdnw_on_tiny_network():
    from archspace.ops import Shape

    blocks = [a.build("squeeze_excite", Shape(4, 2, 2)), a.build("identity", Shape(6, 1, 1))]
    spec = a.make_network(4, (16, 16), (1, 1), (4, 6), 10, blocks=blocks)
    total = a.network_cost(spec).total
    budget = a.Budget(0, total.params + 3000, 0, total.flops * 50)
    cfg = EvoConfig(total_steps=6, population_size=3, steps_per_candidate=2,
                    proxy_id=ProxyId.VKDNW, seed=4, budget=budget,
                    batch_size=10, p_eliminate=0.3)
    best, log = evolve(spec, cfg)
    assert not a.validate_network(best)
    scores = [r["score"] for r in log.records]
    assert all(0.0 <= s <= 2.1973 for s in scores)


# sha256 of (log.to_jsonl(), serialize(best)) for 200 c08 iterations on the
# desk network.  A deliberate change of these bytes updates the pins and is
# recorded in CHANGES.md.
EVOLVE_PINS = {
    ProxyId.NEG_FLOPS: ("4b14e7d8bb0926821d63eef24b0dce7b9eab3a8497980712d77bb1b760e92caa",
                        "ba3d95157edb36ba63cad3e98677bf387775885f971909bcd3ba178224a92d92"),
    ProxyId.NEG_PARAMS: ("0fbe4dfabd7e9590127fe789da55b66b5619b0b7cc6541d77a9ff330cf7ae162",
                         "2ac62a4de9db7886aafc5d9bd20e095f1e47db4c463605fe6c2bdaf20ab0dea4"),
}


def _c08_evo(proxy):
    return EvoConfig(total_steps=200, population_size=16, steps_per_candidate=5,
                     proxy_id=proxy, seed=0xC8,
                     budget=a.Budget(50_000, 250_000, 1_000_000, 20_000_000), p_eliminate=0.4)


@pytest.mark.parametrize("proxy", list(EVOLVE_PINS), ids=lambda p: p.value)
def test_evolve_bytes_are_pinned(desk_spec, proxy):
    best, log = evolve(desk_spec, _c08_evo(proxy))
    got = (hashlib.sha256(log.to_jsonl().encode()).hexdigest(),
           hashlib.sha256(a.serialize(best)).hexdigest())
    assert got == EVOLVE_PINS[proxy]


@pytest.mark.parametrize("proxy", list(EVOLVE_PINS), ids=lambda p: p.value)
def test_every_scored_candidate_has_an_exact_ledger(desk_spec, monkeypatch, proxy):
    # evolve scores the cost proxies from each candidate's ledger total, so
    # network_cost and validate_network are the oracles for every candidate.
    scored, real = [], search._score

    def checked(state, cfg, root, step):
        assert a.validate_network(state.spec) == []
        assert state.total == a.network_cost(state.spec).total
        scored.append(step)
        return real(state, cfg, root, step)

    monkeypatch.setattr(search, "_score", checked)
    evolve(desk_spec, _c08_evo(proxy))
    assert scored == list(range(201))


def test_all_logged_networks_satisfy_budget(desk_spec):
    cfg = _desk_evo(steps=30)
    _, log = evolve(desk_spec, cfg)
    for rec in log.records:
        assert cfg.budget.params_min <= rec["params"] <= cfg.budget.params_max
        assert cfg.budget.flops_min <= rec["flops"] <= cfg.budget.flops_max


def test_size_orthogonality_report_is_descriptive():
    from archspace.ops import Shape

    blocks = [a.build("squeeze_excite", Shape(4, 2, 2))]
    spec = a.make_network(4, (16, 16), (1,), (4,), 10, blocks=blocks)
    total = a.network_cost(spec).total
    budget = a.Budget(0, total.params + 2000, 0, total.flops * 100)
    report = size_orthogonality_report(spec, budget, steps=30, sample_every=10,
                                       seed=1, batch_size=10)
    assert report["samples"] == 3
    assert len(report["params"]) == len(report["scores"]) == 3
    assert report["correlation"] is None or -1.0 <= report["correlation"] <= 1.0
    assert "no threshold" in report["note"]


@pytest.mark.parametrize("args, message", [
    ({"sample_every": 0}, "sample_every must be >= 1, got 0"),
    ({"sample_every": -1}, "sample_every must be >= 1, got -1"),
    ({"batch_size": 9}, "batch_size must be >= 10 for vkdnw, got 9"),
    ({"steps": -1}, "steps must be >= 0, got -1"),
])
def test_size_orthogonality_report_refuses_bad_args_before_any_step(desk_spec, monkeypatch, args, message):
    def no_walk(*_):
        raise AssertionError("the walk started")

    monkeypatch.setattr(search, "_seed_state", no_walk)
    with pytest.raises(ValueError) as exc:
        size_orthogonality_report(desk_spec, a.Budget(0, 10**9, 0, 10**12), **{"steps": 20, **args})
    assert str(exc.value) == message


@pytest.mark.parametrize("driver", [
    lambda net, budget: random_walk(net, WalkConfig(steps=1, budget=budget, seed=0)),
    lambda net, budget: evolve(net, EvoConfig(total_steps=2, population_size=1, budget=budget,
                                              proxy_id=ProxyId.NEG_FLOPS)),
    lambda net, budget: size_orthogonality_report(net, budget, steps=1),
], ids=["random_walk", "evolve", "size_orthogonality_report"])
def test_seed_outside_budget_raises_budget_error(desk_spec, driver):
    # a ValueError too, so callers that caught the untyped error still do
    with pytest.raises(ValueError, match="outside budget") as exc:
        driver(desk_spec, a.Budget(0, 1, 0, 1))
    assert exc.type is BudgetError
