"""Search drivers over the mutation engine.

``random_walk`` applies sequential search steps with no objective and logs
the cost trajectory plus per-op FLOPs totals.  ``evolve`` is truncation
selection: the population starts as population_size copies of the seed
(scored once), each iteration mutates a uniformly chosen parent for
steps_per_candidate steps, scores the child, inserts it and keeps the top
population_size.  With a full population from the start, the population
minimum score is non-decreasing over iterations.

Determinism: all randomness derives from (seed, step index) via keyed
streams, so results are independent of thread scheduling; a NoOp mutation
step still consumes a step, and a candidate whose steps all fail is still
scored (it equals its parent).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from .cost import Budget
from .mutation import CostState, Edit, SearchStepConfig, apply, propose_step
from .network import NetworkSpec
from .proxy import DEFAULT_BATCH, ProxyId, score_network
from .rng import Rng


@dataclass(frozen=True)
class WalkConfig:
    steps: int
    budget: Budget
    seed: int
    p_eliminate: float = 0.3
    n_try: int = 10
    record_every: int = 1


@dataclass(frozen=True)
class EvoConfig:
    total_steps: int = 1024
    population_size: int = 64
    steps_per_candidate: int = 5
    proxy_id: ProxyId = ProxyId.VKDNW
    budget: Budget = Budget(0, 27_000_000, 0, 20_000_000_000)
    seed: int = 0
    p_eliminate: float = 0.3
    n_try: int = 10
    batch_size: int = DEFAULT_BATCH
    threads: int = 1
    init_mode: str = "replicate"   # or "single": population grows from the seed alone

    def __post_init__(self):
        if self.population_size > self.total_steps:
            raise ValueError("population_size must not exceed total_steps")
        if self.init_mode not in ("replicate", "single"):
            raise ValueError("init_mode must be 'replicate' or 'single'")


@dataclass
class SearchLog:
    records: list[dict] = field(default_factory=list)

    def append(self, **record) -> None:
        self.records.append(record)

    def edits(self) -> list[Edit]:
        out = []
        for r in self.records:
            for e in r.get("edits", []):
                out.append(Edit.from_json(e))
            if r.get("edit") is not None:
                out.append(Edit.from_json(r["edit"]))
        return out

    def to_jsonl(self) -> str:
        return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in self.records)

    @staticmethod
    def from_jsonl(text: str) -> "SearchLog":
        return SearchLog([json.loads(line) for line in text.splitlines() if line.strip()])


def random_walk(seed_net: NetworkSpec, cfg: WalkConfig) -> tuple[NetworkSpec, SearchLog]:
    """cfg.steps sequential propose/apply steps; returns (final net, log)."""
    state = CostState.from_spec(seed_net)
    if not cfg.budget.contains(state.total):
        raise ValueError(f"seed network cost {state.total} outside budget")
    root = Rng(cfg.seed)
    log = SearchLog()
    log.append(step=0, edit=None, params=state.total.params, flops=state.total.flops,
               op_flops=_op_flops_json(state))
    net = seed_net
    for step in range(1, cfg.steps + 1):
        step_cfg = SearchStepConfig(cfg.budget, root.child(1, step), cfg.p_eliminate, cfg.n_try)
        edit = propose_step(net, step_cfg, state)
        if edit is not None:
            net = apply(net, edit)
            state = state.after_edit(net, edit)
        if step % cfg.record_every == 0 or step == cfg.steps:
            log.append(
                step=step,
                edit=None if edit is None else edit.to_json(),
                params=state.total.params,
                flops=state.total.flops,
                op_flops=_op_flops_json(state),
            )
        elif edit is not None:
            log.append(step=step, edit=edit.to_json(),
                       params=state.total.params, flops=state.total.flops)
    return net, log


def _op_flops_json(state: CostState) -> dict[str, int]:
    return {op.value: f for op, f in sorted(state.network_op_flops().items(), key=lambda kv: kv[0].value)}


def replay_edits(seed_net: NetworkSpec, edits: list[Edit]) -> NetworkSpec:
    net = seed_net
    for e in edits:
        net = apply(net, e)
    return net


def _mutate_candidate(net: NetworkSpec, state: CostState, cfg: EvoConfig, rng: Rng
                      ) -> tuple[NetworkSpec, CostState, list[Edit]]:
    edits = []
    for s in range(cfg.steps_per_candidate):
        step_cfg = SearchStepConfig(cfg.budget, rng.child(s), cfg.p_eliminate, cfg.n_try)
        edit = propose_step(net, step_cfg, state)
        if edit is None:
            continue
        net = apply(net, edit)
        state = state.after_edit(net, edit)
        edits.append(edit)
    return net, state, edits


def size_orthogonality_report(
    seed_net: NetworkSpec,
    budget: Budget,
    steps: int = 200,
    sample_every: int = 10,
    seed: int = 0,
    batch_size: int = 16,
) -> dict:
    """Diagnostic only: correlation between the decile-entropy score and the
    parameter count over networks sampled from a random walk.

    Emitted as a report, never asserted against a threshold.
    """
    import numpy as np

    state = CostState.from_spec(seed_net)
    if not budget.contains(state.total):
        raise ValueError(f"seed network cost {state.total} outside budget")
    root = Rng(seed)
    net = seed_net
    params_list, scores = [], []
    for step in range(1, steps + 1):
        step_cfg = SearchStepConfig(budget, root.child(1, step))
        edit = propose_step(net, step_cfg, state)
        if edit is not None:
            net = apply(net, edit)
            state = state.after_edit(net, edit)
        if step % sample_every == 0:
            score = score_network(net, ProxyId.VKDNW, root.child(2, step),
                                  batch_size=batch_size)
            params_list.append(state.total.params)
            scores.append(score.value)
    correlation = None
    if len(scores) >= 2 and np.std(params_list) > 0 and np.std(scores) > 0:
        correlation = float(np.corrcoef(params_list, scores)[0, 1])
    return {
        "proxy_id": ProxyId.VKDNW.value,
        "samples": len(scores),
        "params": params_list,
        "scores": scores,
        "correlation": correlation,
        "note": "diagnostic report; no threshold is enforced",
    }


def evolve(seed_net: NetworkSpec, cfg: EvoConfig) -> tuple[NetworkSpec, SearchLog]:
    """Proxy-guided truncation search; returns (best network, log)."""
    seed_state = CostState.from_spec(seed_net)
    if not cfg.budget.contains(seed_state.total):
        raise ValueError(f"seed network cost {seed_state.total} outside budget")
    root = Rng(cfg.seed)
    seed_score = score_network(seed_net, cfg.proxy_id, root.child(2, 0),
                               batch_size=cfg.batch_size, threads=cfg.threads).value
    # Entries are (score, tiebreak age, net, state); truncation keeps top scores,
    # preferring older entries on ties so results do not depend on sort internals.
    initial = cfg.population_size if cfg.init_mode == "replicate" else 1
    population = [(seed_score, i, seed_net, seed_state) for i in range(initial)]
    age = initial
    log = SearchLog()
    log.append(step=0, score=seed_score, params=seed_state.total.params,
               flops=seed_state.total.flops, edits=[])
    for step in range(1, cfg.total_steps + 1):
        pick = root.child(3, step).randbelow(len(population))
        _, _, parent_net, parent_state = population[pick]
        child, child_state, edits = _mutate_candidate(
            parent_net, parent_state, cfg, root.child(1, step)
        )
        score = score_network(child, cfg.proxy_id, root.child(2, step),
                              batch_size=cfg.batch_size, threads=cfg.threads).value
        population.append((score, age, child, child_state))
        age += 1
        population.sort(key=lambda t: (-t[0], t[1]))
        del population[cfg.population_size:]
        log.append(
            step=step,
            parent=pick,
            score=score,
            params=child_state.total.params,
            flops=child_state.total.flops,
            population_min=population[-1][0],
            population_max=population[0][0],
            edits=[e.to_json() for e in edits],
        )
    best = population[0]
    return best[2], log
