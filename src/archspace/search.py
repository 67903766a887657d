"""Search drivers over the mutation engine.

``random_walk`` applies sequential search steps with no objective and logs
the cost trajectory plus per-op FLOPs totals.  ``evolve`` is truncation
selection: the population starts as population_size copies of the seed
(scored once), each iteration mutates a uniformly chosen parent for
steps_per_candidate steps, scores the child, inserts it and keeps the top
population_size.  With a full population from the start, the population
minimum score is non-decreasing over iterations.  A cost proxy scores a
candidate from its ledger total, which ``network_cost`` checks in the tests.

Determinism: all randomness derives from (seed, step index) via keyed
streams, so results are independent of thread scheduling; a NoOp mutation
step still consumes a step, and a candidate whose steps all fail is still
scored (it equals its parent).
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain
from .cost import Budget
from .errors import BudgetError, check_at_least
from .mutation import CostState, Edit, SearchStepConfig, apply, check_step_options, propose_step
from .network import NetworkSpec, assemble_network
from .ops import OP_BY_NAME
from .proxy import COST_PROXIES, DEFAULT_BATCH, ProxyId, check_scoring_args, cost_score, score_network
from .rng import Rng
from .serialize import canonical_json


@dataclass(frozen=True)
class WalkConfig:
    steps: int
    budget: Budget
    seed: int
    p_eliminate: float = SearchStepConfig.p_eliminate
    n_try: int = SearchStepConfig.n_try
    record_every: int = 1

    def __post_init__(self):
        check_at_least("steps", self.steps, 0)
        check_at_least("record_every", self.record_every, 1)
        check_step_options(self.p_eliminate, self.n_try)
        Rng(self.seed)  # refuses a seed outside its range


@dataclass(frozen=True)
class EvoConfig:
    total_steps: int = 1024
    population_size: int = 64
    steps_per_candidate: int = 5
    proxy_id: ProxyId = ProxyId.VKDNW
    budget: Budget = Budget(0, 27_000_000, 0, 20_000_000_000)
    seed: int = 0
    p_eliminate: float = SearchStepConfig.p_eliminate
    n_try: int = SearchStepConfig.n_try
    batch_size: int = DEFAULT_BATCH
    threads: int = 1

    def __post_init__(self):
        check_at_least("population_size", self.population_size, 1)
        if self.population_size > self.total_steps:
            raise ValueError("population_size must not exceed total_steps")
        check_at_least("steps_per_candidate", self.steps_per_candidate, 0)
        check_step_options(self.p_eliminate, self.n_try)
        check_scoring_args(self.proxy_id, self.batch_size, self.threads)
        Rng(self.seed)  # refuses a seed outside its range


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
        return "".join(canonical_json(r) for r in self.records)

    @staticmethod
    def from_jsonl(text: str) -> "SearchLog":
        return SearchLog([json.loads(line) for line in text.splitlines() if line.strip()])


def _seed_state(seed_net: NetworkSpec, budget: Budget) -> CostState:
    """The seed's cost ledger; AssemblyError when the seed is not a valid
    network, BudgetError when it lies outside the budget."""
    assemble_network(seed_net)
    state = CostState.from_spec(seed_net)
    if not budget.contains(state.total):
        raise BudgetError(f"seed network cost {state.total} outside budget {budget}")
    return state


def _steps(state: CostState, cfg: WalkConfig | EvoConfig, streams: Iterable[Rng]
           ) -> Iterator[tuple[CostState, Edit | None]]:
    """One propose/apply step per stream, in order, with cfg's budget and step
    options.  Yields (state, edit) after each step; edit is None for a NoOp
    step."""
    for rng in streams:
        edit = propose_step(state.spec, SearchStepConfig(cfg.budget, rng, cfg.p_eliminate, cfg.n_try), state)
        if edit is not None:
            state = state.after_edit(apply(state.spec, edit), edit)
        yield state, edit


def random_walk(seed_net: NetworkSpec, cfg: WalkConfig) -> tuple[NetworkSpec, SearchLog]:
    """cfg.steps sequential propose/apply steps; returns (final net, log).  The
    seed is step 0; a step off the record_every grid is logged only if it edits."""
    state = _seed_state(seed_net, cfg.budget)
    root = Rng(cfg.seed)
    log = SearchLog()
    streams = (root.child(1, step) for step in range(1, cfg.steps + 1))
    for step, (state, edit) in chain([(0, (state, None))], enumerate(_steps(state, cfg, streams), 1)):
        full = step % cfg.record_every == 0 or step == cfg.steps
        if full or edit is not None:
            log.append(step=step, edit=None if edit is None else edit.to_json(),
                       params=state.total.params, flops=state.total.flops,
                       **({"op_flops": _op_flops_json(state)} if full else {}))
    return state.spec, log


_OPS_BY_NAME = sorted(OP_BY_NAME.items())


def _op_flops_json(state: CostState) -> dict[str, int]:
    flops = state.network_op_flops()
    return {name: flops[op] for name, op in _OPS_BY_NAME if op in flops}


def replay_edits(seed_net: NetworkSpec, edits: list[Edit]) -> NetworkSpec:
    """The seed with the edits applied in order: AssemblyError for an invalid
    seed or result, InfeasibleEdit for an edit that does not apply."""
    assemble_network(seed_net)
    net = seed_net
    for e in edits:
        net = apply(net, e)
    assemble_network(net)
    return net


def _mutate_candidate(state: CostState, cfg: EvoConfig, rng: Rng) -> tuple[CostState, list[Edit]]:
    edits = []
    for state, edit in _steps(state, cfg, (rng.child(s) for s in range(cfg.steps_per_candidate))):
        if edit is not None:
            edits.append(edit)
    return state, edits


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

    check_at_least("sample_every", sample_every, 1)
    check_scoring_args(ProxyId.VKDNW, batch_size, 1)
    root = Rng(seed)
    streams = (root.child(1, step) for step in range(1, steps + 1))
    cfg = WalkConfig(steps, budget, seed)  # refuses its bounds before the seed is costed
    walk = _steps(_seed_state(seed_net, budget), cfg, streams)
    params_list, scores = [], []
    for step, (state, _) in enumerate(walk, 1):
        if step % sample_every == 0:
            score = score_network(state.spec, ProxyId.VKDNW, root.child(2, step),
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


def _score(state: CostState, cfg: EvoConfig, root: Rng, step: int) -> float:
    """The candidate's proxy score: a cost proxy reads the ledger total, any
    other proxy scores the network with stream (2, step)."""
    if cfg.proxy_id in COST_PROXIES:
        return cost_score(state.total, cfg.proxy_id).value
    return score_network(state.spec, cfg.proxy_id, root.child(2, step),
                         batch_size=cfg.batch_size, threads=cfg.threads).value


def evolve(seed_net: NetworkSpec, cfg: EvoConfig) -> tuple[NetworkSpec, SearchLog]:
    """Proxy-guided truncation search; returns (best network, log)."""
    seed_state = _seed_state(seed_net, cfg.budget)
    root = Rng(cfg.seed)
    seed_score = _score(seed_state, cfg, root, 0)
    # Entries are (score, tiebreak age, state); truncation keeps top scores,
    # preferring older entries on ties so results do not depend on sort internals.
    population = [(seed_score, i, seed_state) for i in range(cfg.population_size)]
    age = cfg.population_size
    log = SearchLog()
    log.append(step=0, score=seed_score, params=seed_state.total.params,
               flops=seed_state.total.flops, edits=[])
    for step in range(1, cfg.total_steps + 1):
        pick = root.child(3, step).randbelow(len(population))
        child, edits = _mutate_candidate(population[pick][2], cfg, root.child(1, step))
        score = _score(child, cfg, root, step)
        population.append((score, age, child))
        age += 1
        population.sort(key=lambda t: (-t[0], t[1]))
        del population[cfg.population_size:]
        log.append(
            step=step,
            parent=pick,
            score=score,
            params=child.total.params,
            flops=child.total.flops,
            population_min=population[-1][0],
            population_max=population[0][0],
            edits=[e.to_json() for e in edits],
        )
    return population[0][2].spec, log
