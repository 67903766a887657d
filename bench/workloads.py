"""The four benchmark workloads, driven through archspace's public API.

Every workload is a closed loop on one thread: ``sample()`` runs the next
timing sample, which covers ``UNITS`` units, and the caller times it.  It
returns a problem for each unit that failed inside it, if any; an
exception fails all of its units.
A workload builds its inputs from ``seed`` alone.  Calls into archspace go
through module attributes looked up at call time (``mutation.apply``,
not a name bound at import), so the tracer's wrappers see them.

Checks come in three kinds:

* per-sample checks, which are part of the work (the c04 per-step checks)
  or run outside the sample timer (``check_sample``);
* ``check_end``: the ledger total equals ``network_cost`` and the final
  outputs are valid, at any seed;
* ``pinned``: a fresh run at ``DEFAULT_SEED`` whose outputs must hash to
  the sha256 values in ``PINS``, because the ROADMAP requires them to stay
  byte-identical.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import struct

import archspace
from archspace import cost, graph, interpreter, mutation, network, proxy, search
from archspace.ops import Shape

# The package re-exports the function serialize under the module's name.
serialize = importlib.import_module("archspace.serialize")

DEFAULT_SEED = 0

# Budgets: the c04 box for the checked walk, the README box elsewhere.
C04_BUDGET = cost.Budget(50_000, 250_000, 1_000_000, 6_000_000)
README_BUDGET = cost.Budget(50_000, 250_000, 1_000_000, 20_000_000)
VKDNW_POOL_BUDGET = cost.Budget(1_500, 2_800, 0, 10**12)

PINS = {
    "walk_checked": {
        "edits": "dfb1896d27e2bab117eb2efed24b3309df14bbecb332907fa379fc3efb6747fb",
        "final_network": "38b831e0f3e0ff7a842ea7e9a90811a10f343e0457b45d096758e7b6dc35e928",
    },
    "walk_replay": {
        "log": "ce89a77a8e743637a2664ab6c0e90f4d5b2416b01bdef80ee3213f31ec45c639",
        "final_network": "1d80e961f4576528c513f2e2875aa7e75a8d325755e47e52cd83fe5b4b0179a6",
    },
    "evolve_negflops": {
        "best_network": "39625672e4becb8bf04e45a8293016bfff5cc9c647cbd25fccf5f12d45315d79",
        "trajectory": "03da8c9c251f018f2642f5c3a841e6f355405e2497b60652b816b07d8984fdb0",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def edits_bytes(edits) -> bytes:
    return "".join(json.dumps(e.to_json(), sort_keys=True) + "\n" for e in edits).encode()


def desk_network():
    """The c04/c08 desk seed: four builder blocks over two stages."""
    blocks = [
        archspace.build("mbconv4", Shape(24, 4, 4)),
        archspace.build("attention2h", Shape(24, 4, 4)),
        archspace.build("resnet_basic", Shape(48, 2, 2)),
        archspace.build("identity", Shape(48, 2, 2)),
    ]
    return network.make_network(12, (32, 32), (2, 2), (24, 48), 10, blocks=blocks)


def readme_network():
    """What ``archspace build --variant mbconv4,resnet_basic --stem 12 ...`` writes."""
    blocks = [archspace.build("mbconv4", Shape(24, 4, 4)) for _ in range(2)]
    blocks += [archspace.build("resnet_basic", Shape(48, 2, 2)) for _ in range(2)]
    return network.make_network(12, (32, 32), (2, 2), (24, 48), 10, blocks=blocks)


def vkdnw_network():
    """A desk network small enough for finite-difference scoring of every block."""
    blocks = [
        archspace.build("attention2h", Shape(8, 4, 4)),
        archspace.build("squeeze_excite", Shape(8, 4, 4)),
        archspace.build("resnet_basic", Shape(8, 2, 2)),
        archspace.build("squeeze_excite", Shape(8, 2, 2)),
    ]
    return network.make_network(8, (32, 32), (2, 2), (8, 8), 10, blocks=blocks)


def block_sizes(net) -> list[list[int]]:
    """[interior nodes, edges] per block."""
    return [[len(b.ops), len(b.edges)] for b in net.blocks]


def ledger_problems(net, ledger_total, what: str) -> list[str]:
    bad = [f"{what}: {v}" for v in network.validate_network(net)]
    if not bad:
        exact = cost.network_cost(net).total
        if tuple(ledger_total) != tuple(exact):
            bad.append(f"{what}: ledger total {tuple(ledger_total)} != network_cost {tuple(exact)}")
    return bad


class Workload:
    """Shared defaults; a subclass sets UNITS per sample and its sample counts."""

    def pause(self) -> None:
        """The loop running this workload replaces this; a long sample calls it
        between units."""

    def may_stop(self) -> bool:
        return True

    def check_sample(self) -> list[str]:
        return []

    def check_end(self) -> list[str]:
        return []

    def known_defect(self):
        """A known defect of the program this workload probes once per run,
        outside the loop and the failure count, or None."""
        return None


class WalkChecked(Workload):
    """The acceptance c04 loop, one step per sample, with its per-step checks.

    The walk restarts from the desk seed every EPISODE_STEPS steps, keyed by
    (seed, episode), and a run ends on an episode boundary.  One long walk
    would make a run's speed hang on where that walk's graph sizes wander;
    many short ones average that out.
    """

    name = "walk_checked"
    UNITS = 1
    EPISODE_STEPS = 1000
    TRACE_SAMPLES = 4 * EPISODE_STEPS
    PIN_UNITS = 300
    CROSS_CHECK_EVERY = 500

    def __init__(self, seed: int):
        self.seed = seed
        self.steps = 0
        self.episodes = 0
        self.edits = []
        self.outputs = hashlib.sha256()
        self.accepted = 0
        self.finished_sizes = None
        self._start_episode()

    def _start_episode(self) -> None:
        self.net = desk_network()
        self.state = mutation.CostState.from_spec(self.net)
        if not C04_BUDGET.contains(self.state.total):
            raise ValueError("seed network outside the c04 budget")
        self.root = archspace.Rng(self.seed).child(self.episodes)
        self.episodes += 1

    def may_stop(self) -> bool:
        return self.steps % self.EPISODE_STEPS == 0

    def sample(self) -> None:
        self.steps += 1
        step = self.steps
        cfg = mutation.SearchStepConfig(budget=C04_BUDGET, rng=self.root.child(1, step),
                                        p_eliminate=0.45)
        edit = mutation.propose_step(self.net, cfg, self.state)
        if edit is not None:
            self.net = mutation.apply(self.net, edit)
            self.state = self.state.after_edit(self.net, edit)
            self.edits.append(edit)
            bi = edit.block_index
            block = self.net.blocks[bi]
            report = graph.validate(block)
            if not report.ok:
                raise AssertionError(f"step {step}: {report.violations}")
            rules = mutation.rule_violations(block, self.state.shapes[bi])
            if rules:
                raise AssertionError(f"step {step}: {rules}")
        if not C04_BUDGET.contains(self.state.total):
            raise AssertionError(f"step {step}: {self.state.total} outside the budget")
        if step % self.CROSS_CHECK_EVERY == 0:
            bad = ledger_problems(self.net, self.state.total, f"step {step}")
            if bad:
                raise AssertionError("; ".join(bad))

    def check_sample(self) -> list[str]:
        """Between samples, so untimed: fold a finished episode into the hash, start the next."""
        if self.steps % self.EPISODE_STEPS == 0:
            self.outputs.update(edits_bytes(self.edits) + serialize.serialize(self.net))
            self.accepted += len(self.edits)
            self.edits = []
            self.finished_sizes = block_sizes(self.net)
            self._start_episode()
        return []

    def check_end(self) -> list[str]:
        return ledger_problems(self.net, self.state.total, "final network")

    def output_digest(self) -> str:
        digest = self.outputs.copy()
        digest.update(edits_bytes(self.edits) + serialize.serialize(self.net))
        return digest.hexdigest()

    def pin_digests(self) -> dict[str, str]:
        return {"edits": sha256(edits_bytes(self.edits)),
                "final_network": sha256(serialize.serialize(self.net))}

    def facts(self) -> dict:
        accepted = self.accepted + len(self.edits)
        return {"steps": self.steps, "episodes": self.episodes, "accepted_edits": accepted,
                "noop_steps": self.steps - accepted,
                "last_episode_block_nodes_edges": self.finished_sizes or block_sizes(self.net)}


class WalkReplay(Workload):
    """The README walk: random_walk, then log -> parse -> replay -> serialize.

    One sample is a whole walk of ROUND_STEPS steps from the README network,
    with the walk seed keyed by (seed, round); a unit is one walk step.
    """

    name = "walk_replay"
    ROUND_STEPS = 1000
    UNITS = ROUND_STEPS
    TRACE_SAMPLES = 6
    PIN_UNITS = ROUND_STEPS

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = readme_network()
        if not README_BUDGET.contains(mutation.CostState.from_spec(self.spec).total):
            raise ValueError("seed network outside the README budget")
        self.rounds = 0
        self.hash = hashlib.sha256()
        self.log_bytes = 0
        self.edit_count = 0
        self.last = None

    def sample(self) -> None:
        walk_seed = self.seed * 100_003 + self.rounds
        self.rounds += 1
        cfg = search.WalkConfig(steps=self.ROUND_STEPS, budget=README_BUDGET, seed=walk_seed)
        net, log = search.random_walk(self.spec, cfg)
        text = log.to_jsonl()
        edits = search.SearchLog.from_jsonl(text).edits()
        doc = serialize.serialize(search.replay_edits(self.spec, edits))
        self.last = (net, log, text, edits, doc)

    def check_sample(self) -> list[str]:
        net, log, text, edits, doc = self.last
        self.hash.update(text.encode())
        self.hash.update(doc)
        self.log_bytes += len(text)
        self.edit_count += len(edits)
        bad = []
        if doc != serialize.serialize(net):
            bad.append(f"round {self.rounds}: replayed network differs from the walk's final network")
        last = log.records[-1]
        bad += ledger_problems(net, (last["params"], last["flops"]), f"round {self.rounds}")
        return bad

    def output_digest(self) -> str:
        return self.hash.hexdigest()

    def pin_digests(self) -> dict[str, str]:
        _, _, text, _, doc = self.last
        return {"log": sha256(text.encode()), "final_network": sha256(doc)}

    def facts(self) -> dict:
        net = self.last[0] if self.last else self.spec
        return {"rounds": self.rounds, "steps": self.rounds * self.ROUND_STEPS,
                "accepted_edits": self.edit_count,
                "noop_steps": self.rounds * self.ROUND_STEPS - self.edit_count,
                "log_bytes": self.log_bytes,
                "last_round_block_nodes_edges": block_sizes(net)}


class EvolveNegflops(Workload):
    """``evolve`` with the c08 settings; one sample is a 200-iteration search."""

    name = "evolve_negflops"
    ROUND_ITERS = 200
    UNITS = ROUND_ITERS
    TRACE_SAMPLES = 8
    PIN_UNITS = ROUND_ITERS

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = desk_network()
        self.seed_flops = mutation.CostState.from_spec(self.spec).total.flops
        self.rounds = 0
        self.hash = hashlib.sha256()
        self.edit_count = 0
        self.last = None

    def sample(self) -> None:
        cfg = search.EvoConfig(
            total_steps=self.ROUND_ITERS, population_size=16, steps_per_candidate=5,
            proxy_id=proxy.ProxyId.NEG_FLOPS, budget=README_BUDGET,
            seed=self.seed * 100_003 + self.rounds, p_eliminate=0.4, threads=1)
        self.rounds += 1
        self.last = search.evolve(self.spec, cfg)

    def trajectory(self) -> bytes:
        _, log = self.last
        return json.dumps([[r["params"], r["flops"]] for r in log.records]).encode()

    def check_sample(self) -> list[str]:
        best, log = self.last
        doc = serialize.serialize(best)
        self.hash.update(doc)
        self.hash.update(self.trajectory())
        self.edit_count += sum(len(r["edits"]) for r in log.records)
        what = f"round {self.rounds}"
        bad = ledger_problems(best, mutation.CostState.from_spec(best).total, what)
        if bad:
            return bad
        best_cost = cost.network_cost(best).total
        if best_cost.flops > self.seed_flops:
            bad.append(f"{what}: best FLOPs {best_cost.flops} above the seed's {self.seed_flops}")
        if (best_cost.params, best_cost.flops) not in {(r["params"], r["flops"]) for r in log.records}:
            bad.append(f"{what}: best network's cost is not in the logged trajectory")
        mins = [r["population_min"] for r in log.records[1:]]
        if len(mins) != self.ROUND_ITERS or any(b < a for a, b in zip(mins, mins[1:])):
            bad.append(f"{what}: population minimum is not monotone over {self.ROUND_ITERS} iterations")
        return bad

    def output_digest(self) -> str:
        return self.hash.hexdigest()

    def pin_digests(self) -> dict[str, str]:
        return {"best_network": sha256(serialize.serialize(self.last[0])),
                "trajectory": sha256(self.trajectory())}

    def facts(self) -> dict:
        best = self.last[0] if self.last else self.spec
        return {"rounds": self.rounds, "iterations": self.rounds * self.ROUND_ITERS,
                "accepted_edits": self.edit_count,
                "noop_steps": self.rounds * self.ROUND_ITERS * 5 - self.edit_count,
                "last_best_block_nodes_edges": block_sizes(best)}


class ScoreVkdnw(Workload):
    """``score_network(..., VKDNW)`` at the default batch; one sample is one
    pass over a fixed pool, and one unit is one network.

    The pool is the desk network plus the networks that walks from it reach
    inside VKDNW_POOL_BUDGET, which keeps every block under the
    finite-difference ceiling: one per (walk seed, steps) in POOL_WALKS.
    Pool network j is scored with the stream Rng(STREAM_SEED).child(j) in
    every pass and every run, so every run does the same work and every pass
    must repeat the first pass's bytes; ``seed`` does not change this
    workload.  Per-network times differ by a factor of five, so a sample is
    a whole pass: the median over samples is then not a single network's
    time.

    The timed pool holds only networks that score at this commit.  The known
    defect, ``spectrum_of`` raising on block 1 of the network a seed-5 walk
    reaches in 20 steps (a Gram eigenvalue below -1e-10), is scored once per
    run outside the loop by ``known_defect``, which reports whether it still
    raises.
    """

    name = "score_vkdnw"
    POOL_WALKS = ((7, 20), (7, 40))
    UNITS = 1 + len(POOL_WALKS)
    STREAM_SEED = 0
    DEFECT_WALK = (5, 20)
    DEFECT_STREAM = 1
    DEFECT_ERROR = "ValueError: Gram matrix produced eigenvalue "
    TRACE_SAMPLES = 1
    PIN_UNITS = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.base = vkdnw_network()
        self.pool = [self.base] + [self.walked(*w) for w in self.POOL_WALKS]
        self.pool_params = [
            [interpreter.init_params(b, archspace.Rng(0)).scalar_count() for b in net.blocks]
            for net in self.pool
        ]
        self.passes = 0
        self.hash = hashlib.sha256()
        self.first: dict[int, bytes] = {}    # pool index -> first pass's score bytes or error
        self.repeat_mismatches: set[int] = set()
        self.raised: set[int] = set()        # pool indices whose scoring raised
        self.last: list = []                 # (pool index, score) of the last pass

    def walked(self, walk_seed: int, steps: int):
        config = search.WalkConfig(steps=steps, budget=VKDNW_POOL_BUDGET, seed=walk_seed)
        return search.random_walk(self.base, config)[0]

    def _score(self, j: int):
        return proxy.score_network(self.pool[j], proxy.ProxyId.VKDNW,
                                   archspace.Rng(self.STREAM_SEED).child(j))

    def _record(self, j: int, data: bytes) -> None:
        self.hash.update(data)
        if self.first.setdefault(j, data) != data:
            self.repeat_mismatches.add(j)

    def sample(self) -> list[str]:
        self.passes += 1
        self.last = []
        failed = []
        for j in range(len(self.pool)):
            if j:
                self.pause()
            try:
                score = self._score(j)
            except Exception as exc:  # one failed unit; the pass goes on
                msg = f"{type(exc).__name__}: {exc}"
                self.raised.add(j)
                self._record(j, msg.encode())
                failed.append(f"network {j}: {msg}")
                continue
            self.last.append((j, score))
            self._record(j, self.score_bytes(score))
        return failed

    @staticmethod
    def score_bytes(score) -> bytes:
        return struct.pack(f"<{1 + len(score.per_block)}d", score.value, *score.per_block)

    @staticmethod
    def score_problems(what: str, net, score) -> list[str]:
        """One value per block, each finite and in [0, ln 9]."""
        bad = []
        values = (score.value, *score.per_block)
        if len(score.per_block) != len(net.blocks):
            bad.append(f"{what}: {len(score.per_block)} block scores for {len(net.blocks)} blocks")
        if not all(math.isfinite(v) and 0.0 <= v <= math.log(9.0) for v in values):
            bad.append(f"{what}: score outside [0, ln 9]: {values}")
        return bad

    def check_sample(self) -> list[str]:
        return [p for j, score in self.last
                for p in self.score_problems(f"network {j}", self.pool[j], score)]

    def check_end(self) -> list[str]:
        """Later passes repeated the first pass's bytes, and so does one more call
        (on the pool network with fewest block parameters that scored)."""
        bad = [f"network {j}: a repeated score_network call gave different bytes"
               for j in sorted(self.repeat_mismatches)]
        scored = [j for j in self.first if j not in self.raised]
        if scored:
            j = min(scored, key=lambda k: sum(self.pool_params[k]))
            if self.score_bytes(self._score(j)) != self.first[j]:
                bad.append(f"network {j}: a repeated score_network call gave different bytes")
        return bad

    def known_defect(self) -> dict:
        """Score the known-defect network once.  ``raises`` is 1 while the defect
        reproduces; any other error is a problem, and once it scores, the score
        gets the pool's checks."""
        net = self.walked(*self.DEFECT_WALK)
        what = "seed-%d walk, %d steps" % self.DEFECT_WALK
        try:
            score = proxy.score_network(net, proxy.ProxyId.VKDNW,
                                        archspace.Rng(self.STREAM_SEED).child(self.DEFECT_STREAM))
        except Exception as exc:
            msg = f"{type(exc).__name__}: {exc}"
            known = msg.startswith(self.DEFECT_ERROR)
            return {"network": what, "raises": int(known), "outcome": msg,
                    "problems": [] if known else [f"{what}: scoring raised {msg}"]}
        return {"network": what, "raises": 0, "outcome": f"scored {score.value!r}",
                "problems": self.score_problems(what, net, score)}

    def output_digest(self) -> str:
        return self.hash.hexdigest()

    def pin_digests(self) -> dict[str, str]:
        return {}

    def facts(self) -> dict:
        return {"passes": self.passes, "networks_scored": self.passes * len(self.pool),
                "pool_size": len(self.pool), "pool_block_params": self.pool_params,
                "pool_failed": sorted(self.raised),
                "pool_block_nodes_edges": [block_sizes(n) for n in self.pool]}


WORKLOADS = {w.name: w for w in (WalkChecked, WalkReplay, EvolveNegflops, ScoreVkdnw)}
