"""The elimination helpers against the reference versions in `_oracles.py`.

`minimal_coupled_subgraph` grows the doomed set by one forward and one
backward search from the whole group per round; the oracle runs one
search per ordered pair of group members.  `_excise_boundary` and
`BlockGraph.out_edges` read the edge index; their oracles scan the edge
list.  Inputs: every interior node of every builder variant over a grid of
shapes, of every 5th block of the 2,000-step c04-budget walk in
`test_validate_oracle`, and of the blocks a 1,000-step README walk leaves.
"""

import archspace as a
from archspace import mutation
from archspace.builders import VARIANTS
from archspace.errors import ArchSpaceError, InfeasibleEdit
from archspace.graph import INPUT, OUTPUT, GraphAssembler, bfs_reachable, validate
from archspace.mutation import _excise_boundary, minimal_coupled_subgraph
from archspace.ops import OpKind, Shape
from archspace.search import WalkConfig, random_walk

from _oracles import bridge_oracle, minimal_coupled_subgraph_oracle, out_edges_oracle
from test_validate_oracle import walk_blocks


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InfeasibleEdit as exc:
        return type(exc), str(exc)


def assert_elimination_matches_oracle(block):
    """Returns how many nodes dooms more than themselves."""
    grown = 0
    for v in block.ops:
        doomed = _outcome(minimal_coupled_subgraph, block, v)
        assert doomed == _outcome(minimal_coupled_subgraph_oracle, block, v), v
        if isinstance(doomed, frozenset):
            grown += len(doomed) > 1
            assert _outcome(_excise_boundary, block, doomed) == _outcome(bridge_oracle, block, doomed), v
    for v in (INPUT, *block.ops):
        assert block.out_edges(v) == out_edges_oracle(block, v), v
    return grown


def test_builder_blocks_match_oracle():
    seen = grown = 0
    for variant in VARIANTS:
        for shape in [Shape(c, h, w) for c in (1, 2, 3, 4, 6, 8, 12, 24) for h, w in ((1, 1), (4, 4), (3, 5), (16, 16))]:
            try:
                block = a.build(variant, shape)
            except ArchSpaceError:
                continue
            grown += assert_elimination_matches_oracle(block)
            seen += 1
    assert seen > len(VARIANTS) * 10
    assert grown > seen


def test_walk_blocks_match_oracle():
    blocks = walk_blocks()[::5]
    assert len(blocks) > 300
    grown = sum(assert_elimination_matches_oracle(block) for block in blocks)
    assert grown > len(blocks)


def test_readme_walk_blocks_match_oracle():
    """The four blocks a 1,000-step walk leaves on the README's network, seed
    7, in the README's budget: the sizes at which walks spend their time
    eliminating."""
    blocks = [a.build("mbconv4", Shape(24, 4, 4)) for _ in range(2)]
    blocks += [a.build("resnet_basic", Shape(48, 2, 2)) for _ in range(2)]
    net = a.make_network(12, (32, 32), (2, 2), (24, 48), 10, blocks=blocks)
    budget = a.Budget(50_000, 250_000, 1_000_000, 20_000_000)
    final, _ = random_walk(net, WalkConfig(steps=1000, budget=budget, seed=7))
    assert sorted(len(block.ops) for block in final.blocks) == [75, 85, 91, 96]
    assert sum(assert_elimination_matches_oracle(block) for block in final.blocks) == 133


def test_interleaved_couples_need_a_second_round():
    """Couples a<->c and b<->d with a -> b -> c -> d: eliminating either pair
    reaches the other only through a partner found on the first round's paths."""
    g = GraphAssembler(Shape(8, 4, 4))
    a_, b_ = g.add(OpKind.COPY), g.add(OpKind.COPY)
    c_, d_ = g.add(OpKind.ADD), g.add(OpKind.ADD)
    for wire in ((INPUT, 0, a_, 0), (a_, 0, b_, 0), (a_, 1, c_, 1), (b_, 0, c_, 0),
                 (b_, 1, d_, 1), (c_, 0, d_, 0), (d_, 0, OUTPUT, 0)):
        g.wire(*wire)
    g.couple(a_, c_)
    g.couple(b_, d_)
    block = g.finish()
    assert validate(block).ok
    for v in block.ops:
        assert minimal_coupled_subgraph(block, v) == {a_, b_, c_, d_}
    assert assert_elimination_matches_oracle(block) == 4


def test_one_couple_group_closes_in_one_round(monkeypatch):
    """Squeeze-excite's GlobalAvg <-> UpSample group with its path between:
    one forward and one backward search close the set, and no second round
    runs only to confirm it."""
    block = a.build("squeeze_excite", Shape(8, 4, 4))
    (v,) = [u for u, op in block.ops.items() if op is OpKind.GLOBAL_AVG]
    calls = []

    def counted(step, starts):
        calls.append(1)
        return bfs_reachable(step, starts)

    monkeypatch.setattr(mutation, "bfs_reachable", counted)
    doomed = minimal_coupled_subgraph(block, v)
    assert len(doomed) > 2 and doomed == minimal_coupled_subgraph_oracle(block, v)
    assert len(calls) == 2
