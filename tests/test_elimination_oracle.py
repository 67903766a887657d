"""The elimination helpers against the reference versions in `_oracles.py`.

`minimal_coupled_subgraph` grows the doomed set by one forward and one
backward search from the whole group per round; the oracle runs one
search per ordered pair of group members.  `_excise_boundary` and
`BlockGraph.out_edges` read the edge index; their oracles scan the edge
list.  Inputs: every interior node of every builder variant over a grid of
shapes, and of every 5th block of the 2,000-step c04-budget walk in
`test_validate_oracle`.
"""

import archspace as a
from archspace.builders import VARIANTS
from archspace.errors import ArchSpaceError, InfeasibleEdit
from archspace.graph import INPUT, OUTPUT, GraphAssembler, validate
from archspace.mutation import _excise_boundary, minimal_coupled_subgraph
from archspace.ops import OpKind, Shape

from _oracles import excise_boundary_oracle, minimal_coupled_subgraph_oracle, out_edges_oracle
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
            assert _outcome(_excise_boundary, block, doomed) == \
                _outcome(excise_boundary_oracle, block, doomed), v
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
