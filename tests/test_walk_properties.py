"""Properties of a random walk over its seed, `p_eliminate` and length.

Serialize, parse and serialize again gives the same bytes, and replaying a
walk's log, through its JSON lines, gives the walk's final network.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

import archspace as a
from archspace.ops import Shape
from archspace.search import SearchLog, WalkConfig, random_walk, replay_edits
from archspace.serialize import parse_document, serialize

BUDGET = a.Budget(50_000, 250_000, 1_000_000, 20_000_000)


@functools.cache
def desk_network():
    blocks = [
        a.build("mbconv4", Shape(24, 4, 4)),
        a.build("attention2h", Shape(24, 4, 4)),
        a.build("resnet_basic", Shape(48, 2, 2)),
        a.build("identity", Shape(48, 2, 2)),
    ]
    return a.make_network(12, (32, 32), (2, 2), (24, 48), 10, blocks=blocks)


walks = st.builds(
    lambda seed, p, steps: random_walk(
        desk_network(), WalkConfig(steps=steps, budget=BUDGET, seed=seed, p_eliminate=p)),
    st.integers(0, 2**64 - 1), st.floats(0.0, 1.0), st.integers(0, 300),
)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(walks)
def test_serialize_parse_serialize_is_stable(walk):
    net, _ = walk
    data = serialize(net)
    parsed = parse_document(data)
    assert serialize(parsed) == data
    assert all(a.same_graph(x, y) for x, y in zip(parsed.blocks, net.blocks))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(walks)
def test_replaying_the_log_gives_the_final_network(walk):
    net, log = walk
    replayed = replay_edits(desk_network(), SearchLog.from_jsonl(log.to_jsonl()).edits())
    assert serialize(replayed) == serialize(net)
