import hashlib
import json

import pytest

import archspace as a
from archspace.dot import to_dot
from archspace.errors import FormatError
from archspace.graph import GraphAssembler, INPUT, OUTPUT
from archspace.ops import OpKind, Shape
from archspace.serialize import parse_document, serialize, to_document

from _oracles import check_dot, fuzz_network


def test_identity_network_document_has_empty_node_lists():
    spec = a.make_network(4, (32, 32), (1, 1), (8, 16), 10)
    doc = to_document(spec)
    assert all(b["nodes"] == [] for b in doc["blocks"])
    assert doc["format_version"] == 1


def test_roundtrip_is_byte_stable(desk_spec):
    data = serialize(desk_spec)
    again = serialize(parse_document(data))
    assert data == again


def test_roundtrip_preserves_ids_and_costs():
    for seed in range(25):
        net = fuzz_network(seed)
        parsed = parse_document(serialize(net))
        for x, y in zip(net.blocks, parsed.blocks):
            assert a.same_graph(x, y)
            assert x.ops.keys() == y.ops.keys()  # identical NodeIds
        assert a.network_cost(parsed).total == a.network_cost(net).total


def test_parse_rejects_garbage():
    with pytest.raises(FormatError):
        parse_document(b"not json")
    with pytest.raises(FormatError):
        parse_document({"format_version": 99})
    doc = to_document(a.make_network(4, (32, 32), (1,), (8,), 10))
    doc["blocks"][0]["nodes"] = [{"id": 2, "op": "NoSuchOp"}]
    with pytest.raises(FormatError):
        parse_document(doc)


@pytest.mark.parametrize("block, next_id", [(0, 2), (0, -1), (3, 1)],
                         ids=["in_use", "negative", "identity_reserved"])
def test_parse_rejects_a_next_id_not_above_every_node_id(desk_spec, block, next_id):
    doc = to_document(desk_spec)
    doc["blocks"][block]["next_id"] = next_id
    with pytest.raises(FormatError, match="next_id"):
        parse_document(doc)


def test_parse_rejects_a_repeated_node_id():
    g = GraphAssembler(Shape(8, 4, 4))
    g.wire(g.chain((INPUT, 0), OpKind.GELU), 0, OUTPUT, 0)
    doc = to_document(a.make_network(4, (32, 32), (1,), (8,), 10, blocks=[g.finish()]))
    nodes = doc["blocks"][0]["nodes"]
    assert nodes == [{"id": 2, "op": "GELU"}]
    parse_document(json.dumps(doc))
    nodes.append({"id": 2, "op": "Softmax"})  # used to parse as a Softmax block
    with pytest.raises(FormatError, match="node id 2 is listed twice"):
        parse_document(json.dumps(doc))


def gelu_block_doc(node_id: int) -> dict:
    """A one-GELU block's network document with the GELU at node_id."""
    g = GraphAssembler(Shape(8, 4, 4))
    g.wire(g.chain((INPUT, 0), OpKind.GELU), 0, OUTPUT, 0)
    doc = to_document(a.make_network(4, (32, 32), (1,), (8,), 10, blocks=[g.finish()]))
    block = doc["blocks"][0]
    block["nodes"][0]["id"] = node_id
    block["edges"] = [[node_id if v == 2 else v for v in e] for e in block["edges"]]
    return doc


@pytest.mark.parametrize("node_id", [0, 1, -3])
def test_parse_rejects_a_node_id_that_is_not_interior(node_id):
    parse_document(json.dumps(gelu_block_doc(2)))
    # id 0 or 1 used to validate as doubled ports; -3 used to validate, cost and walk
    with pytest.raises(FormatError, match=f"node id {node_id} is not an interior id: "
                                          "0 and 1 are the virtual input and output"):
        parse_document(json.dumps(gelu_block_doc(node_id)))


@pytest.mark.parametrize("keys", [("010",), ("+10",), ("1_0",), (" 10",), ("10", "010")])
def test_parse_rejects_a_non_canonical_couple_key(desk_spec, keys):
    doc = to_document(desk_spec)
    couples = doc["blocks"][0]["couples"]  # mbconv4: node 10 couples with 15
    partners = couples.pop("10")
    couples.update((k, partners) for k in keys)
    with pytest.raises(FormatError, match="couple key"):
        parse_document(json.dumps(doc))


def test_parse_rejects_a_repeated_couple_partner(desk_spec):
    doc = to_document(desk_spec)
    couples = doc["blocks"][0]["couples"]  # mbconv4: node 10 couples with 15
    assert couples["10"] == [15] and couples["15"] == [10]
    couples["10"] = [15, 15]  # used to parse, validate, and digest unlike [15]
    with pytest.raises(FormatError, match="couple key '10' lists a partner twice"):
        parse_document(json.dumps(doc))


@pytest.mark.parametrize("where", [
    lambda doc: (doc["network"]["input_resolution"], 0),
    lambda doc: (doc["network"]["stages"][0], "channels"),
    lambda doc: (doc["network"], "num_classes"),
    lambda doc: (doc["blocks"][0], "next_id"),
], ids=["input_resolution", "channels", "num_classes", "next_id"])
@pytest.mark.parametrize("value", [24.0, True, "24"], ids=["float", "bool", "string"])
def test_integer_fields_refuse_other_json_types(desk_spec, where, value):
    doc = to_document(desk_spec)
    container, key = where(doc)
    container[key] = value
    with pytest.raises(FormatError, match="must be a JSON integer"):
        parse_document(json.dumps(doc))


def test_dot_identity_block_renders_passthrough():
    text = to_dot(a.build("identity", Shape(4, 4, 4)))
    check_dot(text)
    assert '"b0_in" -> "b0_out"' in text


def test_dot_attention_contains_core_labels():
    text = to_dot(a.build("attention2h", Shape(8, 16, 16)))
    check_dot(text)
    for label in ("Matmul1", "Softmax", "Matmul2", "RelPosBias"):
        assert label in text
    assert "pair " in text  # coupled nodes are annotated


def test_dot_network_renders_every_block(desk_spec):
    text = to_dot(desk_spec)
    check_dot(text)
    assert text.count("subgraph") == len(desk_spec.blocks)
    assert '"stem"' in text and '"head"' in text


def test_dot_bytes_are_pinned():
    # The README network, and a block whose couple groups are chained
    # (x <-> y, y <-> z form one group) next to a plain pair u <-> w.
    # A deliberate change of these bytes updates the pins and is recorded
    # in CHANGES.md.
    blocks = [a.build(v, Shape(c, s, s)) for v, c, s in
              [("mbconv4", 24, 4), ("mbconv4", 24, 4), ("resnet_basic", 48, 2), ("resnet_basic", 48, 2)]]
    readme = a.make_network(12, (32, 32), (2, 2), (24, 48), 10, blocks=blocks)
    g = GraphAssembler(Shape(8, 4, 4))
    x, y, z = g.add(OpKind.GELU), g.add(OpKind.CONV1), g.add(OpKind.SIGMOID)
    u, w = g.add(OpKind.BATCH_NORM), g.add(OpKind.GELU)
    for src, dst in [(INPUT, u), (u, x), (x, y), (y, z), (z, w), (w, OUTPUT)]:
        g.wire(src, 0, dst, 0)
    g.couple(x, y)
    g.couple(y, z)
    g.couple(u, w)
    chained = to_dot(g.finish())
    assert chained.count("pair 0") == 3 and chained.count("pair 1") == 2
    got = [hashlib.sha256(text.encode()).hexdigest() for text in (to_dot(readme), chained)]
    assert got == ["0e8d659ba8147636abf7fa09c23766494294492743f845f101f659c94a5a9e45",
                   "53e5e65303120083be687b272b3fe60abf736ba31a9070dc4625719bcd742ac3"]


def test_dot_of_fuzzed_networks_is_well_formed():
    for seed in range(10):
        check_dot(to_dot(fuzz_network(seed, steps=25)))


def test_document_is_canonical_json():
    spec = fuzz_network(3)
    raw = serialize(spec)
    parsed = json.loads(raw)
    assert raw == (json.dumps(parsed, sort_keys=True, separators=(",", ":")) + "\n").encode()
