"""Byte pins for every convolution path: parameter init, forward and block
gradients over blocks holding all seven convolution ops, and the cost
report and logits of networks whose stage-leading op is each fusable conv
(so its weights take the projection's input channels), of one whose stages
all lead with a non-fusable op (so each keeps its 1x1 projection), and of
one with a fused and an unfused stage.

The pins were recorded before the convolution geometry moved into one
table, the network logits again when GELU moved from scipy's erf to
math.erf, the unfused and mixed networks before a stage's input channels
and projection fusion were read from NetworkSpec.stage_entry, and the
BatchNorm block's gradients when BatchNorm's backward rule began to take
per-sample rows itself; a deliberate change of these bytes updates them and
is recorded in CHANGES.md.
"""

import hashlib
import json

import archspace as a
from archspace.graph import INPUT, BlockGraph
from archspace.mutation import TEMPLATES, Edit, apply_block_edit
from archspace.ops import Shape
from archspace.proxy import block_gradients
from archspace.rng import Rng

ALL_CONVS = ("attention", "conv1", "conv3", "convdepth3", "convdepth5", "convexp4_convred4")


def _block(shape, templates):
    """The templates in order along the block's one path."""
    blk = BlockGraph.identity(shape)
    for name in reversed(templates):
        ids = tuple(range(blk.next_id, blk.next_id + len(TEMPLATES[name].ops)))
        blk = apply_block_edit(blk, Edit("add", 0, INPUT, blk.digest, template=name,
                                         cut_edge=blk.out_edges(INPUT)[0], new_ids=ids))
    return blk


def _digest(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


BLOCK_PINS = {
    "convs": ("e971e600d6a3a12677e1f55ba3b5e9a18d808c18227b66d68b3e8af2e04ee232",
              "df821f8bc55d0c79d6c593b5f79b3b5ab69180da6c3d1f39912100dc4bd3bb1b",
              "64765cd302bcb43632980bac1398a5a17fbec9ea27f2f5e7b00f9dd35a61269b"),
    "convs_batchnorm": ("4d1e67baa80c54134e96ac2bf78b56270437ee69ede719277fcbabb2cef6c435",
                        "5fc44489f101cfa94ba8cf18ee47c6b97a50edb0827ef65e445082a74f20673b",
                        "0a3c5c73e98aea9d542a9fc92a264e33a6fa8c433d5255767b330d2cc29bcbf1"),
}

# Per network: the templates along each stage's leading block, and whether
# each stage's projection fuses into that block's first conv.
NETWORKS = {
    "conv1": ((("conv1", "gelu"),) * 2, [True, True]),
    "conv3": ((("conv3", "gelu"),) * 2, [True, True]),
    "convexp4_convred4": ((("convexp4_convred4", "gelu"),) * 2, [True, True]),
    "attention": ((("attention", "gelu"),) * 2, [True, True]),
    "unfused": ((("convdepth3", "conv1"), ("batchnorm", "conv3")), [False, False]),
    "mixed": ((("conv3", "gelu"), ("convdepth5", "conv1")), [True, False]),
}

NETWORK_PINS = {
    "conv1": ("d442c380a88356d0e7020b1277b11016dd90356a7028388640101e88c7204941",
              "f0903f8f6dcc8129302e558a535294fd5ddd1a86e3631ed5e5bff7d20c4a1ece"),
    "conv3": ("d62ae382096a66dc27b299dd52e113af579f86c217ff2b66c6c951f4edf9f398",
              "6e5a4453cf24e18cf1c2fcbd094edba9748466633b4b37327ec4cb7b2e7377cd"),
    "convexp4_convred4": ("8b70540aab1acb471813757999a820f294511fe23e7f0da5d06fae34afe57092",
                          "5e701d1d1aebe93e0ff3c0c8dfbb52398761ec94ecaae7f25add1fc526e3bdde"),
    "attention": ("ec6efc0c6ba836087a5901e82b3cbf45f4816532b8ba233cef7288b5f036abcb",
                  "7c16750cb79994ec0714687e0dbb3df89d2fd16d66895f8ee9c00d1e9d51e47c"),
    "unfused": ("ce1f0ea7424880784f9d818cf0ab7830ed080f6eb07307b13003f753da3b6252",
                "725cf6411ecf5fcf09411bc3356b9e79e83cd71c3bfcb85743ee6e7102512fa1"),
    "mixed": ("b1971dec19e018fa9d3bee0acb697dac3cac25839db7ae62e98a2f3f8c215f81",
              "d3a908e164552d6497625a8f58f70808ecc8285e1bf95d78ae01fae4db2933e1"),
}


def _block_bytes(templates):
    shape = Shape(8, 4, 4)
    blk = _block(shape, templates)
    store = a.init_params(blk, Rng(11))
    params = [arr for v in sorted(store.tensors) for _, arr in sorted(store.tensors[v].items())]
    x = Rng(12).normal((4, *shape))
    u = Rng(13).normal(tuple(shape))
    return (_digest(*params), _digest(a.forward(blk, store, x)),
            _digest(block_gradients(blk, store, x, u)))


def _network_bytes(stage_templates, fused):
    spec0 = a.make_network(6, (32, 32), (1, 1), (8, 16), 10)
    blocks = [_block(st.shape, t) for st, t in zip(spec0.stages, stage_templates)]
    spec = a.make_network(6, (32, 32), (1, 1), (8, 16), 10, blocks=blocks)
    rep = a.network_cost(spec)
    assert [t.fused for t in rep.transitions] == fused
    report = json.dumps(rep.to_json(), sort_keys=True).encode()
    plan = a.assemble_network(spec)
    params = a.init_network_params(plan, Rng(21).child(0))
    logits = a.forward_network(plan, params, Rng(21).child(1).normal((2, 3, 32, 32)))
    return hashlib.sha256(report).hexdigest(), _digest(logits)


def test_conv_block_bytes_are_pinned():
    got = {name: _block_bytes(t) for name, t in [
        ("convs", ALL_CONVS),
        ("convs_batchnorm", ALL_CONVS[:3] + ("batchnorm",) + ALL_CONVS[3:]),
    ]}
    assert got == BLOCK_PINS


def test_fused_conv_network_bytes_are_pinned():
    got = {name: _network_bytes(*net) for name, net in NETWORKS.items()}
    assert got == NETWORK_PINS
