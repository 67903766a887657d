"""Canonical JSON interchange for networks.

Topology only: parameters are never serialized, they are regenerated from
a seed.  The canonical form lists nodes in topological order, sorts edges
lexicographically and emits keys sorted with fixed separators, so equal
networks serialize to identical bytes on every platform.
"""

from __future__ import annotations

import json

from .errors import FormatError
from .graph import BlockGraph, Edge, topo_order
from .network import NetworkSpec, StageSpec
from .ops import OP_BY_NAME, Shape

FORMAT_VERSION = 1


def _int(value, what: str) -> int:
    """A JSON integer; bools, floats and strings are refused, not truncated."""
    if type(value) is not int:
        raise FormatError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _ints(values, what: str) -> tuple[int, ...]:
    return tuple(_int(v, what) for v in values)


def block_to_json(block: BlockGraph) -> dict:
    return {
        "input_shape": list(block.input_shape),
        "next_id": block.next_id,
        "nodes": [{"id": v, "op": block.ops[v].value} for v in topo_order(block)],
        "edges": sorted([list(e) for e in block.edges]),
        "couples": {str(v): sorted(p) for v, p in sorted(block.couples.items())},
    }


def block_from_json(d: dict) -> BlockGraph:
    try:
        shape = Shape(*_ints(d["input_shape"], "input_shape"))
        ops = {}
        for n in d["nodes"]:
            name = n["op"]
            if name not in OP_BY_NAME:
                raise FormatError(f"unknown op {name!r}")
            ops[_int(n["id"], "node id")] = OP_BY_NAME[name]
        edges = tuple(Edge(*_ints(e, "edge")) for e in d["edges"])
        # Object keys are strings in JSON, so couple keys are decimal strings.
        couples = {int(v): _ints(ps, "couple partner") for v, ps in d["couples"].items()}
        return BlockGraph(shape, ops, edges, couples, _int(d["next_id"], "next_id"))
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed block document: {exc}") from exc


def to_document(spec: NetworkSpec) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "network": {
            "in_channels": spec.in_channels,
            "stem_out_channels": spec.stem_out_channels,
            "input_resolution": list(spec.input_resolution),
            "num_classes": spec.num_classes,
            "stages": [
                {"n_blocks": st.n_blocks, "channels": st.channels, "spatial": list(st.spatial)}
                for st in spec.stages
            ],
        },
        "blocks": [block_to_json(b) for b in spec.blocks],
    }


def document_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def serialize(spec: NetworkSpec) -> bytes:
    return document_bytes(to_document(spec))


def parse_document(data) -> NetworkSpec:
    if isinstance(data, (bytes, str)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise FormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError("document must be a JSON object")
    if data.get("format_version") != FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {data.get('format_version')!r}")
    try:
        net = data["network"]
        stages = tuple(
            StageSpec(_int(s["n_blocks"], "n_blocks"), _int(s["channels"], "channels"),
                      _ints(s["spatial"], "spatial"))
            for s in net["stages"]
        )
        blocks = tuple(block_from_json(b) for b in data["blocks"])
        return NetworkSpec(
            in_channels=_int(net["in_channels"], "in_channels"),
            stem_out_channels=_int(net["stem_out_channels"], "stem_out_channels"),
            input_resolution=_ints(net["input_resolution"], "input_resolution"),
            stages=stages,
            blocks=blocks,
            num_classes=_int(net["num_classes"], "num_classes"),
        )
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed network document: {exc}") from exc
