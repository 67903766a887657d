"""Canonical JSON interchange for networks.

Topology only: parameters are never serialized, they are regenerated from
a seed.  The canonical form lists nodes in topological order, sorts edges
lexicographically and emits keys sorted with fixed separators, so equal
networks serialize to identical bytes on every platform.
"""

from __future__ import annotations

import json
from typing import Optional

from .errors import FormatError
from .graph import OUTPUT, BlockGraph, Edge, topo_order
from .network import NetworkSpec, StageSpec
from .ops import OP_BY_NAME, Shape

FORMAT_VERSION = 1


def json_int(value, what: str) -> int:
    """A JSON integer; bools, floats and strings are refused, not truncated."""
    if type(value) is not int:
        raise FormatError(f"{what} must be a JSON integer, got {value!r}")
    return value


def json_ints(values, what: str, n: Optional[int] = None) -> tuple[int, ...]:
    """A JSON list of integers, of length n when n is given."""
    out = tuple(json_int(v, what) for v in values)
    if n is not None and len(out) != n:
        raise FormatError(f"{what} must hold {n} integers, got {values!r}")
    return out


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
        shape = Shape(*json_ints(d["input_shape"], "input_shape"))
        ops = {}
        for n in d["nodes"]:
            name = n["op"]
            if name not in OP_BY_NAME:
                raise FormatError(f"unknown op {name!r}")
            v = json_int(n["id"], "node id")
            if v <= OUTPUT:
                raise FormatError(f"node id {v} is not an interior id: 0 and 1 are the virtual input and output")
            if v in ops:
                raise FormatError(f"node id {v} is listed twice")
            ops[v] = OP_BY_NAME[name]
        edges = tuple(Edge(*json_ints(e, "edge")) for e in d["edges"])
        couples = {}
        for key, ps in d["couples"].items():
            v = int(key)  # object keys are strings in JSON, so a couple key is a decimal id
            if str(v) != key:
                raise FormatError(f"couple key {key!r} is not a node id in canonical decimal form")
            couples[v] = json_ints(ps, "couple partner")
            if len(set(couples[v])) != len(couples[v]):
                raise FormatError(f"couple key {key!r} lists a partner twice")
        next_id, top = json_int(d["next_id"], "next_id"), max(ops, default=OUTPUT)
        if next_id <= top:  # edits hand out ids from next_id on
            raise FormatError(f"next_id {next_id} must be above every node id (max {top})")
        return BlockGraph(shape, ops, edges, couples, next_id)
    except FormatError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
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


def canonical_json(obj) -> str:
    """The one JSON encoding of every document, report and log line the
    package writes: sorted keys, no spaces, one trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def serialize(spec: NetworkSpec) -> bytes:
    return canonical_json(to_document(spec)).encode()


def parse_document(data) -> NetworkSpec:
    if isinstance(data, (bytes, str)):
        try:
            data = json.loads(data)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise FormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError("document must be a JSON object")
    if data.get("format_version") != FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {data.get('format_version')!r}")
    try:
        net = data["network"]
        stages = tuple(
            StageSpec(json_int(s["n_blocks"], "n_blocks"), json_int(s["channels"], "channels"),
                      json_ints(s["spatial"], "spatial", 2))
            for s in net["stages"]
        )
        blocks = tuple(block_from_json(b) for b in data["blocks"])
        return NetworkSpec(
            in_channels=json_int(net["in_channels"], "in_channels"),
            stem_out_channels=json_int(net["stem_out_channels"], "stem_out_channels"),
            input_resolution=json_ints(net["input_resolution"], "input_resolution", 2),
            stages=stages,
            blocks=blocks,
            num_classes=json_int(net["num_classes"], "num_classes"),
        )
    except FormatError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed network document: {exc}") from exc
