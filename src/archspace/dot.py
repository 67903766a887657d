"""Graphviz DOT rendering of blocks and networks.

Node labels carry the op name and its output shape; members of a couple
group share a "pair k" annotation.  Output is deterministic (sorted
iteration everywhere) and uses only plain quoted identifiers.
"""

from __future__ import annotations

from .graph import BlockGraph, INPUT, OUTPUT, bfs_reachable, infer_shapes
from .network import NetworkSpec


def _couple_groups(block: BlockGraph) -> dict[int, int]:
    group: dict[int, int] = {}
    k = 0
    for v in sorted(block.couples):
        if v not in group:
            group.update(dict.fromkeys(bfs_reachable(block.couples, (v,)) | {v}, k))
            k += 1
    return group


def _block_lines(block: BlockGraph, prefix: str, title: str) -> list[str]:
    shapes = infer_shapes(block)
    groups = _couple_groups(block)
    lines = [f'  subgraph "cluster_{prefix}" {{', f'    label="{title}";']
    lines.append(f'    "{prefix}_in" [label="input\\n{block.input_shape}", shape=oval];')
    lines.append(f'    "{prefix}_out" [label="output\\n{block.input_shape}", shape=oval];')
    for v in sorted(block.ops):
        out = shapes[v].out_shapes[0]
        label = f"{block.ops[v].value}\\n{out}"
        if v in groups:
            label += f"\\npair {groups[v]}"
        lines.append(f'    "{prefix}_{v}" [label="{label}", shape=box];')

    def name(v):
        if v == INPUT:
            return f"{prefix}_in"
        if v == OUTPUT:
            return f"{prefix}_out"
        return f"{prefix}_{v}"

    for e in sorted(block.edges):
        lines.append(f'    "{name(e.src)}" -> "{name(e.dst)}" [taillabel="{e.src_port}", headlabel="{e.dst_port}"];')
    lines.append("  }")
    return lines


def to_dot(obj: BlockGraph | NetworkSpec) -> str:
    if isinstance(obj, BlockGraph):
        lines = ["digraph block {"]
        lines.extend(_block_lines(obj, "b0", f"block {obj.input_shape}"))
        lines.append("}")
        return "\n".join(lines) + "\n"

    spec = obj
    lines = ["digraph network {"]
    lines.append(f'  "stem" [label="stem\\n{spec.in_channels}->{spec.stem_out_channels}", shape=house];')
    prev = "stem"
    pos = 0
    for si, st in enumerate(spec.stages):
        t = f"transition{si}"
        lines.append(f'  "{t}" [label="maxpool s2 + proj\\n->{st.channels}", shape=house];')
        lines.append(f'  "{prev}" -> "{t}";')
        prev = t
        for _ in range(st.n_blocks):
            prefix = f"b{pos}"
            lines.extend(_block_lines(spec.blocks[pos], prefix, f"block {pos} {spec.blocks[pos].input_shape}"))
            lines.append(f'  "{prev}" -> "{prefix}_in";')
            prev = f"{prefix}_out"
            pos += 1
    lines.append(f'  "head" [label="global avg + fc\\n->{spec.num_classes}", shape=house];')
    lines.append(f'  "{prev}" -> "head";')
    lines.append("}")
    return "\n".join(lines) + "\n"
