"""Command-line surface.

Exit codes: 0 success, 1 validation failure, 2 I/O or format error,
3 seed network outside the budget (``BudgetError``).  Identical
invocations (same flags and seed) produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import astuple

from . import builders
from .cost import Budget, network_cost
from .dot import to_dot
from .errors import ArchSpaceError, BudgetError, FormatError, InfeasibleShape
from .interpreter import forward_network, init_network_params
from .network import assemble_network, make_network, validate_network
from .protocol import TASKS, emit_protocol
from .proxy import DEFAULT_BATCH, ProxyId, check_scoring_args, score_network
from .rng import Rng
from .search import EvoConfig, SearchLog, WalkConfig, random_walk, replay_edits
from .search import evolve as run_evolve
from .serialize import canonical_json, parse_document, serialize


def _parse_budget(text: str) -> Budget:
    try:
        pmin, pmax, fmin, fmax = (int(p) for p in text.split(","))
        return Budget(pmin, pmax, fmin, fmax)
    except ValueError as exc:
        raise FormatError(f"--budget must be params_min,params_max,flops_min,flops_max: {exc}") from exc


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int list (N,N,...): {text!r}") from None


def _parse_resolution(text: str) -> tuple[int, int]:
    try:
        h, w = text.split("x") if "x" in text else (text, text)
        return int(h), int(w)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid resolution (N or HxW): {text!r}") from None


def _read_spec(path: str):
    try:
        with open(path, "rb") as fh:
            return parse_document(fh.read())
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _write_out(data: str | bytes, out: str | None) -> None:
    if isinstance(data, str):
        data = data.encode()
    if out:
        with open(out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)


def _emit_json(obj: dict, out: str | None) -> None:
    _write_out(canonical_json(obj), out)


def _cmd_build(args) -> int:
    variants = args.variant.split(",")
    if len(variants) == 1:
        variants = variants * len(args.stages)
    if len(variants) != len(args.stages):
        raise FormatError("need one variant, or one per stage")
    spec = make_network(args.stem, args.resolution, args.stages, args.dims,
                        args.classes, in_channels=args.in_channels)
    for bi, block in enumerate(spec.blocks):
        spec = spec.with_block(bi, builders.build(variants[spec.block_stage(bi)], block.input_shape))
    _write_out(serialize(spec), args.out)
    return 0


def _cmd_validate(args) -> int:
    spec = _read_spec(args.spec)
    bad = validate_network(spec)
    _emit_json({"ok": not bad, "violations": bad}, args.out)
    return 0 if not bad else 1


def _cmd_cost(args) -> int:
    spec = _read_spec(args.spec)
    _emit_json(network_cost(spec).to_json(), args.out)
    return 0


def _refused_as_format(check, *args, **kwargs):
    """check(...), a flag value it refuses (ValueError) as a FormatError; wraps
    only these checks, since a BudgetError is a ValueError too and keeps exit 3."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _cmd_walk(args) -> int:
    cfg = _refused_as_format(WalkConfig, steps=args.steps, budget=_parse_budget(args.budget),
                             seed=args.seed, p_eliminate=args.p_eliminate, n_try=args.n_try,
                             record_every=args.record_every)
    spec = _read_spec(args.spec)
    final, log = random_walk(spec, cfg)
    _write_out(log.to_jsonl(), args.out)
    if args.final_net:
        _write_out(serialize(final), args.final_net)
    return 0


def _cmd_search(args) -> int:
    cfg = _refused_as_format(EvoConfig, total_steps=args.steps, population_size=args.population,
                             steps_per_candidate=args.steps_per_candidate,
                             proxy_id=ProxyId(args.proxy), budget=_parse_budget(args.budget),
                             seed=args.seed, p_eliminate=args.p_eliminate, n_try=args.n_try,
                             batch_size=args.batch_size, threads=args.threads)
    spec = _read_spec(args.spec)
    best, log = run_evolve(spec, cfg)
    _write_out(serialize(best), args.out)
    if args.log:
        _write_out(log.to_jsonl(), args.log)
    return 0


def _cmd_score(args) -> int:
    _refused_as_format(check_scoring_args, ProxyId(args.proxy), args.batch_size, args.threads)
    spec = _read_spec(args.spec)
    bad = validate_network(spec)
    if bad:
        _emit_json({"ok": False, "violations": bad}, None)
        return 1
    score = score_network(spec, ProxyId(args.proxy), Rng(args.seed),
                          batch_size=args.batch_size, threads=args.threads)
    out = score.to_json()
    out["seed"] = args.seed
    if score.proxy_id is ProxyId.VKDNW:  # the only proxy that draws a batch
        out["batch_size"] = args.batch_size
    _emit_json(out, args.out)
    return 0


def _cmd_eval(args) -> int:
    spec = _read_spec(args.spec)
    plan = assemble_network(spec)
    rng = Rng(args.seed)
    params = init_network_params(plan, rng.child(0))
    x = rng.child(1).normal((args.batch, spec.in_channels, *spec.input_resolution))
    logits = forward_network(plan, params, x)
    _emit_json({
        "shape": list(logits.shape),
        "sha256": hashlib.sha256(logits.tobytes()).hexdigest(),
        "mean": float(logits.mean()),
        "seed": args.seed,
    }, args.out)
    return 0


def _cmd_dot(args) -> int:
    spec = _read_spec(args.spec)
    if args.block is not None and not 0 <= args.block < len(spec.blocks):
        raise FormatError(f"--block must be in [0, {len(spec.blocks)}), got {args.block}")
    obj = spec if args.block is None else spec.blocks[args.block]
    _write_out(to_dot(obj), args.out)
    return 0


def _cmd_protocol(args) -> int:
    if args.task is None:
        raise FormatError(f"--task is required; choose from {TASKS}")
    _emit_json(_refused_as_format(emit_protocol, args.task, args.gpus), args.out)
    return 0


def _cmd_replay(args) -> int:
    spec = _read_spec(args.spec)
    try:
        with open(args.log) as fh:
            edits = SearchLog.from_jsonl(fh.read()).edits()
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise FormatError(f"cannot read log {args.log}: {exc!r}") from exc
    _write_out(serialize(replay_edits(spec, edits)), args.out)
    return 0


def _add_common(p, *, seed=True, out=True, budget=False):
    p.add_argument("--config", help="JSON file with default values for this command's flags")
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if out:
        p.add_argument("--out", help="output file (default stdout)")
    if budget:
        p.add_argument("--budget", default=",".join(map(str, astuple(EvoConfig.budget))),
                       help="params_min,params_max,flops_min,flops_max")


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a FormatError (exit 2, one stderr line),
    not as a usage block and SystemExit; its subcommand parsers inherit this."""

    def error(self, message):
        raise FormatError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="archspace", description="Graph-based architecture space toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="emit a network of builder blocks")
    p.add_argument("--variant", default="identity",
                   help=f"one of {builders.VARIANTS}, or a per-stage comma list")
    p.add_argument("--stem", type=int, default=16)
    p.add_argument("--resolution", type=_parse_resolution, default=(32, 32))
    p.add_argument("--stages", type=_parse_ints, default=(2, 2), help="blocks per stage")
    p.add_argument("--dims", type=_parse_ints, default=(24, 48), help="channels per stage")
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--in-channels", type=int, default=3)
    _add_common(p, seed=False)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("validate", help="validate a network document")
    p.add_argument("spec")
    _add_common(p, seed=False)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("cost", help="params/FLOPs report")
    p.add_argument("spec")
    _add_common(p, seed=False)
    p.set_defaults(fn=_cmd_cost)

    p = sub.add_parser("walk", help="budget-constrained random walk")
    p.add_argument("spec")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--record-every", type=int, default=WalkConfig.record_every)
    p.add_argument("--p-eliminate", type=float, default=WalkConfig.p_eliminate)
    p.add_argument("--n-try", type=int, default=WalkConfig.n_try)
    p.add_argument("--final-net", help="also write the final network document here")
    _add_common(p, budget=True)
    p.set_defaults(fn=_cmd_walk)

    p = sub.add_parser("search", help="population search guided by a proxy")
    p.add_argument("spec")
    p.add_argument("--steps", type=int, default=EvoConfig.total_steps)
    p.add_argument("--population", type=int, default=EvoConfig.population_size)
    p.add_argument("--steps-per-candidate", type=int, default=EvoConfig.steps_per_candidate)
    p.add_argument("--proxy", choices=[p.value for p in ProxyId], default=EvoConfig.proxy_id.value)
    p.add_argument("--p-eliminate", type=float, default=EvoConfig.p_eliminate)
    p.add_argument("--n-try", type=int, default=EvoConfig.n_try)
    p.add_argument("--batch-size", type=int, default=EvoConfig.batch_size)
    p.add_argument("--threads", type=int, default=EvoConfig.threads)
    p.add_argument("--log", help="write the search log here (JSONL)")
    _add_common(p, budget=True)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("score", help="proxy score of a network document")
    p.add_argument("spec")
    p.add_argument("--proxy", choices=[p.value for p in ProxyId], default="vkdnw")
    p.add_argument("--batch-size", type=int, default=DEFAULT_BATCH)
    p.add_argument("--threads", type=int, default=1)
    _add_common(p)
    p.set_defaults(fn=_cmd_score)

    p = sub.add_parser("eval", help="forward on seeded random input, print checksum")
    p.add_argument("spec")
    p.add_argument("--batch", type=int, default=2)
    _add_common(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("dot", help="Graphviz rendering")
    p.add_argument("spec")
    p.add_argument("--block", type=int, help="render a single block by position")
    _add_common(p, seed=False)
    p.set_defaults(fn=_cmd_dot)

    p = sub.add_parser("protocol", help="emit the training/evaluation protocol")
    p.add_argument("--task", choices=TASKS)
    p.add_argument("--gpus", type=int, help="GPU count N; omit for symbolic LRs")
    _add_common(p, seed=False)
    p.set_defaults(fn=_cmd_protocol)

    p = sub.add_parser("replay", help="apply a recorded edit log to a seed network")
    p.add_argument("spec")
    p.add_argument("--log", required=True)
    _add_common(p, seed=False)
    p.set_defaults(fn=_cmd_replay)
    return ap


def _parse(ap: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv.  A --config file's entries become flags of the invoked
    subcommand placed before the given ones, so they pass the same conversion
    and checks and the command line overrides them; keys that name no flag
    of that subcommand are ignored."""
    args = ap.parse_args(argv)
    if not args.config:
        return args
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise FormatError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(config, dict):
        raise FormatError(f"config {args.config} must hold a JSON object")
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a.option_strings[0] for a in sub.choices[args.command]._actions
             if a.option_strings and a.dest not in ("help", "config")}
    given = []
    for key, value in config.items():
        flag = flags.get(key.replace("-", "_"))
        if flag is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise FormatError(f"config {args.config}: {flag} must be a string or a number, got {value!r}")
        given.append(f"{flag}={value}")
    return ap.parse_args([argv[0], *given, *argv[1:]])


# Lowest accepted value of the numeric flags that no config or scoring check
# holds.  A comma-list flag is checked entry by entry; an omitted optional
# flag (None) is not.
_FLAG_MINIMUM = {"batch": 1, "stem": 1, "classes": 1, "in_channels": 1,
                 "stages": 1, "dims": 1, "resolution": 1}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        args = _parse(ap, argv)
        for name, low in _FLAG_MINIMUM.items():  # checked after --config defaults apply
            value = getattr(args, name, None)
            entries = value if isinstance(value, (tuple, list)) else (value,)
            if any(v is not None and v < low for v in entries):
                raise FormatError(f"--{name.replace('_', '-')} must be at least {low}, got {value}")
        if hasattr(args, "seed"):  # refused by Rng, which holds the seed's range
            _refused_as_format(Rng, args.seed)
        return args.fn(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InfeasibleShape as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except ArchSpaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
