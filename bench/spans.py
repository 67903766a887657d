"""Span tracing of archspace's layer boundaries, installed from outside.

``Tracer.install()`` points the module-level names through which one
archspace module calls another (for example ``archspace.mutation.infer_shapes``
or ``archspace.search.propose_step``), a few class attributes (the
``CostState`` and ``SearchLog`` methods) and the ``BlockGraph.digest``
cached property at timing wrappers; ``uninstall()`` puts the originals
back.  Both are cheap after the first call, so the wrappers can go on and
off around every sample.  Nothing in ``src/`` is edited.

Each wrapped call is a span inside the span of the wrapped call that
encloses it, if any.  The wrapper keeps running sums only: per function its
calls, inclusive seconds and self seconds (inclusive minus the time of its
child spans), and the summed time of top-level spans.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (layer, metric function name, module, attribute).  An attribute "Cls.meth"
# names a class attribute; everything else is a module-level function.
TARGETS = (
    ("graph", "validate", "archspace.graph", "validate"),
    ("graph", "infer_shapes", "archspace.graph", "infer_shapes"),
    ("graph", "topo_order", "archspace.graph", "topo_order"),
    ("graph", "digest", "archspace.graph", "BlockGraph.digest"),
    ("graph", "bfs_reachable", "archspace.graph", "bfs_reachable"),
    ("mutation", "propose_step", "archspace.mutation", "propose_step"),
    ("mutation", "network_delta", "archspace.mutation", "network_delta"),
    ("mutation", "minimal_coupled_subgraph", "archspace.mutation", "minimal_coupled_subgraph"),
    ("mutation", "template_node_shapes", "archspace.mutation", "template_node_shapes"),
    ("mutation", "apply", "archspace.mutation", "apply"),
    ("mutation", "CostState.from_spec", "archspace.mutation", "CostState.from_spec"),
    ("mutation", "CostState.after_edit", "archspace.mutation", "CostState.after_edit"),
    ("mutation", "rule_violations", "archspace.mutation", "rule_violations"),
    ("mutation", "network_op_flops", "archspace.mutation", "CostState.network_op_flops"),
    ("cost", "network_cost", "archspace.cost", "network_cost"),
    ("cost", "block_cost", "archspace.cost", "block_cost"),
    ("network", "validate_network", "archspace.network", "validate_network"),
    ("network", "assemble_network", "archspace.network", "assemble_network"),
    ("search", "random_walk", "archspace.search", "random_walk"),
    ("search", "evolve", "archspace.search", "evolve"),
    ("search", "replay_edits", "archspace.search", "replay_edits"),
    ("search", "log.append", "archspace.search", "SearchLog.append"),
    ("search", "log.to_jsonl", "archspace.search", "SearchLog.to_jsonl"),
    ("search", "log.from_jsonl", "archspace.search", "SearchLog.from_jsonl"),
    ("search", "log.edits", "archspace.search", "SearchLog.edits"),
    ("serialize", "serialize", "archspace.serialize", "serialize"),
    ("proxy", "score_network", "archspace.proxy", "score_network"),
    ("proxy", "fd_gradients", "archspace.proxy", "fd_gradients"),
    ("proxy", "spectrum_of", "archspace.proxy", "spectrum_of"),
    ("interpreter", "forward", "archspace.interpreter", "forward"),
    ("interpreter", "init_params", "archspace.interpreter", "init_params"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))
NAMES = tuple(f"{layer}.{fn}" for layer, fn, _, _ in TARGETS)


class Tracer:
    """Records spans and per-function counters while installed."""

    def __init__(self):
        n = len(TARGETS)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.incl_s = [0.0] * n
        self.root_s = 0.0        # summed duration of spans with no wrapped parent
        self.accepted = 0        # propose_step calls that returned an edit
        self.fd_columns = 0      # gradient columns built by fd_gradients
        self.spectrum_dim = 0    # summed matrix order seen by spectrum_of
        self.log_bytes = 0       # characters written by SearchLog.to_jsonl
        self._stack: list[list] = []   # per open span: [child seconds]
        self._bindings: list[tuple[object, str, object, object]] = []  # owner, name, original, wrapper
        self.installed = False

    # -- recording ---------------------------------------------------------

    def _wrap(self, i: int, fn):
        stack = self._stack
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        hook = {
            "mutation.propose_step": self._count_accept,
            "proxy.fd_gradients": self._count_columns,
            "proxy.spectrum_of": self._count_dim,
            "search.log.to_jsonl": self._count_log,
        }.get(NAMES[i])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                calls[i] += 1
                incl_s[i] += dur
                self_s[i] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    self.root_s += dur
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _count_accept(self, args, edit) -> None:
        self.accepted += edit is not None

    def _count_columns(self, args, grads) -> None:
        self.fd_columns += grads.shape[1]

    def _count_dim(self, args, spectrum) -> None:
        self.spectrum_dim += args[0].shape[0]

    def _count_log(self, args, text) -> None:
        self.log_bytes += len(text)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        if not self._bindings:
            self._bind()
        for owner, key, _, wrapped in self._bindings:
            setattr(owner, key, wrapped)
        self.installed = True

    def uninstall(self) -> None:
        for owner, key, orig, _ in reversed(self._bindings):
            setattr(owner, key, orig)
        self.installed = False

    def _bind(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "archspace" or name.startswith("archspace."))]
        for i, (_, _, modname, attr) in enumerate(TARGETS):
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[member]
                self._bindings.append((cls, member, raw, self._wrap_member(i, cls, member, raw)))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(i, orig)
            # Every module that imported the function holds its own binding.
            for m in modules:
                for key, value in vars(m).items():
                    if value is orig:
                        self._bindings.append((m, key, orig, wrapped))

    def _wrap_member(self, i: int, cls, member: str, raw):
        if isinstance(raw, functools.cached_property):
            new = functools.cached_property(self._wrap(i, raw.func))
            new.__set_name__(cls, member)
            return new
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap(i, raw.__func__))
        return self._wrap(i, raw)

    # -- summaries -----------------------------------------------------------

    def by_function(self) -> dict[str, tuple[int, float]]:
        return {name: (self.calls[i], self.self_s[i]) for i, name in enumerate(NAMES)}
