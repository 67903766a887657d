"""Training-free network scoring.

The headline score is the Shannon entropy of the normalized nine interior
deciles (10% .. 90%, linear interpolation on the sorted spectrum) of the
empirical Fisher eigenvalues, computed per block and averaged.

The Fisher matrix is a self-contained desk-scale surrogate, not a
reimplementation of any published construction: project the block output
onto a fixed random unit vector u, differentiate s_i = <u, flatten(block(x_i))>
with respect to every block parameter, and average the per-sample gradient
outer products, F = (1/B) sum g_i g_i^T.  Only block parameters are scored;
stem/transition/head parameters are excluded and reports say so.

The (B, P) gradient matrix G comes from reverse mode: one sweep of the
interpreter's backward rules per chunk of rows, where row i carries u on
sample i, so BatchNorm's coupling of the samples is kept exactly.  The
spectrum never builds the P x P matrix when P > B: F = G^T G / B has at most
B nonzero eigenvalues, those of the B x B Gram matrix G G^T / B, and the
other P - B are exact zeros, and there is no parameter ceiling.  So a block
with P > 5 B has at most one nonzero decile (none past 10 B) and scores
exactly 0, the entropy of one nonzero decile, whatever its gradients: it is
scored 0 without drawing a batch, sweeping or solving.  Central finite
differences (``fd_gradients``) remain as the test oracle for the gradients.

Baseline proxies for ablation plumbing: negparams / negflops (``cost_score``
of a network total, negated so maximization prefers smaller; ``evolve``
passes its ledger total) and a seeded random draw.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
import numpy as np

from .cost import network_cost
from .errors import check_at_least
from .graph import OUTPUT, BlockGraph, topo_order
from .interpreter import ParamStore, forward, forward_tape, init_params, vjp_rows
from .network import NetworkSpec
from .ops import Cost
from .rng import Rng

DEFAULT_BATCH = 64
MIN_BATCH = 10
DEFAULT_FD_STEP = 1e-4
# Cotangent elements per reverse sweep once rows span the whole batch.
_SWEEP_ELEMENTS = 1 << 18


class ProxyId(Enum):
    VKDNW = "vkdnw"
    NEG_PARAMS = "negparams"
    NEG_FLOPS = "negflops"
    RANDOM = "random"


# Each cost proxy and the field of a network's Cost total that it negates.
COST_PROXIES = {ProxyId.NEG_PARAMS: "params", ProxyId.NEG_FLOPS: "flops"}


@dataclass(frozen=True)
class FisherSpectrum:
    eigenvalues: tuple[float, ...]   # non-increasing, all >= 0
    deciles: tuple[float, ...]       # the 9 interior deciles, ascending


@dataclass(frozen=True)
class ProxyScore:
    value: float
    per_block: tuple[float, ...]
    proxy_id: ProxyId

    def to_json(self) -> dict:
        out = {"proxy_id": self.proxy_id.value, "value": self.value,
               "per_block": list(self.per_block)}
        if self.proxy_id is ProxyId.VKDNW:
            out["scored_parameters"] = "block parameters only"
        return out


def _param_entries(block: BlockGraph, store: ParamStore) -> list[tuple[int, str, np.ndarray]]:
    """Flat parameter layout: topo node order, insertion-ordered names."""
    return [(v, name, arr) for v in topo_order(block)
            for name, arr in store.tensors.get(v, {}).items()]


def block_gradients(block: BlockGraph, store: ParamStore, batch: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(B, P) gradients of s_i = <u, flatten(y_i)> by reverse mode, with the
    columns of ``fd_gradients``.

    Rows are swept in chunks that keep each cotangent within _SWEEP_ELEMENTS
    values once BatchNorm has spread the rows over the batch.
    """
    tape = forward_tape(block, store, batch)
    b = batch.shape[0]
    ct = u.reshape(1, 1, *tape.values[(OUTPUT, 0)].shape[1:])
    rows = tape.rows_per_sweep(_SWEEP_ELEMENTS)
    entries = _param_entries(block, store)
    grads = np.empty((b, sum(arr.size for _, _, arr in entries)))
    for start in range(0, b, rows):
        r = min(rows, b - start)
        per_node = vjp_rows(tape, np.broadcast_to(ct, (r, *ct.shape[1:])), start)
        col = 0
        for v, name, arr in entries:
            grads[start:start + r, col:col + arr.size] = per_node[v][name].reshape(r, -1)
            col += arr.size
    return grads


def fd_gradients(
    block: BlockGraph,
    store: ParamStore,
    batch: np.ndarray,
    u: np.ndarray,
    h: float = DEFAULT_FD_STEP,
) -> np.ndarray:
    """(B, P) central finite-difference gradients of s_i = <u, flatten(y_i)>.

    Perturbs the store in place and restores each entry bit-exactly; the
    whole batch is forwarded jointly so BatchNorm statistics stay
    consistent between the +h and -h evaluations.
    """
    arrays = [arr for _, _, arr in _param_entries(block, store)]
    total = sum(a.size for a in arrays)
    b = batch.shape[0]

    def project(y):
        return y.reshape(b, -1) @ u

    grads = np.empty((b, total))
    col = 0
    for arr in arrays:
        flat = arr.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            s_plus = project(forward(block, store, batch))
            flat[j] = orig - h
            s_minus = project(forward(block, store, batch))
            flat[j] = orig
            grads[:, col] = (s_plus - s_minus) / (2.0 * h)
            col += 1
    return grads


def spectrum_of(g: np.ndarray) -> FisherSpectrum:
    """Eigenvalues of F = G^T G / B for the (B, P) gradient matrix G, and
    their nine interior deciles.

    The nonzero eigenvalues are those of the smaller Gram matrix, G G^T when
    B <= P or G^T G when P < B, over B, padded with exact zeros to length P.
    Gram eigenvalues at or below lambda_0 max(B, P) eps, lambda_0 the
    largest, are roundoff (negative ones included) and count as zeros.
    """
    b, p = g.shape
    if p == 0:
        return FisherSpectrum((), (0.0,) * 9)
    lam = np.linalg.eigvalsh(g @ g.T if b <= p else g.T @ g)
    lam[lam <= lam[-1] * max(b, p) * np.finfo(float).eps] = 0.0
    eig = np.zeros(p)
    eig[:lam.size] = lam / b
    eig.sort()
    deciles = np.quantile(eig, [k / 10 for k in range(1, 10)], method="linear")
    return FisherSpectrum(tuple(eig[::-1]), tuple(float(d) for d in deciles))


def vkdnw_score(spectrum: FisherSpectrum) -> float:
    """Entropy of the normalized deciles; 0*log0 = 0 and all-zero scores 0."""
    deciles = spectrum.deciles
    if len(deciles) != 9:
        raise ValueError(f"expected 9 deciles, got {len(deciles)}")
    total = float(sum(deciles))
    if total <= 0.0:
        return 0.0
    ent = 0.0
    for d in deciles:
        lam = d / total
        if lam > 0.0:
            ent -= lam * math.log(lam)
    return ent


def _score_one_block(block: BlockGraph, rng: Rng, batch_size: int) -> float:
    store = init_params(block, rng.child(0))
    # No parameters, or P > 5 B: at most one nonzero decile, which scores 0.
    if not 0 < store.scalar_count() <= 5 * batch_size:
        return 0.0
    shape = block.input_shape
    batch = rng.child(1).normal((batch_size, *shape))
    u = rng.child(2).normal(shape.numel)
    u = u / np.linalg.norm(u)
    return vkdnw_score(spectrum_of(block_gradients(block, store, batch, u)))


def cost_score(total: Cost, proxy_id: ProxyId) -> ProxyScore:
    """A cost proxy's score of a network total; KeyError for another proxy."""
    return ProxyScore(-float(getattr(total, COST_PROXIES[proxy_id])), (), proxy_id)


def check_scoring_args(proxy_id: ProxyId, batch_size: int, threads: int) -> None:
    """ValueError unless threads >= 1 and, for vkdnw (the one proxy drawing a batch), batch_size >= MIN_BATCH."""
    check_at_least("threads", threads, 1)
    if proxy_id is ProxyId.VKDNW and batch_size < MIN_BATCH:
        raise ValueError(f"batch_size must be >= {MIN_BATCH} for vkdnw, got {batch_size}")


def score_network(
    spec: NetworkSpec,
    proxy_id: ProxyId,
    rng: Rng,
    batch_size: int = DEFAULT_BATCH,
    threads: int = 1,
) -> ProxyScore:
    """Score a network; per-block streams derive from (rng, block index),
    so serial and threaded runs produce identical values."""
    check_scoring_args(proxy_id, batch_size, threads)
    if proxy_id in COST_PROXIES:
        return cost_score(network_cost(spec).total, proxy_id)
    if proxy_id is ProxyId.RANDOM:
        return ProxyScore(rng.uniform(), (), proxy_id)

    def one(i: int) -> float:
        return _score_one_block(spec.blocks[i], rng.child(i), batch_size)

    indices = range(len(spec.blocks))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_block = tuple(pool.map(one, indices))
    else:
        per_block = tuple(one(i) for i in indices)
    return ProxyScore(float(np.mean(per_block)) if per_block else 0.0, per_block, proxy_id)
