import math

import numpy as np
import pytest

import archspace as a
from archspace.graph import GraphAssembler, INPUT, OUTPUT
from archspace.interpreter import init_params
from archspace.ops import OpKind, Shape
from archspace import proxy
from archspace.proxy import (
    FisherSpectrum,
    ProxyId,
    block_gradients,
    cost_score,
    fd_gradients,
    score_network,
    spectrum_of,
    vkdnw_score,
)
from archspace.rng import Rng

from test_gradients import pool_problem
from test_vkdnw_pins import BATCH as POOL_BATCH, pool_networks

LOG9 = math.log(9.0)


def spectrum(deciles):
    return FisherSpectrum((), tuple(float(d) for d in deciles))


def test_uniform_deciles_hit_the_entropy_ceiling():
    assert abs(vkdnw_score(spectrum([3.7] * 9)) - LOG9) < 1e-12


def test_point_mass_scores_zero():
    assert vkdnw_score(spectrum([0, 0, 0, 0, 5.0, 0, 0, 0, 0])) == 0.0


def test_all_zero_deciles_score_zero():
    assert vkdnw_score(spectrum([0.0] * 9)) == 0.0


def test_example_spectrum_value():
    # normalized (0.1 x 8, 0.2): entropy = -(0.8 ln 0.1 + 0.2 ln 0.2)
    got = vkdnw_score(spectrum([1, 1, 1, 1, 1, 1, 1, 1, 2]))
    want = -(8 * 0.1 * math.log(0.1) + 0.2 * math.log(0.2))
    assert abs(got - want) < 1e-12
    assert abs(got - 2.16395) < 1e-4


def test_scale_invariance():
    rng = Rng(5)
    for _ in range(200):
        d = np.abs(rng.normal(9)) + 1e-9
        for c in (1e-6, 0.5, 3.0, 1e7):
            assert abs(vkdnw_score(spectrum(d)) - vkdnw_score(spectrum(c * d))) < 1e-12


def test_bounds_under_fuzzed_spectra():
    rng = Rng(6)
    for _ in range(2000):
        d = np.abs(rng.normal(9)) * (10.0 ** rng.randbelow(8))
        s = vkdnw_score(spectrum(d))
        assert 0.0 <= s <= LOG9 + 1e-12


def test_deciles_are_permutation_invariant():
    rng = Rng(7)
    eig = np.abs(rng.normal(40))
    perm = eig[np.argsort(rng.normal(40))]
    # G = diag(sqrt(eig)) has F = G^T G / 40 = diag(eig) / 40
    g1, g2 = np.diag(np.sqrt(eig)), np.diag(np.sqrt(perm))
    assert spectrum_of(g1).deciles == pytest.approx(spectrum_of(g2).deciles, abs=0)


def _single_conv_block(c=1, h=3, w=3, extra=()):
    g = GraphAssembler(Shape(c, h, w))
    v = g.chain((INPUT, 0), OpKind.CONV1, *extra)
    g.wire(v, 0, OUTPUT, 0)
    return g.finish()


def test_fd_matches_analytic_gradient_linear():
    blk = _single_conv_block()
    store = init_params(blk, Rng(0))
    rng = Rng(1)
    batch = rng.normal((10, 1, 3, 3))
    u = rng.normal(9)
    u /= np.linalg.norm(u)
    g = fd_gradients(blk, store, batch, u, h=1e-4)
    # s_i = w <u, x_i> + b sum(u): ds/dw = <u, x_i>, ds/db = sum(u)
    want_w = batch.reshape(10, -1) @ u
    want_b = np.full(10, u.sum())
    assert np.max(np.abs(g[:, 0] - want_w) / np.maximum(np.abs(want_w), 1e-12)) < 1e-5
    assert np.max(np.abs(g[:, 1] - want_b) / np.abs(want_b)) < 1e-5


def test_fd_matches_analytic_gradient_through_sigmoid():
    blk = _single_conv_block(extra=(OpKind.SIGMOID,))
    store = init_params(blk, Rng(3))
    wval = float(store.tensors[2]["weight"][0, 0, 0, 0])
    rng = Rng(4)
    batch = rng.normal((10, 1, 3, 3))
    u = rng.normal(9)
    u /= np.linalg.norm(u)
    g = fd_gradients(blk, store, batch, u, h=1e-4)
    y = wval * batch  # bias is zero at init
    sig = 1.0 / (1.0 + np.exp(-y))
    dw = ((sig * (1 - sig) * batch).reshape(10, -1) @ u)
    db = ((sig * (1 - sig)).reshape(10, -1) @ u)
    assert np.max(np.abs(g[:, 0] - dw) / np.maximum(np.abs(dw), 1e-9)) < 1e-5
    assert np.max(np.abs(g[:, 1] - db) / np.maximum(np.abs(db), 1e-9)) < 1e-5


def test_fisher_of_single_parameter_block_matches_mean_square():
    g = GraphAssembler(Shape(2, 2, 2))
    v = g.chain((INPUT, 0), OpKind.CONV_DEPTH3)  # 18 params, pure linear
    g.wire(v, 0, OUTPUT, 0)
    blk = g.finish()
    store = init_params(blk, Rng(0))
    rng = Rng(1)
    batch = rng.normal((12, 2, 2, 2))
    u = rng.normal(8)
    u /= np.linalg.norm(u)
    grads = fd_gradients(blk, store, batch, u)
    fisher = grads.T @ grads / 12
    np.testing.assert_allclose(np.diag(fisher), np.mean(grads * grads, axis=0), rtol=1e-12)
    eig = np.linalg.eigvalsh(fisher)
    assert eig.min() >= -1e-10
    # the spectrum of G is the Fisher's, largest first
    np.testing.assert_allclose(spectrum_of(grads).eigenvalues, eig[::-1], atol=1e-10 * eig.max())


def test_fisher_is_psd_on_builder_block():
    blk = a.build("squeeze_excite", Shape(4, 3, 3))
    store = init_params(blk, Rng(2))
    rng = Rng(3)
    batch = rng.normal((10, 4, 3, 3))
    u = rng.normal(36)
    u /= np.linalg.norm(u)
    grads = fd_gradients(blk, store, batch, u)
    fisher = grads.T @ grads / 10
    assert np.linalg.eigvalsh(fisher).min() >= -1e-10
    # scaling the Fisher (G by sqrt(17.3)) leaves the decile entropy unchanged
    s1 = vkdnw_score(spectrum_of(grads))
    s2 = vkdnw_score(spectrum_of(math.sqrt(17.3) * grads))
    assert abs(s1 - s2) < 1e-12


def test_parameter_free_block_scores_zero():
    g = GraphAssembler(Shape(2, 2, 2))
    v = g.chain((INPUT, 0), OpKind.GELU, OpKind.SIGMOID)
    g.wire(v, 0, OUTPUT, 0)
    spec = a.make_network(2, (16, 16), (1,), (2,), 10, blocks=[g.finish()])
    score = score_network(spec, ProxyId.VKDNW, Rng(0), batch_size=10)
    assert score.value == 0.0 and score.per_block == (0.0,)


def test_identity_network_scores_zero():
    spec = a.make_network(4, (32, 32), (1, 1), (8, 16), 10)
    assert score_network(spec, ProxyId.VKDNW, Rng(0), batch_size=10).value == 0.0


def test_negparams_is_negated_overhead_for_identity_config():
    spec = a.make_network(4, (32, 32), (1, 1), (8, 16), 10)
    score = score_network(spec, ProxyId.NEG_PARAMS, Rng(0))
    assert score.value == -float(a.network_cost(spec).total.params)


@pytest.mark.parametrize("proxy, field", [(ProxyId.NEG_PARAMS, 0), (ProxyId.NEG_FLOPS, 1)])
def test_cost_score_negates_the_network_total(desk_spec, proxy, field):
    total = a.network_cost(desk_spec).total
    score = cost_score(total, proxy)
    assert score == a.ProxyScore(-float(total[field]), (), proxy)
    assert score_network(desk_spec, proxy, Rng(0)) == score


@pytest.mark.parametrize("proxy", [ProxyId.VKDNW, ProxyId.RANDOM])
def test_cost_score_refuses_proxies_that_are_not_costs(proxy):
    with pytest.raises(KeyError):
        cost_score(a.Cost(1, 1), proxy)


def test_small_batch_rejected():
    # Refused before any block is scored, so a parameter-free network is refused too.
    for block in (_single_conv_block(c=2, h=2, w=2), a.build("identity", Shape(2, 2, 2))):
        spec = a.make_network(2, (16, 16), (1,), (2,), 10, blocks=[block])
        with pytest.raises(ValueError, match="^batch_size must be >= 10 for vkdnw, got 4$"):
            score_network(spec, ProxyId.VKDNW, Rng(0), batch_size=4)


@pytest.mark.parametrize("threads", [0, -1])
def test_fewer_than_one_thread_rejected(threads):
    spec = a.make_network(4, (24, 24), (1,), (4,), 10, blocks=[a.build("resnet_basic", Shape(4, 3, 3))])
    with pytest.raises(ValueError, match="threads must be >= 1"):
        score_network(spec, ProxyId.VKDNW, Rng(0), batch_size=10, threads=threads)


def test_pool_network_scores_from_the_smaller_gram_without_svd(monkeypatch):
    """No SVD runs, and each eigensolve takes a min(B, P) square Gram, in
    scoring and on every block of the network swept directly (scoring sweeps
    only the blocks with P <= 5 B)."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    grams, gs = [], []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: grams.append(m.shape) or eigvalsh(m))
    monkeypatch.setattr(proxy, "spectrum_of", lambda g: gs.append(g.shape) or spectrum_of(g))
    net = pool_networks()[2]
    score = score_network(net, ProxyId.VKDNW, Rng(0).child(2), batch_size=POOL_BATCH)
    assert score.value > 0.0
    scored = len(gs)
    for block in net.blocks:
        proxy.spectrum_of(block_gradients(block, *pool_problem(block)))
    assert len(gs) - scored == len(net.blocks) and any(p < b for b, p in gs)  # block 2 has P = 16
    assert grams == [(min(g),) * 2 for g in gs]


def test_vkdnw_score_deterministic_and_thread_invariant():
    blocks = [a.build("squeeze_excite", Shape(4, 3, 3)), a.build("resnet_basic", Shape(4, 3, 3))]
    spec = a.make_network(4, (24, 24), (2,), (4,), 10, blocks=blocks)
    s1 = score_network(spec, ProxyId.VKDNW, Rng(9), batch_size=10)
    s2 = score_network(spec, ProxyId.VKDNW, Rng(9), batch_size=10, threads=3)
    assert s1.value == s2.value and s1.per_block == s2.per_block
    assert 0.0 <= s1.value <= LOG9
    assert all(0.0 <= b <= LOG9 for b in s1.per_block)


def test_random_proxy_is_seeded():
    spec = a.make_network(4, (32, 32), (1, 1), (8, 16), 10)
    v1 = score_network(spec, ProxyId.RANDOM, Rng(5)).value
    v2 = score_network(spec, ProxyId.RANDOM, Rng(5)).value
    v3 = score_network(spec, ProxyId.RANDOM, Rng(6)).value
    assert v1 == v2 != v3


def test_walked_network_whose_dense_spectrum_failed_now_scores():
    # A seed-5, 20-step walk from a small desk network reaches a network on
    # whose block 1 the dense finite-difference Fisher had an eigenvalue
    # below -1e-10, so scoring raised; the Gram-dual spectrum has none.
    blocks = [
        a.build("attention2h", Shape(8, 4, 4)),
        a.build("squeeze_excite", Shape(8, 4, 4)),
        a.build("resnet_basic", Shape(8, 2, 2)),
        a.build("squeeze_excite", Shape(8, 2, 2)),
    ]
    seed_net = a.make_network(8, (32, 32), (2, 2), (8, 8), 10, blocks=blocks)
    budget = a.Budget(1_500, 2_800, 0, 10**12)
    net, _ = a.random_walk(seed_net, a.WalkConfig(steps=20, budget=budget, seed=5))
    score = score_network(net, ProxyId.VKDNW, Rng(0).child(1))
    assert len(score.per_block) == len(net.blocks)
    assert all(math.isfinite(v) and 0.0 <= v <= LOG9 for v in (score.value, *score.per_block))


def test_blocks_with_more_than_ten_parameters_per_sample_score_exactly_zero():
    g = GraphAssembler(Shape(8, 2, 2))
    v = g.chain((INPUT, 0), OpKind.CONV3)  # 8*8*9 + 8 = 584 scalars > 10 * 10
    g.wire(v, 0, OUTPUT, 0)
    spec = a.make_network(8, (16, 16), (1,), (8,), 10, blocks=[g.finish()])
    assert score_network(spec, ProxyId.VKDNW, Rng(0), batch_size=10).per_block == (0.0,)

