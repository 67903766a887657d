import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import archspace as a
from archspace.rng import Rng, _philox_block


def test_zero_std_gives_zero_tensor():
    t = Rng(0).normal((2, 2, 2), mean=0.0, std=0.0)
    assert t.shape == (2, 2, 2)
    assert np.all(t == 0.0)


def test_same_seed_same_stream():
    a = Rng(7).normal((3, 4, 5))
    b = Rng(7).normal((3, 4, 5))
    assert a.tobytes() == b.tobytes()


def test_different_seeds_differ():
    a = Rng(42).normal((4, 4, 4))
    b = Rng(43).normal((4, 4, 4))
    assert np.any(a != b)


def test_stream_is_pure_function_of_call_sequence():
    r = Rng(5)
    seq = [r.next_u64() for _ in range(10)] + [r.uniform() for _ in range(5)] + list(r.normal(7))
    r2 = Rng(5)
    seq2 = [r2.next_u64() for _ in range(10)] + [r2.uniform() for _ in range(5)] + list(r2.normal(7))
    assert seq == seq2


def test_children_are_independent_and_deterministic():
    root = Rng(11)
    a = root.child(1, 2).normal(8)
    b = root.child(1, 3).normal(8)
    assert np.any(a != b)
    assert np.array_equal(a, Rng(11).child(1, 2).normal(8))
    # key-based derivation: consuming the parent does not move children
    root2 = Rng(11)
    root2.normal(100)
    assert np.array_equal(root2.child(1, 2).normal(8), a)
    # path composition
    assert np.array_equal(Rng(11).child(1).child(2).normal(8), a)


def test_uniform_and_randbelow_ranges():
    r = Rng(3)
    u = np.array([r.uniform() for _ in range(1000)])
    assert np.all((u >= 0.0) & (u < 1.0))
    draws = [r.randbelow(7) for _ in range(500)]
    assert set(draws) == set(range(7))
    assert 0 <= r.randbelow(2 ** 64) < 2 ** 64


def test_randbelow_refuses_bounds_a_word_cannot_cover():
    # Above 2**64 no word lies below the rejection limit, which is 0.
    for n in (0, -3, 2 ** 64 + 1, 2 ** 70):
        with pytest.raises(ValueError):
            Rng(1).randbelow(n)


def test_normal_moments_are_sane():
    z = Rng(123).normal(200_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02
    z2 = Rng(123).normal((10, 10), mean=3.0, std=0.5)
    assert abs(z2.mean() - 3.0) < 0.5


class _BarePhilox:
    """The documented stream: the key's raw Philox words, drawn up front in one
    call and read in order, with the conversions the `Rng` docstrings name."""

    def __init__(self, rng, n_words):
        key = np.array([rng.seed, rng.stream], dtype=np.uint64)
        self.words = [int(w) for w in np.random.Philox(key=key).random_raw(n_words)]
        self.pos = 0

    def take(self, n):
        out = self.words[self.pos:self.pos + n]
        assert len(out) == n, "reference stream exhausted"
        self.pos += n
        return out

    def next_u64(self):
        return self.take(1)[0]

    def uniform(self):
        return (self.next_u64() >> 11) * 2.0 ** -53

    def randbelow(self, n):
        limit = (2 ** 64 // n) * n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def normal(self, size):
        pairs = (size + 1) // 2
        u1 = (np.array(self.take(pairs), dtype=np.uint64) >> np.uint64(11)).astype(np.float64)
        u1 = (u1 + 1.0) * 2.0 ** -53
        u2 = (np.array(self.take(pairs), dtype=np.uint64) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        r, theta = np.sqrt(-2.0 * np.log(u1)), (2.0 * np.pi) * u2
        return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1).ravel()[:size]


def test_draws_read_the_bare_philox_stream():
    sizes = (1, 63, 64, 65, 4097)
    # 2**63 + 1 rejects almost half its words, so the rejection loop runs
    bounds = (1, 7, 2 ** 32, 2 ** 63 + 1)
    for rng in (Rng(0), Rng(2**64 - 1, 2**64 - 1), Rng(2**64 - 1).child(3), Rng(0xC4).child(1, 17),
                Rng(5).child(0, 2**70)):
        ref = _BarePhilox(rng, 40_000)
        for i, size in enumerate(sizes):
            kinds = ("next_u64", "uniform", "randbelow", "normal")
            for kind in kinds[i % 4:] + kinds[:i % 4]:
                if kind == "normal":
                    got, want = rng.normal(size), ref.normal(size)
                    assert got.shape == (size,) and got.tobytes() == want.tobytes(), size
                elif kind == "randbelow":
                    for j in range(size):
                        n = bounds[j % len(bounds)]
                        assert rng.randbelow(n) == ref.randbelow(n)
                else:
                    got = [getattr(rng, kind)() for _ in range(size)]
                    assert got == [getattr(ref, kind)() for _ in range(size)], (kind, size)
                    assert all(type(g) is type(got[0]) for g in got)
        assert type(rng.next_u64()) is int


def test_philox_block_matches_numpy():
    words = Rng(0x9E37).child(5)
    keys = [(0, 0), (2 ** 64 - 1, 2 ** 64 - 1)] + [(words.next_u64(), words.next_u64()) for _ in range(100)]
    for k0, k1 in keys:
        want = np.random.Philox(key=np.array([k0, k1], dtype=np.uint64)).random_raw(64)
        got = [w for c in range(1, 17) for w in _philox_block(c, k0, k1)]
        assert got == [int(w) for w in want], (k0, k1)


def test_normal_after_word_draws_reads_the_bare_philox_stream():
    # The first words of a normal come from the block the word draws began.
    for k in (1, 2, 3, 4, 5):
        for size in (1, 2, 5, 6, 7, 9, 16):
            rng = Rng(0xC4).child(k, size)
            ref = _BarePhilox(rng, 64)
            assert [rng.next_u64() for _ in range(k)] == [ref.next_u64() for _ in range(k)]
            assert rng.normal(size).tobytes() == ref.normal(size).tobytes(), (k, size)
            assert [rng.next_u64() for _ in range(7)] == [ref.next_u64() for _ in range(7)], (k, size)
            assert rng.normal(3).tobytes() == ref.normal(3).tobytes(), (k, size)


def _mixed_draws(rng, barrier=None):
    """3,000 words with a normal(9) after every 50th; waits at `barrier` first."""
    if barrier is not None:
        barrier.wait()
    out = []
    for i in range(1, 3001):
        out.append(rng.next_u64())
        if i % 50 == 0:
            out.append(rng.normal(9).tobytes())
    return out


def test_threads_drawing_at_once_read_their_serial_streams():
    """Streams drawn from worker threads at once, words and arrays mixed,
    read the same words as the same draws made serially."""
    root = Rng(0x7EAD)
    want = [_mixed_draws(root.child(t)) for t in range(4)]
    barrier = threading.Barrier(4, timeout=60)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(lambda t: _mixed_draws(root.child(t), barrier), range(4)))
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_search_steps_build_no_numpy_philox(desk_spec, monkeypatch):
    """Word draws compute their blocks in-module: a walk and a cost-proxy
    search run with numpy's Philox unavailable."""
    def refuse(*args, **kwargs):
        raise AssertionError("a word draw built a numpy Philox")

    monkeypatch.setattr(np.random, "Philox", refuse)
    budget = a.Budget(50_000, 250_000, 1_000_000, 20_000_000)
    _, log = a.random_walk(desk_spec, a.WalkConfig(steps=300, budget=budget, seed=7))
    assert len(log.edits()) > 100
    _, log = a.evolve(desk_spec, a.EvoConfig(total_steps=20, population_size=16,
                                             proxy_id=a.ProxyId.NEG_FLOPS, budget=budget, seed=0))
    assert len(log.records) == 21
