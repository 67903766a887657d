import numpy as np

from archspace.rng import Rng


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


def test_normal_moments_are_sane():
    z = Rng(123).normal(200_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02
    z2 = Rng(123).normal((10, 10), mean=3.0, std=0.5)
    assert abs(z2.mean() - 3.0) < 0.5
