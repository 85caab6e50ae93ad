import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvreport.rng import Rng, derive_seed, splitmix64


def test_splitmix64_deterministic():
    s1, out1 = splitmix64(42)
    s2, out2 = splitmix64(42)
    assert (s1, out1) == (s2, out2)
    assert 0 <= out1 < 2**64


def test_same_seed_same_stream():
    a = Rng(7)
    b = Rng(7)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_different_seeds_differ():
    assert [Rng(1).next_u64() for _ in range(4)] != [Rng(2).next_u64() for _ in range(4)]


def test_derive_seed_label_sensitivity():
    assert derive_seed(5, "a") != derive_seed(5, "b")
    assert derive_seed(5, "a") == derive_seed(5, "a")
    assert derive_seed(5, "a") != derive_seed(6, "a")


def test_child_streams_independent_of_parent_consumption():
    parent = Rng(99)
    child_before = parent.child("x")
    parent.next_u64()
    child_after = parent.child("x")
    assert child_before.next_u64() == child_after.next_u64()


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_random_in_unit_interval(seed):
    r = Rng(seed)
    for _ in range(20):
        u = r.random()
        assert 0.0 <= u < 1.0


def test_integers_bounds_and_coverage():
    r = Rng(3)
    draws = [r.integers(2, 7) for _ in range(2000)]
    assert min(draws) == 2 and max(draws) == 6
    assert set(draws) == {2, 3, 4, 5, 6}


def test_normal_moments():
    samples = 1.0 + Rng(11).normal((20000,), std=2.0)
    assert abs(samples.mean() - 1.0) < 0.05
    assert abs(samples.std() - 2.0) < 0.05


def test_normal_shape_and_dtype():
    arr = Rng(0).normal((3, 4), std=0.1)
    assert arr.shape == (3, 4)
    assert arr.dtype == np.float64


def test_shuffle_is_permutation_and_deterministic():
    items1 = list(range(50))
    items2 = list(range(50))
    Rng(21).shuffle(items1)
    Rng(21).shuffle(items2)
    assert items1 == items2
    assert sorted(items1) == list(range(50))
    items3 = list(range(50))
    Rng(22).shuffle(items3)
    assert items3 != items1


def test_stream_is_splitmix64_reference():
    r = Rng(1234567)
    assert [r.next_u64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


def test_stream_equals_splitmix64_steps():
    state, expected = 2**64 - 3, []
    for _ in range(8):
        state, out = splitmix64(state)
        expected.append(out)
    r = Rng(2**64 - 3)
    assert [r.next_u64() for _ in range(8)] == expected


def test_array_and_scalar_draws_share_values_and_counter():
    scalar = Rng(77)
    reference = [scalar.next_u64() for _ in range(48)]
    assert Rng(77)._u64(48).tolist() == reference
    mixed, got = Rng(77), []
    for k in (3, 1, 0, 7, 2, 11, 1, 15):
        got += mixed._u64(k).tolist()
        got.append(mixed.next_u64())
    assert got == reference


def _scalar_box_muller(rng, n):
    out = []
    while len(out) < n:
        u1 = 1.0 - rng.random()
        u2 = rng.random()
        r = math.sqrt(-2.0 * math.log(u1))
        out += [r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)]
    return np.array(out[:n])


@pytest.mark.parametrize("seed", [0, 5, 2**63 + 1])
def test_normal_matches_scalar_box_muller(seed):
    # NumPy's SIMD log/cos/sin may differ from libm by an ULP, so not bitwise.
    got = Rng(seed).normal((4001,))
    np.testing.assert_array_max_ulp(got, _scalar_box_muller(Rng(seed), 4001), maxulp=2)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 6])
def test_normal_consumes_whole_pairs(n):
    r = Rng(9)
    r.normal((n,))
    after = Rng(9)
    for _ in range(2 * ((n + 1) // 2)):
        after.next_u64()
    assert r.next_u64() == after.next_u64()
