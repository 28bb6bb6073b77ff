"""Random stream correctness against a scalar step-by-step reimplementation."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from uadb.rng import GOLDEN, Stream, derive, indices, mix64, uniform_at

_MASK = (1 << 64) - 1


def _scalar_outputs(seed: int, k: int) -> list[int]:
    """Oracle: sequential splitmix64, one plain-integer step at a time."""
    out = []
    state = seed & _MASK
    for _ in range(k):
        state = (state + GOLDEN) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append(z ^ (z >> 31))
    return out


def test_mix64_matches_scalar_oracle():
    for z in [0, 1, 42, GOLDEN, _MASK, 2**63, 123456789123456789]:
        w = z & _MASK
        w = ((w ^ (w >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        w = ((w ^ (w >> 27)) * 0x94D049BB133111EB) & _MASK
        assert mix64(z) == w ^ (w >> 31)


def test_mix64_zero_fixed_point():
    assert mix64(0) == 0


@given(st.integers(min_value=0, max_value=_MASK), st.integers(min_value=1, max_value=64))
def test_u64_matches_scalar_oracle(seed, k):
    got = Stream(seed).u64(k)
    assert got.tolist() == _scalar_outputs(seed, k)


def test_block_equals_one_at_a_time():
    """Counter-based construction: chunking must not change the sequence."""
    block = Stream(7).u64(10)
    s = Stream(7)
    singles = np.concatenate([s.u64(1) for _ in range(10)])
    assert np.array_equal(block, singles)
    s2 = Stream(7)
    mixed = np.concatenate([s2.u64(3), s2.u64(4), s2.u64(3)])
    assert np.array_equal(block, mixed)


def test_uniform_range_and_construction():
    u = Stream(3).uniform(10_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    raw = Stream(3).u64(10_000)
    assert np.array_equal(u, (raw >> np.uint64(11)) * 2.0**-53)


def test_normal_moments():
    z = Stream(11).normal(200_000)
    assert np.all(np.isfinite(z))
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02


def test_normal_odd_count_prefix():
    """normal(k) for odd k is the first k entries of the even-padded draw."""
    a = Stream(5).normal(7)
    b = Stream(5).normal(8)
    assert np.array_equal(a, b[:7])


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=300))
def test_permutation_is_a_permutation(seed, n):
    p = Stream(seed).permutation(n)
    assert sorted(p.tolist()) == list(range(n))


def test_permutation_deterministic():
    assert np.array_equal(Stream(9).permutation(50), Stream(9).permutation(50))


def test_index_bounds():
    s = Stream(4)
    draws = [s.index(7) for _ in range(500)]
    assert min(draws) >= 0 and max(draws) <= 6
    assert len(set(draws)) == 7  # all residues reachable


_OPS = st.one_of(
    st.just(("next_uniform", 1)),
    st.tuples(st.just("index"), st.integers(min_value=1, max_value=2**40)),
    st.tuples(st.just("u64"), st.integers(min_value=1, max_value=5)),
    st.tuples(st.just("uniform"), st.integers(min_value=1, max_value=5)),
)


@given(st.integers(min_value=0, max_value=_MASK), st.lists(_OPS, max_size=30))
def test_scalar_and_block_draws_share_one_counter(seed, ops):
    """Any interleaving of scalar and block draws reads one uniform block in order."""
    total = sum(1 if op == "index" else k for op, k in ops)
    block = Stream(seed).uniform(total + 1)
    raw = Stream(seed).u64(total)
    s = Stream(seed)
    at = 0
    for op, k in ops:
        if op == "next_uniform":
            u = s.next_uniform()
            assert type(u) is float and u == block[at]
        elif op == "index":  # k is the bound here; one draw
            i = s.index(k)
            assert 0 <= i < k and i == min(int(block[at] * k), k - 1)
        elif op == "u64":
            assert np.array_equal(s.u64(k), raw[at : at + k])
        else:
            assert np.array_equal(s.uniform(k), block[at : at + k])
        at += 1 if op == "index" else k
    assert s.next_uniform() == block[total]  # the counter stands at the total length


_DRAW_AT = st.tuples(
    st.integers(min_value=0, max_value=_MASK),  # seed
    st.integers(min_value=1, max_value=4096),  # counter
    st.integers(min_value=1, max_value=2**40),  # index bound
)


@given(st.lists(_DRAW_AT, min_size=1, max_size=8))
def test_uniform_at_matches_scalar_draws_at_the_same_counter(cases):
    """Many streams at once, each at its own counter, read what each stream's scalar draws read there."""
    seeds = np.array([seed for seed, _, _ in cases], dtype=np.uint64)
    counters = np.array([k for _, k, _ in cases], dtype=np.uint64)
    u = uniform_at(seeds, counters)
    picks = indices(u, np.array([bound for _, _, bound in cases]))
    for (seed, k, bound), got, pick in zip(cases, u.tolist(), picks.tolist()):
        before = Stream(seed)
        before.u64(k - 1)
        assert got == before.next_uniform()
        before = Stream(seed)
        before.u64(k - 1)
        assert pick == before.index(bound)
    # broadcast: one stream's draws 1..k in a row equal its uniform block
    row = uniform_at(seeds[:1, None], np.arange(1, 9, dtype=np.uint64))
    assert np.array_equal(row, Stream(cases[0][0]).uniform(8)[None])


def test_derive_tag_sensitivity():
    assert derive(1, 2, 3) != derive(1, 3, 2)
    assert derive(1, 2) != derive(1, 3)
    assert derive(1) != derive(2)
    assert derive(5, 0) != derive(5)  # appending a tag always re-mixes


def test_derive_matches_fold_oracle():
    s = mix64((123 + GOLDEN + 4) & _MASK)
    s = mix64((s + GOLDEN + 9) & _MASK)
    assert derive(123, 4, 9) == s
