import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bentkit import is_bent, resiliency_report
from bentkit.rand import (
    XorShift64Star,
    random_balanced,
    random_bent,
    random_derivative_triple,
    random_mm_bent_triple,
    random_permutation,
    random_resilient,
    random_resilient_triple,
)


def test_prng_sequence_is_pinned():
    # frozen so corpus seeds stay reproducible across refactors
    r = XorShift64Star(1)
    assert [r.next_u64() for _ in range(4)] == [
        5180492295206395165,
        12380297144915551517,
        13389498078930870103,
        5599127315341312413,
    ]
    assert XorShift64Star(0).next_u64() == 973819730272012410  # nonzero default


def test_prng_determinism_and_ranges():
    a, b = XorShift64Star(7), XorShift64Star(7)
    assert [a.randrange(100) for _ in range(50)] == [b.randrange(100) for _ in range(50)]
    c = XorShift64Star(9)
    vals = [c.randint(3, 5) for _ in range(100)]
    assert set(vals) <= {3, 4, 5}
    with pytest.raises(ValueError):
        c.randrange(0)


def reference_bits(rng, k):
    """The word-by-word loop bits() replaced: quadratic in k."""
    out = 0
    got = 0
    while got < k:
        out = (out << 64) | rng.next_u64()
        got += 64
    return out >> (got - k) if k else 0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, (1 << 64) - 1), k=st.sampled_from([0, 1, 63, 64, 65, 4096, 1 << 16]))
def test_bits_agrees_with_the_word_loop(seed, k):
    fast, slow = XorShift64Star(seed), XorShift64Star(seed)
    assert fast.bits(k) == reference_bits(slow, k)
    assert fast.state == slow.state  # the same words were drawn


def test_shuffle_is_a_permutation():
    rng = XorShift64Star(11)
    items = list(range(17))
    rng.shuffle(items)
    assert sorted(items) == list(range(17))


def test_random_balanced_and_permutation():
    rng = XorShift64Star(13)
    f = random_balanced(6, rng)
    assert f.is_balanced
    p = random_permutation(3, rng)
    assert p.is_permutation
    q = random_permutation(3, rng, fix_zero=True)
    assert q(0) == 0 and q.is_permutation


def test_random_bent_families_all_bent():
    rng = XorShift64Star(17)
    for _ in range(12):
        assert is_bent(random_bent(6, rng))


def test_random_resilient_orders():
    rng = XorShift64Star(19)
    for n, t in [(3, 1), (4, 1), (5, 2), (6, 1)]:
        for _ in range(5):
            assert resiliency_report(random_resilient(n, t, rng)).resiliency >= t


def test_random_resilient_triple_xor_condition():
    rng = XorShift64Star(23)
    for n, t in [(3, 0), (4, 1), (6, 1)]:
        fs = random_resilient_triple(n, t, rng)
        assert resiliency_report(fs[0] ^ fs[1] ^ fs[2]).resiliency >= t


def test_mm_triple_and_derivative_triple():
    rng = XorShift64Star(29)
    f1, f2, f3 = random_mm_bent_triple(6, rng)
    assert is_bent(f1 ^ f2 ^ f3)
    triple, a = random_derivative_triple(6, rng)
    assert triple.certified
    assert a != 0 and a < (1 << 6)
