import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bentkit import (
    BentTriple, BooleanFunction, is_bent, resiliency_report, rand, serialize_truth_table,
)
from bentkit.cli import main
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


@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda rng: rng.bits(-1),
                 "bit count must be in [0, 67108864], got -1", id="bits-negative"),
    pytest.param(lambda rng: XorShift64Star(-1),
                 "seed must be in [0, 18446744073709551615], got -1", id="seed-negative"),
    pytest.param(lambda rng: XorShift64Star(1 << 64),
                 "seed must be in [0, 18446744073709551615], got 18446744073709551616",
                 id="seed-above-64-bits"),
    pytest.param(lambda rng: XorShift64Star(0x9E3779B97F4A7C15),
                 "the state that seed 0 stands for", id="seed-zero-state"),
])
def test_bad_arguments_raise_with_a_message(call, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        call(XorShift64Star(1))


def test_each_seed_is_its_own_stream():
    # seed 0 stands for the state 0x9E3779B97F4A7C15; the widest seed is kept
    assert XorShift64Star(0).state == 0x9E3779B97F4A7C15
    assert XorShift64Star((1 << 64) - 1).state == (1 << 64) - 1


# every seed but the state that seed 0 stands for
SEEDS = st.integers(0, (1 << 64) - 1).filter(lambda s: s != 0x9E3779B97F4A7C15)


def reference_bits(rng, k):
    """The word-by-word loop bits() replaced: quadratic in k."""
    out = 0
    got = 0
    while got < k:
        out = (out << 64) | rng.next_u64()
        got += 64
    return out >> (got - k) if k else 0


@settings(max_examples=30, deadline=None)
@given(
    seed=SEEDS,
    before=st.sampled_from([0, 1, 200, 255, 256, 300]),
    k=st.sampled_from([0, 1, 63, 64, 65, 4096, 1 << 14, (1 << 14) + 1, 1 << 16]),
)
def test_bits_agrees_with_the_word_loop(seed, before, k):
    # `before` single words first, so a long draw starts anywhere in a block
    fast, slow = XorShift64Star(seed), ReferenceXorShift64Star(seed)
    assert [fast.next_u64() for _ in range(before)] == [
        slow.next_u64() for _ in range(before)]
    assert fast.state == slow.state
    assert fast.bits(k) == reference_bits(slow, k)
    assert fast.state == slow.state  # the same words were drawn


class ReferenceXorShift64Star:
    """The generator one word at a time: every word is one xorshift64*
    step of the state, and every draw comes from bits and next_u64."""

    def __init__(self, seed):
        self.state = seed & ((1 << 64) - 1) or 0x9E3779B97F4A7C15

    def next_u64(self):
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & ((1 << 64) - 1)
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & ((1 << 64) - 1)

    def bits(self, k):
        if k <= 64:
            return self.next_u64() >> (64 - k) if k else 0
        return reference_bits(self, k)

    def randrange(self, n):
        if n <= 0:
            raise ValueError("empty range")
        k = (n - 1).bit_length()
        while True:
            v = self.bits(k)
            if v < n:
                return v

    def randint(self, lo, hi):
        return lo + self.randrange(hi - lo + 1)

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


RANGES = [1, 2, 3, 1 << 64, (1 << 64) + 1] + [
    (1 << k) + d for k in (1, 2, 5, 8, 31, 32, 63) for d in (0, 1)
]


def _draws(rng, n, length):
    """Each draw's value and the state after it, in one fixed order: 300
    calls of randrange, randint and choice in turn, more words than one
    256-word block holds, then a shuffle of `length` items."""
    items = list(range(length))
    calls = [lambda: rng.randrange(n), lambda: rng.randint(-7, n - 8)]
    if items:
        calls.append(lambda: rng.choice(items))
    out = [(calls[c % len(calls)](), rng.state) for c in range(300)]
    rng.shuffle(items)
    return out + [(items, rng.state)]


@settings(max_examples=120, deadline=None)
@given(
    seed=SEEDS,
    n=st.sampled_from(RANGES),
    length=st.sampled_from([0, 1, 2, 17, 64, 1000]),
)
def test_draws_agree_with_the_call_per_word_generator(seed, n, length):
    fast, slow = XorShift64Star(seed), ReferenceXorShift64Star(seed)
    assert _draws(fast, n, length) == _draws(slow, n, length)


def test_jump_rows_are_the_step_applied_k_times():
    table = rand._jump()
    assert table.shape == (64, 256)
    for j in range(64):
        ref = ReferenceXorShift64Star(1 << j)
        row = []
        for _ in range(256):
            ref.next_u64()
            row.append(ref.state)
        assert table[j].tolist() == row, j


def test_a_build_that_draws_nothing_leaves_the_jump_table_unbuilt(
        tmp_path, monkeypatch, capsys):
    f = tmp_path / "f.tt"
    f.write_text(serialize_truth_table(random_mm_bent_triple(4, XorShift64Star(3))[0]))
    monkeypatch.setattr(rand, "_JUMP", None)
    code = main(["build", "restricted-indirect-sum", "--f", str(f), "--g", str(f),
                 "-o", str(tmp_path / "h.tt")])
    assert code == 0, capsys.readouterr().err
    assert rand._JUMP is None


def reference_resilient_triple(n, t, rng):
    """The rejection loop as it was before the balance pre-check: every
    attempt's XOR goes through resiliency_report."""
    for _ in range(rand._TRIPLE_TRIES):
        f1 = random_resilient(n, t, rng)
        f2 = random_resilient(n, t, rng)
        f3 = random_resilient(n, t, rng)
        if resiliency_report(f1 ^ f2 ^ f3).resiliency >= t:
            return f1, f2, f3
    while True:
        masks = [rng.bits(n) for _ in range(3)]
        if all(m.bit_count() >= t + 1 for m in masks) and (
            masks[0] ^ masks[1] ^ masks[2]
        ).bit_count() >= t + 1:
            return tuple(BooleanFunction.linear(n, m, rng.bits(1)) for m in masks)


def _triple_outcome(draw, n, t, seed):
    rng = XorShift64Star(seed)
    try:
        got = [(f.n, f.mask) for f in draw(n, t, rng)]
    except ValueError as exc:
        got = str(exc)
    return got, rng.state


# 0 tries goes straight to the affine fallback, 1 reaches it whenever the
# first attempt is rejected.  With t >= n the first draw raises; the
# fallback alone would search forever for masks of weight > n.
@pytest.mark.parametrize("n, t, tries", [
    (n, t, tries) for n in range(2, 7) for t in (-1, 0, 1, 2) for tries in (0, 1, 400)
    if tries or t < n
])
def test_resilient_triple_agrees_with_the_report_loop(monkeypatch, n, t, tries):
    monkeypatch.setattr(rand, "_TRIPLE_TRIES", tries)
    for seed in range(6):
        want = _triple_outcome(reference_resilient_triple, n, t, seed)
        assert _triple_outcome(random_resilient_triple, n, t, seed) == want


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
    assert isinstance(triple, BentTriple)
    assert a != 0 and a < (1 << 6)
