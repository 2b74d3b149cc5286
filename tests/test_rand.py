import copy
import hashlib
import pickle
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
    random_balanced_field_table,
    random_bent,
    random_class_d_bent,
    random_derivative_triple,
    random_mm_bent,
    random_mm_bent_triple,
    random_permutation,
    random_psap_bent,
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
    # sizes a draw cannot take; an odd bent size could yield a bent function
    # on one variable fewer, and k = 14 a permutation too wide for any
    # 2k <= 26 variables: wrong answers, which the argument fuzz cannot see
    pytest.param(lambda rng: random_mm_bent(5, rng),
                 "a bent function needs an even variable count, got 5", id="mm-odd"),
    pytest.param(lambda rng: random_bent(3, rng),
                 "a bent function needs an even variable count, got 3", id="bent-odd"),
    pytest.param(lambda rng: random_bent(0, rng),
                 "variable count must be in [2, 26], got 0", id="bent-zero"),
    pytest.param(lambda rng: random_psap_bent(7, rng),
                 "a bent function needs an even variable count, got 7", id="psap-odd"),
    pytest.param(lambda rng: random_class_d_bent(5, rng),
                 "a bent function needs an even variable count, got 5", id="class-d-odd"),
    pytest.param(lambda rng: random_mm_bent_triple(5, rng),
                 "a bent function needs an even variable count, got 5", id="mm-triple-odd"),
    pytest.param(lambda rng: random_derivative_triple(1, rng),
                 "variable count must be in [2, 26], got 1", id="derivative-triple-one"),
    pytest.param(lambda rng: random_balanced(0, rng),
                 "variable count must be in [1, 26], got 0", id="balanced-zero"),
    pytest.param(lambda rng: random_resilient(4, -3, rng),
                 "resiliency order t must be in [-1, inf], got -3",
                 id="resilient-t-below-minus-1"),
    pytest.param(lambda rng: random_permutation(14, rng),
                 "k must be in [1, 13], got 14", id="permutation-too-wide"),
])
def test_bad_arguments_raise_with_a_message(call, fragment):
    rng = XorShift64Star(1)
    with pytest.raises(ValueError, match=re.escape(fragment)):
        call(rng)
    assert rng.state == XorShift64Star(1).state  # read before a word is drawn


def test_minus_one_resilient_draws_as_zero_resilient():
    # every function is (-1)-resilient; on 5 of these seeds an M-M draw
    # would need a map to r = 0 coordinates
    for seed in range(20):
        a, b = XorShift64Star(seed), XorShift64Star(seed)
        f = random_resilient(4, -1, a)
        assert f.is_balanced
        assert (f, a.state) == (random_resilient(4, 0, b), b.state)


def test_a_generator_cannot_be_copied():
    # a shallow copy would draw from the same word iterator as the original
    rng = XorShift64Star(3)
    for copier in (copy.copy, copy.deepcopy, pickle.dumps):
        with pytest.raises(TypeError, match="cannot be copied or pickled"):
            copier(rng)


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
        tmp_path, capsys):
    f = tmp_path / "f.tt"
    f.write_text(serialize_truth_table(random_mm_bent_triple(4, XorShift64Star(3))[0]))
    rand._jump.cache_clear()
    code = main(["build", "restricted-indirect-sum", "--f", str(f), "--g", str(f),
                 "-o", str(tmp_path / "h.tt")])
    assert code == 0, capsys.readouterr().err
    assert rand._jump.cache_info().currsize == 0


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


def _tables(functions):
    return [(f.n, f.mask) for f in functions]


def _derivative_triple(rng):
    triple, a = random_derivative_triple(6, rng)
    return _tables([triple.f1, triple.f2, triple.f3]), a


# SHA-256 of repr((draw(rng), rng.state)) for a generator of the given
# seed, taken before the generator read its words from one iterator.  They
# reach the PS_ap and class-D draws and t >= 1, which no pinned build does.
PINNED_DRAWS = {
    "bent-6": (31, lambda rng: _tables([random_bent(6, rng) for _ in range(12)]),
               "adc74d83e949857733dcd334c3526b79d7c50dc77c76aa19ca0a5b581c9da28c"),
    "bent-8": (31, lambda rng: _tables([random_bent(8, rng) for _ in range(12)]),
               "dffe480174785efb6ac3b80da9f0fac5de703048d6a809dbba29e3076b21e659"),
    "resilient-triple-t0": (37, lambda rng: _tables(random_resilient_triple(6, 0, rng)),
                            "67a85c496c14ab012bfe47382b3034316e60e163c7517f1bb5989efa52d82fb2"),
    "resilient-triple-t1": (37, lambda rng: _tables(random_resilient_triple(6, 1, rng)),
                            "5749404e83050962c8988889e2e0a87007daa8e871237ec48db3ec08c25577b5"),
    "resilient-triple-t2": (37, lambda rng: _tables(random_resilient_triple(6, 2, rng)),
                            "95e764b2c261455ff81520e170ec2ff903a1e24aa6455ae4f1246b403214caa1"),
    "derivative-triple": (41, _derivative_triple,
                          "4e1c056c6b5beee70fc77c9329ac0438b2497cad100957c352e7f4c91cbd58b7"),
    "field-table": (43, lambda rng: random_balanced_field_table(9, rng),
                    "9589e5624ec23e4a7b2d792e534fd6821fc376403d18487d824b91e1ef474e41"),
    # 200 words, then 79 words across the end of the first block
    "bits-5000": (47, lambda rng: ([rng.next_u64() for _ in range(200)], rng.bits(5000)),
                  "8b4127fa95578c5a04555d98171f48a50d30a3595f4db3586d60b75c0527dc6b"),
}


@pytest.mark.parametrize("name", PINNED_DRAWS)
def test_draws_are_pinned(name):
    seed, draw, want = PINNED_DRAWS[name]
    rng = XorShift64Star(seed)
    got = draw(rng)
    assert hashlib.sha256(repr((got, rng.state)).encode()).hexdigest() == want
