"""Deterministic random generation for corpora and parameter files.

A self-contained xorshift64* generator keeps outputs byte-identical for
a given seed across platforms and interpreter versions; nothing here
touches the stdlib RNG.
"""

from __future__ import annotations

from itertools import chain, islice

import numpy as np

from .constructions import (
    BentTriple,
    LinearSubspace,
    PermutationMap,
    bent_triple_from_derivative,
    class_d_bent,
    class_d_e1,
    mm_function,
    psap_bent,
)
from .core import MAX_VARS, BooleanFunction, _integer
from .galois import MAX_DEGREE, GaloisField
from .analysis import is_resilient

_MASK64 = (1 << 64) - 1
_MULT = 0x2545F4914F6CDD1D
_MULT_INV = pow(_MULT, -1, 1 << 64)  # the multiplier is odd
_ZERO_SEED_STATE = 0x9E3779B97F4A7C15  # the state seed 0 starts from
_BLOCK = 256  # words drawn at a time

# row j: T^1 e_j, ..., T^256 e_j, where T is the xorshift step and e_j the
# unit state 1 << j; built by _jump on the first block drawn
_JUMP = None


def _jump() -> np.ndarray:
    """The jump table, built once.  T is linear over GF(2)^64, so the state
    k steps after x is the XOR of column k - 1 over the rows j with bit j
    of x set."""
    global _JUMP
    if _JUMP is None:
        x = np.uint64(1) << np.arange(64, dtype=np.uint64)
        table = np.empty((64, _BLOCK), np.uint64)
        for k in range(_BLOCK):
            x ^= x >> 12
            x ^= x << 25  # uint64: the bits shifted past 63 drop
            x ^= x >> 27
            table[:, k] = x
        _JUMP = table
    return _JUMP


def _blocks(x: int):
    """The words after the state x, a list of 256 per block.  The body, and
    so _jump, first runs when the first block is drawn."""
    table = _jump()
    while True:
        units = np.frombuffer(x.to_bytes(8, "little"), np.uint8)
        states = np.bitwise_xor.reduce(
            table[np.unpackbits(units, bitorder="little").view(bool)], axis=0)
        x = int(states[-1])
        yield (states * _MULT).tolist()  # uint64 wraps mod 2^64


class XorShift64Star:
    """xorshift64* with the usual multiplier.  Seeds are 0 to 2^64 - 1, one
    stream each: seed 0 starts from the state 0x9E3779B97F4A7C15 (the state
    must stay nonzero), which is therefore no seed itself.

    Every draw reads one iterator over the words, which draws them 256 at a
    time from the jump table.  It holds a generator, so an XorShift64Star
    cannot be pickled or copied: a shallow copy would share the iterator.
    """

    __slots__ = ("_words", "_last")

    def __init__(self, seed: int):
        seed = _integer(seed, "seed", 0, _MASK64)
        if seed == _ZERO_SEED_STATE:
            raise ValueError(
                f"seed must not be {seed} (0x{seed:X}), the state that seed 0 stands for"
            )
        x = seed or _ZERO_SEED_STATE
        self._words = chain.from_iterable(_blocks(x))
        self._last = x * _MULT & _MASK64  # so state reads x before any draw

    def __reduce__(self):
        raise TypeError("an XorShift64Star cannot be copied or pickled; seed a new one")

    @property
    def state(self) -> int:
        """The state after the last word drawn."""
        return self._last * _MULT_INV & _MASK64

    def next_u64(self) -> int:
        self._last = w = next(self._words)
        return w

    def bits(self, k: int) -> int:
        """A uniform k-bit integer, k at most 2^MAX_VARS (a whole table): the
        top k bits of ceil(k / 64) words, the first word drawn most significant."""
        k = _integer(k, "bit count", 0, 1 << MAX_VARS)
        if k <= 64:  # the common draw: one word, no join
            return self.next_u64() >> (64 - k) if k else 0
        words = list(islice(self._words, -(-k // 64)))
        self._last = words[-1]
        raw = np.array(words, ">u8").tobytes()
        return int.from_bytes(raw, "big") >> (64 * len(words) - k)

    def randrange(self, n: int) -> int:
        """A uniform draw from [0, n): the top (n - 1).bit_length() bits of
        each word until one is below n, as `bits` draws them."""
        n = _integer(n, "range size", 1)
        k = (n - 1).bit_length()
        if k > 64:
            while True:
                v = self.bits(k)
                if v < n:
                    return v
        if k == 0:  # bits(0) draws no word
            return 0
        shift = 64 - k
        for w in self._words:
            v = w >> shift
            if v < n:
                self._last = w
                return v

    def randint(self, lo: int, hi: int) -> int:
        lo = _integer(lo, "lower end")
        return lo + self.randrange(_integer(hi, "upper end", lo) - lo + 1)

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def shuffle(self, items: list) -> None:
        """Fisher-Yates from the end, j = randrange(i + 1) at each i."""
        words, w = self._words, self._last
        for i in range(len(items) - 1, 0, -1):
            shift = 64 - i.bit_length()
            for w in words:
                j = w >> shift
                if j <= i:
                    break
            items[i], items[j] = items[j], items[i]
        self._last = w


_FIELDS: dict[int, GaloisField] = {}


def _field(m: int) -> GaloisField:
    if m not in _FIELDS:
        _FIELDS[m] = GaloisField(m)
    return _FIELDS[m]


def _variables(n: int) -> int:
    return _integer(n, "variable count", 1, MAX_VARS)


def _half(n: int) -> int:
    """Half the variable count n of a bent function, which must be even."""
    n = _integer(n, "variable count", 2, MAX_VARS)
    if n % 2:
        raise ValueError(f"a bent function needs an even variable count, got {n}")
    return n // 2


def random_function(n: int, rng: XorShift64Star) -> BooleanFunction:
    return BooleanFunction(n, rng.bits(1 << _variables(n)))


# bytes.translate table: the entries 0 and 1 to the digits "0" and "1"
_DIGIT = bytes.maketrans(b"\x00\x01", b"01")


def random_balanced(n: int, rng: XorShift64Star) -> BooleanFunction:
    half = 1 << (_variables(n) - 1)
    table = [1] * half + [0] * half
    rng.shuffle(table)
    # the last entry is the most significant digit of the packed mask
    return BooleanFunction(n, int(bytes(table[::-1]).translate(_DIGIT), 2))


def random_permutation(k: int, rng: XorShift64Star, fix_zero: bool = False):
    """A permutation of F_2^k, k at most MAX_VARS / 2: every caller builds a
    2k-variable function from it."""
    k = _integer(k, "k", 1, MAX_VARS // 2)
    images = list(range(1 << k))
    rng.shuffle(images)
    if fix_zero and images[0] != 0:
        j = images.index(0)
        images[0], images[j] = images[j], images[0]
    return PermutationMap(images)


def random_affine(n: int, rng: XorShift64Star, min_weight: int = 0) -> BooleanFunction:
    n = _variables(n)
    min_weight = _integer(min_weight, "minimum weight", 0, n)
    while True:
        mask = rng.bits(n)
        if mask.bit_count() >= min_weight:
            return BooleanFunction.linear(n, mask, rng.bits(1))


def random_mm_bent(n: int, rng: XorShift64Star) -> BooleanFunction:
    k = _half(n)
    return mm_function(random_permutation(k, rng), random_function(k, rng))


def random_balanced_field_table(m: int, rng: XorShift64Star) -> list[int]:
    """A balanced bit table over GF(2^m) with value 0 at the element 0."""
    half = 1 << (_integer(m, "extension degree", 1, MAX_DEGREE) - 1)
    rest = [1] * half + [0] * (half - 1)
    rng.shuffle(rest)
    return [0] + rest


def random_psap_bent(n: int, rng: XorShift64Star) -> BooleanFunction:
    m = _half(n)
    return psap_bent(_field(m), random_balanced_field_table(m, rng))


def random_class_d_bent(n: int, rng: XorShift64Star) -> BooleanFunction:
    k = _half(n)
    phi = random_permutation(k, rng, fix_zero=True)
    pick = rng.randrange(3)
    if pick == 0:
        e2 = LinearSubspace.zero(k)
    elif pick == 1:
        e2 = LinearSubspace.full(k)
    else:
        e2 = LinearSubspace(k, [rng.randint(1, (1 << k) - 1)])
    return class_d_bent(phi, class_d_e1(phi, e2), e2)


_BENT_FAMILIES = (random_mm_bent, random_psap_bent, random_class_d_bent)


def random_bent(n: int, rng: XorShift64Star) -> BooleanFunction:
    """A bent function drawn from the M-M / PS_ap / class-D builders."""
    _half(n)  # before the family is drawn
    return _BENT_FAMILIES[rng.randrange(3)](n, rng)


def random_resilient(n: int, t: int, rng: XorShift64Star) -> BooleanFunction:
    """A t-resilient n-variable function, t >= -1; for t = -1, as for
    t = 0, a balanced one."""
    n = _variables(n)
    t = _integer(t, "resiliency order t", -1)
    if t <= 0:
        return random_balanced(n, rng)
    if t >= n:
        raise ValueError(f"no {t}-resilient functions on {n} variables")
    if rng.randrange(4) == 0 or n - t - 1 < 1:
        return random_affine(n, rng, min_weight=t + 1)
    s = rng.randint(1, n - t - 1)
    r = n - s
    heavy = [v for v in range(1 << r) if v.bit_count() >= t + 1]
    images = [rng.choice(heavy) for _ in range(1 << s)]
    return mm_function(PermutationMap(images, r=r), random_function(s, rng))


_TRIPLE_TRIES = 400  # three-draw attempts before the affine fallback


def random_resilient_triple(
    n: int, t: int, rng: XorShift64Star
) -> tuple[BooleanFunction, BooleanFunction, BooleanFunction]:
    """Three t-resilient functions whose XOR is also t-resilient.

    The XOR is tested with is_resilient: its weight rejects an attempt
    before any spectrum is computed and decides t = 0 alone, the weights
    of its sums with the n coordinates decide t = 1, and only t >= 2
    computes the XOR's spectrum.  Every t < 0 holds (resiliency >= -1),
    so the first attempt is taken.
    """
    for _ in range(_TRIPLE_TRIES):
        f1 = random_resilient(n, t, rng)
        f2 = random_resilient(n, t, rng)
        f3 = random_resilient(n, t, rng)
        if is_resilient(f1 ^ f2 ^ f3, t):
            return f1, f2, f3
    # fall back to affine masks, where the XOR condition is a one-liner
    while True:
        masks = [rng.bits(n) for _ in range(3)]
        if all(m.bit_count() >= t + 1 for m in masks) and (
            masks[0] ^ masks[1] ^ masks[2]
        ).bit_count() >= t + 1:
            return tuple(
                BooleanFunction.linear(n, m, rng.bits(1)) for m in masks
            )


def random_mm_bent_triple(
    n: int, rng: XorShift64Star
) -> tuple[BooleanFunction, BooleanFunction, BooleanFunction]:
    """Three M-M bent functions over one permutation; their XOR is bent."""
    k = _half(n)
    phi = random_permutation(k, rng)
    return tuple(mm_function(phi, random_function(k, rng)) for _ in range(3))


def random_derivative_triple(n: int, rng: XorShift64Star) -> tuple[BentTriple, int]:
    """A bent triple (f, f(.+a), g) where f, g are M-M functions
    over one permutation and a is nonzero on the affine block only."""
    k = _half(n)
    phi = random_permutation(k, rng)
    f = mm_function(phi, random_function(k, rng))
    g = mm_function(phi, random_function(k, rng))
    a = rng.randint(1, (1 << k) - 1) << k  # (a', 0) as a table index
    return bent_triple_from_derivative(f, g, a), a
