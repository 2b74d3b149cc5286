import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bentkit import (
    AnfPolynomial,
    BooleanFunction,
    TruthTableFormatError,
    WalshSpectrum,
    degree,
    degree_of_variable,
    dual,
    encode_point,
    is_bent,
    mm_function,
    mobius,
    mobius_inv,
    parse_truth_table,
    serialize_truth_table,
    walsh_transform,
)
import bentkit.core as core
from bentkit.rand import XorShift64Star, random_function, random_mm_bent, random_permutation
from test_rand import SEEDS


def bf(n, bits):
    return BooleanFunction(n, bits)


X1X2 = BooleanFunction(2, [0, 0, 0, 1])


# -- encoding ----------------------------------------------------------


def test_encoding_order():
    # x_n varies fastest: (x1, x2) = (1, 0) sits at index 2
    assert encode_point((1, 0)) == 2
    assert encode_point((0, 1)) == 1


@given(st.integers(1, 8), st.data())
def test_encode_decode_round_trip(n, data):
    i = data.draw(st.integers(0, (1 << n) - 1))
    assert encode_point(tuple((i >> (n - j)) & 1 for j in range(1, n + 1))) == i


def test_variable_count_bounds():
    with pytest.raises(ValueError):
        BooleanFunction(0, [])
    with pytest.raises(ValueError):
        BooleanFunction(27, 0)


@pytest.mark.parametrize("bad", [2, -1, 0.5])
def test_table_entries_must_be_bits(bad):
    # a value outside {0, 1} is a ValueError, a float dtype a TypeError
    error = TypeError if isinstance(bad, float) else ValueError
    with pytest.raises(error, match="must be bits"):
        BooleanFunction(2, np.array([0, 1, bad, 1]))
    with pytest.raises(error, match="must be bits"):
        BooleanFunction(2, [0, 1, bad, 1])


def test_every_bit_sequence_gives_the_same_mask():
    bits = [0, 1, 1, 0, 1, 0, 0, 0]
    masks = {
        BooleanFunction(3, table).mask
        for table in (bits, tuple(bits), np.array(bits, dtype=np.uint8))
    }
    assert masks == {0b10110}


def test_coordinate_masks_are_kept_up_to_sixteen_variables():
    for n in range(1, 19):
        index = np.arange(1 << n)
        for s in range(n):
            want = core._pack_bits(index >> s & 1)
            assert core._coordinate_mask(n, s) == want, (n, s)
    assert max(core._COORDINATE_MASKS) == 16


# -- truth-table file format -------------------------------------------


def test_parse_delta_at_origin():
    f = parse_truth_table("n=2\nbits=8\n")
    assert f((0, 0)) == 1
    assert f.weight == 1


def test_parse_delta_at_last_index():
    f = parse_truth_table("n=2\nbits=1\n")
    assert f((1, 1)) == 1
    assert f.weight == 1


def test_serialize_parse_round_trip_n8():
    rng = XorShift64Star(11)
    for _ in range(20):
        f = random_function(8, rng)
        assert parse_truth_table(serialize_truth_table(f)) == f


def test_serialize_canonical_shape():
    text = serialize_truth_table(X1X2)
    assert text == "n=2\nbits=1\n"
    f = BooleanFunction(1, [1, 0])
    assert serialize_truth_table(f) == "n=1\nbits=10\n"
    assert parse_truth_table("n=1\nbits=10\n") == f


@pytest.mark.parametrize(
    "text",
    [
        "",
        "n=2",
        "n=x\nbits=8\n",
        "n=\u00b2\nbits=8\n",  # a superscript digit passes str.isdigit alone
        "bits=8\nn=2\n",
        "n=2\nbits=88\n",  # wrong payload length
        "n=2\nbits=g\n",
        "n=0\nbits=\n",
        "n=27\nbits=00\n",
        "n=1\nbits=2\n",
        "n=2\nbits=8\nextra\n",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(TruthTableFormatError):
        parse_truth_table(text)


def test_parse_accepts_uppercase_hex():
    assert parse_truth_table("n=2\nbits=A\n") == parse_truth_table("n=2\nbits=a\n")


# -- evaluate ----------------------------------------------------------


def test_evaluate_trivial():
    z = BooleanFunction.zero(3)
    assert z((1, 0, 1)) == 0
    delta = BooleanFunction(2, [0, 0, 0, 1])
    assert delta((1, 1)) == 1
    assert delta((1, 0)) == 0
    with pytest.raises(ValueError):
        delta((1, 0, 1))


# -- Walsh transform ----------------------------------------------------


def test_walsh_constant():
    assert list(walsh_transform(BooleanFunction.zero(2)).values) == [4, 0, 0, 0]


def test_walsh_linear_single_point():
    f = BooleanFunction.variable(2, 1)  # x1, mask (1,0) -> index 2
    spec = walsh_transform(f)
    assert spec[(1, 0)] == 4
    assert sum(1 for v in spec.values if v != 0) == 1


def test_walsh_quadratic_frozen():
    # computed with the definitional O(4^n) oracle and frozen
    assert list(walsh_transform(X1X2).values) == [2, 2, 2, -2]


def test_walsh_spectrum_rejects_non_parseval():
    with pytest.raises(ValueError):
        WalshSpectrum(2, np.array([4, 4, 0, 0]))


def test_walsh_spectrum_rejects_values_beyond_2_to_the_n():
    # 2^2 + (2^32)^2 = 4 + 2^64, which wraps to 4 = 2^(2n) in int64
    with pytest.raises(ValueError, match=re.escape("must lie in [-2^1, 2^1]")):
        WalshSpectrum(1, np.array([2, 1 << 32]))
    with pytest.raises(ValueError, match=re.escape("must lie in [-2^2, 2^2]")):
        WalshSpectrum(2, np.array([-5, 0, 0, 0]))


def test_parseval_sum_does_not_wrap_at_large_n():
    # 2^20 + 1 entries of 2^22, each in range: their squares sum to
    # 2^64 + 2^44, which wraps to 2^44 = 2^(2n) in an int64 sum
    n = 22
    values = np.zeros(1 << n, np.int32)
    values[: (1 << 20) + 1] = 1 << n
    with pytest.raises(ValueError, match="Parseval"):
        WalshSpectrum(n, values)


def test_walsh_spectrum_holds_an_int32_array_as_given():
    values = np.array([2, 2, 2, -2], np.int32)
    spec = WalshSpectrum(2, values)
    assert spec._raw is values and not values.flags.writeable
    assert spec.max_abs == 2 and spec[3] == -2
    assert spec == WalshSpectrum(2, [2, 2, 2, -2])
    assert spec.values is spec.values  # widened once
    assert spec.values.tolist() == [2, 2, 2, -2]


def test_walsh_spectrum_iterates_and_still_refuses_an_index_past_its_end():
    x1, x2, x3 = (BooleanFunction.variable(3, i) for i in (1, 2, 3))
    spec = walsh_transform(x1 & x2 ^ x3)
    assert list(spec) == spec.values.tolist() == [0, 4, 0, 4, 0, 4, 0, -4]
    assert all(type(w) is int for w in spec)
    assert -4 in spec and 8 not in spec
    with pytest.raises(ValueError, match=re.escape("index must be in [0, 7], got 8")):
        spec[8]


@settings(max_examples=40)
@given(st.integers(1, 8), SEEDS)
def test_walsh_w0_is_weight_identity(n, seed):
    f = random_function(n, XorShift64Star(seed))
    assert walsh_transform(f)[0] == (1 << n) - 2 * f.weight


def reference_walsh(f):
    """The int64 butterfly the byte-table kernel replaced, one stage per h."""
    a = 1 - 2 * f.values().astype(np.int64)
    size = a.shape[0]
    h = 1
    while h < size:
        b = a.reshape(-1, 2 * h)
        left = b[:, :h].copy()
        right = b[:, h:].copy()
        b[:, :h] = left + right
        b[:, h:] = left - right
        h *= 2
    return a


@pytest.mark.parametrize("n", range(1, 21))
def test_walsh_agrees_with_the_reference_butterfly(n):
    rng = XorShift64Star(1000 + n)
    for _ in range(3):
        f = random_function(n, rng)
        assert np.array_equal(walsh_transform(f).values, reference_walsh(f))


@pytest.mark.parametrize("n", [20, 22])
def test_walsh_agrees_with_the_reference_butterfly_on_large_bent(n):
    f = random_mm_bent(n, XorShift64Star(n))
    got = walsh_transform(f).values
    assert np.array_equal(got, reference_walsh(f))
    assert np.all(np.abs(got) == 1 << (n // 2))


def test_walsh_is_exact_everywhere_at_24_variables():
    # f(x, y) = x.phi(y) + u(y) on 12 + 12 variables has W_f(a, b) =
    # 2^12 (-1)^(u(phi^-1(a)) + b.phi^-1(a)): every entry is +-2^12, so
    # is_bent and the dual's closed form fix its sign and place.  No int64
    # reference is built; the closed form is one outer AND.
    rng = XorShift64Star(2400)
    phi, u = random_permutation(12, rng), random_function(12, rng)
    f = mm_function(phi, u)
    assert is_bent(f)
    inv = np.argsort(np.array(phi.images, dtype=np.uint32)).astype(np.uint32)
    want = np.bitwise_count(np.bitwise_and.outer(inv, np.arange(1 << 12, dtype=np.uint32)))
    want &= 1
    want ^= u.values()[inv][:, None]
    assert dual(f) == BooleanFunction(24, want.reshape(-1))


@pytest.mark.parametrize("n", [*range(13, 19), 20])
def test_walsh_is_exact_across_the_int16_boundary(n):
    # The stages below pair distance 2^14 run in int16, and the later ones
    # in int32, in place, as x += y; y *= -2; y += x.  These functions
    # reach the extremes at every stage: +-2^14 after the last int16 stage,
    # +-2^15 after the first int32 one, which would wrap in int16, and
    # +-2h inside each in-place stage.  At n = 20 the whole-array stages
    # h = 2^17 ... 2^19 each run over several chunks.  Random tables never
    # come near these extremes.
    functions = [
        BooleanFunction.zero(n),
        BooleanFunction.constant(n, 1),
        BooleanFunction.linear(n, (1 << n) - 1),
        *(BooleanFunction.linear(n, 1 << s) for s in range(n)),
    ]
    for f in functions:
        assert np.array_equal(walsh_transform(f).values, reference_walsh(f))


@pytest.mark.parametrize("bit", [0, 1])
def test_walsh_reaches_the_int32_bound_at_the_cap(bit):
    # W(0) = +-2^26 is the only nonzero value, and y *= -2 takes every
    # in-place stage to its +-2h bound; 2^26 still fits in int32.
    n = core.MAX_VARS
    spectrum = walsh_transform(BooleanFunction.constant(n, bit))
    assert spectrum[0] == (1 - 2 * bit) << n
    assert np.count_nonzero(spectrum._raw) == 1


def test_max_abs_reads_the_negative_extreme():
    # W(0) = -2^n is the only nonzero value of the constant 1; the
    # complement negates the spectrum, so its largest |W| stays put
    one = walsh_transform(BooleanFunction.constant(5, 1))
    assert one.values.max() == 0 and one.max_abs == 32
    f = random_function(9, XorShift64Star(9))
    spec, neg = walsh_transform(f), walsh_transform(~f)
    assert np.array_equal(neg.values, -spec.values)
    assert neg.max_abs == spec.max_abs == int(np.abs(spec.values).max())


def test_walsh_allocates_the_result_and_little_else():
    # the int32 result is 4 bytes per entry; the three int16 work blocks
    # take 0.75 and the Parseval check's buffers about 0.13 at n = 20, so
    # an int64 or a second int32 copy of the spectrum cannot hide here
    n = 20
    f = random_mm_bent(n, XorShift64Star(20))
    tracemalloc.start()
    try:
        walsh_transform(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * (1 << n), peak / (1 << n)


def test_byte_table_is_the_3_variable_spectrum():
    from bentkit.core import _BYTE_WALSH
    from bentkit.oracle import naive_walsh

    assert _BYTE_WALSH.dtype == np.int16 and _BYTE_WALSH.shape == (256, 8)
    for b in range(256):
        assert list(_BYTE_WALSH[b]) == list(naive_walsh(BooleanFunction(3, b)).values)


def test_walsh_values_are_read_only_int64():
    values = walsh_transform(random_function(10, XorShift64Star(3))).values
    assert values.dtype == np.int64
    assert not values.flags.writeable
    with pytest.raises(ValueError):
        values[0] = 0


# -- Moebius / ANF ------------------------------------------------------


def test_mobius_constant_one():
    p = mobius(BooleanFunction.constant(2, 1))
    assert p.monomials() == [()]
    assert p.degree == 0


def test_mobius_single_monomial():
    p = mobius(X1X2)
    assert p.monomials() == [(1, 2)]
    assert p.degree == 2


@settings(max_examples=40)
@given(st.integers(1, 8), SEEDS)
def test_mobius_involution(n, seed):
    f = random_function(n, XorShift64Star(seed))
    assert mobius_inv(mobius(f)) == f


@settings(max_examples=40)
@given(st.integers(1, 8), SEEDS)
def test_mobius_involution_other_direction(n, seed):
    p = AnfPolynomial(n, XorShift64Star(seed).bits(1 << n))
    assert mobius(mobius_inv(p)) == p


def test_degree_examples():
    # x1x2 + x3
    h = (
        BooleanFunction(3, [0, 0, 0, 0, 0, 0, 1, 1])  # x1x2 over 3 vars
        ^ BooleanFunction.variable(3, 3)
    )
    assert degree(h) == 2
    assert degree_of_variable(h, 1) == 2
    assert degree_of_variable(h, 3) == 1
    assert degree(BooleanFunction.linear(4, 0b1010)) == 1
    assert degree(BooleanFunction.zero(4)) == 0
    # one monomial: its size, wherever its coefficient sits in its byte
    for n in (1, 2, 3, 9, 16):
        for monomial in (0, 1, (1 << n) - 2, (1 << n) - 1, 0b101 & ((1 << n) - 1)):
            assert AnfPolynomial(n, 1 << monomial).degree == monomial.bit_count()


def reference_degree(p):
    """The largest weight in the unpacked support: the flatnonzero scan
    AnfPolynomial.degree used before it read the coefficient bytes."""
    support = np.flatnonzero(BooleanFunction(p.n, p.mask).values())
    return int(np.bitwise_count(support).max(initial=0))


def test_degree_agrees_with_the_support_scan():
    # zero, constant one, full, single monomials and seeded tables, dense
    # and sparse, at every n <= 16
    rng = XorShift64Star(1601)
    for n in range(1, 17):
        size = 1 << n
        masks = [0, 1, (1 << size) - 1]
        masks += [1 << rng.randrange(size) for _ in range(4)]
        masks += [rng.bits(size) for _ in range(3)]
        masks += [rng.bits(size) & rng.bits(size) & rng.bits(size) & rng.bits(size)]
        for mask in masks:
            p = AnfPolynomial(n, mask)
            assert p.degree == reference_degree(p), (n, mask)


def test_degree_of_variable_mm_bent():
    # x1x3 + x2x4: every variable sits in a quadratic term (ANF oracle)
    f = mobius_inv(AnfPolynomial(4, (1 << 0b1010) | (1 << 0b0101)))
    assert sorted(mobius(f).monomials()) == [(1, 3), (2, 4)]
    assert [degree_of_variable(f, i) for i in (1, 2, 3, 4)] == [2, 2, 2, 2]


def reference_mobius(rows):
    """The uint8 butterfly the packed-int transform replaced, on each row
    of an array of unpacked tables (index order), one stage per h."""
    a = rows.copy()
    size = a.shape[1]
    h = 1
    while h < size:
        b = a.reshape(a.shape[0], -1, 2 * h)
        b[:, :, h:] ^= b[:, :, :h]
        h *= 2
    return a


def reference_degree_of_variable(rows, n, i):
    """Per row, the largest weight in the support filtered to the indices
    with x_i set: the flatnonzero filter degree_of_variable used before."""
    r, nz = np.nonzero(rows)
    keep = (nz & (1 << (n - i))) != 0
    out = np.zeros(rows.shape[0], np.int64)
    np.maximum.at(out, r[keep], np.bitwise_count(nz[keep]))
    return out


def _unpacked(masks, n):
    return np.array([BooleanFunction(n, m).values() for m in masks])


def _packed(rows, n):
    return [BooleanFunction(n, row).mask for row in rows]


@pytest.mark.parametrize("n", range(1, 19))
def test_mobius_agrees_with_the_reference_butterfly(n):
    # every table for n <= 4, three seeded ones above
    if n <= 4:
        masks = range(1 << (1 << n))
    else:
        rng = XorShift64Star(2000 + n)
        masks = [rng.bits(1 << n) for _ in range(3)]
    rows = _unpacked(masks, n)
    want = _packed(reference_mobius(rows), n)
    assert [mobius(BooleanFunction(n, m)).mask for m in masks] == want
    assert [mobius_inv(AnfPolynomial(n, m)).mask for m in masks] == want
    for i in range(1, n + 1):
        got = [AnfPolynomial(n, m).degree_of_variable(i) for m in masks]
        assert got == reference_degree_of_variable(rows, n, i).tolist()


def reference_degree_per_variable(p):
    """x_i's degree read off the monomial list: the size of the largest
    monomial that holds x_i, 0 when none does."""
    monomials = p.monomials()
    return [max((len(t) for t in monomials if i in t), default=0)
            for i in range(1, p.n + 1)]


def test_degree_per_variable_agrees_with_the_masked_degree():
    rng = XorShift64Star(12)
    cases = [AnfPolynomial(n, rng.bits(1 << n)) for n in range(1, 13) for _ in range(3)]
    cases += [AnfPolynomial(n, rng.bits(1 << n) & rng.bits(1 << n) & rng.bits(1 << n))
              for n in range(1, 13)]  # sparser, so some degrees fall below n
    cases.append(mobius(random_mm_bent(20, XorShift64Star(20))))
    for p in cases:
        per = p.degree_per_variable()
        assert per == reference_degree_per_variable(p)
        assert max(per, default=0) <= p.degree


def test_mobius_allocates_less_than_a_byte_per_entry():
    # the packed table is 1/8 B per entry and the transform keeps a few
    # such ints alive; one unpacked uint8 copy would take 1 B per entry
    n = 20
    f = random_mm_bent(n, XorShift64Star(20))
    tracemalloc.start()
    try:
        mobius(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << n, peak / (1 << n)


def reference_linear(n, mask, const):
    """The affine table from the parity of index & mask, entry by entry."""
    idx = np.arange(1 << n, dtype=np.uint32)
    bits = np.bitwise_count(idx & np.uint32(mask)) & 1
    if const:
        bits ^= 1
    return BooleanFunction(n, bits)


def test_linear_agrees_with_the_parity_table():
    # every mask and constant for n <= 6, seeded masks above
    cases = [(n, m, c) for n in range(1, 7) for m in range(1 << n) for c in (0, 1)]
    rng = XorShift64Star(16)
    cases += [(n, rng.bits(n), c) for n in range(7, 17) for c in (0, 1)]
    for n, mask, const in cases:
        got = BooleanFunction.linear(n, mask, const)
        assert got == reference_linear(n, mask, const), (n, mask, const)


# -- restrict / derivative / operators / translate ----------------------


def test_restrict_examples():
    f = X1X2
    assert f.restrict(1, 0) == BooleanFunction.zero(1)
    assert f.restrict(1, 1) == BooleanFunction(1, [0, 1])
    # x1x2 + x3x4 on 4 variables (two bytes): x1 = 1 leaves x1 + x2x3 on
    # the remaining three, x4 = 1 leaves x1x2 + x3
    g = mobius_inv(AnfPolynomial(4, (1 << 0b1100) | (1 << 0b0011)))
    assert g.restrict(1, 1) == mobius_inv(AnfPolynomial(3, (1 << 0b100) | (1 << 0b011)))
    assert g.restrict(4, 1) == mobius_inv(AnfPolynomial(3, (1 << 0b110) | (1 << 0b001)))
    with pytest.raises(ValueError):
        f.restrict(3, 0)
    with pytest.raises(ValueError):
        BooleanFunction(1, [0, 1]).restrict(1, 0)


def reference_restrict(f, j, b):
    """The unpack, slice and repack form restrict had before it cut the
    halves out of the packed mask's bytes."""
    block = 1 << (f.n - j)
    sub = f.values().reshape(-1, 2 * block)[:, b * block : (b + 1) * block]
    return BooleanFunction(f.n - 1, sub.reshape(-1))


@pytest.mark.parametrize("n", [*range(2, 13), 20])
def test_restrict_agrees_with_the_unpack_form(n):
    # every (j, b) up to n = 12 (tables of one byte at n <= 3, the nibble
    # tables at the last three coordinates, byte runs before them)
    rng = XorShift64Star(1200 + n)
    functions = [rng.bits(1 << n) for _ in range(2)] + [0, (1 << (1 << n)) - 1]
    coordinates = [1, 17, 18, 19, 20] if n == 20 else range(1, n + 1)
    for mask in functions:
        f = BooleanFunction(n, mask)
        for j in coordinates:
            for b in (0, 1):
                assert f.restrict(j, b) == reference_restrict(f, j, b), (n, j, b)


def test_restrict_reads_bools_and_numpy_integers_as_bits():
    f = random_function(6, XorShift64Star(1206))
    for j in range(1, 7):
        assert f.restrict(j, False) == f.restrict(j, 0)
        assert f.restrict(j, True) == f.restrict(j, 1)
        assert f.restrict(j, np.uint8(1)) == f.restrict(j, 1)


def test_anf_reads_a_numpy_integer_mask_as_an_int():
    p, q = AnfPolynomial(3, np.int64(6)), AnfPolynomial(3, 6)
    assert type(p.mask) is int
    assert (p.monomials(), p.degree, mobius_inv(p)) == (q.monomials(), q.degree, mobius_inv(q))


def test_derivative_examples():
    f = random_function(5, XorShift64Star(3))
    assert f.derivative((0, 0, 0, 0, 0)) == BooleanFunction.zero(5)
    lin = BooleanFunction.linear(4, 0b1100)
    a = (1, 0, 1, 0)
    # derivative of a linear function is the constant mask.a
    want = BooleanFunction.constant(4, 1)  # (1,1,0,0).(1,0,1,0) = 1
    assert lin.derivative(a) == want


def reference_translate(f, a):
    """x -> f(x xor a) through an index array over the unpacked table, as
    translate did before it swapped halves of the packed int."""
    idx = np.arange(1 << f.n, dtype=np.intp)
    return BooleanFunction(f.n, f.values()[idx ^ a])


def test_translate_agrees_with_the_index_form():
    # every a up to n = 6, seeded a at n = 7..16; derivative follows
    rng = XorShift64Star(1607)
    cases = [(n, a) for n in range(1, 7) for a in range(1 << n)]
    cases += [(n, rng.bits(n)) for n in range(7, 17) for _ in range(3)]
    for n, a in cases:
        f = random_function(n, rng)
        want = reference_translate(f, a)
        assert f.translate(a) == want, (n, a)
        assert f.derivative(a) == f ^ want, (n, a)


def test_combine_translate_trivialities():
    rng = XorShift64Star(5)
    f = random_function(6, rng)
    g = random_function(6, rng)
    assert f ^ f == BooleanFunction.zero(6)
    assert f & BooleanFunction.constant(6, 1) == f
    a = (0, 1, 1, 0, 0, 1)
    assert f.translate(a).translate(a) == f
    with pytest.raises(ValueError):
        f ^ random_function(5, rng)
    del g


@settings(max_examples=30)
@given(st.integers(2, 8), SEEDS, st.data())
def test_restriction_pair_vs_derivative(n, seed, data):
    # f|x_j=0 xor f|x_j=1 equals D_(e_j) f with coordinate j dropped
    f = random_function(n, XorShift64Star(seed))
    j = data.draw(st.integers(1, n))
    lhs = f.restrict(j, 0) ^ f.restrict(j, 1)
    e_j = tuple(1 if i == j else 0 for i in range(1, n + 1))
    rhs = f.derivative(e_j).restrict(j, 0)
    assert lhs == rhs


@settings(max_examples=30)
@given(st.integers(1, 7), SEEDS, SEEDS)
def test_degree_of_xor_bounded(n, s1, s2):
    f = random_function(n, XorShift64Star(s1))
    g = random_function(n, XorShift64Star(s2))
    assert degree(f ^ g) <= max(degree(f), degree(g))


# -- bad arguments -----------------------------------------------------------


@pytest.mark.parametrize("call, error, fragment", [
    pytest.param(lambda: encode_point((0, 2)), ValueError,
                 "vector entry must be in [0, 1], got 2", id="encode-point-non-bit"),
    pytest.param(lambda: BooleanFunction(2, 1 << 4), ValueError,
                 "table mask has bits beyond 2^n entries", id="mask-too-wide"),
    pytest.param(lambda: BooleanFunction(2, -1), ValueError,
                 "table mask must be in [0, inf], got -1", id="mask-negative"),
    pytest.param(lambda: BooleanFunction(True, 1), TypeError,
                 "variable count must be an integer, got True", id="bool-count"),
    pytest.param(lambda: BooleanFunction(2, [0, 1]), ValueError,
                 "table length must be 4, got shape (2,)", id="table-too-short"),
    pytest.param(lambda: BooleanFunction.variable(3, 4), ValueError,
                 "variable index must be in [1, 3], got 4", id="variable-index"),
    pytest.param(lambda: BooleanFunction.linear(3, 8), ValueError,
                 "linear mask must be in [0, 7], got 8", id="linear-mask"),
    pytest.param(lambda: BooleanFunction.linear(3, 1, 0.5), TypeError,
                 "constant must be an integer, got 0.5", id="linear-float-constant"),
    pytest.param(lambda: BooleanFunction.constant(3, 2), ValueError,
                 "constant must be in [0, 1], got 2", id="constant-two"),
    pytest.param(lambda: BooleanFunction.constant(3, "0"), TypeError,
                 "constant must be an integer, got '0'", id="constant-string"),
    pytest.param(lambda: BooleanFunction.zero(3).bit(100), ValueError,
                 "index must be in [0, 7], got 100", id="bit-above"),
    pytest.param(lambda: BooleanFunction.zero(3).bit(-1), ValueError,
                 "index must be in [0, 7], got -1", id="bit-negative"),
    pytest.param(lambda: X1X2.restrict(1, 2), ValueError,
                 "restriction value must be in [0, 1], got 2", id="restrict-value"),
    pytest.param(lambda: X1X2.restrict(1, 1.0), TypeError,
                 "restriction value must be an integer, got 1.0", id="restrict-float"),
    pytest.param(lambda: X1X2.restrict(1, np.True_), TypeError,
                 "restriction value must be an integer, got np.True_",
                 id="restrict-numpy-bool"),
    pytest.param(lambda: X1X2 ^ BooleanFunction.zero(3), ValueError,
                 "inputs must share a variable count, got 2 and 3", id="xor-counts"),
    pytest.param(lambda: BooleanFunction.zero(3) & X1X2, ValueError,
                 "inputs must share a variable count, got 3 and 2", id="and-counts"),
    pytest.param(lambda: WalshSpectrum(2, [4, 0, 0]), ValueError,
                 "spectrum length must be 4", id="spectrum-length"),
    pytest.param(lambda: WalshSpectrum(2, [4.7, 0, 0, 0]), TypeError,
                 "spectrum values must be integers, not float64", id="spectrum-float"),
    pytest.param(lambda: WalshSpectrum(1, [2, 2**70]), TypeError,
                 "spectrum values must be integers, not object", id="spectrum-huge"),
    pytest.param(lambda: AnfPolynomial(0, 0), ValueError,
                 "variable count must be in [1, 26], got 0", id="anf-count"),
    pytest.param(lambda: AnfPolynomial(2, 1 << 4), ValueError,
                 "coefficient mask has bits beyond 2^n entries", id="anf-mask"),
    pytest.param(lambda: AnfPolynomial(2, 1.0), TypeError,
                 "coefficient mask must be an integer, got 1.0", id="anf-float-mask"),
    pytest.param(lambda: AnfPolynomial(2, 1).degree_of_variable(3), ValueError,
                 "variable index must be in [1, 2], got 3", id="anf-variable-index"),
])
def test_bad_arguments_raise_with_a_message(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)) as exc:
        call()
    assert type(exc.value) is error
