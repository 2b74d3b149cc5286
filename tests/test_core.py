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
    decode_point,
    degree,
    degree_of_variable,
    encode_point,
    mobius,
    mobius_inv,
    parse_truth_table,
    serialize_truth_table,
    walsh_transform,
)
from bentkit.rand import XorShift64Star, random_function, random_mm_bent


def bf(n, bits):
    return BooleanFunction(n, bits)


X1X2 = BooleanFunction(2, [0, 0, 0, 1])


# -- encoding ----------------------------------------------------------


def test_encoding_order():
    # x_n varies fastest: (x1, x2) = (1, 0) sits at index 2
    assert encode_point((1, 0)) == 2
    assert encode_point((0, 1)) == 1
    assert decode_point(2, 2) == (1, 0)


@given(st.integers(1, 8), st.data())
def test_encode_decode_round_trip(n, data):
    i = data.draw(st.integers(0, (1 << n) - 1))
    assert encode_point(decode_point(i, n)) == i


def test_variable_count_bounds():
    with pytest.raises(ValueError):
        BooleanFunction(0, [])
    with pytest.raises(ValueError):
        BooleanFunction(27, 0)


@pytest.mark.parametrize("bad", [2, -1, 0.5])
def test_table_entries_must_be_bits(bad):
    with pytest.raises(ValueError, match="must be bits"):
        BooleanFunction(2, np.array([0, 1, bad, 1]))
    with pytest.raises(ValueError, match="must be bits"):
        BooleanFunction(2, [0, 1, bad, 1])


def test_every_bit_sequence_gives_the_same_mask():
    bits = [0, 1, 1, 0, 1, 0, 0, 0]
    masks = {
        BooleanFunction(3, table).mask
        for table in (bits, tuple(bits), np.array(bits, dtype=np.uint8))
    }
    assert masks == {0b10110}


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


@settings(max_examples=40)
@given(st.integers(1, 8), st.integers())
def test_walsh_w0_is_weight_identity(n, seed):
    f = random_function(n, XorShift64Star(seed))
    assert walsh_transform(f)[0] == (1 << n) - 2 * f.weight


def reference_walsh(f):
    """The int64 butterfly the byte-table kernel replaced, one stage per h."""
    a = f.signs()
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


@pytest.mark.parametrize("n", range(1, 19))
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


def test_walsh_allocates_the_result_and_little_else():
    # the int64 result is 8 bytes per entry and its int32 halves are the
    # work buffers, so little else may be allocated
    n = 20
    f = random_mm_bent(n, XorShift64Star(20))
    tracemalloc.start()
    try:
        walsh_transform(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9.5 * (1 << n), peak / (1 << n)


def test_byte_table_is_the_3_variable_spectrum():
    from bentkit.core import _BYTE_WALSH
    from bentkit.oracle import naive_walsh

    assert _BYTE_WALSH.dtype == np.int32 and _BYTE_WALSH.shape == (256, 8)
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
@given(st.integers(1, 8), st.integers())
def test_mobius_involution(n, seed):
    f = random_function(n, XorShift64Star(seed))
    assert mobius_inv(mobius(f)) == f


@settings(max_examples=40)
@given(st.integers(1, 8), st.integers())
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


def test_degree_of_variable_mm_bent():
    # x1x3 + x2x4: every variable sits in a quadratic term (ANF oracle)
    f = mobius_inv(AnfPolynomial(4, (1 << 0b1010) | (1 << 0b0101)))
    assert sorted(mobius(f).monomials()) == [(1, 3), (2, 4)]
    assert [degree_of_variable(f, i) for i in (1, 2, 3, 4)] == [2, 2, 2, 2]


# -- restrict / derivative / operators / translate ----------------------


def test_restrict_examples():
    f = X1X2
    assert f.restrict(1, 0) == BooleanFunction.zero(1)
    assert f.restrict(1, 1) == BooleanFunction(1, [0, 1])
    with pytest.raises(ValueError):
        f.restrict(3, 0)
    with pytest.raises(ValueError):
        BooleanFunction(1, [0, 1]).restrict(1, 0)


def test_derivative_examples():
    f = random_function(5, XorShift64Star(3))
    assert f.derivative((0, 0, 0, 0, 0)) == BooleanFunction.zero(5)
    lin = BooleanFunction.linear(4, 0b1100)
    a = (1, 0, 1, 0)
    # derivative of a linear function is the constant mask.a
    want = BooleanFunction.constant(4, 1)  # (1,1,0,0).(1,0,1,0) = 1
    assert lin.derivative(a) == want


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
@given(st.integers(2, 8), st.integers(), st.data())
def test_restriction_pair_vs_derivative(n, seed, data):
    # f|x_j=0 xor f|x_j=1 equals D_(e_j) f with coordinate j dropped
    f = random_function(n, XorShift64Star(seed))
    j = data.draw(st.integers(1, n))
    lhs = f.restrict(j, 0) ^ f.restrict(j, 1)
    e_j = tuple(1 if i == j else 0 for i in range(1, n + 1))
    rhs = f.derivative(e_j).restrict(j, 0)
    assert lhs == rhs


@settings(max_examples=30)
@given(st.integers(1, 7), st.integers(), st.integers())
def test_degree_of_xor_bounded(n, s1, s2):
    f = random_function(n, XorShift64Star(s1))
    g = random_function(n, XorShift64Star(s2))
    assert degree(f ^ g) <= max(degree(f), degree(g))
