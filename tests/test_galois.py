import re

import numpy as np
import pytest

from bentkit import GaloisField
from bentkit.galois import is_irreducible, smallest_irreducible


def test_fixed_polynomials_are_the_expected_ones():
    # X^2+X+1, X^3+X+1, X^4+X+1, ...
    assert smallest_irreducible(2) == 0b111
    assert smallest_irreducible(3) == 0b1011
    assert smallest_irreducible(4) == 0b10011
    assert smallest_irreducible(8) == 0b100011011


def test_irreducibility_check():
    assert is_irreducible(0b111, 2)
    assert not is_irreducible(0b101, 2)  # (X+1)^2
    assert not is_irreducible(0b110, 2)  # X(X+1)


def test_irreducibility_needs_the_degree_asked():
    # X^2+X+1 is irreducible, but it is no polynomial of degree 3
    assert not is_irreducible(0b111, 3)


def test_gf4_multiplication_table():
    gf = GaloisField(2)
    # 2 is the class of X; X*X = X+1 under X^2+X+1
    assert gf.mul(2, 2) == 3
    assert gf.mul(2, 3) == 1
    assert gf.mul(3, 3) == 2


def test_division_convention():
    gf = GaloisField(4)
    for x in range(16):
        assert gf.div(x, 0) == 0


def test_inverse_law_gf16():
    gf = GaloisField(4)
    for p in range(1, 16):
        assert gf.mul(p, gf.inv(p)) == 1
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)


def test_division_matches_multiplication():
    gf = GaloisField(3)
    for p in range(8):
        for q in range(1, 8):
            assert gf.mul(gf.div(p, q), q) == p


def test_trace_values():
    gf = GaloisField(2)
    assert gf.trace(0) == 0
    assert gf.trace(1) == 0  # m even: m copies of 1
    assert gf.trace(2) == 1  # frozen from direct field evaluation
    assert GaloisField(3).trace(1) == 1  # m odd


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
def test_trace_linear_and_balanced(m):
    gf = GaloisField(m)
    traces = [gf.trace(p) for p in range(gf.order)]
    assert sum(traces) == gf.order // 2
    for p in range(gf.order):
        for q in range(0, gf.order, max(1, gf.order // 8)):
            assert gf.trace(p ^ q) == traces[p] ^ traces[q]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_mul_commutative_associative(m):
    gf = GaloisField(m)
    elems = range(gf.order)
    for a in elems:
        for b in elems:
            assert gf.mul(a, b) == gf.mul(b, a)
            for c in elems:
                assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))


@pytest.mark.parametrize("m", [0, 14, 16])
def test_degree_is_capped_where_psap_fills_the_variable_cap(m):
    # 2m variables of PS_ap, at most MAX_VARS = 26
    with pytest.raises(ValueError, match=re.escape(f"must be in [1, 13], got {m}")):
        GaloisField(m)


def test_reverse_bits_is_the_block_element_order():
    gf = GaloisField(4)
    assert gf.reverse_bits(0) == 0
    assert gf.reverse_bits(0b1000) == 1  # x_1 = 1 is the element 1
    assert gf.reverse_bits(0b0110) == 0b0110
    blocks = np.arange(16)
    elems = gf.reverse_bits(blocks)
    assert sorted(elems.tolist()) == list(range(16))
    assert np.array_equal(gf.reverse_bits(elems), blocks)  # an involution
    assert elems.tolist() == [gf.reverse_bits(b) for b in range(16)]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
def test_exp_log_tables_are_inverse_bijections(m):
    gf = GaloisField(m)
    span = gf.order - 1
    assert sorted(gf.exp.tolist()) == list(range(1, gf.order))
    assert all(gf.log[gf.exp[k]] == k for k in range(span))
    # exp walks the powers of exp[1] (of 1 when m = 1) through mul
    g = int(gf.exp[1 % span])
    assert all(gf.exp[(k + 1) % span] == gf.mul(int(gf.exp[k]), g) for k in range(span))
    for p in range(1, gf.order):
        for q in range(1, gf.order):
            assert gf.mul(p, q) == gf.exp[(gf.log[p] + gf.log[q]) % span]


@pytest.mark.parametrize("call, error, fragment", [
    pytest.param(lambda: GaloisField(3).mul(8, 1), ValueError,
                 "element must be in [0, 7], got 8", id="mul-outside-field"),
])
def test_bad_arguments_raise_with_a_message(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)) as exc:
        call()
    assert type(exc.value) is error
