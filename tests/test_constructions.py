import itertools
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest

from bentkit import (
    AnfPolynomial,
    BentTriple,
    BooleanFunction,
    GaloisField,
    LinearSubspace,
    PermutationMap,
    PremiseError,
    bent_triple_from_derivative,
    class_d_bent,
    class_d_restricted_sum,
    degree,
    degree_of_variable,
    direct_sum,
    dual,
    generalized_indirect_sum,
    indirect_sum,
    is_bent,
    mm_function,
    mm_restricted_sum,
    mobius,
    mobius_inv,
    nonlinearity,
    psap_bent,
    psap_restricted_sum,
    resiliency_report,
    resilient_indirect_sum,
    resilient_indirect_sum_from_pair,
    restricted_indirect_sum,
    restricted_indirect_sum_dual,
    rothaus,
    rothaus_restricted_sum,
    walsh_case,
    walsh_transform,
)
from bentkit import analysis, core
from bentkit.constructions import _two_block, class_d_e1
from bentkit.oracle import naive_walsh, resiliency_by_definition
from bentkit.rand import (
    XorShift64Star,
    random_balanced,
    random_balanced_field_table,
    random_bent,
    random_derivative_triple,
    random_function,
    random_mm_bent,
    random_mm_bent_triple,
    random_permutation,
    random_resilient,
    random_resilient_triple,
)

MM4 = mm_function(PermutationMap.identity(2), BooleanFunction.zero(2))  # x1x3+x2x4


# -- PermutationMap / LinearSubspace ---------------------------------------


def test_permutation_map_basics():
    p = PermutationMap.identity(3)
    assert p.is_permutation
    assert p(5) == 5
    q = PermutationMap([3, 3, 0, 1])
    assert not q.is_permutation
    wide = PermutationMap([1, 2, 4, 8], r=4)
    assert not wide.is_permutation


def test_linear_subspace_canonical_basis():
    s1 = LinearSubspace(3, [0b011, 0b101])
    s2 = LinearSubspace(3, [0b110, 0b011])
    assert s1 == s2
    assert s1.dim == 2
    assert sorted(s1.members()) == [0b000, 0b011, 0b101, 0b110]
    assert s1.contains(0b110)
    assert not s1.contains(0b001)


def test_linear_subspace_orthogonal():
    s = LinearSubspace(3, [0b011])
    orth = s.orthogonal()
    assert orth.dim == 2
    assert all(bin(v & 0b011).count("1") % 2 == 0 for v in orth.members())
    assert LinearSubspace.zero(3).orthogonal() == LinearSubspace.full(3)


def _reduced_basis(members):
    """The reduced echelon basis of a subspace given by its members: the
    pivots are the top bits of the nonzero members, and each pivot's row
    is the member with that top bit and no other pivot bit."""
    pivots = sum({1 << (v.bit_length() - 1) for v in members if v})
    rows = [v for v in members if v and v & pivots == 1 << (v.bit_length() - 1)]
    return tuple(sorted(rows, reverse=True))


def test_linear_subspace_matches_a_brute_force_reference():
    # every list of up to three vectors in F_2^k for k <= 4: the span and
    # its complement by brute force, each read back as a reduced basis
    lists = 0
    for k in range(1, 5):
        for size in range(4):
            for vectors in itertools.product(range(1 << k), repeat=size):
                span = {0}
                for v in vectors:
                    span |= {w ^ v for w in span}
                perp = {w for w in range(1 << k)
                        if all((w & v).bit_count() % 2 == 0 for v in span)}
                s = LinearSubspace(k, vectors)
                assert s.basis == _reduced_basis(span), vectors
                assert s.orthogonal().basis == _reduced_basis(perp), vectors
                assert {w for w in range(1 << k) if s.contains(w)} == span
                lists += 1
    assert lists == 15 + 85 + 585 + 4369


def test_linear_subspace_complement_of_the_complement_at_k13():
    rng = XorShift64Star(45)
    for _ in range(20):
        s = LinearSubspace(13, [rng.randrange(1 << 13) for _ in range(rng.randint(0, 14))])
        perp = s.orthogonal()
        assert s.dim + perp.dim == 13
        assert perp.orthogonal() == s


# -- M-M -------------------------------------------------------------------


def test_mm_identity_is_quadratic_bent():
    assert sorted(mobius(MM4).monomials()) == [(1, 3), (2, 4)]
    assert is_bent(MM4)


def test_mm_constant_map_not_bent():
    f = mm_function(PermutationMap([2, 2, 2, 2]), BooleanFunction.zero(2))
    assert not is_bent(f)
    with pytest.raises(PremiseError):
        mm_function(PermutationMap([2, 2, 2, 2]), BooleanFunction.zero(2),
                    require_bent=True)


def test_mm_resilient_wide_map():
    images = [0b00011, 0b00110, 0b01100, 0b11000, 0b00101, 0b01010, 0b10100, 0b01001]
    f = mm_function(PermutationMap(images, r=5), BooleanFunction.zero(3))
    assert f.n == 8
    assert resiliency_report(f).resiliency == 1
    assert nonlinearity(f) == 112


def reference_mm(phi, u):
    """The M-M table from the parity of x & phi(y), entry by entry, through
    a uint32 outer table of all 2^(r+k) entries."""
    x = np.arange(1 << phi.r, dtype=np.uint32)
    table = np.bitwise_count(np.bitwise_and.outer(x, np.array(phi.images, np.uint32))) & 1
    return BooleanFunction(phi.r + phi.k, (table ^ u.values()).reshape(-1))


@pytest.mark.parametrize("k", range(1, 9))
def test_mm_agrees_with_the_parity_table(k):
    # every r from 1 to 10, so r = k and r != k, with rows of under a byte
    # at k <= 2; seeded maps and u, and a permutation at r = k
    rng = XorShift64Star(4600 + k)
    for r in range(1, 11):
        maps = [PermutationMap([rng.bits(r) for _ in range(1 << k)], r) for _ in range(2)]
        if r == k:
            maps.append(random_permutation(k, rng))
        for phi in maps:
            u = random_function(k, rng)
            assert mm_function(phi, u) == reference_mm(phi, u), (k, r)


def test_mm_allocates_a_few_packed_tables_at_26_variables():
    # the output packs into 8 MiB; a uint32 entry per point would be 256 MiB
    phi, u = PermutationMap.identity(13), BooleanFunction.zero(13)
    tracemalloc.start()
    try:
        f = mm_function(phi, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * (1 << 23), peak / (1 << 23)
    assert f.weight == (1 << 25) - (1 << 12)  # x.y is bent: 2^(n-1) - 2^(n/2-1)


# -- PS_ap -----------------------------------------------------------------


def test_psap_small_example_bent():
    f = psap_bent(GaloisField(2), [0, 0, 1, 1])
    assert f.n == 4
    assert is_bent(f)


def test_psap_rejects_bad_theta():
    gf = GaloisField(2)
    with pytest.raises(PremiseError):
        psap_bent(gf, [0, 1, 1, 1])  # unbalanced
    with pytest.raises(PremiseError):
        psap_bent(gf, [1, 1, 0, 0])  # theta(0) != 0


def test_psap_trace_theta_bent():
    gf = GaloisField(3)
    theta = [gf.trace(gf.mul(3, p)) for p in range(8)]
    assert psap_bent(gf, theta).n == 6
    assert is_bent(psap_bent(gf, theta))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
def test_psap_matches_scalar_division(m):
    # m = 1 has a one-element multiplicative group; at m = 8 the class of
    # X is not a generator modulo 0x11B
    gf = GaloisField(m)
    # block index (x_1 in the top bit) of each field element
    block = [sum(((e >> (j - 1)) & 1) << (m - j) for j in range(1, m + 1))
             for e in range(gf.order)]
    quotient = {(block[x] << m) | block[y]: gf.div(x, y)
                for x in range(gf.order) for y in range(gf.order)}
    for seed in range(3):
        theta = random_balanced_field_table(m, XorShift64Star(seed))
        want = [theta[quotient[i]] for i in range(1 << (2 * m))]
        assert psap_bent(gf, theta) == BooleanFunction(2 * m, want)


# -- class D ----------------------------------------------------------------


def test_class_d_examples_and_error():
    rng = XorShift64Star(17)
    phi = random_permutation(2, rng, fix_zero=True)
    f = class_d_bent(phi, LinearSubspace.full(2), LinearSubspace.zero(2))
    assert is_bent(f)
    psi = random_permutation(2, rng)
    g = class_d_bent(psi, LinearSubspace.zero(2), LinearSubspace.full(2))
    assert is_bent(g)
    with pytest.raises(PremiseError):
        class_d_bent(psi, LinearSubspace.full(2), LinearSubspace.full(2))


def test_class_d_delta_shape():
    # E2 = {0}: the added term is 1_E1(x) * delta_0(y)
    phi = PermutationMap.identity(2)
    f = class_d_bent(phi, LinearSubspace.full(2), LinearSubspace.zero(2))
    base = mm_function(phi, BooleanFunction.zero(2))
    diff = f ^ base
    assert diff.weight == 4  # delta_0(y) over the 4 x-values
    assert all(diff.bit(i) == (1 if i % 4 == 0 else 0) for i in range(16))


# -- direct / indirect sums --------------------------------------------------


def test_direct_sum_bent_nonlinearity_formula():
    h = direct_sum(MM4, MM4)
    assert nonlinearity(h) == 16 * 6 + 16 * 6 - 2 * 6 * 6 == 120
    assert is_bent(h)


def test_direct_sum_fresh_variable_raises_resiliency():
    f = random_balanced(4, XorShift64Star(3))
    h = direct_sum(f, BooleanFunction.variable(1, 1))
    assert resiliency_report(h).resiliency >= resiliency_report(f).resiliency + 1


def test_direct_sum_three_resilient():
    h = direct_sum(BooleanFunction.linear(2, 0b11), BooleanFunction.linear(2, 0b11))
    assert resiliency_report(h).resiliency == 3


def test_indirect_sum_degenerates_to_direct_sum():
    rng = XorShift64Star(8)
    f1 = random_mm_bent(4, rng)
    g1, g2 = random_mm_bent(4, rng), random_mm_bent(4, rng)
    assert indirect_sum(f1, f1, g1, g2) == direct_sum(f1, g1)


def test_indirect_sum_bent_with_dual_formula():
    rng = XorShift64Star(88)
    f1, f2 = random_mm_bent(4, rng), random_mm_bent(4, rng)
    g1, g2 = random_mm_bent(4, rng), random_mm_bent(4, rng)
    h = indirect_sum(f1, f2, g1, g2)
    assert is_bent(h)
    assert dual(h) == indirect_sum(dual(f1), dual(f2), dual(g1), dual(g2))


@pytest.mark.parametrize("ny", range(1, 6))
@pytest.mark.parametrize("nx", range(1, 7))
def test_indirect_tables_match_the_bit_formula(nx, ny):
    # every y block takes the byte layout: 1 and 2 variables share a byte
    # between rows, 3 or more give each row whole bytes
    rng = XorShift64Star(100 * nx + ny)
    for count in (0, 1, 2) * 2:  # direct, indirect and generalized indirect sums
        fa, gb = random_function(nx, rng), random_function(ny, rng)
        products = [(random_function(nx, rng), random_function(ny, rng))
                    for _ in range(count)]
        h = _two_block(fa, gb, *products)
        assert h.n == nx + ny
        for x in range(1 << nx):
            for y in range(1 << ny):
                want = fa.bit(x) ^ gb.bit(y)
                for p, q in products:
                    want ^= p.bit(x) & q.bit(y)
                assert h.bit((x << ny) | y) == want, (x, y, count)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_two_block_allocates_a_few_packed_tables(m):
    # the rows, their bytes and the packed int are each 1/8 byte per entry;
    # no block size may unpack one uint8 per entry
    rng = XorShift64Star(22 + m)
    fa, p = random_function(22 - m, rng), random_function(22 - m, rng)
    gb, q = random_function(m, rng), random_function(m, rng)
    tracemalloc.start()
    try:
        _two_block(fa, gb, (p, q))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * (1 << 22), peak / (1 << 22)


# -- restricted indirect sum --------------------------------------------------


def test_restricted_indirect_sum_frozen_example():
    h = restricted_indirect_sum(MM4, 4, MM4, 4, "00")
    assert h.n == 6
    assert is_bent(h)
    assert nonlinearity(h) == 28


def test_restricted_indirect_sum_m2_partner():
    g = BooleanFunction(2, [0, 0, 0, 1])  # y1y2
    f = random_mm_bent(6, XorShift64Star(13))
    h = restricted_indirect_sum(f, 2, g, 2, "00")
    assert h.n == 6
    assert is_bent(h)
    f0 = f.restrict(2, 0)
    assert degree(f0) <= degree(h) <= degree(f)


def test_restricted_indirect_sum_all_variants_bent():
    rng = XorShift64Star(99)
    f, g = random_bent(6, rng), random_bent(4, rng)
    for variant in ("00", "01", "10", "11"):
        assert is_bent(restricted_indirect_sum(f, 1, g, 3, variant))


def test_restricted_indirect_sum_rejects_non_bent():
    with pytest.raises(PremiseError):
        restricted_indirect_sum(
            BooleanFunction.linear(4, 1), 1, MM4, 1, "00"
        )
    with pytest.raises(ValueError):
        restricted_indirect_sum(MM4, 5, MM4, 1, "00")


def test_restricted_dual_matches_analysis_dual():
    rng = XorShift64Star(5)
    for _ in range(5):
        f, g = random_bent(4, rng), random_bent(6, rng)
        mu = 1 + rng.randrange(4)
        rho = 1 + rng.randrange(6)
        h = restricted_indirect_sum(f, mu, g, rho, "00")
        assert dual(h) == restricted_indirect_sum_dual(f, mu, g, rho)
        # the dual of the dual returns h
        assert dual(dual(h)) == h


def test_restricted_dual_self_dual_inputs():
    # x1x3+x2x4 is self-dual, so the dual formula reads the primal tables
    assert dual(MM4) == MM4
    h = restricted_indirect_sum(MM4, 4, MM4, 4, "00")
    assert restricted_indirect_sum_dual(MM4, 4, MM4, 4) == dual(h)


# -- specializations ----------------------------------------------------------


def test_mm_restricted_sum_equals_composed_route():
    rng = XorShift64Star(7)
    for _ in range(5):
        phi, psi = random_permutation(2, rng), random_permutation(3, rng)
        u, v = random_function(2, rng), random_function(3, rng)
        mu, rho = 1 + rng.randrange(2), 1 + rng.randrange(3)
        lhs = mm_restricted_sum(phi, psi, mu, rho, u, v)
        rhs = restricted_indirect_sum(
            mm_function(phi, u), mu, mm_function(psi, v), rho, "00"
        )
        assert lhs == rhs
        assert is_bent(lhs)


def test_mm_restricted_sum_projection_stays_mm():
    # psi_rho a coordinate projection with the residual still a
    # permutation: the output is affine in every surviving x variable
    phi = PermutationMap.identity(3)
    psi = PermutationMap.identity(2)
    h = mm_restricted_sum(phi, psi, 1, 1, BooleanFunction.zero(3),
                          BooleanFunction.zero(2))
    assert is_bent(h)
    p = mobius(h)
    affine_vars = [1, 2] + [6, 7]  # surviving x_i and y_j affine blocks
    for mono in p.monomials():
        assert sum(1 for j in mono if j in affine_vars) <= 1


def test_mm_restricted_sum_small_case_bent():
    h = mm_restricted_sum(
        PermutationMap.identity(2), PermutationMap.identity(2), 1, 1,
        BooleanFunction.zero(2), BooleanFunction.zero(2),
    )
    assert h.n == 6
    assert is_bent(h)


def test_psap_restricted_sum_bent_and_trace_error():
    gf = GaloisField(2)
    h = psap_restricted_sum(
        gf, [0, 0, 1, 1], (1, 0), (2, 0), gf, [0, 1, 1, 0], (0, 1), (0, 3)
    )
    assert h.n == 6
    assert is_bent(h)
    with pytest.raises(PremiseError):
        psap_restricted_sum(
            gf, [0, 0, 1, 1], (1, 0), (1, 0), gf, [0, 1, 1, 0], (0, 1), (0, 3)
        )
    with pytest.raises(PremiseError):
        psap_restricted_sum(
            gf, [0, 0, 1, 1], (0, 0), (2, 0), gf, [0, 1, 1, 0], (0, 1), (0, 3)
        )


def test_psap_split_complementary_plateaued():
    from bentkit import complementary_plateaued
    from bentkit.constructions import _trace_hyperplane_split

    gf = GaloisField(3)
    theta = [gf.trace(gf.mul(5, p)) for p in range(8)]
    f = psap_bent(gf, theta)
    f0, f1 = _trace_hyperplane_split(f, gf, (1, 2), (5, 0))
    assert complementary_plateaued(f0, f1)


def reference_trace_hyperplane_split(f, field, form, shift):
    """The point-array form _trace_hyperplane_split had before it cut the
    halves with restrict: the 2^(n-1) points of the Gaussian-elimination
    basis (lexicographically first pivot), gathered from the unpacked
    table at each point and at each point plus the shift."""
    m, n = field.m, 2 * field.m
    a, b = form
    lam = 0
    for j in range(1, m + 1):
        e = 1 << (j - 1)
        lam |= field.trace(field.mul(a, e)) << (n - j)
        lam |= field.trace(field.mul(b, e)) << (n - (m + j))
    pivot = next(j for j in range(1, n + 1) if (lam >> (n - j)) & 1)
    basis = []
    for j in range(1, n + 1):
        if j == pivot:
            continue
        vec = 1 << (n - j)
        if (lam >> (n - j)) & 1:
            vec ^= 1 << (n - pivot)
        basis.append(vec)
    size = 1 << (n - 1)
    pts = np.zeros(size, dtype=np.int64)
    t = np.arange(size)
    for pos, vec in enumerate(basis):  # basis[pos] belongs to t_(pos+1)
        pts[((t >> (n - 2 - pos)) & 1) == 1] ^= vec
    alpha, beta = shift
    sidx = (field.reverse_bits(alpha) << m) | field.reverse_bits(beta)
    vals = f.values()
    return (
        BooleanFunction(n - 1, vals[pts]),
        BooleanFunction(n - 1, vals[pts ^ sidx]),
    )


def _trace_one_shift(field, form, rng):
    """A seeded shift (alpha, beta) with Tr(a alpha + b beta) = 1: a
    random pair, moved by a unit of the form's nonzero block if its trace
    is 0, as the trace is linear."""
    a, b = form
    alpha, beta = rng.randrange(field.order), rng.randrange(field.order)
    if field.trace(field.mul(a, alpha) ^ field.mul(b, beta)) == 0:
        unit = next(
            u for u in range(1, field.order) if field.trace(field.mul(a or b, u))
        )
        if a:
            alpha ^= unit
        else:
            beta ^= unit
    return alpha, beta


@pytest.mark.parametrize("m", range(1, 9))
def test_trace_hyperplane_split_agrees_with_the_point_array_form(m):
    # every nonzero form up to m = 4, seeded forms after it (a = 0 puts
    # the pivot in the y block); the halves of a random function, so
    # every table bit is read
    from bentkit.constructions import _trace_hyperplane_split

    gf = GaloisField(m)
    rng = XorShift64Star(1700 + m)
    f = random_function(2 * m, rng)
    if m <= 4:
        forms = [(a, b) for a in range(gf.order) for b in range(gf.order) if a or b]
    else:
        forms = [(0, 1 + rng.randrange(gf.order - 1)), (1 + rng.randrange(gf.order - 1), 0)]
        forms += [(1 + rng.randrange(gf.order - 1), rng.randrange(gf.order)) for _ in range(4)]
    for form in forms:
        shift = _trace_one_shift(gf, form, rng)
        got = _trace_hyperplane_split(f, gf, form, shift)
        assert got == reference_trace_hyperplane_split(f, gf, form, shift), (m, form, shift)


def reference_rothaus_halves(f1, f2, f3):
    """The halves at the last fresh variable z that the Rothaus extension
    was built from before it became one two-block table: h0 (z = 0) is
    maj + (f1+f2) y and h1 (z = 1) is h0 + (f1+f3) + y, each with its
    fresh variable appended by a two-block table of its own."""
    def with_fresh_product(a, b):  # a(x) + b(x) y, y appended after x_n
        return _two_block(a, BooleanFunction.zero(1), (b, BooleanFunction.variable(1, 1)))

    maj = (f1 & f2) ^ (f1 & f3) ^ (f2 & f3)
    h0 = with_fresh_product(maj, f1 ^ f2)
    h1 = with_fresh_product(maj ^ f1 ^ f3, ~(f1 ^ f2))
    return h0, h1, with_fresh_product(h0, h0 ^ h1)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_rothaus_routes_agree_with_the_halves_form(n):
    rng = XorShift64Star(1800 + n)
    for _ in range(3):
        fs = random_mm_bent_triple(n, rng)
        gs = random_mm_bent_triple(2 * (1 + rng.randrange(3)), rng)
        f0, f1, extension = reference_rothaus_halves(*fs)
        g0, g1, _ = reference_rothaus_halves(*gs)
        assert rothaus(*fs) == extension
        assert rothaus_restricted_sum(*fs, *gs) == indirect_sum(f0, f1, g0, g1)


def test_rothaus_restricted_sum_names_the_first_failed_premise():
    # all eight premises are checked, f side first, each under its own name
    rng = XorShift64Star(1811)
    fs, gs = random_mm_bent_triple(4, rng), random_mm_bent_triple(4, rng)
    flat = BooleanFunction.zero(4)
    with pytest.raises(PremiseError, match="^g1 must be bent$"):
        rothaus_restricted_sum(*fs, flat, *gs[1:])
    with pytest.raises(PremiseError, match="^f3 must be bent$"):
        rothaus_restricted_sum(*fs[:2], flat, flat, *gs[1:])


def test_rothaus_collapse_and_premises():
    rng = XorShift64Star(41)
    f = random_mm_bent(4, rng)
    collapsed = rothaus(f, f, f)
    assert collapsed == direct_sum(f, BooleanFunction(2, [0, 0, 0, 1]))
    assert is_bent(collapsed)
    f1, f2, f3 = random_mm_bent_triple(4, rng)
    assert is_bent(rothaus(f1, f2, f3))
    bad = (f1, f2, f1 ^ f2 ^ BooleanFunction.variable(4, 1))
    with pytest.raises(PremiseError):
        rothaus(*bad)


def test_rothaus_restricted_sum_collapse():
    import numpy as np

    rng = XorShift64Star(43)
    f = random_mm_bent(4, rng)
    g = random_mm_bent(4, rng)
    h = rothaus_restricted_sum(f, f, f, g, g, g)
    # collapses to f(x) + g(y) + x5*y5 on the (n+1)+(m+1) layout
    fx = np.repeat(f.values(), 2)  # f over the 5-bit x block
    gy = np.repeat(g.values(), 2)
    fresh = np.tile(np.array([0, 1], dtype=np.uint8), 1 << 4)  # x5 resp. y5
    table = (
        np.repeat(fx, 1 << 5) ^ np.tile(gy, 1 << 5)
        ^ (np.repeat(fresh, 1 << 5) & np.tile(fresh, 1 << 5))
    )
    assert h == BooleanFunction(10, table)
    assert is_bent(h)


def test_rothaus_restricted_sum_equals_composed_route():
    rng = XorShift64Star(47)
    f1, f2, f3 = random_mm_bent_triple(4, rng)
    g1, g2, g3 = random_mm_bent_triple(4, rng)
    lhs = rothaus_restricted_sum(f1, f2, f3, g1, g2, g3)
    rhs = restricted_indirect_sum(
        rothaus(f1, f2, f3), 6, rothaus(g1, g2, g3), 6, "00"
    )
    assert lhs == rhs
    assert lhs.n == 10
    assert is_bent(lhs)


def test_class_d_restricted_sum():
    rng = XorShift64Star(53)
    phi = random_permutation(2, rng, fix_zero=True)
    psi = random_permutation(2, rng, fix_zero=True)
    h = class_d_restricted_sum(
        phi, LinearSubspace.full(2), LinearSubspace.zero(2),
        psi, LinearSubspace.full(2), LinearSubspace.zero(2),
        1, 1,
    )
    assert h.n == 6
    assert is_bent(h)
    assert 2 <= degree(h) <= (4 + 4 - 2) // 2 - 1
    with pytest.raises(PremiseError):
        class_d_restricted_sum(
            phi, LinearSubspace.zero(2), LinearSubspace.zero(2),
            psi, LinearSubspace.full(2), LinearSubspace.zero(2),
            1, 1,
        )


def test_class_d_restricted_sum_matches_displayed_formula_n4():
    # evaluate the explicit expansion pointwise at n = m = 4 and compare
    rng = XorShift64Star(59)
    phi = random_permutation(2, rng, fix_zero=True)
    psi = random_permutation(2, rng, fix_zero=True)
    e2 = LinearSubspace(2, [0b10])
    e1 = LinearSubspace(2, [phi(0b10)]).orthogonal()
    xi2 = LinearSubspace.zero(2)
    xi1 = LinearSubspace.full(2)
    mu = rho = 1
    h = class_d_restricted_sum(phi, e1, e2, psi, xi1, xi2, mu, rho)

    def phi_bit(pm, i, y):
        return (pm(y) >> (pm.r - i)) & 1

    def displayed(xbits, ybits):
        # xbits: (x2, x3, x4) with x1 removed; same for y
        x = {2: xbits[0], 3: xbits[1], 4: xbits[2]}
        y = {2: ybits[0], 3: ybits[1], 4: ybits[2]}
        xin = (x[3] << 1) | x[4]
        yin = (y[3] << 1) | y[4]
        acc = phi_bit(phi, 2, xin) & x[2]
        acc ^= phi_bit(psi, 2, yin) & y[2]
        ind_e2 = 1 if e2.contains(xin) else 0
        ind_xi2 = 1 if xi2.contains(yin) else 0
        sum_f, sum_f_tau = 0, 0
        for tau in e1.members():
            t1, t2 = (tau >> 1) & 1, tau & 1
            prod = x[2] ^ t2 ^ 1
            sum_f ^= prod
            sum_f_tau ^= (t1 ^ 1) & prod
        sum_g, sum_g_tau = 0, 0
        for sig in xi1.members():
            s1, s2 = (sig >> 1) & 1, sig & 1
            prod = y[2] ^ s2 ^ 1
            sum_g ^= prod
            sum_g_tau ^= (s1 ^ 1) & prod
        acc ^= sum_f_tau & ind_e2
        acc ^= sum_g_tau & ind_xi2
        acc ^= phi_bit(phi, 1, xin) & phi_bit(psi, 1, yin)
        acc ^= phi_bit(psi, 1, yin) & sum_f & ind_e2
        acc ^= phi_bit(phi, 1, xin) & sum_g & ind_xi2
        acc ^= (sum_f & ind_e2) & (sum_g & ind_xi2)
        return acc

    for idx in range(1 << 6):
        xb = tuple((idx >> (5 - i)) & 1 for i in range(3))
        yb = tuple((idx >> (2 - i)) & 1 for i in range(3))
        assert h.bit(idx) == displayed(xb, yb), (xb, yb)


def test_degree_bound_on_composites():
    rng = XorShift64Star(61)
    f, g = random_bent(6, rng), random_bent(6, rng)
    h = restricted_indirect_sum(f, 3, g, 5, "00")
    assert 2 <= degree(h) <= (6 + 6 - 2) // 2 - 1


def test_degree_equality_condition_has_an_edge_at_m4():
    # the bound can be met through the base term alone when one side has
    # only 4 variables, so the product-term criterion is one-directional
    import itertools

    phi = PermutationMap.identity(3)
    u = BooleanFunction(3, [0, 0, 0, 0, 0, 0, 0, 1])  # y1y2y3
    f = mm_function(phi, u)
    g = MM4
    h = restricted_indirect_sum(f, 1, g, 1, "00")
    bound = (6 + 4 - 2) // 2 - 1
    assert degree(h) == bound
    assert degree_of_variable(f, 1) == 2 != 3  # condition fails regardless

    # second opinion on the degree: direct subcube XOR sums, sharing no
    # code with the transform path
    def coeff(subset):
        acc = 0
        for bits in itertools.product([0, 1], repeat=len(subset)):
            x = [0] * h.n
            for j, b in zip(subset, bits):
                x[j - 1] = b
            acc ^= h(tuple(x))
        return acc

    assert any(coeff(s) for s in itertools.combinations(range(1, h.n + 1), bound))
    assert not any(
        coeff(s) for s in itertools.combinations(range(1, h.n + 1), bound + 1)
    )

    # the forward direction: full variable degrees do force equality
    h2 = restricted_indirect_sum(f, 4, g, 1, "00")
    assert degree_of_variable(f, 4) == 3 and degree_of_variable(g, 1) == 2
    assert degree(h2) == bound


def _check_degree_formula(f, mu, g, rho, variant):
    """deg h against README's formula, max(deg f_a, deg g_b, d_mu + d_rho
    - 2), and its corollary for n, m >= 4: the bound (n + m)/2 - 2 is met
    exactly when both variable degrees are full, or one side has 4
    variables and the other side's base term has full degree."""
    n, m = f.n, g.n
    dfa = degree(f.restrict(mu, int(variant[0])))
    dgb = degree(g.restrict(rho, int(variant[1])))
    dmu, drho = degree_of_variable(f, mu), degree_of_variable(g, rho)
    d = degree(restricted_indirect_sum(f, mu, g, rho, variant))
    where = (n, m, mu, rho, variant)
    assert d == max(dfa, dgb, dmu + drho - 2), where
    full = dmu == n // 2 and drho == m // 2
    base = (m == 4 and dfa == n // 2) or (n == 4 and dgb == m // 2)
    assert d <= (n + m) // 2 - 2, where
    assert (d == (n + m) // 2 - 2) == (full or base), where


def _bent_functions_of_4_variables():
    # a 4-variable bent function has degree <= 2, so the 2^11 polynomials
    # over the monomials of degree <= 2 contain every one of them
    low = [s for s in range(16) if s.bit_count() <= 2]
    out = []
    for coeffs in range(1 << len(low)):
        mask = sum(1 << s for k, s in enumerate(low) if (coeffs >> k) & 1)
        f = mobius_inv(AnfPolynomial(4, mask))
        if is_bent(f):
            out.append(f)
    return out


def test_restricted_sum_degree_formula_on_every_4_variable_side():
    # the formula reads only (deg f_a, d_mu) from each side, so every
    # 4-variable bent function, coordinate and base bit is taken once on
    # each side, against seeded partners
    bent4 = _bent_functions_of_4_variables()
    assert len(bent4) == 896
    rng = XorShift64Star(896)
    partners = [random_bent(m, rng) for m in (4, 6) for _ in range(4)]
    rows = 0
    for f in bent4:
        for mu in range(1, 5):
            assert degree_of_variable(f, mu) >= 2  # no constant derivative
            for a in "01":
                g = partners[rows % len(partners)]
                rho, b = 1 + rng.randrange(g.n), "01"[rng.bits(1)]
                _check_degree_formula(f, mu, g, rho, a + b)
                _check_degree_formula(g, rho, f, mu, b + a)
                rows += 1


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_restricted_sum_degree_formula_on_seeded_pairs(n):
    rng = XorShift64Star(0xDE6 + n)
    for m in (4, 6, 8, 10):
        for _ in range(10):
            f, g = random_bent(n, rng), random_bent(m, rng)
            mu, rho = 1 + rng.randrange(n), 1 + rng.randrange(m)
            for variant in ("00", "01", "10", "11"):
                _check_degree_formula(f, mu, g, rho, variant)


# -- generalized indirect sum --------------------------------------------------


def test_generalized_reduces_to_indirect_sum():
    rng = XorShift64Star(67)
    f1, f2 = random_mm_bent(4, rng), random_mm_bent(4, rng)
    g1, g2 = random_mm_bent(4, rng), random_mm_bent(4, rng)
    assert generalized_indirect_sum(f1, f2, f2, g1, g2, g2) == indirect_sum(
        f1, f2, g1, g2
    )


def test_generalized_resilient_mode():
    rng = XorShift64Star(71)
    fs = random_resilient_triple(3, 0, rng)
    gs = random_resilient_triple(3, 0, rng)
    h = generalized_indirect_sum(*fs, *gs, mode="resilient", t=0, k=0)
    assert h.n == 6
    assert resiliency_report(h).resiliency >= 1
    assert resiliency_by_definition(h, 1)


def test_generalized_resilient_mode_rejects():
    rng = XorShift64Star(73)
    fs = random_resilient_triple(3, 0, rng)
    gs = (
        BooleanFunction.constant(3, 1),
        random_balanced(3, rng),
        random_balanced(3, rng),
    )
    with pytest.raises(PremiseError):
        generalized_indirect_sum(*fs, *gs, mode="resilient", t=0, k=0)


def test_generalized_resilient_mode_decides_orders_up_to_one_without_spectra(
    monkeypatch,
):
    rng = XorShift64Star(74)
    fs = random_resilient_triple(4, 1, rng)
    gs = random_resilient_triple(3, 0, rng)
    fs2 = random_resilient_triple(5, 2, rng)
    reports = []
    real_report = analysis.resiliency_report
    monkeypatch.setattr(
        analysis, "resiliency_report", lambda f: reports.append(f) or real_report(f)
    )
    h = generalized_indirect_sum(*fs, *gs, mode="resilient", t=1, k=0)
    assert not reports  # the XORs as well: no premise took a spectrum
    assert all(f._spectrum is None for f in (*fs, *gs))
    assert resiliency_report(h).resiliency >= 2
    # an order-2 premise still gets one, each of f1, f2, f3 and their XOR
    generalized_indirect_sum(*fs2, *gs, mode="resilient", t=2, k=0)
    assert len(reports) == 4
    assert all(f._spectrum is not None for f in fs2)


@pytest.mark.parametrize("t, xor_only", [
    # three balanced linear functions with a constant XOR
    (0, (0b001, 0b010, 0b011)),
    # weight-2 and weight-3 masks, 1-resilient, with XOR x4: balanced,
    # not 1-resilient
    (1, (0b1100, 0b0110, 0b1011)),
])
def test_resilient_premise_error_names_the_xor_when_only_it_fails(t, xor_only):
    n = max(m.bit_length() for m in xor_only)
    fs = [BooleanFunction.linear(n, m) for m in xor_only]
    gs = random_resilient_triple(3, 0, XorShift64Star(75))
    with pytest.raises(PremiseError, match=rf"^f1\+f2\+f3 is not {t}-resilient$"):
        generalized_indirect_sum(*fs, *gs, mode="resilient", t=t, k=0)
    with pytest.raises(PremiseError, match=rf"^g1\+g2\+g3 is not {t}-resilient$"):
        generalized_indirect_sum(*gs, *fs, mode="resilient", t=0, k=t)
    if t == 0:
        return
    triple, _ = random_derivative_triple(2, XorShift64Star(76))
    with pytest.raises(PremiseError, match=r"^g1\+g2\+g3 is not 1-resilient$"):
        resilient_indirect_sum(triple, *fs, 1)


def test_resilient_premise_error_names_the_first_failing_premise():
    # 1-resilient linear functions of weight 2, 3 and 3, with an XOR of weight 2
    fs = [BooleanFunction.linear(4, m) for m in (0b0011, 0b0111, 0b1110)]
    gs = random_resilient_triple(3, 0, XorShift64Star(77))
    generalized_indirect_sum(*fs, *gs, mode="resilient", t=1, k=0)
    x1 = BooleanFunction.variable(4, 1)  # balanced, not 1-resilient
    with pytest.raises(PremiseError, match=r"^f2 is not 1-resilient$"):
        generalized_indirect_sum(fs[0], x1, x1, *gs, mode="resilient", t=1, k=0)
    with pytest.raises(PremiseError, match=r"^f1 is not 2-resilient$"):
        generalized_indirect_sum(*fs, *gs, mode="resilient", t=2, k=0)


def test_generalized_bent_mode():
    rng = XorShift64Star(79)
    triple, _ = random_derivative_triple(6, rng)
    gs = random_mm_bent_triple(4, rng)
    h = generalized_indirect_sum(triple.f1, triple.f2, triple.f3, *gs, mode="bent")
    assert h.n == 10
    assert is_bent(h)


# -- bent triples and the four-case spectrum split --------------------------------------


def test_bent_triple_certification():
    rng = XorShift64Star(83)
    f1, f2, f3 = random_mm_bent_triple(6, rng)
    triple = BentTriple(f1, f2, f3)
    with pytest.raises(AttributeError):  # a member swapped in would skip the checks
        triple.f3 = BooleanFunction.variable(6, 1)
    assert triple.f3 == f3
    with pytest.raises(PremiseError):
        BentTriple(f1, f2, f1 ^ f2 ^ BooleanFunction.variable(6, 1))


def test_bent_triple_checks_its_premises_when_constructed():
    x1, x2, x3, x4 = (BooleanFunction.variable(4, j) for j in range(1, 5))
    a, b, c = (x1 & x2) ^ (x3 & x4), (x1 & x3) ^ (x2 & x4), (x1 & x4) ^ (x2 & x3)
    assert all(map(is_bent, (a, b, c, a ^ b ^ c)))
    with pytest.raises(PremiseError, match="^f3 must be bent$"):
        BentTriple(a, b, x1)
    with pytest.raises(PremiseError, match="^f1 must be bent$"):
        BentTriple(x1, x1, x1)
    # a ^ x1 x3 is bent, but the sum of the three is x2 x4
    with pytest.raises(PremiseError, match=r"^f1\+f2\+f3 must be bent$"):
        BentTriple(a, b, a ^ (x1 & x3))
    # the sum of all six products is bent, with a dual other than the duals' sum
    with pytest.raises(PremiseError, match="^the dual of the XOR must equal the XOR"):
        BentTriple(a, b, c)
    with pytest.raises(ValueError, match="share a variable count"):
        BentTriple(a, b, BooleanFunction.zero(6))
    with pytest.raises(PremiseError, match="^f1 must be bent$"):
        BentTriple(*(BooleanFunction.zero(5),) * 3)


def test_derivative_triple_properties():
    rng = XorShift64Star(89)
    triple, a = random_derivative_triple(6, rng)
    assert triple.f2 == triple.f1.translate(a)
    # nu1 is the translate of f3 and its dual picks up the linear term
    assert triple.nu1 == triple.f3.translate(a)
    lin = BooleanFunction.linear(6, a)
    assert dual(triple.nu1) == dual(triple.f3) ^ lin


def test_derivative_triple_degenerate_and_error():
    rng = XorShift64Star(97)
    f = random_mm_bent(4, rng)
    g = random_mm_bent(4, rng)
    triple = bent_triple_from_derivative(f, f, 0)
    assert triple.f2 == f
    # unequal derivatives fail: pick a making D_a(f) != D_a(g)
    for a in range(1, 16):
        if f.derivative(a) != g.derivative(a):
            with pytest.raises(PremiseError):
                bent_triple_from_derivative(f, g, a)
            break


def test_derivative_equality_on_affine_shift():
    # the two shared-permutation functions have equal derivatives at
    # every a supported on the affine block
    rng = XorShift64Star(101)
    phi = random_permutation(3, rng)
    v = mm_function(phi, random_function(3, rng))
    t = mm_function(phi, random_function(3, rng))
    for aprime in (1, 5, 7):
        a = aprime << 3
        assert v.derivative(a) == t.derivative(a)


def test_walsh_case_classification_partition_and_prediction():
    rng = XorShift64Star(103)
    triple, _ = random_derivative_triple(6, rng)
    gs = random_mm_bent_triple(4, rng)
    h = generalized_indirect_sum(triple.f1, triple.f2, triple.f3, *gs)
    spec = naive_walsh(h)
    s1 = walsh_transform(triple.f1)
    table = {
        "g1": walsh_transform(gs[0]),
        "g2": walsh_transform(gs[1]),
        "g3": walsh_transform(gs[2]),
        "nu2": walsh_transform(gs[0] ^ gs[1] ^ gs[2]),
    }
    counts = {1: 0, 2: 0, 3: 0, 4: 0}
    for alpha in range(1 << 6):
        case, mult = walsh_case(triple, alpha)
        counts[case] += 1
        for beta in range(1 << 4):
            assert spec[(alpha << 4) | beta] == table[mult][beta] * s1[alpha]
    assert sum(counts.values()) == 1 << 6


def test_walsh_case_all_equal_triple():
    rng = XorShift64Star(107)
    f = random_mm_bent(4, rng)
    triple = BentTriple(f, f, f)
    for alpha in range(16):
        assert walsh_case(triple, alpha) == (1, "g1")


def reference_walsh_case(triple, alpha):
    """The four-way comparison walsh_case made before it read the case
    off two sign bits."""
    w1 = walsh_transform(triple.f1)[alpha]
    w2 = walsh_transform(triple.f2)[alpha]
    w3 = walsh_transform(triple.f3)[alpha]
    if w1 == w2 == w3:
        case = 1
    elif w1 == w2:
        case = 2
    elif w2 == w3:
        case = 3
    else:
        case = 4
    return case, {1: "g1", 2: "nu2", 3: "g2", 4: "g3"}[case]


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_walsh_case_agrees_with_the_ladder_form(n):
    rng = XorShift64Star(2100 + n)
    f, g = random_mm_bent(n, rng), random_mm_bent(n, rng)
    triples = [
        random_derivative_triple(n, rng)[0],
        BentTriple(*random_mm_bent_triple(n, rng)),
        BentTriple(f, f, f),
        BentTriple(f, ~f, g),
    ]
    for triple in triples:
        for alpha in range(1 << n):
            got = walsh_case(triple, alpha)
            assert got == reference_walsh_case(triple, alpha), alpha
            point = tuple((alpha >> (n - j)) & 1 for j in range(1, n + 1))
            assert walsh_case(triple, point) == got, alpha
        with pytest.raises(ValueError, match=re.escape(f"must be in [0, {(1 << n) - 1}]")):
            walsh_case(triple, 1 << n)
        with pytest.raises(ValueError, match="expected a vector of length"):
            walsh_case(triple, (0,) * (n + 1))


# -- resilient routes ------------------------------------------------------------


def _mm_112(seed):
    rng = XorShift64Star(seed)
    heavy = [v for v in range(32) if bin(v).count("1") >= 2]
    rng.shuffle(heavy)
    return mm_function(PermutationMap(heavy[:8], r=5), random_function(3, rng))


def test_resilient_indirect_sum_collapse():
    rng = XorShift64Star(113)
    triple, _ = random_derivative_triple(6, rng)
    g = _mm_112(1)
    h, cert = resilient_indirect_sum(triple, g, g, g, 1)
    assert h == direct_sum(triple.f1, g)
    assert cert.resiliency == 1


def test_resilient_indirect_sum_headline_numbers():
    rng = XorShift64Star(127)
    triple, _ = random_derivative_triple(6, rng)
    p, q = _mm_112(2), _mm_112(3)
    h, cert = resilient_indirect_sum_from_pair(triple, p, q, 2, 1)
    assert h.n == 14
    assert resiliency_report(h).resiliency == 1
    assert cert.nonlinearity_bound == (1 << 13) - (1 << 2) * 32 == 8064
    assert cert.equality_condition
    assert cert.nonlinearity == 8064 == nonlinearity(h)


def test_resilient_pair_equal_triple_strict_inequality():
    # all-equal triple with max|W_p| < max|W_q| leaves the bound strict
    rng = XorShift64Star(131)
    f = random_mm_bent(6, rng)
    triple = BentTriple(f, f, f)
    p = _mm_112(4)          # max |W| = 32
    q = BooleanFunction.linear(8, 0b11000000)  # max |W| = 256
    h, cert = resilient_indirect_sum_from_pair(triple, p, q, 1, 1)
    assert not cert.equality_condition
    assert cert.nonlinearity > cert.nonlinearity_bound


def _seeded_resilient_sum(route, seed, n, m, k, triple_kind):
    """One seeded resilient sum: a "derivative", "mm", "repeated"
    (f, f, f) or "complement" (f, ~f, g) bent triple on n variables, then
    the k-resilient g seeds on m variables, drawn from one generator.
    Returns the output, its certificate, the triple and the (g1, g2, g3)
    the sum was taken with."""
    rng = XorShift64Star(seed)
    if triple_kind == "derivative":
        triple, _ = random_derivative_triple(n, rng)
    elif triple_kind == "mm":
        triple = BentTriple(*random_mm_bent_triple(n, rng))
    elif triple_kind == "repeated":
        f = random_mm_bent(n, rng)
        triple = BentTriple(f, f, f)
    else:
        f = random_mm_bent(n, rng)
        triple = BentTriple(f, ~f, random_mm_bent(n, rng))
    if route == "triple":
        gs = random_resilient_triple(m, k, rng)
        return (*resilient_indirect_sum(triple, *gs, k), triple, gs)
    p, q = random_resilient(m, k, rng), random_resilient(m, k, rng)
    i = 1 + rng.randrange(m)
    # the pair route's documented assignment, by the sign case at 0
    yi = BooleanFunction.variable(m, i)
    gs = (p, q, q ^ yi) if walsh_case(triple, 0)[0] in (1, 3) else (p ^ yi, q ^ yi, q)
    return (*resilient_indirect_sum_from_pair(triple, p, q, i, k), triple, gs)


# (route, seed, n, m, k, triple kind, equality_condition, nl, bound)
@pytest.mark.parametrize("case", [
    ("triple", 1, 4, 5, 0, "derivative", True, 232, 224),
    ("triple", 1, 2, 4, 0, "derivative", False, 24, 24),
    ("pair", 2, 2, 6, 0, "mm", True, 108, 104),
    ("pair", 1, 2, 4, 0, "repeated", False, 24, 24),
])
def test_resilient_equality_condition_is_neither_necessary_nor_sufficient(case):
    # the stated condition can hold with the bound strict and fail with
    # the bound attained, on both routes: the bound is a lower bound only
    *args, condition, nl, bound = case
    h, cert, _, _ = _seeded_resilient_sum(*args)
    assert cert.equality_condition == condition
    assert (cert.nonlinearity, cert.nonlinearity_bound) == (nl, bound)
    # second opinion on the nonlinearity: the matrix Walsh transform
    assert (1 << (h.n - 1)) - naive_walsh(h).max_abs // 2 == nl


def test_resilient_sum_nonlinearity_meets_its_bound():
    rng = XorShift64Star(2026)
    for route in ("triple", "pair"):
        for kind in ("derivative", "mm", "repeated", "complement"):
            for n, m in ((2, 4), (2, 5), (4, 4), (4, 5)):
                for k in range(m - 2):
                    where = (route, kind, n, m, k)
                    seed = rng.bits(16)
                    _, cert, _, _ = _seeded_resilient_sum(route, seed, n, m, k, kind)
                    assert cert.nonlinearity >= cert.nonlinearity_bound, where


def _exact_nonlinearity(triple, gs):
    """README's formula: 2^(n+m-1) - 2^(n/2-1) times the largest max|W_{g_c}|
    over the sign cases c that walsh_case realizes on the triple."""
    g1, g2, g3 = gs
    g_of_case = {1: g1, 2: g1 ^ g2 ^ g3, 3: g2, 4: g3}
    cases = {walsh_case(triple, alpha)[0] for alpha in range(1 << triple.n)}
    amplitude = max(walsh_transform(g_of_case[c]).max_abs for c in cases)
    return (1 << (triple.n + g1.n - 1)) - (1 << (triple.n // 2 - 1)) * amplitude


def _pair_bound_is_attained(triple, gs):
    """README's corollary for the pair route: the realized multipliers
    have p's amplitude where f1* + f2* is 0 and q's where it is 1, so the
    bound is attained exactly when f1* + f2* takes both values or the
    seed on the side it takes has the larger max|W|."""
    a = dual(triple.f1) ^ dual(triple.f2)
    sides = {0, 1} if 0 < a.weight < 1 << a.n else {a.mask & 1}
    # g1 and g2 are p and q, each plus y_i or not, which keeps its amplitude
    amplitudes = [walsh_transform(g).max_abs for g in gs[:2]]
    return max(amplitudes[c] for c in sides) == max(amplitudes)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_resilient_sum_nonlinearity_formula_on_seeded_instances(n):
    rng = XorShift64Star(0x4E1 + n)
    strict = 0
    for m in (4, 5, 6):
        for route in ("triple", "pair"):
            for kind in ("derivative", "mm", "repeated", "complement"):
                for _ in range(6):
                    k = rng.randrange(m - 2)
                    where = (route, kind, m, k)
                    h, cert, triple, gs = _seeded_resilient_sum(
                        route, rng.bits(16), n, m, k, kind
                    )
                    assert h == generalized_indirect_sum(
                        triple.f1, triple.f2, triple.f3, *gs
                    ), where
                    assert nonlinearity(h) == cert.nonlinearity, where
                    assert cert.nonlinearity == _exact_nonlinearity(triple, gs), where
                    attained = cert.nonlinearity == cert.nonlinearity_bound
                    if route == "pair":
                        assert attained == _pair_bound_is_attained(triple, gs), where
                    strict += not attained
    assert strict  # the sweep reaches the cases where the bound is strict


def test_resilient_routes_premise_errors():
    rng = XorShift64Star(137)
    triple, _ = random_derivative_triple(6, rng)
    p = _mm_112(5)
    unbalanced = BooleanFunction.constant(8, 0)
    with pytest.raises(PremiseError):
        resilient_indirect_sum(triple, p, p, unbalanced, 1)
    # the all-ones linear function on m = 3 variables is 2-resilient, so
    # k = m-1 passes every premise but k < m-1
    ones = BooleanFunction.linear(3, 0b111)
    message = re.escape("need k < m-1, got k=2, m=3")
    with pytest.raises(PremiseError, match=message):
        resilient_indirect_sum(triple, ones, ones, ones, 2)
    with pytest.raises(PremiseError, match=message):
        resilient_indirect_sum_from_pair(triple, ones, ones, 1, 2)


def test_resiliency_order_below_minus_one_is_a_bad_parameter():
    # every function is (-1)-resilient, so no order below -1 is meaningful;
    # bent g inputs are unbalanced and would pass any order up to -1
    rng = XorShift64Star(138)
    triple, _ = random_derivative_triple(6, rng)
    g = random_mm_bent(4, rng)
    with pytest.raises(ValueError, match=re.escape("k must be in [-1, inf], got -2")):
        resilient_indirect_sum(triple, g, g, g, -2)
    with pytest.raises(ValueError, match=re.escape("k must be in [-1, inf], got -5")):
        resilient_indirect_sum_from_pair(triple, g, g, 1, -5)
    with pytest.raises(ValueError, match=re.escape("k must be in [-1, inf], got -3")):
        generalized_indirect_sum(
            triple.f1, triple.f2, triple.f3, g, g, g, mode="resilient", t=-1, k=-3
        )
    h, cert = resilient_indirect_sum(triple, g, g, g, -1)
    assert cert.resiliency == -1


@pytest.mark.parametrize("order", [0.5, True])
def test_a_resiliency_order_must_be_an_integer(order):
    # the seeds are 1-resilient, so an order read as a number would pass
    # their premises and be stated in the certificate
    triple, gs = BentTriple(*_bent3(4)), _resilient3(5, 1)
    calls = {
        "k": [
            lambda: resilient_indirect_sum(triple, *gs, order),
            lambda: resilient_indirect_sum_from_pair(triple, *gs[:2], 1, order),
            lambda: generalized_indirect_sum(*gs, *gs, mode="resilient", t=0, k=order),
        ],
        "t": [lambda: generalized_indirect_sum(*gs, *gs, mode="resilient", t=order, k=0)],
    }
    for name, builds in calls.items():
        for build in builds:
            with pytest.raises(TypeError, match=re.escape(f"{name} must be an integer")):
                build()


def test_plateaued_propagation_through_resilient_sum():
    rng = XorShift64Star(139)
    triple, _ = random_derivative_triple(6, rng)
    # bent partners: order m on m variables, output order n + m
    gs = random_mm_bent_triple(4, rng)
    h, _ = resilient_indirect_sum(triple, *gs, k=-1)
    from bentkit import plateaued_order

    assert plateaued_order(h) == 6 + 4
    # affine partners: order 0, output order n
    masks = [0b1011, 0b0111, 0b1110]
    gs0 = [BooleanFunction.linear(4, m) for m in masks]
    h0, _ = resilient_indirect_sum(triple, *gs0, k=0)
    assert plateaued_order(h0) == 6


def test_table_shape_difference_against_indirect_sum():
    # with g3 = g2 + y_i the generalized sum differs from the plain
    # indirect sum exactly by the ANF term y_i * (f2 + f3)
    rng = XorShift64Star(149)
    triple, _ = random_derivative_triple(6, rng)
    f1, f2, f3 = triple.f1, triple.f2, triple.f3
    m = 4
    g1, g2 = random_mm_bent(m, rng), random_mm_bent(m, rng)
    i = 2
    yi = BooleanFunction.variable(m, i)
    g3 = g2 ^ yi
    lhs = generalized_indirect_sum(f1, f2, f3, g1, g2, g3)
    rhs = indirect_sum(f1, f2, g1, g2)
    import numpy as np

    prod = BooleanFunction(
        6 + m, np.repeat((f2 ^ f3).values(), 1 << m) & np.tile(yi.values(), 1 << 6)
    )
    assert mobius(lhs).mask ^ mobius(rhs).mask == mobius(prod).mask


def test_generalized_dimension_errors():
    rng = XorShift64Star(151)
    f = random_mm_bent(4, rng)
    g = random_mm_bent(6, rng)
    with pytest.raises(ValueError):
        generalized_indirect_sum(f, f, g, f, f, f)


def _fresh(fs):
    """Copies with no cached spectrum: a premise check on them makes a new one."""
    return [BooleanFunction(f.n, f.mask) for f in fs]


def _bent3(n):
    return _fresh(random_mm_bent_triple(n, XorShift64Star(160 + n)))


def _resilient3(n, t):
    return _fresh(random_resilient_triple(n, t, XorShift64Star(170 + n)))


def _one_off(fs, other):
    """fs with its last member replaced by one of another variable count."""
    return [*fs[:2], other]


# Each row builds its inputs, valid but for one variable count or the pair
# route's coordinate, and returns the call.  Every premise the call checks
# would compute a spectrum (orders of 2 or more, bentness, the triple's
# duals), so a mismatch found late shows as a new spectrum.
@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: partial(rothaus, *_one_off(_bent3(4), _bent3(6)[0])),
                 "share a variable count, got 4 and 6", id="rothaus"),
    pytest.param(lambda: partial(BentTriple, *_one_off(_bent3(4), _bent3(6)[0])),
                 "share a variable count, got 4 and 6", id="bent-triple"),
    pytest.param(lambda: partial(generalized_indirect_sum,
                                 *_one_off(_bent3(4), _bent3(6)[0]), *_bent3(4)),
                 "share a variable count, got 4 and 6", id="generalized-f"),
    pytest.param(lambda: partial(generalized_indirect_sum,
                                 *_bent3(4), *_one_off(_bent3(6), _bent3(4)[0])),
                 "share a variable count, got 6 and 4", id="generalized-g"),
    pytest.param(lambda: partial(generalized_indirect_sum,
                                 *_one_off(_resilient3(5, 2), _resilient3(3, 0)[0]),
                                 *_resilient3(4, 1), mode="resilient", t=2, k=1),
                 "share a variable count, got 5 and 3", id="generalized-f-resilient"),
    pytest.param(lambda: partial(generalized_indirect_sum, *_resilient3(5, 2),
                                 *_one_off(_resilient3(4, 1), _resilient3(3, 0)[0]),
                                 mode="resilient", t=2, k=1),
                 "share a variable count, got 4 and 3", id="generalized-g-resilient"),
    pytest.param(lambda: partial(generalized_indirect_sum,
                                 *_one_off(_bent3(4), _bent3(6)[0]), *_bent3(4), mode="bent"),
                 "share a variable count, got 4 and 6", id="generalized-f-bent"),
    pytest.param(lambda: partial(generalized_indirect_sum,
                                 *_bent3(6), *_one_off(_bent3(4), _bent3(6)[0]), mode="bent"),
                 "share a variable count, got 4 and 6", id="generalized-g-bent"),
    pytest.param(lambda: partial(resilient_indirect_sum, BentTriple(*_bent3(4)),
                                 *_one_off(_resilient3(4, 1), _resilient3(3, 0)[0]), 1),
                 "share a variable count, got 4 and 3", id="resilient-indirect-sum"),
    pytest.param(lambda: partial(resilient_indirect_sum_from_pair, BentTriple(*_bent3(4)),
                                 _resilient3(4, 1)[0], _resilient3(3, 0)[0], 1, 1),
                 "share a variable count, got 3 and 4", id="resilient-indirect-sum-pair"),
    pytest.param(lambda: partial(bent_triple_from_derivative,
                                 _bent3(4)[0], _bent3(6)[0], 0),
                 "share a variable count, got 4 and 6", id="derivative-triple"),
    pytest.param(lambda: partial(resilient_indirect_sum_from_pair, BentTriple(*_bent3(4)),
                                 *_resilient3(4, 1)[:2], 5, 1),
                 "variable index must be in [1, 4], got 5", id="pair-coordinate"),
])
def test_bad_arguments_are_caught_before_any_spectrum(monkeypatch, build, message):
    call = build()
    made = _count_spectra(monkeypatch)
    with pytest.raises(ValueError, match=re.escape(message)) as exc:
        call()
    assert type(exc.value) is ValueError
    assert made == []


def _count_spectra(monkeypatch):
    """The variable counts of the Walsh spectra made from here on."""
    made = []

    class Counted(core.WalshSpectrum):
        __slots__ = ()

        def __init__(self, n, values):
            made.append(n)
            super().__init__(n, values)

    monkeypatch.setattr(core, "WalshSpectrum", Counted)
    return made


# No function of an odd number of variables is bent: each call fails its
# first bentness premise from the variable count alone.
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: rothaus(*_zeros(5)), "f1 must be bent", id="rothaus"),
    pytest.param(lambda: rothaus_restricted_sum(*_zeros(5), *_zeros(4)),
                 "f1 must be bent", id="rothaus-restricted-sum"),
    pytest.param(lambda: restricted_indirect_sum(*_zeros(3, 1), 1, *_zeros(5, 1), 1),
                 "f must be bent", id="restricted-indirect-sum"),
    pytest.param(lambda: BentTriple(*_zeros(5)), "f1 must be bent", id="bent-triple"),
    pytest.param(lambda: generalized_indirect_sum(*_zeros(5), *_zeros(4), mode="bent"),
                 "f1 must be bent", id="generalized-bent"),
    pytest.param(lambda: bent_triple_from_derivative(*_zeros(5, 2), 1),
                 "f1 must be bent", id="derivative-triple"),
    pytest.param(lambda: dual(BooleanFunction.variable(23, 1)),
                 "dual is defined for bent functions only", id="dual-23"),
])
def test_odd_inputs_fail_their_bentness_premise_without_a_spectrum(
    monkeypatch, call, message
):
    made = _count_spectra(monkeypatch)
    with pytest.raises(PremiseError, match=re.escape(message)):
        call()
    assert made == []


def test_is_bent_answers_odd_counts_without_a_spectrum(monkeypatch):
    made = _count_spectra(monkeypatch)
    assert not any(is_bent(f) for f in (*_zeros(5, 1), BooleanFunction.variable(23, 1)))
    assert made == []


@pytest.mark.parametrize("call, error, fragment", [
    pytest.param(lambda: LinearSubspace(0), ValueError,
                 "ambient dimension must be in [1, 26]", id="subspace-dimension"),
    pytest.param(lambda: LinearSubspace(3, [8]), ValueError,
                 "vector must be in [0, 7], got 8", id="subspace-vector"),
    pytest.param(lambda: LinearSubspace(2).contains(7), ValueError,
                 "vector must be in [0, 3], got 7", id="subspace-contains"),
    pytest.param(lambda: PermutationMap([1, 0, 3, 2])(-1), ValueError,
                 "index must be in [0, 3], got -1", id="map-negative-point"),
    pytest.param(lambda: PermutationMap.identity(14), ValueError,
                 "k must be in [1, 13], got 14", id="identity-k"),
    pytest.param(lambda: mm_function(PermutationMap.identity(2), BooleanFunction.zero(3)),
                 ValueError, "u must have 2 variables, got 3", id="mm-u-size"),
    pytest.param(lambda: psap_bent(GaloisField(2), [0, 1, 2, 1]), ValueError,
                 "theta entry must be in [0, 1], got 2", id="psap-theta"),
    pytest.param(lambda: class_d_bent(_flat_map(2), LinearSubspace.zero(2),
                                      LinearSubspace.zero(2)),
                 PremiseError, "class D needs a Boolean permutation", id="class-d-map"),
    pytest.param(lambda: class_d_bent(PermutationMap.identity(2), LinearSubspace.zero(3),
                                      LinearSubspace.zero(2)),
                 ValueError, "subspaces must live in F_2^2", id="class-d-subspaces"),
    pytest.param(lambda: class_d_e1(PermutationMap.identity(2), LinearSubspace.zero(3)),
                 ValueError, "subspaces must live in F_2^2", id="class-d-e1"),
    pytest.param(lambda: restricted_indirect_sum(BooleanFunction.zero(3), 1, MM4, 1),
                 PremiseError, "f must be bent", id="odd-count"),
    pytest.param(lambda: restricted_indirect_sum(MM4, 1, MM4, 1, "02"), ValueError,
                 "variant must be one of 00/01/10/11, got '02'", id="variant"),
    pytest.param(lambda: mm_restricted_sum(_flat_map(2), PermutationMap.identity(2), 1, 1,
                                           *_zeros(2, 2)),
                 PremiseError, "bent M-M functions need a Boolean permutation",
                 id="mm-maps"),
    pytest.param(lambda: generalized_indirect_sum(*_zeros(2, 6), mode="resilient", t=0),
                 ValueError, "resilient mode needs both t and k", id="resilient-no-k"),
    pytest.param(lambda: generalized_indirect_sum(*_zeros(2, 6), mode="plain"),
                 ValueError, "unknown mode 'plain'", id="unknown-mode"),
    pytest.param(lambda: generalized_indirect_sum(*_zeros(2, 6), t=5, k=7), ValueError,
                 "t and k are read only in resilient mode, got mode None", id="t-k-without-mode"),
    pytest.param(lambda: generalized_indirect_sum(*_zeros(2, 6), mode="bent", k=0), ValueError,
                 "t and k are read only in resilient mode, got mode 'bent'", id="k-in-bent-mode"),
])
def test_bad_arguments_raise_with_a_message(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)) as exc:
        call()
    assert type(exc.value) is error



def _zeros(n, count=3):
    return [BooleanFunction.zero(n)] * count


def _flat_map(k):
    return PermutationMap([0] * (1 << k))  # not a permutation


def _triple14():
    """A bent triple (f, f, f) on 14 variables: a valid triple, so only the
    routes' own premises (here, zero g tables) are left to break."""
    f = mm_function(PermutationMap.identity(7), BooleanFunction.zero(7))
    return BentTriple(f, f, f)


def _unbalanced_psap(m):
    gf = GaloisField(m)
    return gf, [1] * gf.order, (1, 0), (1, 0)


# Each call is too large and also breaks a premise of its builder.
@pytest.mark.parametrize("build", [
    pytest.param(lambda: restricted_indirect_sum(*_zeros(14, 1), 1, *_zeros(16, 1), 1),
                 id="restricted-indirect-sum"),
    pytest.param(lambda: restricted_indirect_sum_dual(*_zeros(14, 1), 1, *_zeros(16, 1), 1),
                 id="restricted-indirect-sum-dual"),
    pytest.param(lambda: mm_restricted_sum(_flat_map(8), _flat_map(7), 1, 1,
                                           *_zeros(8, 1), *_zeros(7, 1)),
                 id="mm-restricted-sum"),
    pytest.param(lambda: class_d_restricted_sum(
        _flat_map(8), LinearSubspace.zero(8), LinearSubspace.zero(8),
        _flat_map(7), LinearSubspace.zero(7), LinearSubspace.zero(7), 1, 1),
                 id="class-d-restricted-sum"),
    pytest.param(lambda: psap_restricted_sum(*_unbalanced_psap(8), *_unbalanced_psap(7)),
                 id="psap-restricted-sum"),
    pytest.param(lambda: rothaus_restricted_sum(*_zeros(12), *_zeros(14)),
                 id="rothaus-restricted-sum"),
    pytest.param(lambda: resilient_indirect_sum(_triple14(), *_zeros(14), 0),
                 id="resilient-indirect-sum"),
    pytest.param(lambda: resilient_indirect_sum_from_pair(_triple14(), *_zeros(14, 2), 1, 0),
                 id="resilient-indirect-sum-pair"),
])
def test_output_size_is_checked_before_any_premise(build):
    with pytest.raises(ValueError, match="composite output would need 28 > 26") as exc:
        build()
    assert type(exc.value) is ValueError  # not a PremiseError


# Each call has an out-of-range coordinate and also breaks a premise of its
# builder: non-bent inputs, or maps that are not permutations.
@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: restricted_indirect_sum(*_zeros(4, 1), 99, *_zeros(4, 1), 1),
                 "mu must be in", id="restricted-indirect-sum"),
    pytest.param(lambda: restricted_indirect_sum(*_zeros(4, 1), 1, *_zeros(6, 1), 0),
                 "rho must be in [1, 6], got 0", id="restricted-indirect-sum-rho"),
    pytest.param(lambda: restricted_indirect_sum_dual(*_zeros(4, 1), 0, *_zeros(4, 1), 1),
                 "mu must be in", id="restricted-indirect-sum-dual"),
    pytest.param(lambda: mm_restricted_sum(_flat_map(2), _flat_map(3), 3, 1,
                                           *_zeros(2, 1), *_zeros(3, 1)),
                 "mu must be in", id="mm-restricted-sum"),
    pytest.param(lambda: class_d_restricted_sum(
        _flat_map(2), LinearSubspace.zero(2), LinearSubspace.zero(2),
        _flat_map(2), LinearSubspace.zero(2), LinearSubspace.zero(2), 1, 3),
                 "rho must be in [1, 2], got 3", id="class-d-restricted-sum"),
])
def test_coordinates_are_checked_before_any_premise(build, message):
    with pytest.raises(ValueError, match=re.escape(message)) as exc:
        build()
    assert type(exc.value) is ValueError  # not a PremiseError
