import pytest

from bentkit import (
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
from bentkit.constructions import _indirect_tables
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
    random_resilient_triple,
)

MM4 = mm_function(PermutationMap.identity(2), BooleanFunction.zero(2))  # x1x3+x2x4


# -- PermutationMap / LinearSubspace ---------------------------------------


def test_permutation_map_basics():
    p = PermutationMap.identity(3)
    assert p.is_permutation
    assert p(5) == 5
    assert p.coordinate(1) == BooleanFunction.variable(3, 1)
    q = PermutationMap([3, 3, 0, 1])
    assert not q.is_permutation
    wide = PermutationMap([1, 2, 4, 8], r=4)
    assert not wide.is_permutation
    assert wide.drop_coordinate(4).images == (0, 1, 2, 4)


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
    # y blocks of 3 or more variables take the byte-row path, 1 and 2 the bit path
    rng = XorShift64Star(100 * nx + ny)
    for _ in range(3):
        fa, df = random_function(nx, rng), random_function(nx, rng)
        gb, dg = random_function(ny, rng), random_function(ny, rng)
        h = _indirect_tables(fa, df, gb, dg)
        assert h.n == nx + ny
        for x in range(1 << nx):
            for y in range(1 << ny):
                want = fa.bit(x) ^ gb.bit(y) ^ (df.bit(x) & dg.bit(y))
                assert h.bit((x << ny) | y) == want, (x, y)


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
    triple = BentTriple.certify(f1, f2, f3)
    assert triple.certified
    with pytest.raises(PremiseError):
        BentTriple.certify(f1, f2, f1 ^ f2 ^ BooleanFunction.variable(6, 1))


def test_derivative_triple_properties():
    rng = XorShift64Star(89)
    triple, a = random_derivative_triple(6, rng)
    assert triple.certified
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
    assert triple.certified and triple.f2 == f
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
    triple = BentTriple.certify(f, f, f)
    for alpha in range(16):
        assert walsh_case(triple, alpha) == (1, "g1")


def test_walsh_case_requires_certification():
    rng = XorShift64Star(109)
    f = random_mm_bent(4, rng)
    with pytest.raises(PremiseError):
        walsh_case(BentTriple(f, f, f), 0)
    with pytest.raises(TypeError):  # only BentTriple.certify sets certified
        BentTriple(f, f, f, certified=True)


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
    triple = BentTriple.certify(f, f, f)
    p = _mm_112(4)          # max |W| = 32
    q = BooleanFunction.linear(8, 0b11000000)  # max |W| = 256
    h, cert = resilient_indirect_sum_from_pair(triple, p, q, 1, 1)
    assert not cert.equality_condition
    assert cert.nonlinearity > cert.nonlinearity_bound


def test_resilient_routes_premise_errors():
    rng = XorShift64Star(137)
    triple, _ = random_derivative_triple(6, rng)
    p = _mm_112(5)
    unbalanced = BooleanFunction.constant(8, 0)
    with pytest.raises(PremiseError):
        resilient_indirect_sum(triple, p, p, unbalanced, 1)
    with pytest.raises(PremiseError):
        resilient_indirect_sum_from_pair(triple, p, p, 1, 8)  # k >= m-1
    f = random_mm_bent(6, rng)
    with pytest.raises(PremiseError):
        resilient_indirect_sum_from_pair(BentTriple(f, f, f), p, p, 1, 1)


def test_resiliency_order_below_minus_one_is_a_bad_parameter():
    # every function is (-1)-resilient, so no order below -1 is meaningful;
    # bent g inputs are unbalanced and would pass any order up to -1
    rng = XorShift64Star(138)
    triple, _ = random_derivative_triple(6, rng)
    g = random_mm_bent(4, rng)
    with pytest.raises(PremiseError, match="order -2 is below -1"):
        resilient_indirect_sum(triple, g, g, g, -2)
    with pytest.raises(PremiseError, match="order -5 is below -1"):
        resilient_indirect_sum_from_pair(triple, g, g, 1, -5)
    with pytest.raises(PremiseError, match="order -3 is below -1"):
        generalized_indirect_sum(
            triple.f1, triple.f2, triple.f3, g, g, g, mode="resilient", t=-1, k=-3
        )
    h, cert = resilient_indirect_sum(triple, g, g, g, -1)
    assert cert.resiliency == -1


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



def _zeros(n, count=3):
    return [BooleanFunction.zero(n)] * count


def _flat_map(k):
    return PermutationMap([0] * (1 << k))  # not a permutation


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
    pytest.param(lambda: resilient_indirect_sum(BentTriple(*_zeros(14)), *_zeros(14), 0),
                 id="resilient-indirect-sum"),
    pytest.param(lambda: resilient_indirect_sum_from_pair(
        BentTriple(*_zeros(14)), *_zeros(14, 2), 1, 0), id="resilient-indirect-sum-pair"),
])
def test_output_size_is_checked_before_any_premise(build):
    with pytest.raises(ValueError, match="composite output would need 28 > 26") as exc:
        build()
    assert type(exc.value) is ValueError  # not a PremiseError
