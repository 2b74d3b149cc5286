"""Acceptance suite: one test per criterion, exact integer tolerances,
one [ACCEPTANCE] pass/fail line per criterion on stdout.

Corpora are seeded and rebuilt on demand, so each criterion also runs
standalone; builders memoize so shared corpora are generated once.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from bentkit import (
    BentTriple,
    BooleanFunction,
    PermutationMap,
    WalshSpectrum,
    complementary_plateaued,
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
    parse_truth_table,
    plateaued_order,
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
from bentkit.oracle import naive_walsh, resiliency_by_definition
from bentkit.rand import (
    XorShift64Star,
    random_bent,
    random_derivative_triple,
    random_function,
    random_mm_bent_triple,
    random_permutation,
    random_resilient_triple,
)

FIXTURES = Path(__file__).parent / "fixtures"

SEED_T1 = 0xACCE97
SEED_SPECIALIZED = 0xC0401
SEED_DIRECT = 0xD17EC7
SEED_RESILIENT = 0x4E51
SEED_CASES = 0xCA5E5
SEED_HEADLINE = 0xBEADED
SEED_PLATEAU = 0x9A7EA0

VARIANTS = ("00", "01", "10", "11")


@contextmanager
def criterion(num, desc):
    try:
        yield
    except pytest.skip.Exception:
        print(f"[ACCEPTANCE] criterion {num:>2}: SKIPPED - {desc}")
        raise
    except BaseException:
        print(f"[ACCEPTANCE] criterion {num:>2}: FAIL - {desc}")
        raise
    else:
        print(f"[ACCEPTANCE] criterion {num:>2}: PASS - {desc}")


# -- shared corpora (memoized; every builder is deterministic) -------------

_BENT_POOL: dict = {}


def _register_bent(f):
    _BENT_POOL[(f.n, f.mask)] = f


_T1_CACHE = None


def restricted_sum_corpus():
    """200 instances (f, g, mu, rho) with all four variant outputs."""
    global _T1_CACHE
    if _T1_CACHE is None:
        rng = XorShift64Star(SEED_T1)
        t0 = time.perf_counter()
        instances = []
        for _ in range(200):
            n = 4 if rng.bits(1) else 6
            m = 4 if rng.bits(1) else 6
            f, g = random_bent(n, rng), random_bent(m, rng)
            mu, rho = 1 + rng.randrange(n), 1 + rng.randrange(m)
            variants = {
                v: restricted_indirect_sum(f, mu, g, rho, v) for v in VARIANTS
            }
            hdual = restricted_indirect_sum_dual(f, mu, g, rho)
            instances.append((f, g, mu, rho, variants, hdual))
            _register_bent(f)
            _register_bent(g)
            for h in variants.values():
                _register_bent(h)
        _T1_CACHE = (instances, time.perf_counter() - t0)
    return _T1_CACHE


_MM112_IMAGES = [
    0b00011, 0b00110, 0b01100, 0b11000,
    0b00101, 0b01010, 0b10100, 0b01001,
]


def mm_8_1_112(variant_seed):
    rng = XorShift64Star(variant_seed)
    images = list(_MM112_IMAGES)
    rng.shuffle(images)
    return mm_function(PermutationMap(images, r=5), random_function(3, rng))


_RESILIENT_OUTPUTS = []  # (function, certified resiliency)


def _register_resilient(f, order):
    _RESILIENT_OUTPUTS.append((f, order))


_RS_CACHE = None


def resilient_sum_corpus():
    """100 resilient-mode instances with their premises and outputs."""
    global _RS_CACHE
    if _RS_CACHE is None:
        rng = XorShift64Star(SEED_RESILIENT)
        instances = []
        for _ in range(100):
            t, k = rng.bits(1), rng.bits(1)
            n, m = rng.randint(3, 6), rng.randint(3, 6)
            fs = random_resilient_triple(n, t, rng)
            gs = random_resilient_triple(m, k, rng)
            h = generalized_indirect_sum(*fs, *gs, mode="resilient", t=t, k=k)
            instances.append((t, k, fs, gs, h))
            _register_resilient(h, t + k + 1)
        _RS_CACHE = instances
    return _RS_CACHE


_HEADLINE_CACHE = None


def headline_build():
    """The derivative-trick triple plus two distinct (8,1,112) seeds."""
    global _HEADLINE_CACHE
    if _HEADLINE_CACHE is None:
        rng = XorShift64Star(SEED_HEADLINE)
        t0 = time.perf_counter()
        triple, _ = random_derivative_triple(6, rng)
        p, q = mm_8_1_112(1), mm_8_1_112(2)
        assert p != q
        h, cert = resilient_indirect_sum_from_pair(triple, p, q, 1 + rng.randrange(8), 1)
        elapsed = time.perf_counter() - t0
        for f in (triple.f1, triple.f2, triple.f3, triple.nu1):
            _register_bent(f)
        _register_resilient(h, 1)
        _HEADLINE_CACHE = (triple, p, q, h, cert, elapsed)
    return _HEADLINE_CACHE


# -- criteria ----------------------------------------------------------------


def test_criterion_01_fwht_matches_naive_oracle():
    with criterion(1, "butterfly transform equals the definitional sum"):
        t0 = time.perf_counter()
        for mask in range(1 << 16):
            f = BooleanFunction(4, mask)
            assert np.array_equal(
                walsh_transform(f).values, naive_walsh(f).values
            )
        for n in (6, 8, 10):
            rng = XorShift64Star(1000 + n)
            for _ in range(1000):
                f = random_function(n, rng)
                assert np.array_equal(
                    walsh_transform(f).values, naive_walsh(f).values
                )
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_02_parseval_everywhere():
    with criterion(2, "Parseval identity on every spectrum"):
        # enforced at construction: WalshSpectrum rejects violations,
        # so no spectrum in this suite can exist without it
        with pytest.raises(ValueError):
            WalshSpectrum(2, np.array([4, 4, 0, 0]))
        rng = XorShift64Star(2)
        for n in range(1, 11):
            for _ in range(50):
                spec = walsh_transform(random_function(n, rng)).values
                assert int(np.dot(spec, spec)) == 1 << (2 * n)
        for _, _, _, _, variants, _ in restricted_sum_corpus()[0]:
            for h in variants.values():
                spec = walsh_transform(h).values
                assert int(np.dot(spec, spec)) == 1 << (2 * h.n)


def test_criterion_03_restricted_indirect_sum_bent_with_dual():
    with criterion(3, "200 seeded instances: all variants bent, dual formula exact"):
        instances, build_time = restricted_sum_corpus()
        t0 = time.perf_counter()
        for f, g, mu, rho, variants, hdual in instances:
            for h in variants.values():
                assert h.n == f.n + g.n - 2
                assert is_bent(h)
            assert dual(variants["00"]) == hdual
        elapsed = build_time + (time.perf_counter() - t0)
        assert elapsed < 20.0, f"took {elapsed:.1f}s"


def test_criterion_04_degree_bound_and_equality():
    with criterion(4, "degree bound with the stated equality condition"):
        instances, _ = restricted_sum_corpus()
        violations = []
        for f, g, mu, rho, variants, _ in instances:
            n, m = f.n, g.n
            h = variants["00"]
            bound = (n + m - 2) // 2 - 1
            d = degree(h)
            assert 2 <= d <= bound  # holds on every instance
            condition = (
                degree_of_variable(f, mu) == n // 2
                and degree_of_variable(g, rho) == m // 2
            )
            if (d == bound) != condition:
                violations.append(
                    f"n={n} m={m} mu={mu} rho={rho} deg={d} bound={bound} "
                    f"deg(f,x_mu)={degree_of_variable(f, mu)} "
                    f"deg(g,y_rho)={degree_of_variable(g, rho)}"
                )
        # the converse of the equality condition fails when min(n, m) = 4:
        # the lone restriction f_0 (resp. g_0) can reach the bound by
        # itself; kept as stated so the defect stays visible
        assert not violations, (
            f"{len(violations)} corpus instances met the bound without the "
            "stated condition: " + "; ".join(violations[:4])
        )


def test_degree_corollary_explains_every_criterion_04_violation():
    # README's corollary for n, m >= 4: the bound is met exactly when both
    # variable degrees are full, or one side has 4 variables and the other
    # side's base term has full degree.  Criterion 4 states only the first
    # clause; every instance it flags must meet the second.
    instances, _ = restricted_sum_corpus()
    violations = 0
    for f, g, mu, rho, variants, _ in instances:
        n, m = f.n, g.n
        d = degree(variants["00"])
        full = (
            degree_of_variable(f, mu) == n // 2
            and degree_of_variable(g, rho) == m // 2
        )
        base = (m == 4 and degree(f.restrict(mu, 0)) == n // 2) or (
            n == 4 and degree(g.restrict(rho, 0)) == m // 2
        )
        at_bound = d == (n + m) // 2 - 2
        assert at_bound == (full or base), (n, m, mu, rho)
        violations += at_bound != full
    assert violations  # the corpus does hold criterion 4's counterexamples


def test_criterion_05_specialized_route_equivalences():
    with criterion(5, "specialized builders equal their composed routes"):
        rng = XorShift64Star(SEED_SPECIALIZED)
        for _ in range(50):
            n = 4 if rng.bits(1) else 6
            m = 4 if rng.bits(1) else 6
            phi = random_permutation(n // 2, rng)
            psi = random_permutation(m // 2, rng)
            u, v = random_function(n // 2, rng), random_function(m // 2, rng)
            mu, rho = 1 + rng.randrange(n // 2), 1 + rng.randrange(m // 2)
            lhs = mm_restricted_sum(phi, psi, mu, rho, u, v)
            rhs = restricted_indirect_sum(
                mm_function(phi, u), mu, mm_function(psi, v), rho, "00"
            )
            assert lhs == rhs
            _register_bent(lhs)
        for _ in range(50):
            n = 4 if rng.bits(1) else 6
            m = 4 if rng.bits(1) else 6
            fs = random_mm_bent_triple(n, rng)
            gs = random_mm_bent_triple(m, rng)
            lhs = rothaus_restricted_sum(*fs, *gs)
            rhs = restricted_indirect_sum(
                rothaus(*fs), n + 2, rothaus(*gs), m + 2, "00"
            )
            assert lhs == rhs
            _register_bent(lhs)


def test_criterion_06_direct_sum_nonlinearity_formula():
    with criterion(6, "direct-sum nonlinearity formula exact on 100 pairs"):
        rng = XorShift64Star(SEED_DIRECT)
        for _ in range(100):
            n, m = rng.randint(3, 6), rng.randint(3, 6)
            f, g = random_function(n, rng), random_function(m, rng)
            h = direct_sum(f, g)
            nf, ng = nonlinearity(f), nonlinearity(g)
            assert nonlinearity(h) == (1 << n) * ng + (1 << m) * nf - 2 * nf * ng
        f4 = random_bent(4, rng)
        g4 = random_bent(4, rng)
        h = direct_sum(f4, g4)
        assert nonlinearity(h) == 120
        assert is_bent(h)
        _register_bent(h)


def _predicted_walsh_matrix(fs, gs):
    w1, w2, w3 = (walsh_transform(f).values for f in fs)
    w123 = walsh_transform(fs[0] ^ fs[1] ^ fs[2]).values
    b1, b2, b3 = (walsh_transform(g).values for g in gs)
    b123 = walsh_transform(gs[0] ^ gs[1] ^ gs[2]).values
    total = (
        np.outer(w1 + w2 + w3 + w123, b1)
        + np.outer(w1 - w2 - w3 + w123, b2)
        + np.outer(w1 - w2 + w3 - w123, b3)
        + np.outer(w1 + w2 - w3 - w123, b123)
    )
    assert np.all(total % 4 == 0)
    return total // 4


def test_criterion_07_resilient_generalized_indirect_sum():
    with criterion(7, "generalized indirect sum is (t+k+1)-resilient, Walsh identity"):
        by_definition = 0
        for t, k, fs, gs, h in resilient_sum_corpus():
            order = t + k + 1
            assert resiliency_report(h).resiliency >= order
            if h.n <= 10:
                assert resiliency_by_definition(h, order)
                by_definition += 1
            predicted = _predicted_walsh_matrix(fs, gs).reshape(-1)
            assert np.array_equal(naive_walsh(h).values, predicted)
        assert by_definition >= 20  # the independence oracle really ran


def test_criterion_08_four_case_factorization():
    with criterion(8, "four-case spectrum factorization at every point"):
        rng = XorShift64Star(SEED_CASES)
        for idx in range(20):
            m = 4 if idx % 2 else 6
            triple, _ = random_derivative_triple(6, rng)
            gs = tuple(random_function(m, rng) for _ in range(3))
            h = generalized_indirect_sum(triple.f1, triple.f2, triple.f3, *gs)
            actual = naive_walsh(h).values
            s1 = walsh_transform(triple.f1).values
            mult_spec = {
                "g1": walsh_transform(gs[0]).values,
                "g2": walsh_transform(gs[1]).values,
                "g3": walsh_transform(gs[2]).values,
                "nu2": walsh_transform(gs[0] ^ gs[1] ^ gs[2]).values,
            }
            for alpha in range(1 << 6):
                _, mult = walsh_case(triple, alpha)
                block = actual[alpha << m : (alpha + 1) << m]
                assert np.array_equal(block, mult_spec[mult] * s1[alpha])
            for f in (triple.f1, triple.f2, triple.f3, triple.nu1):
                _register_bent(f)


def test_criterion_09_headline_14_1_8064():
    with criterion(9, "(14,1,8064) from a derivative triple and (8,1,112) seeds"):
        triple, p, q, h, cert, elapsed = headline_build()
        assert resiliency_report(p) == (1, 1) and nonlinearity(p) == 112
        assert resiliency_report(q) == (1, 1) and nonlinearity(q) == 112
        assert h.n == 14
        assert resiliency_report(h).resiliency == 1
        assert cert.nonlinearity_bound == (1 << 13) - (1 << 2) * 32 == 8064
        assert cert.equality_condition
        assert cert.nonlinearity == 8064
        assert nonlinearity(h) == 8064
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_10_example_reproduction_8096():
    with criterion(10, "(14,1,8096) from two (8,1,116) fixtures"):
        paths = sorted(FIXTURES.glob("resilient_8_1_116_*.tt"))
        if len(paths) < 2:
            pytest.skip("(8,1,116) fixture tables not present")
        p = parse_truth_table(paths[0].read_text())
        q = parse_truth_table(paths[1].read_text())
        assert p != q
        # check the fixtures themselves against the brute-force oracles
        from bentkit.oracle import exhaustive_nonlinearity

        for f in (p, q):
            assert f.n == 8
            assert exhaustive_nonlinearity(f) == 116
            assert resiliency_by_definition(f, 1)
            assert not resiliency_by_definition(f, 2)
        rng = XorShift64Star(SEED_HEADLINE)
        triple, _ = random_derivative_triple(6, rng)
        h, cert = resilient_indirect_sum_from_pair(triple, p, q, 3, 1)
        assert h.n == 14
        assert resiliency_report(h).resiliency == 1
        assert cert.nonlinearity_bound == (1 << 13) - (1 << 6) - (1 << 5) == 8096
        assert nonlinearity(h) == 8096
        _register_resilient(h, 1)


def test_criterion_11_plateaued_propagation():
    with criterion(11, "plateaued order n + r propagates through the sum"):
        rng = XorShift64Star(SEED_PLATEAU)
        for idx in range(20):
            n = 6
            m = 4 if idx % 2 else 6
            triple, _ = random_derivative_triple(n, rng)
            if idx % 4 < 2:
                r = 0  # affine partners
                while True:
                    masks = [rng.bits(m) for _ in range(3)]
                    if all(mk.bit_count() >= 1 for mk in masks) and (
                        masks[0] ^ masks[1] ^ masks[2]
                    ).bit_count() >= 1:
                        break
                gs = [BooleanFunction.linear(m, mk, rng.bits(1)) for mk in masks]
                h, _ = resilient_indirect_sum(triple, *gs, k=0)
                _register_resilient(h, 0)
            else:
                r = m  # bent partners (full-order plateaued)
                gs = random_mm_bent_triple(m, rng)
                for g in gs:
                    _register_bent(g)
                h, _ = resilient_indirect_sum(triple, *gs, k=-1)
            for f in (triple.f1, triple.f2, triple.f3):
                _register_bent(f)
            assert plateaued_order(h) == n + r, (idx, m, r)


def test_criterion_12_restrictions_complementary_everywhere():
    with criterion(12, "every generated bent function splits complementarily"):
        restricted_sum_corpus()
        headline_build()
        assert len(_BENT_POOL) > 400
        for f in _BENT_POOL.values():
            for j in range(1, f.n + 1):
                assert complementary_plateaued(f.restrict(j, 0), f.restrict(j, 1))


def test_criterion_13_sarkar_maitra_divisibility():
    with criterion(13, "resilient outputs have 2^(m+1)-divisible nonlinearity"):
        resilient_sum_corpus()
        headline_build()
        assert len(_RESILIENT_OUTPUTS) >= 100
        for f, order in _RESILIENT_OUTPUTS:
            rep = resiliency_report(f)
            assert rep.resiliency >= order
            if 0 <= rep.resiliency <= f.n - 2:
                assert nonlinearity(f) % (1 << (rep.resiliency + 1)) == 0


def test_table_one_shape_difference():
    # for g3 = g2 + y_i the generalized sum and the indirect sum differ
    # exactly by y_i*(f2+f3) in the ANF (resp. y_i*(f1+f2) when f1 = f3)
    rng = XorShift64Star(0x7AB1E)
    triple, _ = random_derivative_triple(6, rng)
    f1, f2, f3 = triple.f1, triple.f2, triple.f3
    m = 4
    g1 = random_function(m, rng)
    g2 = random_function(m, rng)
    for i in (1, 3):
        yi = BooleanFunction.variable(m, i)
        g3 = g2 ^ yi
        general = generalized_indirect_sum(f1, f2, f3, g1, g2, g3)
        plain = indirect_sum(f1, f2, g1, g2)
        term = BooleanFunction(
            6 + m, np.repeat((f2 ^ f3).values(), 1 << m) & np.tile(yi.values(), 1 << 6)
        )
        assert mobius(general).mask ^ mobius(plain).mask == mobius(term).mask
    # the f1 = f3 row
    triple2 = BentTriple(f1, f2, f1)
    g3 = g2 ^ BooleanFunction.variable(m, 2)
    general = generalized_indirect_sum(f1, f2, f1, g1, g2, g3)
    plain = indirect_sum(f1, f2, g1, g2)
    term = BooleanFunction(
        6 + m,
        np.repeat((f1 ^ f2).values(), 1 << m)
        & np.tile(BooleanFunction.variable(m, 2).values(), 1 << 6),
    )
    assert mobius(general).mask ^ mobius(plain).mask == mobius(term).mask
    del triple2
