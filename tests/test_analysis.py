import json
import subprocess
import sys
import tracemalloc
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bentkit import (
    BooleanFunction,
    PremiseError,
    analyze,
    bounds_report,
    complementary_plateaued,
    dual,
    is_bent,
    is_semi_bent,
    nonlinearity,
    plateaued_order,
    resiliency_report,
    walsh_transform,
)
from bentkit.analysis import ResiliencyReport, semi_bent_order
from bentkit.rand import (
    XorShift64Star,
    random_bent,
    random_function,
    random_mm_bent,
    random_resilient,
)

X1X2 = BooleanFunction(2, [0, 0, 0, 1])


# -- nonlinearity --------------------------------------------------------


def test_nonlinearity_affine_zero():
    assert nonlinearity(BooleanFunction.linear(6, 0b101001, 1)) == 0


def test_nonlinearity_frozen_examples():
    # both values frozen from the exhaustive affine-distance oracle
    assert nonlinearity(X1X2) == 1
    f = BooleanFunction(
        4,
        [
            (((i >> 3) & 1) & ((i >> 1) & 1)) ^ (((i >> 2) & 1) & (i & 1))
            for i in range(16)
        ],
    )
    assert nonlinearity(f) == 6


# -- bentness and duals ---------------------------------------------------


def test_is_bent_examples():
    assert is_bent(X1X2)
    assert not is_bent(BooleanFunction.linear(2, 0b10))
    assert not is_bent(random_function(3, XorShift64Star(1)))  # odd n


def test_dual_self_dual_quadratic():
    assert dual(X1X2) == X1X2


def test_dual_involution_on_mm_corpus():
    rng = XorShift64Star(9)
    for _ in range(10):
        f = random_mm_bent(6, rng)
        assert dual(dual(f)) == f


def test_dual_rejects_non_bent():
    with pytest.raises(PremiseError):
        dual(BooleanFunction.linear(4, 0b1000))


# -- resiliency -----------------------------------------------------------


def test_resiliency_parity_of_three():
    rep = resiliency_report(BooleanFunction.linear(3, 0b111))
    assert rep == (2, 2)


def test_resiliency_unbalanced():
    rep = resiliency_report(X1X2)
    assert rep.ci_order == 0
    assert rep.resiliency == -1


def test_resiliency_unbalanced_ci_still_reported():
    # CI order is computed even without balance; resiliency stays -1
    rep = resiliency_report(BooleanFunction.constant(4, 1))
    assert rep == (4, -1)


def test_mm_resilient_8_1_112():
    # injective weight->=2 images: certified by the spectral oracle
    from bentkit import PermutationMap, mm_function

    images = [0b00011, 0b00110, 0b01100, 0b11000, 0b00101, 0b01010, 0b10100, 0b01001]
    f = mm_function(PermutationMap(images, r=5), BooleanFunction.zero(3))
    assert resiliency_report(f) == (1, 1)
    assert nonlinearity(f) == 112


# -- plateaued ------------------------------------------------------------


def test_plateaued_bent_full_order():
    assert plateaued_order(X1X2) == 2


def test_plateaued_affine_zero_order():
    assert plateaued_order(BooleanFunction.linear(5, 0b10101)) == 0
    assert plateaued_order(BooleanFunction.zero(4)) == 0


def test_plateaued_restriction_semi_bent():
    rng = XorShift64Star(21)
    f = random_bent(6, rng)
    g = f.restrict(3, 0)
    assert plateaued_order(g) == 4
    assert is_semi_bent(g)
    assert semi_bent_order(5) == 4
    assert semi_bent_order(6) == 4


def test_not_plateaued():
    # weight-1 function on 3 variables has spectrum values {6, +-2}
    f = BooleanFunction(3, 1)
    assert plateaued_order(f) is None


# -- complementary plateaued ----------------------------------------------


def test_complementary_from_bent_restrictions():
    rng = XorShift64Star(31)
    f = random_bent(6, rng)
    for j in range(1, 7):
        assert complementary_plateaued(f.restrict(j, 0), f.restrict(j, 1))


def test_complementary_rejects_same_affine():
    g = BooleanFunction.linear(3, 0b101)
    assert not complementary_plateaued(g, g)


def test_complementary_singleton_supports_do_not_partition():
    g1 = BooleanFunction.linear(3, 0b101)
    g2 = g1 ^ BooleanFunction.variable(3, 1)
    assert not complementary_plateaued(g1, g2)


def test_complementary_requires_odd_dimension():
    f = random_function(4, XorShift64Star(5))
    with pytest.raises(ValueError):
        complementary_plateaued(f, f)


# -- bounds ---------------------------------------------------------------


def test_bounds_even_refinement_value():
    rep = bounds_report(8, 1)
    assert rep.nonlinearity_cap == 116
    assert rep.degree_cap == 6


def test_bounds_almost_full_resiliency_degree_one():
    assert bounds_report(9, 8).degree_cap == 1
    assert bounds_report(9, 8).nonlinearity_cap == 0


def test_bounds_unresilient_universal_only():
    rep = bounds_report(6, -1)
    assert rep.nonlinearity_cap == 28
    rep = bounds_report(5, -1)
    assert rep.nonlinearity_cap == 13  # floor(16 - 2*sqrt(2))


def test_bounds_odd_n_multiple_rule():
    rep = bounds_report(7, 1)
    # universal floor(64 - 5.65...) = 58, largest multiple of 4 below: 56
    assert rep.nonlinearity_cap == 56


def test_bounds_degree_violation_raises():
    with pytest.raises(PremiseError):
        bounds_report(8, 3, degree=7)


# -- profile ---------------------------------------------------------------


def test_profile_bent_invariant():
    prof = analyze(random_mm_bent(6, XorShift64Star(2)))
    assert prof.bent
    assert prof.nonlinearity == (1 << 5) - (1 << 2)
    assert prof.plateaued_order == 6
    assert prof.resiliency == -1
    d = prof.as_dict()
    assert "sarkar_maitra_bound" not in d


def test_profile_json_fields():
    prof = analyze(BooleanFunction.linear(8, 0b11000000))
    d = json.loads(prof.to_json())
    assert d["resiliency"] == 1
    assert d["sarkar_maitra_bound"] == 116
    assert set(d) == {
        "n", "weight", "balanced", "nonlinearity", "degree", "ci_order",
        "resiliency", "bent", "plateaued_order", "semi_bent",
        "sarkar_maitra_bound",
    }


def test_siegenthaler_degree_cap_on_resilient_corpus():
    from bentkit import degree
    from bentkit.rand import random_resilient

    rng = XorShift64Star(718)
    for n in (4, 5, 6, 7):
        for t in range(0, n - 1):
            for _ in range(5):
                f = random_resilient(n, t, rng)
                res = resiliency_report(f).resiliency
                assert res >= t
                assert degree(f) <= max(1, n - res - 1)


@settings(max_examples=30)
@given(st.integers(2, 8), st.integers())
def test_semi_bent_flag_matches_order(n, seed):
    f = random_function(n, XorShift64Star(seed))
    r = plateaued_order(f)
    assert is_semi_bent(f) == (r == semi_bent_order(n))


@settings(max_examples=30)
@given(st.integers(1, 8), st.integers())
def test_parseval_via_spectrum_type(n, seed):
    # WalshSpectrum construction enforces Parseval; touching .values of a
    # fresh transform is enough to know it held
    f = random_function(n, XorShift64Star(seed))
    spec = walsh_transform(f)
    assert int((spec.values.astype(object) ** 2).sum()) == 1 << (2 * n)


def test_consistency_checks_survive_python_O():
    # analyze's bound check and the field-trace check must not be asserts
    code = """
import bentkit.analysis as analysis
from bentkit import BooleanFunction, GaloisField

analysis.bounds_report = lambda n, res, degree=None: analysis.BoundsReport(n, res, n, 0)
try:
    analysis.analyze(BooleanFunction(2, [0, 0, 0, 1]))
except RuntimeError as exc:
    print("analyze:", exc)
field = GaloisField(2)
field.reduction_poly = 0b101  # x^2 + 1 = (x + 1)^2, reducible
try:
    field.trace(0b10)
except RuntimeError as exc:
    print("trace:", exc)
"""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "analyze: nonlinearity 1 and degree 2 break the caps" in proc.stdout
    assert "trace: trace of 2 is 3" in proc.stdout


# -- spectrum predicates against their elementwise forms -------------------
#
# The predicates read the spectrum through Parseval identities; these
# references test every value, as the predicates did before.


def _is_bent_ref(f: BooleanFunction) -> bool:
    if f.n % 2:
        return False
    amp = 1 << (f.n // 2)
    return bool(np.all(np.abs(walsh_transform(f).values) == amp))


def _plateaued_order_ref(f: BooleanFunction) -> Optional[int]:
    spec = walsh_transform(f).values
    support = int(np.count_nonzero(spec))
    r = support.bit_length() - 1
    if (1 << r) != support or r % 2:
        return None
    nz = spec[spec != 0]
    if not np.all(np.abs(nz) == 1 << (f.n - r // 2)):
        return None
    return r


def _resiliency_report_ref(f: BooleanFunction) -> ResiliencyReport:
    spec = walsh_transform(f).values
    nz = np.nonzero(spec)[0]
    weights = np.bitwise_count(np.arange(1 << f.n, dtype=np.uint32))
    nz_weights = weights[nz[nz != 0]]
    ci = f.n if nz_weights.size == 0 else int(nz_weights.min()) - 1
    return ResiliencyReport(ci, ci if int(spec[0]) == 0 else -1)


def _assert_predicates_match(f: BooleanFunction) -> None:
    assert is_bent(f) is _is_bent_ref(f), f
    assert plateaued_order(f) == _plateaued_order_ref(f), f
    assert resiliency_report(f) == _resiliency_report_ref(f), f


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_spectrum_predicates_match_reference_on_every_function(n):
    for mask in range(1 << (1 << n)):
        _assert_predicates_match(BooleanFunction(n, mask))


def _corpus(n: int, rng: XorShift64Star):
    """Random tables, bent functions and their (semi-bent) restrictions,
    and t-resilient functions for every t."""
    yield from (random_function(n, rng) for _ in range(20))
    if n % 2 == 0:
        for _ in range(5):
            f = random_bent(n, rng)
            yield f
            yield from (f.restrict(j, b) for j in (1, n) for b in (0, 1))
    for t in range(n):
        yield from (random_resilient(n, t, rng) for _ in range(3))


@pytest.mark.parametrize("n", range(5, 11))
def test_spectrum_predicates_match_reference_on_seeded_corpora(n):
    for f in _corpus(n, XorShift64Star(1000 + n)):
        _assert_predicates_match(f)


def test_spectrum_predicates_allocate_no_spectrum_sized_temporary():
    # an M-M bent function at n = 20, spectrum cached: 2^20 entries
    n = 20
    f = random_mm_bent(n, XorShift64Star(20))
    walsh_transform(f)
    limits = {is_bent: 1, nonlinearity: 1, plateaued_order: 1, resiliency_report: 1}
    for predicate, bytes_per_entry in limits.items():
        tracemalloc.start()
        try:
            predicate(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bytes_per_entry << n, (predicate.__name__, peak / (1 << n))


@pytest.mark.parametrize(
    "n, w",
    [
        # rows of 2^12: w at the start, inside and at the end of a row
        (14, 1), (14, 1 << 12), (14, 3 << 12), (14, (2 << 12) | 37),
        (14, (1 << 12) - 1), (14, (1 << 14) - 1),
        # 16 rows are scanned at a time: w in the second, third and last
        # such chunk
        (18, 1 << 16), (18, (3 << 16) | 5), (18, (1 << 17) - 1), (18, (1 << 18) - 1),
    ],
)
def test_resiliency_report_of_a_linear_function(n, w):
    # W is 2^n at w and 0 elsewhere, so the least weight of a nonzero
    # W(u), u != 0, is wt(w)
    f = BooleanFunction.linear(n, w)
    ci = w.bit_count() - 1
    assert resiliency_report(f) == (ci, ci)


def test_resiliency_report_of_a_constant_function():
    # W is zero off w = 0: correlation immune of every order, unbalanced
    assert resiliency_report(BooleanFunction.zero(14)) == (14, -1)
