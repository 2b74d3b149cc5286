import re
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
    nonlinearity,
    plateaued_order,
    resiliency_report,
    walsh_transform,
)
from bentkit.analysis import ResiliencyReport, is_resilient, semi_bent_order
from bentkit.oracle import verify_resiliency
from bentkit.rand import (
    XorShift64Star,
    random_bent,
    random_function,
    random_mm_bent,
    random_resilient,
)
from test_rand import SEEDS

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


def _zero_or_all_ones(n: int) -> BooleanFunction:
    """The indicator of {0, (1, ..., 1)}: W(w) is 0 at odd wt(w) and -4 at
    even nonzero wt(w), so CI of order 1 at weight 2 (unbalanced for n >= 3)."""
    return BooleanFunction(n, 1 | 1 << ((1 << n) - 1))


def _assert_is_resilient_matches_report(f: BooleanFunction) -> None:
    orders = range(-2, f.n + 2)
    decided = [is_resilient(f, t) for t in orders]  # before the report's spectrum
    resiliency = resiliency_report(f).resiliency
    assert decided == [resiliency >= t for t in orders], f


def _is_resilient_corpus(n: int, rng: XorShift64Star):
    """Constants, linear functions of every weight, an unbalanced
    function with W = 0 at every weight-1 point, random tables and
    t-resilient functions for every t."""
    yield BooleanFunction.zero(n)
    yield BooleanFunction.constant(n, 1)
    for w in range(n + 1):
        mask = (1 << w) - 1  # the linear function x_(n-w+1) + ... + x_n
        yield from (BooleanFunction.linear(n, mask, c) for c in (0, 1))
    if n >= 3:
        yield _zero_or_all_ones(n)
    yield from (random_function(n, rng) for _ in range(10))
    for t in range(n):
        yield from (random_resilient(n, t, rng) for _ in range(3))


@pytest.mark.parametrize("n", range(1, 11))
def test_is_resilient_matches_resiliency_report(n):
    for f in _is_resilient_corpus(n, XorShift64Star(1900 + n)):
        _assert_is_resilient_matches_report(f)  # no spectrum cached yet
        _assert_is_resilient_matches_report(f)  # the report's spectrum cached


def test_is_resilient_decides_orders_up_to_one_without_a_spectrum():
    rng = XorShift64Star(1911)
    for n in range(2, 11):
        f = random_resilient(n, 1, rng)
        assert is_resilient(f, 1) and is_resilient(f, 0) and is_resilient(f, -1)
        assert f._spectrum is None
        is_resilient(f, 2)
        assert f._spectrum is not None


@pytest.mark.parametrize("n", range(3, 11))
def test_is_resilient_unbalanced_with_zero_weight_one_coefficients(n):
    # every f + x_j is balanced, so W vanishes at each weight-1 point, but
    # f is not: first-order correlation immune and not 0-resilient
    f = _zero_or_all_ones(n)
    assert f.weight == 2
    assert resiliency_report(f) == (1, -1)
    assert is_resilient(f, -1)
    assert not is_resilient(f, 0) and not is_resilient(f, 1)


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
    assert analyze(g).semi_bent
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
    d = prof.as_dict()
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
@given(st.integers(2, 8), SEEDS)
def test_semi_bent_flag_matches_order(n, seed):
    f = random_function(n, XorShift64Star(seed))
    r = plateaued_order(f)
    assert analyze(f).semi_bent == (r == semi_bent_order(n))


@settings(max_examples=30)
@given(st.integers(1, 8), SEEDS)
def test_parseval_via_spectrum_type(n, seed):
    # WalshSpectrum construction enforces Parseval; touching .values of a
    # fresh transform is enough to know it held
    f = random_function(n, XorShift64Star(seed))
    spec = walsh_transform(f)
    assert int((spec.values.astype(object) ** 2).sum()) == 1 << (2 * n)


def test_consistency_checks_survive_python_O():
    # analyze's bound check, certify's promise check and the field-trace
    # check must not be asserts
    code = """
import bentkit.analysis as analysis
from bentkit import BooleanFunction, GaloisField

try:
    analysis.certify("x1x2", BooleanFunction(2, [0, 0, 0, 1]), [("bent", "==", False)])
except RuntimeError as exc:
    print("certify:", exc)
analysis.bounds_report = lambda n, res: analysis.BoundsReport(n, res, n, 0)
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
    assert ("certify: x1x2 promises bent == false, but its output has bent true"
            in proc.stdout)
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


@pytest.mark.parametrize("n", range(1, 11))
def test_resiliency_report_agrees_with_the_full_scan_and_the_oracle(n):
    # a nonzero weight-1 entry answers without the slice scan; the corpus has
    # functions on both sides of that test
    fs = list(_is_resilient_corpus(n, XorShift64Star(2100 + n)))
    if n % 2 == 0:
        fs += [random_bent(n, XorShift64Star(2200 + n)) for _ in range(3)]
    weight_one = [walsh_transform(f).values[1 << np.arange(n)].any() for f in fs]
    assert any(weight_one) and not all(weight_one)
    for f in fs:
        assert resiliency_report(f) == _resiliency_report_ref(f), f
        assert verify_resiliency(f).agreed, f


def test_spectrum_predicates_allocate_no_spectrum_sized_temporary():
    # spectra cached, under one byte per entry: an M-M bent function at
    # n = 20, its two halves at the last variable (p = 19), and two n = 20
    # functions with W = 0 at every weight-1 point, which resiliency_report
    # answers only by scanning the spectrum
    n = 20
    f = random_mm_bent(n, XorShift64Star(20))
    scanned = [random_resilient(n, 3, XorShift64Star(21)),
               BooleanFunction.linear(n, (1 << n) - 1)]
    calls = [(is_bent, f), (nonlinearity, f), (plateaued_order, f), (resiliency_report, f),
             (complementary_plateaued, f.restrict(n, 0), f.restrict(n, 1)),
             *((resiliency_report, g) for g in scanned)]
    for predicate, *args in calls:
        for g in args:
            walsh_transform(g)
        tracemalloc.start()
        try:
            predicate(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        entries = 1 << args[0].n
        assert peak < entries, (predicate.__name__, args[0].n, peak / entries)


@pytest.mark.parametrize(
    "n, w",
    [
        # one slice of 2^14 entries: w at its start, inside and at its end
        (14, 1), (14, 1 << 12), (14, 3 << 12), (14, (2 << 12) | 37),
        (14, (1 << 12) - 1), (14, (1 << 14) - 1),
        # 16 slices: w at the start of the 5th, inside the 13th, at the end
        # of the 8th and at the end of the last
        (18, 1 << 16), (18, (3 << 16) | 5), (18, (1 << 17) - 1), (18, (1 << 18) - 1),
        # slice edges, and the end of the spectrum (3 * 2^14 is past the
        # end at n = 15, whose spectrum is two slices)
        (15, (1 << 14) - 1), (15, (1 << 14) + 1), (15, (1 << 15) - 1),
        (17, (1 << 14) - 1), (17, (1 << 14) + 1), (17, 3 << 14), (17, (1 << 17) - 1),
    ],
)
def test_resiliency_report_of_a_linear_function(n, w):
    # W is 2^n at w and 0 elsewhere, so the least weight of a nonzero
    # W(u), u != 0, is wt(w)
    f = BooleanFunction.linear(n, w)
    ci = w.bit_count() - 1
    assert resiliency_report(f) == (ci, ci)


@pytest.mark.parametrize("n", range(15, 19))
def test_resiliency_report_agrees_with_the_full_scan_above_one_slice(n):
    # the oracle stops at 10 variables, so the full scan alone checks
    # spectra of 2 to 16 slices
    for f in _is_resilient_corpus(n, XorShift64Star(2100 + n)):
        assert resiliency_report(f) == _resiliency_report_ref(f), f


def test_resiliency_report_of_a_constant_function():
    # W is zero off w = 0: correlation immune of every order, unbalanced
    assert resiliency_report(BooleanFunction.zero(14)) == (14, -1)


@pytest.mark.parametrize("call, error, fragment", [
    pytest.param(lambda: bounds_report(6, -2), ValueError,
                 "resiliency must be in [-1, inf], got -2", id="bounds-order"),
    pytest.param(lambda: complementary_plateaued(BooleanFunction.zero(3),
                                                 BooleanFunction.zero(5)),
                 ValueError, "inputs must share a variable count, got 3 and 5",
                 id="complementary-counts"),
])
def test_bad_arguments_raise_with_a_message(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)) as exc:
        call()
    assert type(exc.value) is error
