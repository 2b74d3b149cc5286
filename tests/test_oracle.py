import itertools
import json
import re
import tracemalloc

import pytest

from bentkit import (
    BooleanFunction,
    CapError,
    encode_point,
    exhaustive_nonlinearity,
    naive_walsh,
    nonlinearity,
    resiliency_by_definition,
    resiliency_report,
    serialize_truth_table,
    walsh_transform,
)
from bentkit.oracle import (
    CAP,
    correlation_immune_by_definition,
    verify_bent,
    verify_nonlinearity,
    verify_resiliency,
    verify_walsh,
)
from bentkit.rand import XorShift64Star, random_function

X1X2 = BooleanFunction(2, [0, 0, 0, 1])


def test_naive_walsh_constant():
    assert list(naive_walsh(BooleanFunction.zero(3)).values) == [8] + [0] * 7


def test_naive_walsh_quadratic():
    assert list(naive_walsh(X1X2).values) == [2, 2, 2, -2]


def test_naive_matches_butterfly_n4_slice():
    # the full 65536-function sweep lives in the acceptance suite
    for mask in range(0, 1 << 16, 257):
        f = BooleanFunction(4, mask)
        assert list(naive_walsh(f).values) == list(walsh_transform(f).values)


def test_naive_matches_butterfly_above_matrix_cutoff():
    # n = 13 builds its linear-function tables in blocks of 32 rows
    f = random_function(13, XorShift64Star(900))
    assert list(naive_walsh(f).values) == list(walsh_transform(f).values)


def test_naive_matches_butterfly_every_n_to_10():
    rng = XorShift64Star(901)
    for n in range(1, 11):
        for _ in range(5):
            f = random_function(n, rng)
            assert list(naive_walsh(f).values) == list(walsh_transform(f).values)


def test_oracles_allocate_a_block_of_tables_and_little_else():
    # one block of linear-function tables is at most 2^18 entries, a few
    # bytes each; a 2^n x 2^n sign matrix at n = 12 alone is 16 MiB
    f = random_function(12, XorShift64Star(902))
    for oracle in (naive_walsh, exhaustive_nonlinearity):
        tracemalloc.start()
        try:
            oracle(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, (oracle.__name__, peak)


def _points(n):
    return list(itertools.product((0, 1), repeat=n))


def _dot(w, x):
    return sum(a * b for a, b in zip(w, x)) % 2


def _every_function_to_n3():
    for n in (1, 2, 3):
        for mask in range(1 << (1 << n)):
            yield BooleanFunction(n, mask)


def test_naive_walsh_is_the_double_sum():
    for f in _every_function_to_n3():
        points = _points(f.n)
        spectrum = naive_walsh(f)
        for w in points:
            total = sum((-1) ** (f(x) ^ _dot(w, x)) for x in points)
            assert spectrum[encode_point(w)] == total, (f, w)


def test_exhaustive_nonlinearity_is_the_least_affine_distance():
    for f in _every_function_to_n3():
        points = _points(f.n)
        least = min(
            sum(f(x) != (_dot(w, x) ^ c) for x in points)
            for w in points
            for c in (0, 1)
        )
        assert exhaustive_nonlinearity(f) == least, f


def test_correlation_immunity_weighs_every_subfunction():
    for f in _every_function_to_n3():
        points = _points(f.n)
        for r in range(f.n + 1):
            # every subfunction on r fixed variables carries wt(f) / 2^r
            weights = [
                sum(f(x) for x in points if [x[i] for i in subset] == list(fixed))
                for subset in itertools.combinations(range(f.n), r)
                for fixed in itertools.product((0, 1), repeat=r)
            ]
            expect = all(w << r == f.weight for w in weights)
            assert correlation_immune_by_definition(f, r) == expect, (f, r)


def test_exhaustive_nonlinearity_affine_is_zero():
    assert exhaustive_nonlinearity(BooleanFunction.linear(5, 0b10110, 1)) == 0


def test_exhaustive_nonlinearity_bent_n4():
    # x1x3 + x2x4 as a table
    vals = [
        (((i >> 3) & 1) & ((i >> 1) & 1)) ^ (((i >> 2) & 1) & (i & 1))
        for i in range(16)
    ]
    f = BooleanFunction(4, vals)
    assert exhaustive_nonlinearity(f) == 6


def test_exhaustive_agrees_with_spectral_nonlinearity():
    rng = XorShift64Star(77)
    for _ in range(1000):
        f = random_function(8, rng)
        assert exhaustive_nonlinearity(f) == nonlinearity(f)


def test_resiliency_by_definition_examples():
    parity3 = BooleanFunction.linear(3, 0b111)
    assert resiliency_by_definition(parity3, 2)
    assert not resiliency_by_definition(X1X2, 1)
    assert resiliency_by_definition(BooleanFunction.linear(4, 0b1100), 1)
    assert not resiliency_by_definition(BooleanFunction.linear(4, 0b1100), 2)


def _definition_level_resiliency(f):
    best = -1
    for r in range(f.n + 1):
        if not resiliency_by_definition(f, r):
            break
        best = r
    return best


def test_resiliency_definition_agrees_with_spectrum():
    rng = XorShift64Star(123)
    for _ in range(500):
        f = random_function(8, rng)
        assert resiliency_report(f).resiliency == _definition_level_resiliency(f)


def test_ci_nesting_matches_spectrum_even_unbalanced():
    # the spectral CI order certifies independence at every order below
    # it and fails at the next one, balanced or not
    from bentkit.oracle import correlation_immune_by_definition

    rng = XorShift64Star(2718)
    checked_unbalanced = 0
    for _ in range(40):
        f = random_function(5, rng)
        ci = resiliency_report(f).ci_order
        for r in range(0, ci + 1):
            assert correlation_immune_by_definition(f, r)
        if ci < f.n:
            assert not correlation_immune_by_definition(f, ci + 1)
        checked_unbalanced += not f.is_balanced
    assert checked_unbalanced > 0


def test_resiliency_definition_agrees_on_balanced_corpus():
    # random functions are rarely balanced; force the interesting branch
    from bentkit.rand import random_balanced, random_resilient

    rng = XorShift64Star(321)
    for _ in range(40):
        f = random_balanced(6, rng)
        assert resiliency_report(f).resiliency == _definition_level_resiliency(f)
    for t in (1, 2):
        for _ in range(10):
            f = random_resilient(6, t, rng)
            assert resiliency_report(f).resiliency == _definition_level_resiliency(f)


def test_verify_resiliency_checks_is_resilient_at_every_order():
    from bentkit.rand import random_resilient

    rng = XorShift64Star(322)
    corpus = [BooleanFunction.zero(5), BooleanFunction.constant(5, 1)]
    corpus += [BooleanFunction.linear(5, (1 << w) - 1) for w in range(6)]
    corpus += [random_resilient(6, t, rng) for t in range(6)]
    corpus += [random_function(n, rng) for n in range(1, 8)]
    for f in corpus:
        assert verify_resiliency(f).agreed, f


def test_verify_resiliency_reports_an_is_resilient_divergence(monkeypatch):
    # a checker that also accepts one order too many: x3 + x4 is
    # 1-resilient, and the divergence shows at r = 2
    from bentkit import oracle

    real = oracle.is_resilient
    monkeypatch.setattr(oracle, "is_resilient", lambda f, r: real(f, r - 1))
    report = verify_resiliency(BooleanFunction.linear(4, 0b0011))
    assert not report.agreed
    assert report.first_divergence == (2, True, False)


def test_verify_walsh_reports_a_divergence_at_w0_only(monkeypatch):
    # the true spectrum with W(0) negated: Parseval and the range still
    # hold, so only the comparison at w = 0 can catch it
    from bentkit import WalshSpectrum, oracle

    real = oracle.walsh_transform

    def negated_w0(f):
        raw = real(f)._raw.copy()
        raw[0] = -raw[0]
        return WalshSpectrum(f.n, raw)

    monkeypatch.setattr(oracle, "walsh_transform", negated_w0)
    report = verify_walsh(random_function(6, XorShift64Star(3)))
    assert report == oracle.OracleReport("walsh", False, (0, 8, -8))


# x3 + x4 on four variables: nonlinearity 0, 1-resilient, not bent
X3_X4 = BooleanFunction.linear(4, 0b0011)


@pytest.mark.parametrize("verifier, fast, skew, divergence", [
    pytest.param(verify_nonlinearity, "nonlinearity", lambda nl: nl + 2, (None, 2, 0),
                 id="nonlinearity"),
    pytest.param(verify_bent, "is_bent", lambda bent: not bent, (None, True, False),
                 id="bent"),
    pytest.param(verify_resiliency, "resiliency_report",
                 lambda report: report._replace(resiliency=report.resiliency + 1),
                 (None, 2, 1), id="resiliency"),
])
def test_verifiers_report_a_disagreeing_fast_path(monkeypatch, verifier, fast, skew, divergence):
    # verify_resiliency stops at this first comparison: is_resilient never runs
    from bentkit import oracle

    def refuse(f, r):
        raise AssertionError("is_resilient ran after a divergence")

    real = getattr(oracle, fast)
    monkeypatch.setattr(oracle, fast, lambda f: skew(real(f)))
    monkeypatch.setattr(oracle, "is_resilient", refuse)
    subject = verifier.__name__.removeprefix("verify_")
    assert verifier(X3_X4) == oracle.OracleReport(subject, False, divergence)


def test_verify_command_exits_1_when_the_fast_path_disagrees(monkeypatch, tmp_path, capsys):
    from bentkit import cli, oracle

    real = oracle.nonlinearity
    monkeypatch.setattr(oracle, "nonlinearity", lambda f: real(f) + 2)
    path = tmp_path / "f.tt"
    path.write_text(serialize_truth_table(X3_X4))
    assert cli.main(["verify", "--property", "nonlinearity", str(path)]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "subject": "nonlinearity", "agreed": False, "first_divergence": [None, 2, 0],
    }


def test_caps():
    with pytest.raises(CapError):
        naive_walsh(BooleanFunction.zero(CAP + 1))
    with pytest.raises(CapError):
        exhaustive_nonlinearity(BooleanFunction.zero(CAP + 1))
    with pytest.raises(CapError):
        resiliency_by_definition(BooleanFunction.zero(CAP + 1), 1)


def test_nonlinearity_and_resiliency_run_at_the_cap():
    from bentkit.rand import random_resilient

    # a 1-resilient function of CAP variables (nonlinearity 7672)
    f = random_resilient(CAP, 1, XorShift64Star(139))
    assert verify_nonlinearity(f).agreed
    assert verify_resiliency(f).agreed


@pytest.mark.parametrize("verifier, fast, n", [
    (verify_walsh, "walsh_transform", CAP + 1),
    (verify_nonlinearity, "nonlinearity", CAP + 1),
    (verify_resiliency, "resiliency_report", CAP + 1),
    (verify_bent, "is_bent", CAP + 2),  # CAP + 1 is odd: answered from n alone
])
def test_verifiers_refuse_above_the_cap_before_the_fast_path(
    monkeypatch, verifier, fast, n
):
    from bentkit import oracle

    def refuse(f):
        raise AssertionError(f"{fast} ran above the oracle's cap")

    monkeypatch.setattr(oracle, fast, refuse)
    with pytest.raises(CapError):
        verifier(BooleanFunction.zero(n))


def test_verify_reports():
    rng = XorShift64Star(4)
    f = random_function(8, rng)
    for verifier in (verify_walsh, verify_nonlinearity, verify_resiliency, verify_bent):
        report = verifier(f)
        assert report.agreed
        assert report.first_divergence is None
        assert report.as_dict()["agreed"] is True


@pytest.mark.parametrize("call, error, fragment", [
    pytest.param(lambda: correlation_immune_by_definition(BooleanFunction.zero(CAP + 1), 1),
                 CapError, f"definition-level resiliency capped at n={CAP}", id="ci-cap"),
    pytest.param(lambda: correlation_immune_by_definition(X1X2, 3), ValueError,
                 "order r must be in [0, 2], got 3", id="ci-order"),
    pytest.param(lambda: resiliency_by_definition(X1X2, -1), ValueError,
                 "order r must be in [0, 2], got -1", id="resiliency-order"),
])
def test_bad_arguments_raise_with_a_message(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)) as exc:
        call()
    assert type(exc.value) is error
