"""Fuzzing of the library's integer arguments and tables, in process.

Every callable in `bentkit.__all__` is called with drawn arguments, and so
is each method of BooleanFunction, AnfPolynomial, WalshSpectrum,
GaloisField, PermutationMap, LinearSubspace and XorShift64Star that takes
an integer, and every draw in bentkit.rand.  An integer argument, or an
entry of a table, is drawn in range, out of range, or as a float, a bool,
a NumPy scalar, None or a string; a function argument is one of a few
functions of 1 to 8 variables, so the variable counts of two arguments
may differ.  Every call must return or raise ValueError (PremiseError,
CapError and TruthTableFormatError are ValueErrors) or TypeError, and no
message may be an operator's error from inside the arithmetic, which
names no argument.  New boundary cases go into these strategies, not into new
rows of the per-module bad-call tables; those rows hold the wrong answers
a call returns rather than raises, which the property cannot see.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bentkit
from bentkit import (
    BentTriple,
    BooleanFunction,
    GaloisField,
    LinearSubspace,
    PermutationMap,
    mobius,
    walsh_transform,
)
from bentkit.rand import (
    XorShift64Star,
    random_derivative_triple,
    random_function,
    random_mm_bent,
    random_mm_bent_triple,
    random_permutation,
    random_resilient,
)

_RNG = XorShift64Star(2026)
_FUNCTIONS = (
    [random_function(n, _RNG) for n in range(1, 9)]
    + [random_mm_bent(n, _RNG) for n in (2, 4, 6, 8)]
    + [random_resilient(n, 1, _RNG) for n in (3, 5, 7)]
)
_TRIPLES = [BentTriple(*random_mm_bent_triple(n, _RNG)) for n in (2, 4)]
_TRIPLES.append(random_derivative_triple(4, _RNG)[0])

_INT = (
    st.integers(-2, 8) | st.sampled_from([27, 2**64 - 1, 2**64, 0x9E3779B97F4A7C15, 2**70,
                                          -(2**70)])
    | st.floats() | st.booleans() | st.none() | st.sampled_from(["1", "0x3"])
    | st.integers(-2, 8).map(np.int64) | st.integers(0, 8).map(np.uint8)
    | st.floats(-2, 8).map(np.float64) | st.sampled_from([np.True_, np.False_])
)

_KINDS = {
    "int": _INT,
    "ints": st.lists(_INT, max_size=9),  # a vector, image list or bit table
    "point": _INT | st.lists(_INT, max_size=9),
    "pair": st.tuples(_INT, _INT),
    "table": _INT | st.lists(st.integers(0, 2), max_size=9),
    "spectrum": st.lists(st.integers(-8, 8) | st.sampled_from([4.7, 2**70]), max_size=9),
    "fn": st.sampled_from(_FUNCTIONS),
    "anf": st.sampled_from(_FUNCTIONS).map(mobius),
    "walsh": st.sampled_from(_FUNCTIONS).map(walsh_transform),
    "triple": st.sampled_from(_TRIPLES),
    "map": st.sampled_from([
        PermutationMap.identity(2), PermutationMap([0] * 4),
        random_permutation(3, _RNG), PermutationMap([1, 2, 4, 8], r=4),
    ]),
    "subspace": st.sampled_from([
        LinearSubspace.zero(2), LinearSubspace.full(2), LinearSubspace(3, [1]),
    ]),
    "field": st.sampled_from([GaloisField(m) for m in (1, 2, 3)]),
    "rng": st.integers(0, 9).map(XorShift64Star),
    "mode": st.sampled_from([None, "resilient", "bent", "plain"]),
    "variant": st.sampled_from(["00", "01", "10", "11", "02"]),
    "text": st.sampled_from(["n=2\nbits=6\n", "n=1\nbits=01\n"]) | st.text(max_size=8),
}

_FN3, _FN6 = ("fn",) * 3, ("fn",) * 6
# the kind of each positional argument, by the name the call resolves from
_CALLS = {
    # analysis
    "AnalysisProfile": ("int",) * 10,
    "BoundsReport": ("int",) * 4,
    "ResiliencyReport": ("int", "int"),
    "analyze": ("fn",),
    "bounds_report": ("int", "int"),
    "certify": ("text", "fn"),
    "complementary_plateaued": ("fn", "fn"),
    "dual": ("fn",),
    "is_bent": ("fn",),
    "nonlinearity": ("fn",),
    "plateaued_order": ("fn",),
    "resiliency_report": ("fn",),
    # constructions
    "BentTriple": _FN3,
    "LinearSubspace": ("int", "ints"),
    "LinearSubspace.full": ("int",),
    "LinearSubspace.contains": ("subspace", "int"),
    "PermutationMap": ("ints", "int"),
    "PermutationMap.identity": ("int",),
    "PermutationMap.__call__": ("map", "int"),
    "ResilientSumCertificate": ("int",) * 4,
    "bent_triple_from_derivative": ("fn", "fn", "point"),
    "class_d_bent": ("map", "subspace", "subspace"),
    "class_d_restricted_sum": ("map", "subspace", "subspace") * 2 + ("int", "int"),
    "direct_sum": ("fn", "fn"),
    "generalized_indirect_sum": _FN6 + ("mode", "int", "int"),
    "indirect_sum": ("fn",) * 4,
    "mm_function": ("map", "fn", "int"),
    "mm_restricted_sum": ("map", "map", "int", "int", "fn", "fn"),
    "psap_bent": ("field", "ints"),
    "psap_restricted_sum": ("field", "ints", "pair", "pair") * 2,
    "resilient_indirect_sum": ("triple",) + _FN3 + ("int",),
    "resilient_indirect_sum_from_pair": ("triple", "fn", "fn", "int", "int"),
    "restricted_indirect_sum": ("fn", "int", "fn", "int", "variant"),
    "restricted_indirect_sum_dual": ("fn", "int", "fn", "int"),
    "rothaus": _FN3,
    "rothaus_restricted_sum": _FN6,
    "walsh_case": ("triple", "point"),
    # core
    "AnfPolynomial": ("int", "int"),
    "AnfPolynomial.degree_of_variable": ("anf", "int"),
    "BooleanFunction": ("int", "table"),
    "BooleanFunction.zero": ("int",),
    "BooleanFunction.constant": ("int", "int"),
    "BooleanFunction.variable": ("int", "int"),
    "BooleanFunction.linear": ("int", "int", "int"),
    "BooleanFunction.bit": ("fn", "int"),
    "BooleanFunction.evaluate": ("fn", "ints"),
    "BooleanFunction.translate": ("fn", "point"),
    "BooleanFunction.derivative": ("fn", "point"),
    "BooleanFunction.restrict": ("fn", "int", "int"),
    "WalshSpectrum": ("int", "spectrum"),
    "WalshSpectrum.__getitem__": ("walsh", "point"),
    "degree": ("fn",),
    "degree_of_variable": ("fn", "int"),
    "encode_point": ("ints",),
    "mobius": ("fn",),
    "mobius_inv": ("anf",),
    "parse_truth_table": ("text",),
    "serialize_truth_table": ("fn",),
    "walsh_transform": ("fn",),
    # errors
    "CapError": ("int",),
    "PremiseError": ("int",),
    "TruthTableFormatError": ("int",),
    # galois; inv(0) is a ZeroDivisionError by design, and div reaches inv
    "GaloisField": ("int",),
    "GaloisField.mul": ("field", "int", "int"),
    "GaloisField.div": ("field", "int", "int"),
    "GaloisField.trace": ("field", "int"),
    # oracle
    "OracleReport": ("int", "int", "int"),
    "correlation_immune_by_definition": ("fn", "int"),
    "exhaustive_nonlinearity": ("fn",),
    "naive_walsh": ("fn",),
    "resiliency_by_definition": ("fn", "int"),
    # rand
    "XorShift64Star": ("int",),
    "XorShift64Star.bits": ("rng", "int"),
    "XorShift64Star.randrange": ("rng", "int"),
    "XorShift64Star.randint": ("rng", "int", "int"),
    "rand.random_function": ("int", "rng"),
    "rand.random_balanced": ("int", "rng"),
    "rand.random_permutation": ("int", "rng"),
    "rand.random_affine": ("int", "rng", "int"),
    "rand.random_mm_bent": ("int", "rng"),
    "rand.random_balanced_field_table": ("int", "rng"),
    "rand.random_psap_bent": ("int", "rng"),
    "rand.random_class_d_bent": ("int", "rng"),
    "rand.random_bent": ("int", "rng"),
    "rand.random_resilient": ("int", "int", "rng"),
    "rand.random_resilient_triple": ("int", "int", "rng"),
    "rand.random_mm_bent_triple": ("int", "rng"),
    "rand.random_derivative_triple": ("int", "rng"),
}

# what an operator raises when an unread argument reaches the arithmetic
_BARE = (
    "unsupported operand type", "is not iterable", "negative shift count",
    "not supported between instances", "cannot be interpreted as an integer",
)


def test_every_export_is_called():
    assert {name for name in _CALLS if "." not in name} == set(bentkit.__all__)


def _resolve(name: str):
    obj = bentkit
    for part in name.split("."):
        obj = getattr(obj, part)
    return obj


@st.composite
def calls(draw):
    name = draw(st.sampled_from(sorted(_CALLS)))
    return name, tuple(draw(_KINDS[kind]) for kind in _CALLS[name])


_F6 = random_function(6, XorShift64Star(7))


@settings(max_examples=600, derandomize=True, deadline=None)
@given(case=calls())
@example(case=("BooleanFunction", (3.0, 0)))
@example(case=("BooleanFunction.variable", (6, 1.0)))
@example(case=("BooleanFunction.restrict", (_F6, 1.0, 0)))
@example(case=("BooleanFunction.translate", (_F6, 1.0)))
@example(case=("BooleanFunction.bit", (_F6, -1)))
@example(case=("bounds_report", (6, 1.5)))
@example(case=("XorShift64Star", (1.0,)))
@example(case=("XorShift64Star", (-1,)))
@example(case=("XorShift64Star", (0x9E3779B97F4A7C15,)))
@example(case=("GaloisField.trace", (GaloisField(3), 2.0)))
@example(case=("walsh_case", (_TRIPLES[0], 1.0)))
def test_every_call_returns_or_raises_a_named_error(case):
    name, args = case
    try:
        _resolve(name)(*args)
    except (ValueError, TypeError) as exc:
        assert not any(bare in str(exc) for bare in _BARE), (name, args, str(exc))
