"""bentkit: construction and certification of bent and resilient
Boolean functions, with brute-force oracles for every claim.

The names below are re-exported lazily (PEP 562): `import bentkit`
loads no submodule, and so no NumPy, until one of them is first read.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": (
        "AnalysisProfile",
        "BoundsReport",
        "ResiliencyReport",
        "analyze",
        "bounds_report",
        "certify",
        "complementary_plateaued",
        "dual",
        "is_bent",
        "nonlinearity",
        "plateaued_order",
        "resiliency_report",
    ),
    "constructions": (
        "BentTriple",
        "LinearSubspace",
        "PermutationMap",
        "ResilientSumCertificate",
        "bent_triple_from_derivative",
        "class_d_bent",
        "class_d_restricted_sum",
        "direct_sum",
        "generalized_indirect_sum",
        "indirect_sum",
        "mm_function",
        "mm_restricted_sum",
        "psap_bent",
        "psap_restricted_sum",
        "resilient_indirect_sum",
        "resilient_indirect_sum_from_pair",
        "restricted_indirect_sum",
        "restricted_indirect_sum_dual",
        "rothaus",
        "rothaus_restricted_sum",
        "walsh_case",
    ),
    "core": (
        "AnfPolynomial",
        "BooleanFunction",
        "WalshSpectrum",
        "degree",
        "degree_of_variable",
        "encode_point",
        "mobius",
        "mobius_inv",
        "parse_truth_table",
        "serialize_truth_table",
        "walsh_transform",
    ),
    "errors": ("CapError", "PremiseError", "TruthTableFormatError"),
    "galois": ("GaloisField",),
    "oracle": (
        "OracleReport",
        "correlation_immune_by_definition",
        "exhaustive_nonlinearity",
        "naive_walsh",
        "resiliency_by_definition",
    ),
    "rand": ("XorShift64Star",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_EXPORTS})
