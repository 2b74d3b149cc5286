"""bentkit: construction and certification of bent and resilient
Boolean functions, with brute-force oracles for every claim."""

from .analysis import (
    AnalysisProfile,
    BoundsReport,
    ResiliencyReport,
    analyze,
    bounds_report,
    complementary_plateaued,
    dual,
    is_bent,
    is_semi_bent,
    nonlinearity,
    plateaued_order,
    resiliency_report,
)
from .constructions import (
    BentTriple,
    LinearSubspace,
    PermutationMap,
    ResilientSumCertificate,
    bent_triple_from_derivative,
    class_d_bent,
    class_d_restricted_sum,
    direct_sum,
    generalized_indirect_sum,
    indirect_sum,
    mm_function,
    mm_restricted_sum,
    psap_bent,
    psap_restricted_sum,
    resilient_indirect_sum,
    resilient_indirect_sum_from_pair,
    restricted_indirect_sum,
    restricted_indirect_sum_dual,
    rothaus,
    rothaus_restricted_sum,
    walsh_case,
)
from .core import (
    AnfPolynomial,
    BooleanFunction,
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
from .errors import CapError, PremiseError, TruthTableFormatError
from .galois import GaloisField
from .oracle import (
    OracleReport,
    correlation_immune_by_definition,
    exhaustive_nonlinearity,
    naive_walsh,
    resiliency_by_definition,
)
from .rand import XorShift64Star

__version__ = "0.1.0"
