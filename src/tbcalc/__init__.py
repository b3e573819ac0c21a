"""Exact Thurston-Bennequin invariants of Brieskorn double point links.

The pipeline resolves the plane branch x^m + y^n = 0, lifts the resolution
through the double cover z^2 = x^m + y^n, marks the real structure for
either sign of z^2, and evaluates the tb formula on the resulting graph.
Everything is exact rational arithmetic; there are no floats anywhere.
"""

from .errors import (
    BadExponents,
    BadOddNeighborCount,
    InconsistentAnnotation,
    InternalInvariantError,
    InvalidDocument,
    IsolatedMinusOne,
    MalformedDecomposition,
    NonIntegralCanonicalClass,
    NonIntegralMultiplicity,
    NonPositiveM,
    NotNumericallyGorenstein,
    OddSelfIntOnBranch,
    SingularMatrix,
    StructureMismatch,
    TbcalcError,
    UserInputError,
)
from .numeric import format_rational, parse_rational
from .graph import (
    Arm,
    DecoratedGraph,
    FrozenGraph,
    FrozenVertex,
    VertexData,
    VertexMap,
    arms,
    blow_down_minimize,
    solve_intersection_system,
)
from .embedres import EuclidData, build_gamma_f, euclid_data, separate_odd_odd
from .cover import (
    SIGN_MINUS,
    SIGN_PLUS,
    CoverData,
    CoverGraph,
    build_cover,
    label_arms,
    lift_double_cover,
    mark_real_structure,
    minimize_and_label,
)
from .charclass import (
    WU_CONFIRMED_CONSISTENT,
    WU_CONFIRMED_UNIQUE,
    CharacteristicData,
    canonical_coefficients,
)
from .tb import TbResult, evaluation_graph, tb, tb_from_graph
from .linkform import (
    KIND_ONE_SIDED,
    KIND_TWO_SIDED_NONORIENTABLE,
    KIND_TWO_SIDED_ORIENTABLE,
    ContractedPoint,
    Decomposition,
    LinkingMatrix,
    Piece,
    contraction_linking_matrix,
    linking_form_from_decomposition,
)
from .verify import SUITE_NAMES, SuiteResult, VerifyReport, verify_identities
from .serialize import FORMAT_VERSION, graph_from_document, graph_to_document, to_dot

__version__ = "0.1.0"

__all__ = [
    "Arm",
    "BadExponents",
    "BadOddNeighborCount",
    "CharacteristicData",
    "ContractedPoint",
    "CoverData",
    "CoverGraph",
    "Decomposition",
    "DecoratedGraph",
    "EuclidData",
    "FrozenGraph",
    "FrozenVertex",
    "FORMAT_VERSION",
    "InconsistentAnnotation",
    "InternalInvariantError",
    "InvalidDocument",
    "IsolatedMinusOne",
    "KIND_ONE_SIDED",
    "KIND_TWO_SIDED_NONORIENTABLE",
    "KIND_TWO_SIDED_ORIENTABLE",
    "LinkingMatrix",
    "MalformedDecomposition",
    "NonIntegralCanonicalClass",
    "NonIntegralMultiplicity",
    "NonPositiveM",
    "NotNumericallyGorenstein",
    "OddSelfIntOnBranch",
    "Piece",
    "SIGN_MINUS",
    "SIGN_PLUS",
    "SUITE_NAMES",
    "SingularMatrix",
    "StructureMismatch",
    "SuiteResult",
    "TbResult",
    "TbcalcError",
    "UserInputError",
    "VerifyReport",
    "VertexData",
    "VertexMap",
    "WU_CONFIRMED_CONSISTENT",
    "WU_CONFIRMED_UNIQUE",
    "arms",
    "blow_down_minimize",
    "build_cover",
    "build_gamma_f",
    "canonical_coefficients",
    "contraction_linking_matrix",
    "euclid_data",
    "evaluation_graph",
    "format_rational",
    "graph_from_document",
    "graph_to_document",
    "label_arms",
    "lift_double_cover",
    "linking_form_from_decomposition",
    "mark_real_structure",
    "minimize_and_label",
    "parse_rational",
    "separate_odd_odd",
    "solve_intersection_system",
    "tb",
    "tb_from_graph",
    "to_dot",
    "verify_identities",
]
