"""Exact twisted Lie subalgebras of finite group algebras.

Builds the skew subalgebra of a group algebra cut out by an involutive
antiautomorphism g -> alpha(g) tau(g)^-1, computes the block decomposition
predicted by character indicators, and verifies that the two agree on a
catalog of finite groups.
"""

from .bessel import BesselExpansion, bessel_j, exp_cyclic, exp_matrix_oracle
from .chartable import CharacterTable, character_table, class_constants
from .cyclo import CycloContext, CycloScalar, context, cyclotomic_polynomial
from .errors import GroupLieError
from .groups import (
    ConjugacyData,
    GroupTable,
    InvolutiveAutomorphism,
    LinearCharacter,
    catalog,
    conjugacy_data,
    from_mult_table,
    from_permutation_generators,
    identity_automorphism,
    inversion_automorphism,
    linear_characters,
    parse_group_spec,
    validate_automorphism,
)
from .indicators import (
    IndicatorReport,
    PairingClass,
    indicator_report,
    involution_counts,
    joint_indicator,
    kawanaka_indicator,
    pairing,
    weighted_fs_indicator,
)
from .liealg import (
    GroupAlgebraElement,
    LieBasis,
    LieContext,
    bracket,
    center_basis,
    convolve,
    lie_basis,
    make_context,
    star,
)
from .linalg import CycloMatrix, RowSpace, intersect
from .verify import (
    LieReport,
    center_data,
    default_catalog,
    run_suite,
    verify_clifford,
    verify_kawanaka,
    verify_theorem,
)

__all__ = [
    "BesselExpansion",
    "CharacterTable",
    "ConjugacyData",
    "CycloContext",
    "CycloMatrix",
    "CycloScalar",
    "GroupAlgebraElement",
    "GroupLieError",
    "GroupTable",
    "IndicatorReport",
    "InvolutiveAutomorphism",
    "LieBasis",
    "LieContext",
    "LieReport",
    "LinearCharacter",
    "PairingClass",
    "RowSpace",
    "bessel_j",
    "bracket",
    "catalog",
    "center_basis",
    "center_data",
    "character_table",
    "class_constants",
    "conjugacy_data",
    "context",
    "convolve",
    "cyclotomic_polynomial",
    "default_catalog",
    "exp_cyclic",
    "exp_matrix_oracle",
    "from_mult_table",
    "from_permutation_generators",
    "identity_automorphism",
    "indicator_report",
    "intersect",
    "inversion_automorphism",
    "involution_counts",
    "joint_indicator",
    "kawanaka_indicator",
    "lie_basis",
    "linear_characters",
    "make_context",
    "pairing",
    "parse_group_spec",
    "run_suite",
    "star",
    "validate_automorphism",
    "verify_clifford",
    "verify_kawanaka",
    "verify_theorem",
    "weighted_fs_indicator",
]

__version__ = "0.1.0"
