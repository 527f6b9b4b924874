"""Exact symbolic workbench for the Schrodinger-Virasoro Lie algebra.

Brackets, graded tensor actions, the Yang-Baxter bracket, Lie bialgebra
axiom checking, derivation decomposition and inner-witness recovery, the
top-component taxonomy of Yang-Baxter solutions, a brute-force search
oracle, and a text grammar with a command-line front end.  All arithmetic
is exact over the rationals.
"""

from .algebra import (
    GENERATORS,
    BasisVector,
    Element,
    HalfInt,
    L,
    M,
    ParityError,
    Y,
    basis_window,
    bracket,
    bracket_basis,
    is_central,
)
from .bialgebra import (
    AxiomReport,
    BIALGEBRA_NOT_COBOUNDARY,
    CertifyResult,
    CocommutatorSpec,
    Counterexample,
    DerivationTable,
    NOT_BIALGEBRA,
    SpecialDerivation,
    TRIANGULAR_COBOUNDARY,
    WindowTooSmallError,
    WitnessMismatchError,
    ZeroDegreeError,
    certify,
    check_axioms,
    check_cybe,
    check_mybe,
    coboundary_identity_check,
    cocommutator_apply,
    cojacobi_defect,
    decompose_derivation,
    delta_r,
    image_memo,
    inner_derivation_table,
    inner_witness_nonzero_degree,
    match_inner_on_generators,
    special_apply,
    special_derivation_table,
    strip_central_square,
    window_scan_order,
)
from .classify import (
    ClassLabel,
    NOT_CANDIDATE,
    NotHomogeneousError,
    SearchConfig,
    ZeroInputError,
    classify_highest,
    enumerate_skew_candidates,
    highest_component,
    search_cybe,
)
from .exprs import (
    ParseError,
    SourceExpr,
    format,
    parse_derivation_table,
    parse_element,
    parse_source,
    parse_tensor2,
    parse_tensor3,
)
from .linalg import (
    RationalMatrix,
    TensorWindowBasis,
    invariant_tensors,
    skew_action_space,
)
from .tensors import (
    NotSkewError,
    Tensor2,
    Tensor3,
    canonical_key,
    cyclic,
    diag_act2,
    diag_act3,
    is_skew,
    skew_part,
    twist,
    wedge,
    yang_baxter_c,
)

__version__ = "0.1.0"
