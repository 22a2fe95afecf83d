"""ladderkit: exact homological computations with idempotent recollements.

A numpy-backed engine for finite-dimensional algebras given by structure
constants: builds the recollement of module categories induced by an
idempotent, computes the bimodule towers that decide how far the two
adjoint-functor ladders extend, and verifies stratifying-ideal and
Gorenstein-theoretic consequences by exact linear algebra over F_p or Q.
"""

__version__ = "0.1.0"

from .linalg import Field, rref, kernel_basis, solve
from .algebra import (
    Algebra,
    AlgebraError,
    FieldRestrictionError,
    Idempotent,
    QuiverPresentation,
    algebra_from_structure_constants,
    algebra_from_quiver,
    opposite,
    enveloping,
    tensor_product_algebra,
    corner,
    quotient_by_idempotent_ideal,
    build_ideal_matrix_algebra,
    build_morita_square,
    build_triangular,
    ground_field_algebra,
    dual_numbers_algebra,
    preprojective_a2,
)
from .modules import (
    Module,
    ModuleMap,
    Bimodule,
    Resolution,
    regular_module,
    regular_bimodule,
    zero_module,
    direct_sum,
    submodule,
    quotient_module,
    hom_space,
    radical,
    projective_indecomposables,
    simples,
    projective_cover,
    cover_sequence,
    is_projective,
    minimal_resolution,
    dual,
    is_injective,
    hom_into_regular,
    tensor_over,
    hom_module,
    is_isomorphic,
    bimodules_isomorphic,
    random_module,
)
from .recollement import (
    RecollementData,
    build_recollement,
    counit_mu,
    unit_nu,
    unit_lambda,
    counit_kappa,
    unit_e_l,
    counit_e_r,
    verify_canonical_sequences,
    probe_exactness,
    torsion_class_membership,
    torsion_audit,
)
from .ladder import (
    TowerRung,
    HeightVerdict,
    LadderReport,
    ladder_report,
    height_cross_check,
)
from .homological import (
    Bound,
    GorensteinReport,
    GPVerdict,
    ext_dim,
    ext_dims,
    tor_dim,
    tor_dims,
    projective_dimension,
    injective_dimension,
    is_stratifying,
    spli_silp,
    relative_gldim,
    is_gorenstein_projective,
    is_gorenstein_injective,
    stable_hom_dim,
    preservation_harness,
    lemma_checks,
)

__all__ = [name for name in dir() if not name.startswith("_")]
