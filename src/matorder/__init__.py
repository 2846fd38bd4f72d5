"""matorder: a numerical workbench for matrix-ordered operator algebras.

Builds finite-dimensional operator algebras, audits cone families against
the admissibility axiom systems, computes cone-induced order norms,
recovers the involution a cone family induces, and reconstructs the
similarity carrying an algebra onto an adjoint-closed one, with
completely-bounded-norm certificates.
"""

from .algebra import (
    OperatorAlgebra,
    conjugate_algebra,
    doubling_embed,
    generate_algebra,
    hermitian_part_basis,
)
from .case_studies import (
    C1Sample,
    JSymmetricRep,
    c1_condition1_decay,
    c1_embed,
    c1_inequality_check,
    c1_main_constants,
    c1_norm,
    j_symmetrize,
    jsym_norm_identity,
    kadison_pipeline,
)
from .cones import (
    ConeAuditReport,
    SimilarityCone,
    StandardCone,
    Witness,
    audit_algebraically_admissible,
    audit_matrix_ordered,
    audit_star_admissible,
    check_order_unit_archimedean,
    compress,
    estimate_main_constants,
    replay_witness,
)
from .involution import (
    InvolutionMap,
    decompose,
    real_cone_span,
    recover_involution,
    verify_matrix_involution,
)
from .order_norms import (
    NormReport,
    null_space,
    order_unit_seminorm,
    pre_cstar_norm,
)
from .similarity import (
    SimilarityCertificate,
    StarRepresentation,
    build_star_rep,
    cb_lower_bound,
    minimize_condition,
    reconstruct_similarity,
    solve_Q,
)

__version__ = "0.1.0"

__all__ = [
    "C1Sample",
    "ConeAuditReport",
    "InvolutionMap",
    "JSymmetricRep",
    "NormReport",
    "OperatorAlgebra",
    "SimilarityCertificate",
    "SimilarityCone",
    "StandardCone",
    "StarRepresentation",
    "Witness",
    "audit_algebraically_admissible",
    "audit_matrix_ordered",
    "audit_star_admissible",
    "build_star_rep",
    "c1_condition1_decay",
    "c1_embed",
    "c1_inequality_check",
    "c1_main_constants",
    "c1_norm",
    "cb_lower_bound",
    "check_order_unit_archimedean",
    "compress",
    "conjugate_algebra",
    "decompose",
    "doubling_embed",
    "estimate_main_constants",
    "generate_algebra",
    "hermitian_part_basis",
    "j_symmetrize",
    "jsym_norm_identity",
    "kadison_pipeline",
    "minimize_condition",
    "null_space",
    "order_unit_seminorm",
    "pre_cstar_norm",
    "real_cone_span",
    "reconstruct_similarity",
    "recover_involution",
    "replay_witness",
    "solve_Q",
    "verify_matrix_involution",
]
