"""Exact tools for simply transitive affine actions on nilpotent Lie algebras.

Everything is computed over Q or a real quadratic extension Q(sqrt(d)),
with no floating point anywhere: checks either pass exactly or return a
concrete violating equation, and non-existence comes with a certificate
that can be re-verified independently.
"""

from .affine import (AffineRep, BijectivityReport, HomReport, HomViolation,
                     NilpotencyReport, NonNilpotentWitness, RepVerdict,
                     check_homomorphism, check_simply_transitive,
                     rep_from_dict, rep_of_files, rep_to_dict, trivial_rep,
                     validate_derivations)
from .corpus import bundled_rep, bundled_rep_names, bundled_reps
from .errors import (DerivationError, FieldMismatchError,
                     IncompleteStructureError, InternalError, NilaffineError,
                     ParseError, PreconditionError, ShapeError)
from .io import read_json, stable_json, write_json
from .liealg import (DerivationSpace, JacobiReport, JacobiViolation,
                     LieAlgebra, SemidirectElement, abelian,
                     algebra_from_dict, algebra_to_dict, catalog,
                     catalog_names, derivation_space, get_algebra,
                     is_derivation, resolve_name, semidirect_bracket,
                     transport)
from .linalg import (EngelFailure, Flag, Matrix, annihilator, engel_flag,
                     matrix_from_json, matrix_to_json, row_space_basis,
                     vector_from_json, vector_to_json)
from .lr import (CompletenessVerdict, LRReport, LRStructure, LRViolation,
                 check_complete, check_lr, lr_from_dict, lr_to_dict,
                 lr_to_rep, rep_to_lr)
from .obstruction import (LinearSystem, ObstructionCertificate,
                          ObstructionOutcome, ParametricMatrix, Poly,
                          obstruct_abelian, parametric_derivation,
                          variable_namer, verify_certificate)
from .scalars import Scalar, scalar_from_json, scalar_to_json

__version__ = "0.1.0"

__all__ = [
    "AffineRep", "BijectivityReport", "CompletenessVerdict",
    "DerivationError", "DerivationSpace", "EngelFailure",
    "FieldMismatchError", "Flag", "HomReport", "HomViolation",
    "IncompleteStructureError", "InternalError", "JacobiReport",
    "JacobiViolation", "LRReport", "LRStructure", "LRViolation",
    "LieAlgebra", "LinearSystem", "Matrix", "NilaffineError",
    "NilpotencyReport", "NonNilpotentWitness", "ObstructionCertificate",
    "ObstructionOutcome", "ParametricMatrix", "ParseError", "Poly",
    "PreconditionError", "RepVerdict", "Scalar", "SemidirectElement",
    "ShapeError", "abelian", "algebra_from_dict", "algebra_to_dict",
    "annihilator", "bundled_rep", "bundled_rep_names", "bundled_reps",
    "catalog", "catalog_names", "check_complete", "check_homomorphism",
    "check_lr", "check_simply_transitive", "derivation_space", "engel_flag",
    "get_algebra", "is_derivation", "lr_from_dict", "lr_to_dict",
    "lr_to_rep", "matrix_from_json", "matrix_to_json", "obstruct_abelian",
    "parametric_derivation", "read_json", "rep_from_dict", "rep_of_files",
    "rep_to_dict", "rep_to_lr", "resolve_name",
    "row_space_basis", "scalar_from_json", "scalar_to_json",
    "semidirect_bracket", "stable_json", "transport", "trivial_rep",
    "validate_derivations", "variable_namer", "vector_from_json",
    "vector_to_json", "verify_certificate", "write_json",
]
