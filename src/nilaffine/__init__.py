"""Exact tools for simply transitive affine actions on nilpotent Lie algebras.

Everything is computed over Q or a real quadratic extension Q(sqrt(d)),
with no floating point anywhere: checks either pass exactly or return a
concrete violating equation, and non-existence comes with a certificate
that can be re-verified independently.
"""

from .affine import (AffineRep, BijectivityReport, HomViolation,
                     NilpotencyReport, NonNilpotentWitness, RepVerdict,
                     check_homomorphism, check_simply_transitive,
                     rep_from_dict, rep_of_files, rep_to_dict)
from .corpus import bundled_rep, bundled_rep_names
from .errors import (DerivationError, FieldMismatchError,
                     IncompleteStructureError, InternalError, LRIdentityError,
                     NilaffineError, NotSimplyTransitiveError, ParseError,
                     PreconditionError, ShapeError)
from .io import read_json, stable_json, write_json
from .liealg import (DerivationSpace, IdentityReport, JacobiViolation,
                     LieAlgebra, abelian, algebra_from_dict, algebra_to_dict,
                     catalog_names, derivation_space, get_algebra, transport)
from .linalg import (EngelFailure, Flag, Matrix, engel_flag, matrix_to_json,
                     vector_to_json)
from .lr import (LRStructure, LRViolation, check_complete, check_lr,
                 lr_from_dict, lr_to_dict, lr_to_rep, rep_to_lr)
from .obstruction import (LinearSystem, ObstructionCertificate,
                          ObstructionOutcome, ParametricMatrix, Poly,
                          obstruct_abelian, parametric_derivation,
                          variable_namer, verify_certificate)
from .scalars import Scalar

__version__ = "0.1.0"

# what the CLI, the README's quick start, perfbench and the certificate
# checker use, and the report and error types of those functions;
# tests/test_public_surface.py keeps it so
__all__ = [
    "AffineRep", "BijectivityReport", "DerivationError", "DerivationSpace",
    "EngelFailure", "FieldMismatchError", "Flag", "HomViolation",
    "IdentityReport", "IncompleteStructureError", "InternalError",
    "JacobiViolation", "LRIdentityError", "LRStructure", "LRViolation",
    "LieAlgebra", "LinearSystem", "Matrix", "NilaffineError",
    "NilpotencyReport", "NonNilpotentWitness", "NotSimplyTransitiveError",
    "ObstructionCertificate", "ObstructionOutcome", "ParametricMatrix",
    "ParseError", "Poly", "PreconditionError", "RepVerdict", "Scalar",
    "ShapeError", "abelian", "algebra_from_dict", "algebra_to_dict",
    "bundled_rep", "bundled_rep_names", "catalog_names", "check_complete",
    "check_homomorphism", "check_lr", "check_simply_transitive",
    "derivation_space", "engel_flag", "get_algebra", "lr_from_dict",
    "lr_to_dict", "lr_to_rep", "matrix_to_json", "obstruct_abelian",
    "parametric_derivation", "read_json", "rep_from_dict", "rep_of_files",
    "rep_to_dict", "rep_to_lr", "stable_json", "transport", "variable_namer",
    "vector_to_json", "verify_certificate", "write_json",
]
