"""Higher-order Hochschild cohomology of commutative algebras over pointed
simplicial sets, with exact linear algebra throughout.

The workflow mirrors the CLI: build or parse a space, take its sweep
closure to learn the admissible coefficient classes, supply an algebra and
a class-keyed multi-module, then assemble the cosimplicial vector space and
read off cohomology dimensions.
"""

from .actions import (
    ActionPartition,
    ActionSlot,
    enumerate_slots,
    paranoid_closure,
    reduce_slot,
    sweep_closure,
)
from .coeffalg import (
    Algebra,
    MultiModule,
    endomorphism_module,
    multiplication_module,
    parse_algebra,
    parse_module,
    validate_algebra,
    validate_module,
)
from .cochain import DEFAULT_BUDGET, CochainSetup, classical_hochschild_dims
from .errors import BudgetError, FormatError, InternalError, ValidationError
from .exactlinalg import (
    Field,
    Matrix,
    PrimeField,
    QQ,
    Rationals,
    field_from_json,
    field_from_text,
)
from .simplicial import (
    Generator,
    Simplex,
    SimplicialSpace,
    apply_degeneracy,
    apply_face,
    builtin_space,
    enumerate_simplices,
    parse_space,
    validate_space,
)

__version__ = "0.1.0"

__all__ = [
    "ActionPartition",
    "ActionSlot",
    "Algebra",
    "BudgetError",
    "CochainSetup",
    "DEFAULT_BUDGET",
    "Field",
    "FormatError",
    "Generator",
    "InternalError",
    "Matrix",
    "MultiModule",
    "PrimeField",
    "QQ",
    "Rationals",
    "Simplex",
    "SimplicialSpace",
    "ValidationError",
    "apply_degeneracy",
    "apply_face",
    "builtin_space",
    "classical_hochschild_dims",
    "endomorphism_module",
    "enumerate_simplices",
    "enumerate_slots",
    "field_from_json",
    "field_from_text",
    "multiplication_module",
    "paranoid_closure",
    "parse_algebra",
    "parse_module",
    "parse_space",
    "reduce_slot",
    "sweep_closure",
    "validate_algebra",
    "validate_module",
    "validate_space",
]
