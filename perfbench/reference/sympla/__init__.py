"""Exact-arithmetic toolkit for symplectic Lie algebras over the rationals."""

from .exactla import Matrix, Q, Subspace, q
from .liealg import Cochain, Connection, LieAlgebra, Representation
from .symplectic import SymplecticLieAlgebra, validate_symplectic

__all__ = [
    "Matrix",
    "Q",
    "Subspace",
    "q",
    "Cochain",
    "Connection",
    "LieAlgebra",
    "Representation",
    "SymplecticLieAlgebra",
    "validate_symplectic",
]

__version__ = "0.1.0"
