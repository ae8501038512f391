"""Exact q,t-combinatorics: nabla-operator series, shuffle and parking
enumeration, affine permutations, and finite-field bundle counts, each
verified against an independent route."""

from .scalar import ONE, Q, QtScalar, T, TSeries, ZERO, aut_q, q_bracket, q_factorial
from .symfunc import Poly, SymFunc, partitions, plethysm

__all__ = [
    "ONE", "Q", "QtScalar", "T", "TSeries", "ZERO", "aut_q", "q_bracket",
    "q_factorial", "Poly", "SymFunc", "partitions", "plethysm",
]
