"""Finite-dimensional noncommutative causal structures.

Isocones of matrix algebras and the orders they induce on pure states,
the causal order and its hyperbola deformation on the Penrose-
compactified Minkowski plane, and the causal-cone order of the product
geometry (plane times M2(C)) with its spectral distance.
"""

import importlib

from .hermitian import (BlochState, CapIsocone, HermMat, MonotoneFn, Spectrum, apply_monotone,
                        commutator, eigenvalues, is_psd, op_norm, random_herm, spectrum)
from .poset import CycleError, FinitePoset, transitive_closure, validate
from .minkowski import (Event, PenrosePoint, causal_leq, lambda_closedness_probe,
                        lambda_leq, lorentz_distance, penrose_inverse,
                        penrose_map)
from .causal_cone import (INFINITE, FiniteDirac, MatrixField, cone_condition_at,
                          eigenvalue_clock_probe, field_in_cone,
                          product_state_order, scalar_causal_iff,
                          spectral_distance)

# Exported from ``isocone``, which is imported on first use (PEP 562): most experiments skip it.
_ISOCONE_NAMES = ("BlockMorphism", "LexComponent", "LexIsocone", "cap_induced_order",
                  "cap_membership", "lex_induced_order", "lex_membership", "pushforward",
                  "lex_order_consistency_check", "saturation_check", "state_value")


def __getattr__(name):
    if name == "isocone" or name in _ISOCONE_NAMES:
        # ``from . import isocone`` here would call this function again.
        module = importlib.import_module(".isocone", __name__)
        return module if name == "isocone" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
