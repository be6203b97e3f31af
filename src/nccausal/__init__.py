"""Finite-dimensional noncommutative causal structures.

Isocones of matrix algebras and the orders they induce on pure states,
the causal order and its hyperbola deformation on the Penrose-
compactified Minkowski plane, the spectral distance of a finite Dirac
and the order it induces on product pure states, and the causal cone
of the product geometry (plane times M2(C)).
"""

import importlib

from .hermitian import (BlochState, CapIsocone, HermMat, MonotoneFn, Spectrum, apply_monotone,
                        commutator, eigenvalues, is_psd, op_norm, random_herm, spectrum)
from .minkowski import (Event, PenrosePoint, causal_leq, lambda_closedness_probe,
                        lambda_leq, lorentz_distance, penrose_inverse,
                        penrose_map)
from .spectral import INFINITE, FiniteDirac, product_state_order, spectral_distance

# Modules imported on first access to them or to one of their exports (PEP 562):
# most experiments load none of them.
_LAZY = {
    "poset": ("CycleError", "FinitePoset", "transitive_closure", "validate"),
    "isocone": ("LexComponent", "LexIsocone", "cap_induced_order", "cap_membership",
                "lex_induced_order", "lex_membership", "lex_order_consistency_check",
                "saturation_check", "state_value"),
    "causal_cone": ("MatrixField", "cone_condition_at", "eigenvalue_clock_probe",
                    "field_in_cone", "scalar_causal_iff"),
}


def __getattr__(name):
    for module, names in _LAZY.items():
        if name == module or name in names:
            # ``from . import <module>`` here would call this function again.
            found = importlib.import_module(f".{module}", __name__)
            return found if name == module else getattr(found, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
