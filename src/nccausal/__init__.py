"""Finite-dimensional noncommutative causal structures.

Isocones of matrix algebras and the orders they induce on pure states,
the causal order and its hyperbola deformation on the Penrose-
compactified Minkowski plane, and the causal-cone order of the product
geometry (plane times M2(C)) with its spectral distance.
"""

from .hermitian import (HermMat, MonotoneFn, Spectrum, apply_monotone,
                        commutator, eigenvalues, is_psd, op_norm, random_herm,
                        spectrum)
from .poset import CycleError, FinitePoset, transitive_closure, validate
from .isocone import (BlochState, BlockMorphism, CapIsocone, LexComponent,
                      LexIsocone, cap_induced_order, cap_membership,
                      lex_induced_order, lex_membership,
                      lex_order_consistency_check, pushforward,
                      saturation_check, state_value)
from .minkowski import (Event, PenrosePoint, causal_leq, lambda_closedness_probe,
                        lambda_leq, lorentz_distance, penrose_inverse,
                        penrose_map)
from .causal_cone import (INFINITE, FiniteDirac, MatrixField, cone_condition_at,
                          eigenvalue_clock_probe, field_in_cone,
                          product_state_order, scalar_causal_iff,
                          spectral_distance)

__version__ = "0.1.0"
