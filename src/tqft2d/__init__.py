"""Evaluation engine for two-dimensional topological field theories.

Bordism words evaluate against finite-dimensional commutative Frobenius
algebras, and G-labeled bordisms evaluate against graded Frobenius bundles
with flat transport over a finite group, in exact rational arithmetic.
"""

from .tensor import (Tensor, ModeMismatchError, ContractionError,
                     tensordot, equal, invert_matrix, parse_scalar,
                     format_scalar)
from .report import Violation, ValidationReport
from .groups import (FiniteGroup, GroupError, LoopWord, trivial_group,
                     cyclic_group, symmetric_group, direct_product,
                     klein_four_group, parse_group, format_group)
from .frobenius import (FrobeniusAlgebra, StructureError,
                        DegeneratePairingError, validate, pairing,
                        comultiplication, closed_invariant, ground_field,
                        dual_numbers, diagonal, group_center, change_of_basis,
                        rescale_counit, parse_algebra, format_algebra,
                        load_algebra)
from .bordism import (Gen, BordismWord, TopologicalType, WordSyntaxError,
                      ArityError, parse_word, word, seq, par,
                      topological_type, equivalent, evaluate, as_matrix,
                      random_equivalent_pair)
from .crossed import (CrossedBundle, BundleError, LabelError, ExtractionError,
                      LabeledBordism, TftOracle, validate_bundle,
                      from_group_algebra, from_frobenius_algebra,
                      label_word, parse_labeled,
                      format_labeled, evaluate_labeled, holonomy,
                      tft_to_bundle, roundtrip_check, frobenius_action,
                      rotation_transport, nfold_fission_check,
                      closed_surface_word, conjugate_labeled,
                      insert_identity_layer, insert_conjugation_pair,
                      enumerate_labeled_words, parse_bundle, format_bundle,
                      load_bundle)
from .gerbe import (ScalarBundle, CocycleError, check_cocycle,
                    induced_transport, from_cocycle, coboundary,
                    klein_anticommuting_cocycle, to_crossed_bundle,
                    scalar_surface_product, gerbe_holonomy,
                    parse_cocycle, format_cocycle,
                    load_cocycle)

__version__ = "0.1.0"
