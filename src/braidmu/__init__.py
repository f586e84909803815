"""Braided multiplicative unitaries at finite dimension.

Leg calculus, braiding providers, operator-span certificates,
Yetter-Drinfeld braidings, semi-direct products, a Pentagon-residual search,
and a small leg-notation language.
"""

__version__ = "0.1.0"

from .tensor import (LegError, LegOperator, LegSignature, Space, Vector, adjoint, apply_distant,
                     apply_on_legs, compose, crossing, embed_adjacent, extract_distant,
                     identity, is_unitary, tensor_space)
from .braiding import (BraidingProvider, BraidingRegularityReport, ExplicitBraiding,
                       FlipBraiding, InverseBraiding, PhaseBraiding, UnsupportedPairError,
                       braiding_regularity, check_hexagons, check_naturality)
from .spans import (Conjugation, DecompositionError, OperatorSpan, adjoint_span, contains,
                    crossed_product, equals, is_algebra, is_nondegenerate,
                    is_relative_multiplier, is_star_closed, projector_distance,
                    span_from_slices, span_of)
from .multunitary import (Certificate, MultUnitary, RegularityReport, classify_regularity,
                          coassociativity_residual, commutant_dimension, comultiply, dual,
                          full_certificate, left_slice_span, multiplier_checks,
                          opposite_regularity_span, pentagon_residual, podles_conditions,
                          regularity_span, right_slice_span)
from .yd import (Corep, ExtractionError, Rep, YDModule, corep_residual, corep_slice_span,
                 pairing_unitary, rep_residual, tensor_corep, tensor_rep, tensor_yd,
                 yd_braiding, yd_braiding_provider, yd_braiding_regularity, yd_residual)
from .semidirect import (FixedVectorSpace, SemidirectError, SemidirectReport, fixed_vectors,
                         fixed_vector_identity_residual, routing_agreement_residual,
                         semidirect_product, semidirect_regularity)
from .solver import (CommutantConstraint, DegreePreservingConstraint, SearchProblem,
                     SearchResult, gradient, residual_objective, search)
from .groups import FiniteGroup, GroupTableError, cyclic, symmetric
from .examples_io import (Bundle, SchemaError, bundle_from_json, bundle_to_json,
                          graded_category, group_yd_module, identity_control, kac_takesaki,
                          load_bundle, save_bundle)
