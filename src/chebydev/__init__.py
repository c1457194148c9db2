"""chebydev: multivariate polynomials of least deviation from zero.

Exact constructions of the recursive simplex families and the degree-6
three-variable family, extremal-signature certificates for deviation lower
bounds, sup-norm search over simplex/ball/sphere, and an independent discrete
minimax oracle built on a from-scratch deterministic simplex LP.
"""

__version__ = "0.1.0"

import os
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads; see the README

from .domains import Domain, ball, simplex, simplex_face, sphere
from .polycore import (FLOAT64, RATIONAL, DimensionMismatchError,
                       FieldMismatchError, Poly, PolyError, insert_zero,
                       laplacian, max_coefficient_difference, poly_equal,
                       poly_from_json_dict, poly_to_json_dict,
                       restrict_affine_last, restrict_zero)
from .symfun import (chebyshev_t, chebyshev_t_shifted, elementary_symmetric,
                     monomial_symmetric, partitions_upto, power_sum, symmetrize)
from .constructions import (FamilyReport, R5Constants, build_r5,
                            build_r5_repaired, build_r5_report, build_t3,
                            build_td, build_u3, build_u5, compute_rd,
                            d5_factorized_form, dd_determinant,
                            derive_r5_constants, lift_to_ball,
                            prime_factorization, r5_face_defect,
                            vandermonde_factor_report)
from .signatures import (Certificate, CertificateResult, SignedPointSet,
                         SignatureSolution, annihilation_residual,
                         build_l_functional, certificate_from_json_dict,
                         certificate_to_json_dict, certify_lower_bound,
                         check_annihilation, combi_identity, cubature_check,
                         orbit, r5_signature, solve_signature_weights)
from .supnorm import (SupNormReport, critical_points, level_set, sample_domain,
                      signed_max, sup_norm, verify_td_bound)
from .bestapprox import (ApproxProblem, ApproxResult, ball_mixed_monomial_check,
                         discrete_minimax, invariant_basis, remez_exchange,
                         verify_correspondence)
