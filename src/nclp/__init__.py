"""Certified factorization norms, completely positive maps, and the
dilation counterexample pipeline on finite-dimensional Schatten classes."""

from .errors import InvalidInputError, InvalidSpecError
from .schatten import conjugate, schatten_norm
from .vecnorm import (NormCertificate, Side, VecElem, alpha_certify,
                      alpha_upper, beta_certify, diagonal_closed_form,
                      opposite_transform, pairing, project_diagonal)
from .cpmaps import (KrausMap, amplify_apply, apply,
                     build_counterexample_maps, choi, is_completely_positive,
                     sampled_contraction_ratio)
from .yeadon import (YeadonSpec, build_isometry, jordan_split,
                     rigid_bound_report, rigid_compose,
                     tensor_contraction_report)
from .counterexample import (CounterexampleReport, closed_form_images,
                             lower_bound_formula, threshold_k, verify_pipeline,
                             witness_w)

__version__ = "0.1.0"
