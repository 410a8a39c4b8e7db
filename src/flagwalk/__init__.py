"""Numerical laboratory for random walks on flag bundles with lattice fibres:
cocycle machinery, case classification of (flag, embedding) configurations,
and Monte Carlo experiments for stationary measures and equidistribution."""

import os

# BLAS reads its thread count when numpy loads, so cap it before any import
if os.environ.get("FLAGWALK_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["FLAGWALK_THREADS"])

__version__ = "0.1.0"

from .boundary import (EmpiricalMeasure, StepMeasure, convolve_step,
                       detect_cone, estimate_p1p2, invariant_arc, limit_form,
                       limit_vector, sample_furstenberg, transfer_spectrum)
from .bundle_walk import (BundlePoint, cesaro_distribution,
                          decomposability_experiment, equidist_experiment,
                          ldp_tail, lyapunov, renewal_sum, step)
from .classifier import (CaseLabel, EmbeddingSpec, FlagConfig, classify,
                         count_irreducible_components, induced_morphism,
                         lie_intersection)
from .cocycles import (AlphaCocycle, CircleSection, DiagSignValue,
                       alpha_cocycle, cone_section, conjugate_cocycle,
                       cross_ratio, iwasawa_cocycle, morphism_cocycle,
                       plain_section, sigma_chi, sign_cocycle)
from .errors import (ConfigurationError, DecompositionError, FlagwalkError,
                     PreconditionError)
from .examples import (closed_geodesic_point, default_measure, get_example,
                       list_examples)
from .fiber import (LatticePoint, act, capped_shortest, diag_action,
                    diag_matrix, reduce, shortest_vector)
from .group_core import (IwasawaFactors, Representation, Sl2Triple, bracket,
                         extend_sl2_triple, iwasawa_decompose,
                         principal_triple, standard_rep, sym_power, sym_rep)
