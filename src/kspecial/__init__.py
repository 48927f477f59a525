"""k-deformed special functions with cross-checked identities.

Exposes the rising k-product (Pochhammer symbol), the deformed gamma,
beta and Hurwitz-type zeta functions, the k-generalized hypergeometric
series, and the planar-forest combinatorics whose counts realize the
series coefficients. Every representation is implemented at least twice
through independent routes; `kspecial.verify` runs the cross-checks and
the `kspecial` CLI drives evaluation, verification and forest export.

numpy is imported inside the functions that work on arrays (quadrature,
the batched series, the product routes, the chunked log-Pochhammer kernel),
so importing the package and calling a scalar route do not load it.
"""

from .betak import (BetaKSpec, beta_k, beta_k_integral_halfline,
                    beta_k_integral_unit, beta_k_product, beta_k_ratio)
from .errors import (CapExceeded, DivergentSeries, DomainError,
                     InvariantViolation, NonConvergent, OutsideRadius,
                     PoleError)
from .forests import (ForestFamily, PlanarForest, count, derivative_ratio,
                      enumerate_forests, parse_forest, serialize_forest,
                      tail_count, validate_forest)
from .gammak import (GammaKEvaluator, gamma_k_dk, gamma_k_stirling,
                     log_gamma_k, nearest_pole, pde_residual,
                     pde_residual_variant, psi_point)
from .hypergeometric import (ConvergenceClass, HypergeometricSpec, classify,
                             coefficient, evaluate,
                             integral_representation_check, ode_residual,
                             transfer_classical)
from .pochhammer import (PochhammerSpec, pochhammer_dk, pochhammer_k,
                         pochhammer_k_log, pochhammer_rescale,
                         pochhammer_via_symmetric)
from .profiles import (DEFAULT, FAST, PROFILES, STRICT, EvalResult,
                       PrecisionProfile)
from .verify import CheckResult, run_suite
from .zetak import (ZetaKSpec, zeta_k, zeta_k_dk, zeta_k_ds_at_zero,
                    zeta_k_identity_trigamma)

__all__ = [
    "BetaKSpec",
    "CapExceeded",
    "CheckResult",
    "ConvergenceClass",
    "DEFAULT",
    "DivergentSeries",
    "DomainError",
    "EvalResult",
    "FAST",
    "ForestFamily",
    "GammaKEvaluator",
    "HypergeometricSpec",
    "InvariantViolation",
    "NonConvergent",
    "OutsideRadius",
    "PROFILES",
    "PlanarForest",
    "PochhammerSpec",
    "PoleError",
    "PrecisionProfile",
    "STRICT",
    "ZetaKSpec",
    "beta_k",
    "beta_k_integral_halfline",
    "beta_k_integral_unit",
    "beta_k_product",
    "beta_k_ratio",
    "classify",
    "coefficient",
    "count",
    "derivative_ratio",
    "enumerate_forests",
    "evaluate",
    "gamma_k_dk",
    "gamma_k_stirling",
    "integral_representation_check",
    "log_gamma_k",
    "nearest_pole",
    "ode_residual",
    "parse_forest",
    "pde_residual",
    "pde_residual_variant",
    "pochhammer_dk",
    "pochhammer_k",
    "pochhammer_k_log",
    "pochhammer_rescale",
    "pochhammer_via_symmetric",
    "psi_point",
    "run_suite",
    "serialize_forest",
    "tail_count",
    "transfer_classical",
    "validate_forest",
    "zeta_k",
    "zeta_k_dk",
    "zeta_k_ds_at_zero",
    "zeta_k_identity_trigamma",
]

__version__ = "0.1.0"
