"""k-deformed special functions with cross-checked identities.

Exposes the rising k-product (Pochhammer symbol), the deformed gamma,
beta and Hurwitz-type zeta functions, the k-generalized hypergeometric
series, and the planar-forest combinatorics whose counts realize the
series coefficients. Every representation is implemented at least twice
through independent routes; `kspecial.verify` runs the cross-checks and
the `kspecial` CLI drives evaluation, verification and forest export.

`import kspecial` loads no submodule: a public name is imported from its
submodule when it is first accessed (PEP 562), and each CLI command and
verify suite imports only the modules it runs. numpy is imported only
inside the functions that work on arrays.
"""

from importlib import import_module

# submodule -> the public names it defines
_EXPORTS = {
    "betak": ("BetaKSpec", "beta_k_integral_halfline", "beta_k_integral_unit",
              "beta_k_product", "beta_k_ratio"),
    "errors": ("CapExceeded", "DivergentSeries", "DomainError",
               "InvariantViolation", "NonConvergent", "OutsideRadius",
               "PoleError"),
    "forests": ("ForestFamily", "PlanarForest", "count", "derivative_ratio",
                "enumerate_forests", "parse_forest", "serialize_forest",
                "tail_count", "validate_forest"),
    "gammak": ("gamma_k_dk", "gamma_k_integral", "gamma_k_limit",
               "gamma_k_product", "gamma_k_scaling", "gamma_k_stirling",
               "log_gamma_k", "nearest_pole", "pde_residual",
               "pde_residual_variant", "psi_point"),
    "hypergeometric": ("ConvergenceClass", "HypergeometricSpec", "classify",
                       "coefficient", "evaluate",
                       "integral_representation_check", "ode_residual",
                       "transfer_classical"),
    "pochhammer": ("PochhammerSpec", "pochhammer_dk", "pochhammer_k",
                   "pochhammer_k_log", "pochhammer_rescale",
                   "pochhammer_via_symmetric"),
    "profiles": ("DEFAULT", "FAST", "PROFILES", "STRICT", "EvalResult",
                 "PrecisionProfile"),
    "verify": ("CheckResult", "run_suite"),
    "zetak": ("ZetaKSpec", "zeta_k", "zeta_k_dk", "zeta_k_ds_at_zero",
              "zeta_k_identity_trigamma"),
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "hurwitz", "loggamma", "quadrature", "series")

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    # resolved on every access and never cached here, so a rebinding in the
    # submodule (a tracer's, a test's monkeypatch) shows through at once
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
