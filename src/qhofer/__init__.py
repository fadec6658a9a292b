"""Exact small quantum homology and Hofer-length bounds for circle loops."""

from .novikov import (
    NEG_INF,
    ChernFunctional,
    OmegaFunctional,
    ParseError,
    SphereClass,
    format_exponent,
    parse_exponent,
    valuation,
)
from .quantum_homology import (
    ManifoldModel,
    ModelError,
    NotInvertibleError,
    QHElement,
    classical_product,
    exact_inverse,
    format_qh,
    hbar,
    invert,
    load_model,
    model_blowup_cp2,
    model_cpn,
    model_from_dict,
    model_to_dict,
    parse_qh,
    power,
    power_walk,
    quantum_product,
    rationality_index,
    save_model,
    tropical_valuations,
    validate_model,
    valuation_walk,
)
from .seidel_bounds import (
    GrowthRow,
    GrowthSummary,
    GrowthTable,
    LoopLengths,
    MonotoneCaseError,
    RTildeCertificate,
    SeidelElement,
    delta_constant,
    ell_plus_lower_bound,
    growth_table,
    lengths_blowup_loop,
    mean_radius_sq_exact,
    omega_f,
    psi,
    q_element,
    r_tilde_certificate,
    two_sided_bound,
    two_sided_bounds,
)

__version__ = "0.1.0"

# The float module loads on first use of one of these names.
_FLOAT_API = (
    "ExtremumReport", "PathLengths", "RadialHamiltonian", "SampledPath",
    "fixed_extremum_check", "mean_radius_sq", "path_lengths", "radial_loop_path", "radial_mean",
)


def __getattr__(name):
    if name not in _FLOAT_API:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import hofer_lengths

    return getattr(hofer_lengths, name)


def __dir__():
    return sorted({*globals(), *_FLOAT_API})
