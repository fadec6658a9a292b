"""Exact small quantum homology and Hofer-length bounds for circle loops.

Every public name resolves lazily: its first lookup imports the one module
that defines it, so ``import qhofer`` loads no submodule.
"""

__version__ = "0.1.0"

# The module that defines each public name.
_MODULE_OF = {
    name: module
    for module, names in {
        "novikov": (
            "NEG_INF CheckError ParseError format_exponent parse_exponent valuation"
        ),
        "quantum_homology": (
            "ManifoldModel ModelError NotInvertibleError QHElement exact_inverse format_qh "
            "invert load_model model_blowup_cp2 model_cpn model_from_dict model_to_dict "
            "parse_qh power power_walk quantum_product validate_model valuation_walk"
        ),
        "seidel_bounds": (
            "BoundRow GrowthRow GrowthSummary GrowthTable LoopLengths MonotoneCaseError "
            "RTildeCertificate SeidelElement delta_constant ell_plus_lower_bound growth_table "
            "lengths_blowup_loop mean_radius_sq_exact omega_f psi q_element "
            "r_tilde_certificate two_sided_bounds"
        ),
        "hofer_lengths": (
            "ExtremumReport PathLengths SampledPath fixed_extremum_check mean_radius_sq "
            "path_lengths radial_loop_path radial_mean"
        ),
    }.items()
    for name in names.split()
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
