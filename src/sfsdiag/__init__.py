"""Seifert fibered space invariants, genus classification, and verified
positive Heegaard diagrams.

Imports are lazy: ``import sfsdiag`` loads no submodule, and each public
name loads its own module on first use.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "covers": ("CoverSpec", "base_orbifold_cover", "beta_star", "cyclic_cover_spec", "lift_seifert",
               "lifted_diagram_genus", "positive_genus_bound"),
    "diagram": ("Diagram", "PermutationPair", "diagram_homology", "diagram_presentation", "is_positive_diagram",
                "montesinos_decode", "montesinos_encode", "rotation_genus", "to_dot", "validate"),
    "exactalg": ("IntMatrix", "SnfResult", "snf"),
    "presentation": ("Presentation", "abelianization", "is_positive", "positivize"),
    "seifert": ("FiberInvariant", "GenusReport", "HorizontalFamily", "SeifertData", "denormalize", "genus_report",
                "homology", "horizontal_family", "normalize", "rational_euler", "sfs_presentation",
                "vertical_genus_bound"),
    "vertical": ("ChainPlan", "assign_betas", "build_positive_vertical", "plan_decomposition", "synthesize_diagram"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
