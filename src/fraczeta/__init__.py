"""Exact fractal grid constructions, dimension estimators, and zeta tooling.

Importing the package loads only ``errors``.  Every other public name is
looked up in its home module on first use (PEP 562), so code that never
touches zeta values or zero files never imports mpmath.
"""

import importlib

from .errors import (
    AddressError,
    CapacityError,
    DomainError,
    FraczetaError,
    InputError,
    ParseError,
    PoleError,
    SubcriticalRetentionWarning,
    UnsupportedStructureError,
)

__version__ = "0.1.0"

# the public names of each module; those of errors are imported above
_EXPORTS = {
    "cardinality": (
        "CatalogEntry",
        "InfoCardinality",
        "LogRatio",
        "axiom_suite",
        "catalog",
        "compare",
        "compare_extended",
        "compare_trace",
        "conservation_report",
    ),
    "dimension": (
        "DimensionEstimate",
        "MultifractalPoint",
        "box_count",
        "box_dimension_fit",
        "multifractal_spectrum",
        "similarity_dimension",
    ),
    "errors": (
        "AddressError",
        "CapacityError",
        "DomainError",
        "FraczetaError",
        "InputError",
        "ParseError",
        "PoleError",
        "SubcriticalRetentionWarning",
        "UnsupportedStructureError",
    ),
    "grids": (
        "Address",
        "GeneralIfsSpec",
        "GridSpec",
        "IfsMap",
        "StageSet",
        "address_to_point",
        "build_stage",
        "ifs_of_grid",
        "make_named_spec",
        "make_pess_spec",
        "make_zf_spec",
        "self_similarity_check",
    ),
    "limits": (),
    "montecarlo": (
        "RetentionConfig",
        "TrialOutcome",
        "TrialRun",
        "expected_dimension",
        "run_trials",
    ),
    "zeros": (
        "DigitSequence",
        "DigitStats",
        "ZeroTable",
        "digit_stats",
        "digitize",
        "parse_zero_file",
        "reorder",
        "reorder_external_weights",
    ),
    "zeta": (
        "ZetaValue",
        "functional_equation_residual",
        "gamma_real",
        "zeta_euler_maclaurin",
    ),
}
# public name -> home module; each submodule is public under its own name
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = importlib.import_module(f".{module}", __name__)
    return home if name == module else getattr(home, name)


def __dir__():
    return sorted({*globals(), *__all__})
