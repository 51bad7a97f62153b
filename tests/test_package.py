"""The package's public names, resolved lazily from their home modules."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import fraczeta

PUBLIC_NAMES = [
    "Address", "AddressError", "CapacityError", "CatalogEntry", "DigitSequence", "DigitStats",
    "DimensionEstimate", "DomainError", "FraczetaError", "GeneralIfsSpec", "GridSpec", "IfsMap",
    "InfoCardinality", "InputError", "LogRatio", "MultifractalPoint", "ParseError", "PoleError",
    "RetentionConfig", "StageSet", "SubcriticalRetentionWarning", "TrialOutcome", "TrialRun",
    "UnsupportedStructureError", "ZeroTable", "ZetaValue", "address_to_point", "axiom_suite",
    "box_count", "box_dimension_fit", "build_stage",
    "cardinality", "catalog", "compare", "compare_extended", "compare_trace", "conservation_report",
    "digit_stats", "digitize", "dimension", "errors", "expected_dimension",
    "functional_equation_residual", "gamma_real", "grids", "ifs_of_grid", "limits",
    "make_named_spec", "make_pess_spec", "make_zf_spec", "montecarlo", "multifractal_spectrum",
    "parse_zero_file", "reorder", "reorder_external_weights", "run_trials", "self_similarity_check",
    "similarity_dimension", "zeros", "zeta", "zeta_euler_maclaurin",
]


def test_all_lists_the_public_names():
    assert fraczeta.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_public_name_is_the_object_in_its_home_module(name):
    value = getattr(fraczeta, name)
    if isinstance(value, types.ModuleType):
        assert value is sys.modules[f"fraczeta.{name}"]
    else:
        assert value.__module__.startswith("fraczeta.")
        assert getattr(sys.modules[value.__module__], name) is value


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from fraczeta import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(fraczeta))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fraczeta.no_such_name


def test_import_loads_only_errors():
    src = Path(__file__).resolve().parents[1] / "src"
    res = subprocess.run(
        [sys.executable, "-c", "import sys, fraczeta; print(*sorted(m for m in sys.modules if 'fraczeta' in m or m == 'mpmath'))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=True,
    )
    assert res.stdout.split() == ["fraczeta", "fraczeta.errors"]
