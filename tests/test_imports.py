"""What each CLI subcommand imports, and the package namespace that loads on demand.

The import checks run the CLI in a fresh interpreter under ``-X importtime``,
which lists every module the process imports on stderr.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gftkit
from gftkit import cli

SRC = str(Path(__file__).resolve().parents[1] / "src")

# the names gftkit exported when its __init__ imported every module, by home module
EXPORTS = {
    "core": ["ATag", "AnalyticFunction", "HTag", "Variant", "half_plane_map", "identity_map", "koebe_like",
             "principal_arg", "principal_power"],
    "constants": ["ArgConstants", "Direction", "OptResult", "Ray", "RegionKind", "RegionSpec", "SlitSpec",
                  "StrongOrders", "Thm3Constants", "a_min", "arg_kernel", "arg_theorem_constants", "build_region",
                  "c_lambda", "eta", "lambda_tilt", "m_alpha", "optimize_1d", "radius_convexity",
                  "radius_inv_alpha_convexity", "slit_constants", "slit_ray_objective", "strong_orders",
                  "thm3_constants", "tilt_ray_objective", "weighted_ray_objective"],
    "errors": ["BadFamilySpec", "BadGridSpec", "DegenerateDenominator", "DegenerateSum", "DiskRequiresLambdaZero",
               "DivisionByZeroInFunctional", "EvaluationError", "GftError", "InvalidBracket", "MissingSecondFunction",
               "NoSignChange", "NonFiniteValue", "OrderOutOfRange", "OutOfRange", "SingularPoint", "ValidationError",
               "ZeroBase"],
    "functionals": ["FunctionalKind", "FunctionalSpec", "evaluate_functional", "power_target", "ratio_target"],
    "membership": ["DEFAULT_RADII", "ClassKind", "ClassSpec", "DiskGrid", "MembershipReport", "RegionCheck",
                   "SlitCheck", "Verdict", "check_membership", "default_grid", "region_containment", "sample_grid",
                   "sector_margins", "slit_avoidance"],
    "radii": ["FamilyRadius", "caratheodory_log_derivative_bound", "caratheodory_log_derivative_min",
              "constant_schwarz_term_bound", "constant_schwarz_term_min", "family_property_radius",
              "poly_root_bisect", "property_radius"],
    "theorems": ["CASE_IDS", "FamilyMember", "MemberOutcome", "TheoremCase", "VerificationReport",
                 "default_family_for", "make_family", "mobius_ratio_family", "random_taylor_family", "sector_map",
                 "sector_power_family", "verify_lemma_tilt", "verify_theorem"],
}
NAMES = [name for names in EXPORTS.values() for name in names]


def env_with(threads=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("GFT_THREADS", None)
    if threads is not None:
        env["GFT_THREADS"] = threads
    return env


def imported(*argv, threads=None, cwd=None) -> set[str]:
    """The modules that ``python -m gftkit.cli argv`` imports; the command must exit 0."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "gftkit.cli", *argv], capture_output=True,
                          text=True, env=env_with(threads), cwd=cwd)
    assert proc.returncode == 0, proc.stderr[-500:]
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines[1:]}  # the first line is the header


@pytest.fixture(scope="module")
def fn_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "fn.json"
    path.write_text(json.dumps({"variant": "mobius", "q": 1, "terms": [[[-1, 0], -1]]}), encoding="utf-8")
    return str(path)


SUBCOMMANDS = {
    "constants": ("constants", "--lambda", "1", "--alpha", "0"),
    "check": ("check", "--class", "convex", "--grid", "0.5@8", "--fn", "{fn}"),
    "verify": ("verify", "--case", "C42"),
    "radius": ("radius", "--lambda", "1", "--alpha", "1", "--family", "random:3,2,1", "--tol", "0.01"),
    "dump": ("dump", "--functional", "tilted:0.5", "--grid", "0.5@8", "--fn", "{fn}", "--out", "{out}"),
}


def subcommand(name: str, fn_file: str) -> list[str]:
    out = str(Path(fn_file).with_name("image.csv"))
    return [arg.format(fn=fn_file, out=out) for arg in SUBCOMMANDS[name]]


# ---------------------------------------------------------------- the CLI


@pytest.mark.parametrize("argv", [
    ("constants", "--lambda", "1", "--alpha", "0"),
    ("constants", "--alpha", "0.75", "--beta", "0.5", "--json"),
    ("--help",),
    ("constants", "--help"),
])
def test_constants_and_the_top_help_load_no_numpy(argv):
    modules = imported(*argv)
    assert "gftkit.constants" in modules
    assert "numpy" not in modules
    assert not {"gftkit.core", "gftkit.functionals", "gftkit.membership"} & modules


def test_check_loads_neither_theorems_nor_radii(fn_file):
    modules = imported(*subcommand("check", fn_file))
    assert {"numpy", "gftkit.core", "gftkit.functionals", "gftkit.membership"} <= modules
    assert not {"gftkit.theorems", "gftkit.radii"} & modules


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_no_subcommand_loads_a_thread_pool_when_serial(name, fn_file):
    assert "concurrent.futures" not in imported(*subcommand(name, fn_file))


@pytest.mark.parametrize("threads, pooled", [("1", False), ("4", True)])
def test_verify_loads_a_thread_pool_only_for_more_than_one_thread(threads, pooled):
    assert ("concurrent.futures" in imported("verify", "--case", "C42", threads=threads)) is pooled


def test_the_vocabulary_tables_stay_module_attributes():
    assert cli._CLASSES is cli._CLASSES
    assert "convex" in cli._CLASSES and "mixed" in cli._FUNCTIONALS and "random" in cli._FAMILIES
    with pytest.raises(AttributeError):
        cli._NO_SUCH_TABLE


# ---------------------------------------------------------------- the package


def test_importing_the_package_loads_no_submodule():
    code = ("import sys, gftkit; before = sorted(m for m in sys.modules if m.startswith('gftkit'))\n"
            "gftkit.c_lambda; print(before, 'numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env_with())
    assert proc.stdout == "['gftkit'] False\n"


def test_radii_loads_neither_theorems_nor_the_cli():
    code = "import sys, gftkit.radii; print(sorted({'gftkit.theorems', 'gftkit.cli'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env_with())
    assert proc.stdout == "[]\n", proc.stderr[-500:]


def test_every_exported_name_is_its_home_modules_object():
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"gftkit.{module}")
        for name in names:
            assert getattr(gftkit, name) is getattr(home, name), name


def test_all_lists_exactly_the_exported_names_and_the_version():
    assert len(gftkit.__all__) == len(set(gftkit.__all__))
    assert set(gftkit.__all__) == {*NAMES, "__version__"}
    assert gftkit.__version__ == "1.0.0"


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from gftkit import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(gftkit.__all__)
    assert all(namespace[name] is getattr(gftkit, name) for name in NAMES)


def test_dir_lists_every_name_and_submodule():
    assert {*NAMES, *EXPORTS} <= set(dir(gftkit))


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        gftkit.no_such_name
    assert not hasattr(gftkit, "cli_main")
