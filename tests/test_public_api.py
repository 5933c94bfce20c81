"""The package's public surface: each public name is declared once, in its
module's __all__, and rffkd exports the union of those lists, the documented
API, loading each module on first use.  Helpers outside it stay importable
from their own modules."""

import importlib
import re
from pathlib import Path

import pytest

import rffkd

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

EXPORTED = ("features", "kernel", "kpca", "matrixio", "planner", "experiments", "verify")

# The names in the bullets "- `module`: `Name`, ..." that follow README's
# "`rffkd` exports the documented API".
BULLETS = README.split("`rffkd` exports the documented API")[1].split("\n\n")[1]
DOCUMENTED = [n for bullet in BULLETS.split("\n- ") for n in re.findall(r"`(\w+)`", bullet)[1:]]

MODULE_ONLY = {
    "verify": [
        "check_unbiasedness", "check_shift_unbiasedness", "check_chi_square",
        "check_limit_ratio", "check_mgf_bound", "check_scale_sweep", "check_tail_bound",
    ],
    "kpca": [
        "gram_exact", "center_gram", "exact_tail_energy",
        "exact_feature_embedding", "residual_from_centered", "approx_residual",
    ],
    "kernel": [
        "ScaledDiff", "kernel_exact", "kernel_from_scaled_norm",
        "sq_distance_from_scaled_norm", "distance_from_scaled_norm",
    ],
    "features": ["projected_frequencies", "sq_distance_from_projections"],
    "matrixio": ["MAGIC"],
    "planner": ["DEFAULT_CONSTANT"],
    "experiments": ["GRID_SIZE_LIMIT"],
}


def module_names(name):
    return importlib.import_module(f"rffkd.{name}").__all__


def test_all_is_the_documented_api():
    assert (len(DOCUMENTED), sum(map(len, MODULE_ONLY.values()))) == (28, 23)
    assert sorted(rffkd.__all__) == sorted(DOCUMENTED)


def test_all_is_the_union_of_module_alls():
    union = [n for m in EXPORTED for n in module_names(m)]
    assert len(union) == len(set(union))
    assert sorted(rffkd.__all__) == sorted(union)


def test_all_has_no_duplicates_or_private_names():
    assert len(rffkd.__all__) == len(set(rffkd.__all__))
    assert not [n for n in rffkd.__all__ if n.startswith("_")]


def test_star_import_and_dir_give_the_documented_api():
    namespace = {}
    exec("from rffkd import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(DOCUMENTED)
    assert dir(rffkd) == sorted(DOCUMENTED)


@pytest.mark.parametrize("module", EXPORTED)
def test_every_name_resolves_to_its_module_object(module):
    mod = importlib.import_module(f"rffkd.{module}")
    for name in mod.__all__:
        assert getattr(rffkd, name) is getattr(mod, name)


@pytest.mark.parametrize("module", ["streams", "cli"])
def test_submodule_only_names_stay_out(module):
    assert not set(module_names(module)) & set(rffkd.__all__)


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in MODULE_ONLY.items() for n in names]
)
def test_module_only_name_imports_from_its_module(module, name):
    assert hasattr(importlib.import_module(f"rffkd.{module}"), name)
    assert name not in rffkd.__all__
    with pytest.raises(AttributeError, match=name):
        getattr(rffkd, name)


def test_unknown_name_is_an_import_error():
    with pytest.raises(ImportError):
        exec("from rffkd import no_such_name", {})


def test_readme_example_runs():
    """README's Python example runs as written, and its pair's embedded
    distance is within the planned 1 +/- 0.25 of the exact one."""
    [example] = re.findall(r"```python\n(.*?)```", README, re.S)
    namespace = {}
    exec(example, namespace)
    assert namespace["t"] == 384
    assert abs(namespace["d_hat"] / namespace["d"] - 1) <= 0.25
