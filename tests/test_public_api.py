"""The package's public surface: each public name is declared once, in its
module's __all__, and rffkd exports the union of those lists."""

import importlib

import pytest

import rffkd

EXPORTED = ("features", "kernel", "kpca", "matrixio", "planner", "experiments", "verify")


def module_names(name):
    return importlib.import_module(f"rffkd.{name}").__all__


def test_all_is_the_union_of_module_alls():
    union = [n for m in EXPORTED for n in module_names(m)]
    assert len(union) == len(set(union))
    assert sorted(rffkd.__all__) == sorted(union)


def test_all_has_no_duplicates_or_private_names():
    assert len(rffkd.__all__) == len(set(rffkd.__all__))
    assert not [n for n in rffkd.__all__ if n.startswith("_")]


@pytest.mark.parametrize("module", EXPORTED)
def test_every_name_resolves_to_its_module_object(module):
    mod = importlib.import_module(f"rffkd.{module}")
    for name in mod.__all__:
        assert getattr(rffkd, name) is getattr(mod, name)


@pytest.mark.parametrize("module", ["streams", "cli"])
def test_submodule_only_names_stay_out(module):
    assert not set(module_names(module)) & set(rffkd.__all__)
