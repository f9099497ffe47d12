"""The package's export list is the union of its submodules' lists."""

import sys

import huffkit

MODULES = ("lattice", "metrics", "construct", "project", "continuum", "imaging")


def test_all_is_the_union_of_the_submodules():
    owners = {name: sys.modules[f"huffkit.{m}"] for m in MODULES for name in sys.modules[f"huffkit.{m}"].__all__}
    assert sorted(huffkit.__all__) == sorted([*owners, "__version__"])
    for name, module in owners.items():
        assert getattr(huffkit, name) is getattr(module, name)
    assert callable(huffkit.project)  # the function, not the submodule
