"""The package's export list is the union of its submodules' lists, and the
submodules that are not needed at import time load on first use."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import huffkit

MODULES = ("lattice", "metrics", "construct", "project", "continuum", "imaging")
LAZY = ("construct", "continuum", "imaging")
SRC = Path(__file__).resolve().parents[1] / "src"


def fresh(code: str) -> None:
    """Run ``code`` in a new interpreter that imports huffkit from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


def test_all_is_the_union_of_the_submodules():
    modules = [importlib.import_module(f"huffkit.{m}") for m in MODULES]
    owners = {name: module for module in modules for name in module.__all__}
    assert sorted(huffkit.__all__) == sorted([*owners, "__version__"])
    for name, module in owners.items():
        assert getattr(huffkit, name) is getattr(module, name)
    assert callable(huffkit.project)  # the function, not the submodule


def test_each_exported_function_has_one_public_name():
    for m in MODULES:
        module = importlib.import_module(f"huffkit.{m}")
        for name in module.__all__:
            value = getattr(module, name)
            if inspect.isfunction(value):
                names = [n for n, v in vars(module).items() if v is value and not n.startswith("_")]
                assert names == [name], f"huffkit.{m} binds one function as {names}"


def test_import_loads_no_lazy_submodule():
    fresh(
        "import sys, huffkit\n"
        f"loaded = [m for m in {LAZY!r} if 'huffkit.' + m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )


def test_each_name_loads_only_its_own_submodule():
    for module in LAZY:
        name = importlib.import_module(f"huffkit.{module}").__all__[-1]
        fresh(
            "import sys, huffkit\n"
            f"value = huffkit.{name}\n"
            f"assert value is sys.modules['huffkit.{module}'].{name}\n"
            f"loaded = [m for m in {LAZY!r} if 'huffkit.' + m in sys.modules]\n"
            f"assert loaded == [{module!r}], loaded\n"
        )


def test_metrics_loads_on_first_use():
    fresh(
        "import sys, huffkit\n"
        "assert 'huffkit.metrics' not in sys.modules\n"
        "assert huffkit.classify is sys.modules['huffkit.metrics'].classify\n"
        "assert huffkit.metrics is sys.modules['huffkit.metrics']\n"
    )


def test_submodule_attribute_works_without_an_import():
    fresh(
        "import sys, huffkit\n"
        "assert huffkit.imaging is sys.modules['huffkit.imaging']\n"
        "assert huffkit.imaging.encode([[1]], [[2]]).data.tolist() == [[2]]\n"
        "assert 'huffkit.construct' not in sys.modules\n"
    )


def test_project_stays_the_function():
    fresh(
        "import huffkit.project, huffkit\n"
        "assert callable(huffkit.project) and huffkit.project.__name__ == 'project'\n"
    )


def test_star_import_binds_all_names():
    fresh(
        "namespace = {}\n"
        "exec('from huffkit import *', namespace)\n"
        "import huffkit\n"
        "assert set(huffkit.__all__) <= set(namespace)\n"
        "assert all(namespace[name] is getattr(huffkit, name) for name in huffkit.__all__)\n"
    )


def test_dir_lists_every_export():
    assert set(huffkit.__all__) <= set(dir(huffkit))
    assert set(LAZY) <= set(dir(huffkit))


def test_unknown_attribute_is_an_attribute_error():
    for name in ("no_such_name", "watermark_embed", "WatermarkMatch", "watermark_locate"):  # the last three deleted
        assert not hasattr(huffkit, name)


def test_imports_run_no_collection_and_restore_the_callers_setting():
    fresh(
        "import gc\n"
        "starts = []\n"
        "gc.callbacks.append(lambda phase, info: phase == 'start' and starts.append(info['generation']))\n"
        "import huffkit\n"
        "huffkit.imaging, huffkit.construct\n"
        "assert not starts, starts\n"
        "assert gc.isenabled() and gc.get_freeze_count() == 0\n"
        "for enabled in (False, True):\n"
        "    (gc.enable if enabled else gc.disable)()\n"
        "    with huffkit._collector_paused():\n"
        "        assert not gc.isenabled()\n"
        "    assert gc.isenabled() == enabled and gc.get_freeze_count() == 0\n"
        "gc.freeze()\n"
        "frozen = gc.get_freeze_count()\n"
        "with huffkit._collector_paused():\n"
        "    pass\n"
        "assert gc.get_freeze_count() == frozen  # the caller's frozen objects stay frozen\n"
    )
