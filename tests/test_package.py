"""The package namespace: the core imported with it, measure and chains on first access."""

import importlib
import os
import subprocess
import sys

import pytest

import syrdyn
import syrdyn.chains
import syrdyn.measure


def _fresh_probe(code):
    """Stdout of `python -c code` in a new interpreter that imports syrdyn from this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(syrdyn.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


@pytest.mark.parametrize("name", [n for n in syrdyn.__all__ if n != "__version__"])
def test_every_public_name_is_its_defining_modules_object(name):
    obj = getattr(syrdyn, name)
    assert obj.__module__.startswith("syrdyn.")
    assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_engine_attributes_are_the_submodules():
    assert syrdyn.measure is sys.modules["syrdyn.measure"]
    assert syrdyn.chains is sys.modules["syrdyn.chains"]
    # the submodule partition is shadowed by the function of that name
    from syrdyn import partition
    assert partition is syrdyn.partition is sys.modules["syrdyn.partition"].partition


def test_star_import_binds_all_of_all():
    namespace = {}
    exec("from syrdyn import *", namespace)
    assert set(syrdyn.__all__) <= namespace.keys()
    assert set(syrdyn.__all__) <= set(dir(syrdyn))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        syrdyn.no_such_name
    with pytest.raises(ImportError):
        exec("from syrdyn import no_such_name", {})


def test_a_fresh_import_loads_the_engines_on_first_access():
    probe = ("import contextlib, io, sys, types, syrdyn\n"
             "lazy = ('syrdyn.measure', 'syrdyn.chains')\n"
             "seen = [[m for m in lazy if m in sys.modules]]\n"
             "assert syrdyn.MeasureValue.__module__ == 'syrdyn.measure'\n"
             "seen.append([m for m in lazy if m in sys.modules])\n"
             "assert isinstance(syrdyn.chains, types.ModuleType)\n"
             "seen.append([m for m in lazy if m in sys.modules])\n"
             "import syrdyn.cli as cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    cli.main(['measure', 'collatz', '--depth', '4', '--cycle-bound', '1', '--trials', '5'])\n"
             "    cli.main(['chains', '7'])\n"
             "from syrdyn import partition\n"
             "print(seen, type(partition).__name__, partition.__module__)")
    assert _fresh_probe(probe) == (
        "[[], ['syrdyn.measure'], ['syrdyn.measure', 'syrdyn.chains']] function syrdyn.partition\n")
