"""The public surface: every exported name resolves to one object.

Tools that instrument the package (the benchmark's tracer among them) walk
each module's ``__all__``, so a stale entry would silently drop a layer.
"""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qsectors

from support import child_env

MODULES = sorted(m.name for m in pkgutil.iter_modules(qsectors.__path__))
EXPORTED = [name for name in qsectors.__all__ if name != "__version__"]


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"qsectors.{module}")
    assert mod.__all__, f"qsectors.{module} declares no __all__"
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


@pytest.mark.parametrize("name", EXPORTED)
def test_package_export_is_its_home_module_object(name):
    obj = getattr(qsectors, name)
    home = importlib.import_module(obj.__module__)
    assert home.__name__.startswith("qsectors.")
    assert getattr(home, name) is obj
    assert name in home.__all__


def test_package_exports_are_unique():
    assert len(set(qsectors.__all__)) == len(qsectors.__all__)


def test_cli_import_loads_no_test_only_dependency():
    # scipy, mpmath and hypothesis serve the tests only; importing any of
    # them would add to every CLI call's start-up time
    probe = (
        "import sys, qsectors.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'mpmath', 'hypothesis'}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env(), check=True
    )
    assert out.stdout.strip() == "[]"


def test_direct_limit_is_named_in_the_walk_only():
    # where readouts switch from direct products to log forms is a decision
    # of the walk in overlaps.py; decoherence and products read every cut
    # through the walk, so neither names the limit
    source = Path(qsectors.__file__).parent
    naming = sorted(p.name for p in source.glob("*.py") if "DIRECT_LIMIT" in p.read_text("utf-8"))
    assert naming == ["overlaps.py"]


def test_prefix_is_read_as_arrays_outside_states():
    # a state keeps its explicit prefix as arrays, and ``prefix`` builds one
    # FactorVector per site on every read, so outside states.py the package
    # reads the arrays (``prefix_rows``, ``rows``) or one site at a time
    # (``factor_at``).  products.py reads the prefix of a ComplexSequenceSpec,
    # a tuple of complex terms, and knows no ProductState.
    source = Path(qsectors.__file__).parent
    reading = sorted(
        p.name
        for p in source.glob("*.py")
        if p.name != "states.py"
        and any(
            isinstance(node, ast.Attribute) and node.attr == "prefix"
            for node in ast.walk(ast.parse(p.read_text("utf-8")))
        )
    )
    assert reading == ["products.py"]
    assert "ProductState" not in (source / "products.py").read_text("utf-8")


def test_prefix_ops_are_read_as_arrays_outside_operators():
    # a term keeps its prefix operators as arrays, and ``prefix_ops`` builds
    # one FactorOperator per site on every read, so outside operators.py the
    # package reads the arrays (``prefix_matrices``) or one site at a time
    # (``op_at``)
    source = Path(qsectors.__file__).parent
    reading = sorted(
        p.name
        for p in source.glob("*.py")
        if any(
            isinstance(node, ast.Attribute) and node.attr == "prefix_ops"
            for node in ast.walk(ast.parse(p.read_text("utf-8")))
        )
    )
    assert reading == ["operators.py"]
