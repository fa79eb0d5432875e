"""The package's runtime dependencies are exactly what its modules import."""

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import wzkit

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wzkit"


def third_party_imports(package: Path) -> set[str]:
    """Top-level names of every absolute import in the package's modules that
    is neither the standard library nor wzkit itself, lazy ones included."""
    names = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"wzkit"}


def declared_dependencies() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in deps}


def test_runtime_dependencies_match_imports():
    assert third_party_imports(PACKAGE) == declared_dependencies() == {"numpy"}


def test_scan_sees_lazy_imports(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import json, numpy.linalg\n"
        "from . import sibling\n"
        "from wzkit.gf2 import BitMatrix\n"
        "def bound():\n"
        "    from scipy.optimize import brentq\n")
    assert third_party_imports(tmp_path) == {"numpy", "scipy"}


MODULES = ("gf2", "degrees", "builder", "quantizer", "decoder", "codec")


def test_public_names_resolve_to_their_module_objects():
    """Every exported name exists, and each one the package re-exports is
    its module's own object; tools that look names up through __all__ (the
    benchmark's tracer among them) break on a stale entry."""
    homes = {}
    for name in MODULES:
        mod = importlib.import_module(f"wzkit.{name}")
        for attr in mod.__all__:
            assert hasattr(mod, attr), f"wzkit.{name}.__all__ names {attr!r}"
            homes[attr] = getattr(mod, attr)
    for attr in wzkit.__all__:
        assert hasattr(wzkit, attr), f"wzkit.__all__ names {attr!r}"
        if attr in homes:
            assert getattr(wzkit, attr) is homes[attr], attr
    # encode and encode_all are exported, so is the type they return
    assert "EncodeResult" in wzkit.__all__


def test_modules_hold_no_mutable_state():
    """No wzkit module keeps a list, dict, set, bytearray or writable array
    at module level, so nothing one caller does changes what the next one
    sees (a CSV header, a parser's byte table)."""
    mutable = (list, dict, set, bytearray)
    found = []
    for info in pkgutil.iter_modules(wzkit.__path__):
        mod = importlib.import_module(f"wzkit.{info.name}")
        for name, value in vars(mod).items():
            if name.startswith("__"):
                continue
            if (isinstance(value, mutable) or isinstance(value, np.ndarray)
                    and value.flags.writeable):
                found.append(f"wzkit.{info.name}.{name}")
    assert found == []
