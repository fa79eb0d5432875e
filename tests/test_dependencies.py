"""The package's runtime dependencies are exactly what its modules import."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
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


def test_package_holds_no_assert_statement():
    """python -O strips assert statements, so a check the package relies on
    must raise explicitly."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def codec_importers(package: Path) -> set[str]:
    """Stems of the package's modules that import its codec module, lazy
    imports included, in any spelling of the import."""
    found = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                hit = any(a.name == "wzkit.codec" for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = "." * node.level + (node.module or "")
                hit = base in (".codec", "wzkit.codec") or (
                    base in (".", "wzkit")
                    and any(a.name == "codec" for a in node.names))
            else:
                continue
            if hit:
                found.add(path.stem)
    return found


def test_only_the_front_ends_import_codec(tmp_path):
    """codec runs the pipeline over a code; the modules below it, builder
    among them, never reach back into it."""
    for i, line in enumerate(["from .codec import decode",
                              "from . import codec, gf2",
                              "import wzkit.codec",
                              "from wzkit.codec import encode",
                              "from wzkit import codec",
                              "from .gf2 import BitVector",
                              "from . import codecs"]):
        (tmp_path / f"m{i}.py").write_text(f"def lazy():\n    {line}\n")
    assert codec_importers(tmp_path) == {f"m{i}" for i in range(5)}
    assert codec_importers(PACKAGE) == {"cli", "__init__"}


def test_serial_run_never_imports_the_process_pool():
    """A workers=1 run_experiment leaves multiprocessing unloaded; the pool
    is imported only for a run that starts one."""
    script = (
        "import sys, wzkit\n"
        "from wzkit import (CodeParams, DegreeDistribution,\n"
        "                   ExperimentConfig, build_compound_code,\n"
        "                   run_experiment)\n"
        "params = CodeParams(n=96, m=92, k1=20, k2=60)\n"
        "dist = DegreeDistribution(((3, 1.0),), ((3, 0.571429), "
        "(4, 0.428571)))\n"
        "code = build_compound_code(params, dist, seed=5)\n"
        "run_experiment(code, ExperimentConfig('tiny', params, p=0.25, "
        "trials=2, seed=1), workers=1)\n"
        "print('multiprocessing' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert proc.stdout.strip() == "False"


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
