"""Source hygiene: no module under ``src/clawlab/`` imports a name it never
uses, and the C extension compiles with no warning.

``__init__.py`` is skipped: its imports are the package's re-exports.
"""

import ast
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "clawlab"


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import statement and never reads."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.extend(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [name for name in imported if name not in used]


def test_detector_names_each_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "import xml.dom\n"
        "from a import b, c as d, e, f\n"
        "def g(x: e) -> f:\n"
        "    return b(x)\n"
    )
    assert unused_imports(source) == ["os", "system", "xml", "d"]


def test_no_unused_imports_in_package():
    found = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for name in unused_imports(path.read_text())
    ]
    assert not found, "unused imports: " + ", ".join(found)


def test_c_source_compiles_without_warnings(tmp_path):
    """``_augment.c`` compiles under ``-Wall -Wextra -Werror`` (unused
    parameters allowed: every METH_FASTCALL entry takes ``self``)."""
    gcc = shutil.which("gcc")
    include = sysconfig.get_paths()["include"]
    if gcc is None or not (Path(include) / "Python.h").exists():
        pytest.skip("gcc or the Python headers are missing")
    cmd = [gcc, "-O2", "-Wall", "-Wextra", "-Wno-unused-parameter", "-Werror", f"-I{include}"]
    cmd += ["-c", str(SRC / "_augment.c"), "-o", str(tmp_path / "_augment.o")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
