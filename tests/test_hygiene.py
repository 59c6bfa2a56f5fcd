"""Source hygiene: no module under ``src/clawlab/`` or ``tests/`` imports a
name it never uses, no package module keeps a private name nothing reads
or a public function or method only tests read, the C extension compiles
with no warning and never calls back into Python, and its header comment
lists the entries its ``methods[]`` table exports.

``__init__.py`` is skipped by the import check: its imports are the
package's re-exports.
"""

import ast
import re
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest
from test_kernels import compiled_entry_names

SRC = Path(__file__).resolve().parent.parent / "src" / "clawlab"
TESTS = Path(__file__).resolve().parent
BENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
    # the package's modules and the test files
    found = [
        f"{path.parent.name}/{path.name}: {name}"
        for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
        if path != SRC / "__init__.py"
        for name in unused_imports(path.read_text())
    ]
    assert not found, "unused imports: " + ", ".join(found)


def private_definitions(source: str) -> list[str]:
    """The private names ``source`` defines at module level: functions,
    classes and assignment targets that start with ``_`` (dunders aside)."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            stored = (t for target in targets for t in ast.walk(target) if isinstance(t, ast.Name))
            names.extend(t.id for t in stored if isinstance(t.ctx, ast.Store))
    return [name for name in names if name.startswith("_") and not name.endswith("__")]


def read_names(source: str) -> set[str]:
    """The names ``source`` reads: loaded names, attributes and the names a
    ``from`` import takes."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def dead_private_names(modules: dict[str, str], readers: list[str]) -> list[str]:
    """``module: name`` for each private module-level name of ``modules``
    (file name -> source) that no source in ``readers`` reads."""
    read = set().union(*map(read_names, readers))
    return [
        f"{path}: {name}" for path, source in modules.items() for name in private_definitions(source) if name not in read
    ]


def test_detector_names_each_dead_private_name():
    lib = (
        "import os\n"
        "_A = 1\n"
        "_B, (_C, d) = 2, (3, 4)\n"
        "_E: int = 5\n"
        "__all__ = ['f']\n"
        "class _G: pass\n"
        "def _h(): return _A\n"
        "def _unused(): pass\n"
        "async def _i(): pass\n"
        "def f(): _j = _h()\n"
    )
    other = "from lib import _C\nprint(lib._G)\n_B = 7\n"
    want = ["lib.py: _B", "lib.py: _E", "lib.py: _unused", "lib.py: _i"]
    assert dead_private_names({"lib.py": lib}, [lib, other]) == want


def test_no_dead_private_names_in_package():
    modules = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = list(modules.values()) + [path.read_text() for path in sorted(TESTS.rglob("*.py"))]
    found = dead_private_names(modules, readers)
    assert not found, "private names nothing reads: " + ", ".join(found)


def public_functions(source: str) -> list[str]:
    """The public functions ``source`` defines at module level."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    ]


def string_constants(source: str) -> set[str]:
    """The string constants of ``source``: the bench's tracer names the
    functions it wraps in strings."""
    nodes = ast.walk(ast.parse(source))
    return {node.value for node in nodes if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def public_methods(source: str) -> list[str]:
    """``Class.method`` for each public method of the classes ``source``
    defines at module level."""
    return [
        f"{node.name}.{item.name}"
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
    ]


def unread_definitions(modules: dict[str, str], readers: list[str], definitions) -> list[str]:
    """``module: name`` for each of the ``definitions`` of ``modules`` (file
    name -> source) whose last dotted part no source in ``readers`` reads,
    as a name, as an attribute or as a string constant."""
    read = set().union(*map(read_names, readers), *map(string_constants, readers))
    return [
        f"{path}: {name}"
        for path, source in modules.items()
        for name in definitions(source)
        if name.rsplit(".", 1)[-1] not in read
    ]


def test_detector_names_each_unread_public_function():
    lib = (
        "def a(): pass\n"
        "def b(): return a()\n"
        "def c(): pass\n"
        "def d(): pass\n"
        "def e(): pass\n"
        "def _f(): pass\n"
        "class G:\n"
        "    def h(self): pass\n"
        "async def i(): pass\n"
    )
    init = "from lib import d\n"
    bench = "TARGETS = (('lib', 'e'),)\nprint('c is not here')\n"
    want = ["lib.py: b", "lib.py: c", "lib.py: i"]
    assert unread_definitions({"lib.py": lib}, [lib, init, bench], public_functions) == want


def test_detector_names_each_unread_public_method():
    lib = (
        "class A:\n"
        "    def b(self): return self.c()\n"
        "    def c(self): pass\n"
        "    def d(self): pass\n"
        "    def e(self): pass\n"
        "    def _f(self): pass\n"
        "    def __len__(self): return 0\n"
        "    @property\n"
        "    def g(self): pass\n"
        "def h(): pass\n"
        "class I:\n"
        "    async def j(self): pass\n"
    )
    bench = "print(graph.d)\nNAMES = ('e',)\n"
    want = ["lib.py: A.b", "lib.py: A.g", "lib.py: I.j"]
    assert unread_definitions({"lib.py": lib}, [lib, bench], public_methods) == want


def package_and_bench():
    """The package's modules (file name -> source) and the readers of their
    public names: those modules and the bench's.  The tests are not
    readers."""
    modules = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    return modules, list(modules.values()) + [path.read_text() for path in sorted(BENCH.glob("*.py"))]


def test_no_public_function_only_tests_read():
    # read by a package module, re-exported by __init__, or named in the
    # bench
    found = unread_definitions(*package_and_bench(), public_functions)
    assert not found, "public functions only tests read: " + ", ".join(found)


def test_no_public_method_only_tests_read():
    # read as an attribute by a package module or the bench (Graph.degree:
    # the bench reads networkx's degree), or named in the bench
    found = unread_definitions(*package_and_bench(), public_methods)
    assert not found, "public methods only tests read: " + ", ".join(found)


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


def test_c_source_makes_no_python_call():
    # the kernels take ints and rows and return values: no callable is
    # called, so no entry can be re-entered or see an exception mid-search
    source = (SRC / "_augment.c").read_text()
    found = [name for name in ("PyObject_Call", "PyObject_Vectorcall", "PyCallable_Check") if name in source]
    assert not found, "calls into Python: " + ", ".join(found)


def test_c_header_lists_the_exported_entries():
    # the header comment counts the entries of methods[] in words and gives
    # each one's signature, in table order
    header = (SRC / "_augment.c").read_text().split("*/", 1)[0]
    entries = compiled_entry_names()
    words = ("Zero", "One", "Two", "Three", "Four", "Five", "Six", "Seven", "Eight", "Nine", "Ten", "Eleven", "Twelve")
    assert re.findall(r"^   (\w+) entries, all METH_FASTCALL:$", header, re.MULTILINE) == [words[len(entries)]]
    assert re.findall(r"^   (\w+)\(.*\) -> ", header, re.MULTILINE) == entries
