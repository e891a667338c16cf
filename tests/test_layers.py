"""The package's layering: which sibling modules each module imports."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import ergoqueue
from ergoqueue import odometer

PACKAGE = Path(ergoqueue.__file__).parent

# each layer imports only layers listed before it; the command line sits on top
ALLOWED = {
    # the frozen-record decorator sits below every layer and imports no sibling
    "_record": set(),
    "lindley": {"_record"},
    "odometer": {"_record"},
    "processes": {"_record", "odometer"},
    "estimators": {"_record", "lindley", "odometer", "processes"},
    "cli": {"lindley", "odometer", "processes", "estimators"},
    # the package exports no name, so it imports no module
    "__init__": set(),
    "__main__": {"cli"},
}


def _sibling_imports(path: Path) -> set[str]:
    """The ergoqueue modules one source file imports, read from its AST."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:  # from .x import y
                found.add(node.module.split(".")[0])
            elif node.level == 1 or node.module == "ergoqueue":  # from . import x
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("ergoqueue."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("ergoqueue."):
                    found.add(alias.name.split(".")[1])
    return found


def _unused_imports(path: Path) -> list[str]:
    """``line: name`` for every name one source file imports and never reads.

    A name is read where it appears as a bare name anywhere in the file, or
    in its ``__all__``.  ``from __future__ import annotations`` binds no name.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and "__all__" in (ast.unparse(t) for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"{line}: {name}" for line, name in bound if name not in read]


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_reads_every_name_it_imports(module):
    # no linter runs here: this is what catches an import left behind
    assert _unused_imports(PACKAGE / f"{module}.py") == []


def test_the_unused_import_reader_sees_every_form(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "from __future__ import annotations\n"
        "import itertools\n"
        "import numpy as np\n"
        "import os.path\n"
        "from collections.abc import Iterable, Sequence\n"
        "from . import odometer as od\n"
        "from .lindley import forward_couple\n"
        "__all__ = ['forward_couple']\n"
        "def f(x: Iterable) -> None:\n"
        "    import math\n"
        "    return np.zeros(os.path.sep)\n",
        encoding="utf-8",
    )
    assert _unused_imports(source) == ["2: itertools", "5: Sequence", "6: od", "10: math"]


def test_every_module_has_a_layer():
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(ALLOWED)


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_earlier_layers(module):
    imported = _sibling_imports(PACKAGE / f"{module}.py")
    assert imported <= ALLOWED[module], imported - ALLOWED[module]


def test_the_reader_sees_every_import_form(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "from . import odometer\n"
        "from .lindley import run_recursion\n"
        "from ergoqueue import cli\n"
        "from ergoqueue.estimators import block_sums\n"
        "import ergoqueue.processes\n"
        "import numpy as np\n",
        encoding="utf-8",
    )
    assert _sibling_imports(source) == {"odometer", "lindley", "cli", "estimators", "processes"}


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_every_exported_name_resolves(module):
    # the benchmark's layer trace wraps each name of __all__ with getattr
    mod = importlib.import_module(f"ergoqueue.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


# the interval-set algebra is the arrival set's test oracle, kept in tests/oracles.py
ORACLE_NAMES = [
    "DyadicInterval",
    "DyadicIntervalSet",
    "run_seed_set",
    "arrival_band",
    "arrival_set_truncated",
    "in_run_seed",
    "in_arrival_band",
    "_band_cells",
    "MAX_SET_DEPTH",
]


def test_odometer_holds_one_arrival_set_implementation():
    present = [name for name in ORACLE_NAMES if hasattr(odometer, name)]
    assert present == []


def _module_names(path: Path) -> set[str]:
    """Every dotted part of every module or name one source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            found.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                found.update(alias.name.split("."))
    return found


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_no_module_imports_the_test_oracles(module):
    assert "oracles" not in _module_names(PACKAGE / f"{module}.py")


def test_the_import_reader_sees_the_oracles(tmp_path):
    for line in ("import oracles", "from tests import oracles", "from tests.oracles import x",
                 "import tests.oracles as o", "from . import oracles"):
        source = tmp_path / "m.py"
        source.write_text(line + "\n", encoding="utf-8")
        assert "oracles" in _module_names(source), line


def test_cli_has_one_csv_writer():
    # every block is assembled as bytes; the csv module would be a second path
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert "csv" not in imported


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_sibling_reads(path: Path) -> list[str]:
    """``line: module.name`` for every underscore name of a sibling module one file reads.

    A read is ``module._name`` on a name bound to a sibling module, or
    ``from .module import _name``.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1 and module or module.startswith("ergoqueue."):
                found += [
                    f"{node.lineno}: {module.split('.')[-1]}.{alias.name}"
                    for alias in node.names
                    if _is_private(alias.name)
                ]
            elif node.level == 1 or module == "ergoqueue":
                modules.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update(
                alias.asname or alias.name
                for alias in node.names
                if alias.name.startswith("ergoqueue.")
            )
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            if ast.unparse(node.value) in modules:
                found.append(f"{node.lineno}: {ast.unparse(node)}")
    return sorted(found)


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_reads_no_private_name_of_a_sibling(module):
    # each rule is stated once, in the module that owns it: a sibling calls its public name
    assert _private_sibling_reads(PACKAGE / f"{module}.py") == []


def test_the_private_reader_sees_every_form(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "from . import odometer\n"
        "from . import lindley as lin\n"
        "from .processes import _ProcessBase, rng_for\n"
        "import ergoqueue.estimators\n"
        "odometer._check_band(1, 2)\n"
        "lin._reflect\n"
        "ergoqueue.estimators._burst_windows\n"
        "odometer.band_limit(2, 1)\n"
        "odometer.__name__\n"
        "self._private\n",
        encoding="utf-8",
    )
    assert _private_sibling_reads(source) == [
        "3: processes._ProcessBase",
        "5: odometer._check_band",
        "6: lin._reflect",
        "7: ergoqueue.estimators._burst_windows",
    ]


def _by_function(path: Path) -> list[tuple[str | None, ast.AST]]:
    """(name of the innermost def around it, node) for every node of one source file."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else func
            found.append((inner, child))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_only_the_uint64_kernels_compare_with_64():
    # every other counter path computes in Python ints, at any precision
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for func, node in _by_function(path):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(isinstance(x, ast.Constant) and x.value == 64 for x in operands):
                    found.add((path.stem, func))
    assert found == {("odometer", "uniform_counters"), ("odometer", "window_arrival_counts")}


def test_odometer_process_draws_uint64_counters_only_to_count_windows():
    # a run reads one counter, drawn by odometer.uniform_counter at any width
    callers = {
        func
        for func, node in _by_function(PACKAGE / "processes.py")
        if isinstance(node, ast.Attribute) and node.attr == "uniform_counters"
    }
    assert callers == {"_window_counts"}


ROOT = PACKAGE.parents[1]


def _public_definitions(path: Path) -> list[str]:
    """Every public module-level function and class of one source file, and
    every public method of those classes, as ``name`` or ``Class.method``."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append(node.name)
            if isinstance(node, ast.ClassDef):
                found += [
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return found


def _read_names(path: Path) -> set[str]:
    """Every bare name and every attribute name one source file reads."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_every_public_name_has_a_reader():
    # a name only its own tests call is surface without a user: the package
    # or a demo reads it, or the README documents it
    read = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py")]:
        read |= _read_names(path)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name in _public_definitions(path):
            word = name.rpartition(".")[2]
            if word not in read and not re.search(rf"\b{word}\b", readme):
                unread.append(f"{path.stem}.{name}")
    assert unread == []


def test_the_public_name_readers_see_every_form(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "import numpy as np\n"
        "def public(x):\n"
        "    def inner():\n"
        "        return 'quoted'\n"
        "    return np.zeros(x).size\n"
        "def _private():\n"
        "    pass\n"
        "class Point:\n"
        "    size = 1\n"
        "    def __init__(self):\n"
        "        self.counter = public\n"
        "    def method(self):\n"
        "        pass\n"
        "    @property\n"
        "    def value(self):\n"
        "        pass\n"
        "    def _helper(self):\n"
        "        pass\n"
        "class _Hidden:\n"
        "    def method(self):\n"
        "        pass\n",
        encoding="utf-8",
    )
    assert _public_definitions(source) == ["public", "Point", "Point.method", "Point.value"]
    assert _read_names(source) == {"np", "zeros", "size", "x", "self", "counter", "public",
                                   "property"}
