"""The package's layering: which sibling modules each module imports."""

import ast
from pathlib import Path

import pytest

import ergoqueue

PACKAGE = Path(ergoqueue.__file__).parent

# each layer imports only layers listed before it; the command line sits on top
ALLOWED = {
    "lindley": set(),
    "odometer": set(),
    "processes": {"odometer"},
    "estimators": {"lindley", "odometer", "processes"},
    "cli": {"lindley", "odometer", "processes", "estimators"},
    "__init__": {"lindley", "odometer", "processes", "estimators"},
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
        "from .lindley import waiting_path\n"
        "from ergoqueue import cli\n"
        "from ergoqueue.estimators import block_sums\n"
        "import ergoqueue.processes\n"
        "import numpy as np\n",
        encoding="utf-8",
    )
    assert _sibling_imports(source) == {"odometer", "lindley", "cli", "estimators", "processes"}
