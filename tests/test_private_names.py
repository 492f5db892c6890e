"""No module of the package imports or reads another module's private
(`_`-prefixed) name: a name used across modules is public."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "vkg"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def foreign_private_names(tree: ast.Module) -> list[str]:
    """`module.name` of every private name the module imports from, or
    reads as an attribute of, a module it imports."""
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            for a in node.names:
                if _private(a.name):
                    found.append(f"{source}.{a.name}")
                elif node.module is None or node.module == "vkg":
                    # `from . import commuted` binds a module
                    modules.add(a.asname or a.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_uses_another_modules_private_names(path):
    assert foreign_private_names(ast.parse(path.read_text())) == []


def test_the_guard_sees_imports_and_attribute_reads():
    tree = ast.parse("from .commuted import MultiIndex, _mi_str\n"
                     "from . import solver\n"
                     "import numpy as np\n"
                     "solver._check_memory(cfg)\n"
                     "np._core\n"
                     "solver.__name__\n"
                     "self._local\n")
    assert sorted(foreign_private_names(tree)) == [
        ".commuted._mi_str", "np._core", "solver._check_memory"]
