"""Every public function, class and method of the package is used by the
product: each is named somewhere in `src/vkg` or `scripts/` besides its
own definition."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vkg"

# public names that only the tests call: name -> (reason, what removes it)
ALLOWED = {}


def definitions(tree: ast.Module, module: str) -> list[tuple[str, str]]:
    """(qualified name, bare name) of each public module-level function
    and class, and of each public method (no dunders) of a public
    class."""
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        out.append((f"{module}.{node.name}", node.name))
        if isinstance(node, ast.ClassDef):
            out += [(f"{module}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")]
    return out


def uses(tree: ast.Module) -> Counter:
    """How often each name is read: names, attributes and imported
    names; a definition is not a use."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
    return found


def unused_public_names(sources: dict[str, str],
                        users: list[str]) -> list[str]:
    """Qualified names of the public definitions in sources (module name
    to text) that neither sources nor users (more texts) name."""
    count = Counter()
    defined = []
    for module, text in sources.items():
        tree = ast.parse(text)
        defined += definitions(tree, module)
        count += uses(tree)
    for text in users:
        count += uses(ast.parse(text))
    return [qual for qual, name in defined if not count[name]]


def test_every_public_name_is_used_by_the_product():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    scripts = [p.read_text() for p in sorted((ROOT / "scripts").glob("*.py"))]
    unused = unused_public_names(sources, scripts)
    assert sorted(set(unused) - set(ALLOWED)) == []
    # an entry whose name is used, or gone, leaves the list
    assert sorted(set(ALLOWED) - set(unused)) == []


def test_the_guard_counts_reads_not_definitions():
    sources = {"a": "def used():\n    pass\n\n\n"
                    "def unused():\n    pass\n\n\n"
                    "class K:\n"
                    "    def method(self):\n        pass\n\n"
                    "    def called(self):\n        pass\n\n"
                    "    def __len__(self):\n        return 0\n\n\n"
                    "def _private():\n    pass\n",
               "b": "from .a import used\n\n\n"
                    "def f(k):\n    return k.called()\n"}
    assert unused_public_names(sources, ["K\n"]) == [
        "a.unused", "a.K.method", "b.f"]
