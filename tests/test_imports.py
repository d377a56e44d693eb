"""No linter runs on this package, so the suite checks that no module
imports a name it never uses.  `__init__.py` is skipped: its imports are
the package's re-exports."""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "toricfiber")


def unused_imports(source: str) -> list[str]:
    """The names that `source` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    assert unused_imports("import os.path\nfrom a import b, c as d\n"
                          "from __future__ import annotations\nd()\n") \
        == ["os", "b"]


def test_no_module_imports_a_name_it_never_uses():
    found = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                unused = unused_imports(fh.read())
            if unused:
                found[name] = unused
    assert found == {}
