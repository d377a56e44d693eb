"""Each private attribute has one owner: no module of the package assigns
to `<expr>._name` (one leading underscore, not a dunder) unless `<expr>`
is `self` or `cls`.  A table that an object keeps is filled by that
object's own methods."""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "toricfiber")


def foreign_private_writes(source: str) -> list[tuple[int, str]]:
    """(line, attribute) of each assignment that writes a private
    attribute of an object other than `self` or `cls`, or an item or
    attribute inside one, in walk order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, (ast.Attribute, ast.Subscript))
                and isinstance(node.ctx, ast.Store)):
            continue
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and not node.attr.startswith("__")
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id in ("self", "cls"))):
                found.append((node.lineno, node.attr))
            node = node.value
    return found


def test_foreign_private_writes_are_found():
    source = ("self._a = 1\ncls._b = 2\np._c = 3\nq.r._d += 4\n"
              "x, s._e = 5, 6\nt.__dict__ = {}\nu.f = 7\nv._g[0] = 8\n"
              "for w._h in ():\n    pass\nself._i[0] = y._j.k = 9\n")
    assert sorted(foreign_private_writes(source)) == [
        (3, "_c"), (4, "_d"), (5, "_e"), (8, "_g"), (9, "_h"), (11, "_j")]


def test_no_module_writes_another_objects_private_attributes():
    found = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                writes = foreign_private_writes(fh.read())
            if writes:
                found[name] = writes
    assert found == {}
