"""README.md states the document kinds, the CLI commands and the names
its guarantees rest on; each is checked against the code, so a stale line
fails the suite."""

import builtins
import importlib
import os
import pkgutil
import re
import shlex

from click.testing import CliRunner

import toricfiber
from toricfiber.cli import cli
from toricfiber.documents import KINDS

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def test_readme_kinds_are_the_document_kinds():
    line = re.search(r"^Kinds: (.*?);", readme(), re.M)
    assert line is not None
    assert tuple(re.findall(r"`([^`]+)`", line.group(1))) == KINDS


def test_readme_cli_lines_resolve_to_commands():
    # each line runs on the bundled data, so a failing example fails here
    section = readme().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [ln.split("#", 1)[0] for ln in block.splitlines()]
    lines = [ln for ln in lines if ln.startswith("toricfiber ")]
    assert len(lines) >= 10
    for ln in lines:
        res = CliRunner().invoke(cli, shlex.split(ln)[1:])
        assert res.exit_code == 0 and res.output, (ln, res.output)


def test_guarantee_names_resolve():
    # each backticked name resolves in the package, one of its modules (not
    # __main__, which runs the CLI on import) or builtins
    section = readme().split("\n## Guarantees\n", 1)[1].split("\n## ", 1)[0]
    names = {n for n in re.findall(r"`([^`]+)`", section)
             if re.fullmatch(r"[A-Za-z_][\w.]*", n)}
    scopes = [toricfiber, builtins] + [
        importlib.import_module(f"toricfiber.{mod.name}")
        for mod in pkgutil.iter_modules(toricfiber.__path__)
        if mod.name != "__main__"]
    assert len(names) >= 20
    for name in names:
        head, *rest = name.split(".")
        obj = next((getattr(s, head) for s in scopes if hasattr(s, head)), None)
        assert obj is not None, name
        for attr in rest:
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)
