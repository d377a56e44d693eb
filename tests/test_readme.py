"""README.md states the document kinds and the CLI commands; both are
checked against the code, so a stale line fails the suite."""

import os
import re
import shlex

import click

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
    section = readme().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [ln.split("#", 1)[0] for ln in block.splitlines()]
    lines = [ln for ln in lines if ln.startswith("toricfiber ")]
    assert len(lines) >= 10
    for ln in lines:
        args = shlex.split(ln)[1:]
        cmd, path = cli, ["toricfiber"]
        while isinstance(cmd, click.Group):
            assert args and args[0] in cmd.commands, ln
            path.append(args[0])
            cmd = cmd.commands[args.pop(0)]
        # parses the options and arguments without running the command
        cmd.make_context(" ".join(path), args)
