"""Every `branchforms ...` example in the README's `sh` blocks runs, exits 0
and prints one JSON document."""

import json
import os
import re
import shlex

import pytest

from branchforms.cli import run

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "README.md")


def readme_commands():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["branchforms"]:
                commands.append(words[1:])
    return commands


COMMANDS = readme_commands()


def test_readme_has_cli_examples():
    assert {argv[0] for argv in COMMANDS} >= {"semigroup", "lambda", "eval-form",
                                              "recover-gamma", "stratify", "decide"}


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a[:1]) for a in COMMANDS])
def test_readme_cli_example(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.endswith("\n") and out.count("\n") == 1
    json.loads(out)
