"""The README's documented library use runs against the shipped fixture, its
flag table lists each command's options, it names the current model format,
and every module attribute it names exists."""

from __future__ import annotations

import argparse
import re
from pathlib import Path

from metaphish import cli, dataset, kb, nmr, revision
from metaphish.classifiers import models

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_use_snippet_runs(monkeypatch, capsys):
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(ROOT)  # the snippet names the fixture by a repo-relative path
    exec(compile(code, "README.md#library-use", "exec"), {})
    # the same split and configurations as the CLI's fixture run: 7 of 160 revised
    assert capsys.readouterr().out == "7 of 160 verdicts revised\n"


def test_readme_flag_table_lists_the_parser_options():
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: {option for action in command._actions for option in action.option_strings}
               - {"-h", "--help", "--config"} for name, command in commands.choices.items()}
    table = (ROOT / "README.md").read_text(encoding="utf-8").split(
        "| flag | commands | meaning |", 1)[1]
    rows = [row.split("|") for row in table.split("\n\n", 1)[0].splitlines()[2:]]
    documented = {name: {flag for cells in rows if f"`{name}`" in cells[2]
                         for flag in re.findall(r"`(--[a-z-]+)", cells[1])} for name in options}
    assert documented == options


def test_readme_model_format_paragraph_names_the_current_format():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("\nA model file (", 1)[1].split("\n\n", 1)[0]
    assert paragraph.startswith(f"`{models.MODEL_FORMAT}`)"), paragraph[:40]
    row = next(line for line in readme.splitlines() if line.startswith("| `model_"))
    assert f"`{models.MODEL_FORMAT}`" in row


def test_readme_names_only_existing_module_attributes():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    modules = {"cli": cli, "dataset": dataset, "kb": kb, "nmr": nmr, "revision": revision}
    named = set(re.findall(rf"`({'|'.join(modules)})\.(\w+(?:\.\w+)*)", readme))
    assert named  # the pattern still finds the README's names
    absent = []
    for module, path in sorted(named):
        target = modules[module]
        try:
            for attribute in path.split("."):
                target = getattr(target, attribute)
        except AttributeError:
            absent.append(f"{module}.{path}")
    assert absent == []
