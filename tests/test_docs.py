"""The README's documented library use runs against the shipped fixture."""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_use_snippet_runs(monkeypatch, capsys):
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(ROOT)  # the snippet names the fixture by a repo-relative path
    exec(compile(code, "README.md#library-use", "exec"), {})
    # the same split and configurations as the CLI's fixture run: 7 of 160 revised
    assert capsys.readouterr().out == "7 of 160 verdicts revised\n"
