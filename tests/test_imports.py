"""No module under ``src/`` imports a name it does not use."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# imported for a reader outside the module: perfbench/spans.py times cli.fit_scaler
KEPT = {("metaphish/cli.py", "fit_scaler")}


def unused_imports(source: str) -> set[str]:
    """The names that ``source``'s imports bind and that it neither
    references nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return imported - used


def test_unused_imports_finds_what_it_should():
    assert unused_imports("import os.path\nfrom a import b as c, d\nd()\n") == {"os", "c"}
    assert unused_imports("from a import b\n__all__ = ['b']\n") == set()
    assert unused_imports("from __future__ import annotations\n") == set()


def test_no_module_has_an_unused_import():
    found = {(path.relative_to(SRC).as_posix(), name)
             for path in sorted(SRC.rglob("*.py"))
             for name in unused_imports(path.read_text(encoding="utf-8"))}
    assert found == KEPT  # and each kept name is still unused, so still needs its entry
