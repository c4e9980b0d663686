"""Repository-level guards: the README's library example runs as written, and no
module of the package imports a name it never uses."""

import ast
import re
from pathlib import Path

import pytest

import stokes_unfold

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(stokes_unfold.__file__).resolve().parent


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library example\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)\n```\n", section, re.DOTALL)
    assert block, "no python block under '## Library example'"
    exec(compile(block.group(1), f"{README.name}:Library example", "exec"), {})


def _unused_imports(tree) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_module_uses_every_import(module):
    # __init__.py is left out: its imports are the package's re-exports
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    unused = _unused_imports(tree)
    assert not unused, f"{module} imports names it never uses (line, name): {unused}"
