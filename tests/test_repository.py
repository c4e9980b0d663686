"""Repository-level guards: the README's library example and command lines run as
written, no module of the package imports a name it never uses, and every name the
package re-exports has a caller in the package or a use in the README."""

import ast
import re
import shlex
from pathlib import Path

import pytest

import stokes_unfold
from stokes_unfold.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(stokes_unfold.__file__).resolve().parent


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library example\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)\n```\n", section, re.DOTALL)
    assert block, "no python block under '## Library example'"
    exec(compile(block.group(1), f"{README.name}:Library example", "exec"), {})


def _readme_command_lines() -> list:
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.match(r"\s*```sh\n(.*?)\n```\n", section, re.DOTALL)
    assert block, "no sh block under '## Command line'"
    lines = re.sub(r"\\\n\s*", "", block.group(1)).splitlines()
    return [shlex.split(line, comments=True) for line in lines]


@pytest.mark.parametrize("argv", _readme_command_lines(), ids=" ".join)
def test_readme_command_line_runs(argv, tmp_path, capsys):
    program, *args = argv
    assert program == "stokes-unfold"
    if "--gnuplot" in args:  # the README writes to /tmp/conv
        args[args.index("--gnuplot") + 1] = str(tmp_path / "conv")
    assert main(args) == 0
    assert capsys.readouterr().out


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


def _reexports() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return sorted(alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                  for alias in node.names)


def _loaded_outside_definition(tree, name: str) -> bool:
    """Whether ``name`` is read, as a name or an attribute, outside its own module-level
    def or class statement."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            continue
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Name) and sub.id == name and isinstance(sub.ctx, ast.Load)
                    or isinstance(sub, ast.Attribute) and sub.attr == name):
                return True
    return False


def test_every_reexport_has_a_caller_or_a_readme_use():
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    readme = README.read_text(encoding="utf-8")
    unreached = [name for name in _reexports()
                 if not any(_loaded_outside_definition(tree, name) for tree in trees)
                 and not re.search(rf"\b{re.escape(name)}\b", readme)]
    assert not unreached, f"re-exported with no caller in the package and no README use: {unreached}"
