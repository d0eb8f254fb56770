"""Each public name has one import path: the module that defines it.

A package ``__init__.py`` holds its docstring and nothing else, so no
package re-exports a name that a second module would have to keep in
step (see CONTRIBUTING.md).
"""

import ast
from pathlib import Path

import pytest

PACKAGE_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"
INIT_FILES = sorted(PACKAGE_ROOT.rglob("__init__.py"))


def test_every_package_is_found():
    packages = {p.parent.relative_to(PACKAGE_ROOT).as_posix() for p in INIT_FILES}
    assert {".", "sim", "telemetry", "runner", "system"} <= packages


@pytest.mark.parametrize(
    "path", INIT_FILES, ids=lambda p: p.relative_to(PACKAGE_ROOT).as_posix()
)
def test_package_init_is_only_a_docstring(path):
    body = ast.parse(path.read_text(), filename=str(path)).body
    assert len(body) == 1, f"{path} holds statements besides its docstring"
    docstring = body[0]
    assert isinstance(docstring, ast.Expr)
    assert isinstance(docstring.value, ast.Constant)
    assert isinstance(docstring.value.value, str) and docstring.value.value.strip()
