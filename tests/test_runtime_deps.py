"""numpy is the only runtime dependency: every absolute import in the package is stdlib or numpy."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "zoneval").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_numpy(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0]
    outside = {m for m in modules if m.split(".")[0] not in sys.stdlib_module_names | {"numpy"}}
    assert not outside, f"{path.name} imports {sorted(outside)}"


def test_sources_found():
    assert len(SOURCES) > 5
