"""Source rules that an interpreter-independent report needs, checked on the syntax tree.

``zone_eval`` and ``synth`` write floats into reports and synthetic files.
Builtin ``sum`` compensates its rounding from Python 3.12 on, so a float sum
through it gives other bits on newer interpreters; these modules add floats
left to right with ``zone_eval._sum`` instead.  The check reads the source,
so it holds on every interpreter, whichever one runs it.

No module calls a ufunc's ``.at`` method (``np.maximum.at`` and the like):
numpy before 1.25 runs it without a fast path, many times slower than a
sort or a ``bincount``, and the package supports numpy 1.24.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "zoneval"


@pytest.mark.parametrize("name", ["zone_eval.py", "synth.py"])
def test_no_builtin_sum(name):
    tree = ast.parse((PACKAGE / name).read_text(), filename=name)
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"]
    assert not calls, f"{name} calls builtin sum on lines {calls}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_ufunc_at(path):
    tree = ast.parse(path.read_text(), filename=path.name)
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "at"]
    assert not calls, f"{path.name} calls a ufunc's .at on lines {calls}"
