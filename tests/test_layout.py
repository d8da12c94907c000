"""Source-layout guards, checked on the syntax tree of src/ringflow."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ringflow"
EIGENSOLVERS = {"eigh", "eigsh", "eigvalsh"}


def _trees():
    paths = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "eigen.py" in paths
    return [(p.name, ast.parse(p.read_text(), filename=str(p))) for p in paths]


def _callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def test_one_eigensolver_call_in_eigen_module():
    calls = [
        (name, _callee(node), node.lineno)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _callee(node) in EIGENSOLVERS
    ]
    assert [(name, callee) for name, callee, _ in calls] == [("eigen.py", "eigh")], calls


def test_no_assert_statements():
    # assert is stripped under python -O; checks must raise explicitly
    found = [
        (name, node.lineno)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_sinc_called_only_in_kernel_and_twomode():
    # kernel_entries is the one evaluation of the kernel formula; twomode's
    # closed forms are the only other sinc users
    callers = {
        name
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _callee(node) == "sinc"
    }
    assert callers == {"kernel.py", "twomode.py"}, callers
