"""Import structure of the package: modules import each other at module level,
never inside a function, and ``tokendrop`` needs ``vit`` only for type
annotations. No hidden inputs: no process-wide mode besides ``no_grad`` and no
environment variable. A schedule is validated only where it is planned or
before a side effect."""

import ast
from pathlib import Path

import pytest

import tokenskip

SOURCES = sorted(Path(tokenskip.__file__).parent.glob("*.py"))


def _is_package_import(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").startswith("tokenskip")
    if isinstance(node, ast.Import):
        return any(a.name.startswith("tokenskip") for a in node.names)
    return False


def _is_type_checking(node) -> bool:
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_local_package_import(path):
    tree = ast.parse(path.read_text())
    local = [f"{fn.name}:{node.lineno}"
             for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if _is_package_import(node)]
    assert local == []


def test_tokendrop_imports_vit_only_for_type_checking():
    path = Path(tokenskip.__file__).parent / "tokendrop.py"
    tree = ast.parse(path.read_text())
    # Module-level statements outside ``if TYPE_CHECKING:`` run on import.
    runtime = {node.module for node in tree.body
               if isinstance(node, ast.ImportFrom)}
    assert "vit" not in runtime
    guarded = [node for block in tree.body if _is_type_checking(block)
               for node in block.body]
    assert [node.module for node in guarded] == ["vit"]


def _with_owner(node, owner=None):
    """(innermost enclosing function name, node) for each node under node."""
    for child in ast.iter_child_nodes(node):
        yield owner, child
        inner = (child.name if isinstance(child, (ast.FunctionDef,
                                                  ast.AsyncFunctionDef))
                 else owner)
        yield from _with_owner(child, inner)


def test_only_global_statement_is_no_grad():
    found = [(path.name, owner, tuple(node.names)) for path in SOURCES
             for owner, node in _with_owner(ast.parse(path.read_text()))
             if isinstance(node, ast.Global)]
    assert found == [("tensor.py", "no_grad", ("_GRAD_ENABLED",))]


def _calls_validate(node) -> bool:
    func = getattr(node, "func", None)
    return (isinstance(func, ast.Name) and func.id == "validate"
            or isinstance(func, ast.Attribute) and func.attr == "validate")


def test_schedule_is_validated_only_by_plan_and_before_side_effects():
    """``tokendrop.plan`` validates what it plans, so nothing that runs a
    plan checks again; the config and the train inputs are checked before
    the data loads and the output directory is made."""
    callers = [(path.name, owner) for path in SOURCES
               for owner, node in _with_owner(ast.parse(path.read_text()))
               if _calls_validate(node)]
    assert sorted(callers) == [("config.py", "build"),
                               ("tokendrop.py", "plan"),
                               ("trainer.py", "check_inputs")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_environment_read(path):
    tree = ast.parse(path.read_text())
    names = ("environ", "getenv")
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in names
             and isinstance(node.value, ast.Name) and node.value.id == "os"
             or isinstance(node, ast.ImportFrom) and node.module == "os"
             and any(alias.name in names for alias in node.names)]
    assert reads == []
