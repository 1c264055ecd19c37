"""The package's failure rule, checked on its source.

Every data failure raises ``core.DataError`` and every argument error raises
``ValueError``; the CLI maps them to exit codes 1 and 2.  Other exceptions
appear only where a protocol asks for them.
"""

import ast
from pathlib import Path

import pytest

import trajtail

MODULES = sorted(Path(trajtail.__file__).parent.glob("*.py"))


def _raises(tree: ast.Module) -> list[tuple[ast.FunctionDef | str | None, str, ast.Raise]]:
    """Each ``raise`` with where it is and the name it raises.

    Where is the enclosing function, ``"__main__"`` in the body of
    ``if __name__ == "__main__":`` and None elsewhere at module level.
    """
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child)
                continue
            if isinstance(child, ast.If) and ast.unparse(child.test) == "__name__ == '__main__'":
                visit(child, "__main__")
                continue
            if isinstance(child, ast.Raise):
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                found.append((where, ast.unparse(exc) if exc is not None else "", child))
            visit(child, where)

    visit(tree, None)
    return found


def _protocol(module: str, where: ast.FunctionDef | str | None, name: str) -> bool:
    """Whether a protocol asks for ``name`` here."""
    if name == "SystemExit":
        return where == "__main__"
    if not isinstance(where, ast.FunctionDef):
        return False
    if name == "argparse.ArgumentTypeError":  # argparse's ``type=`` callables take the flag's text
        return module == "cli.py" and [a.arg for a in where.args.args[:1]] == ["text"]
    if name == "TypeError":  # ``json.dumps``'s ``default`` hook signals an unknown type this way
        return module == "experiments.py" and where.name == "_jsonable"
    if name == "AttributeError":  # PEP 562: a module's ``__getattr__`` reports a missing name this way
        return module == "__init__.py" and where.name == "__getattr__" and where.col_offset == 0
    return False


def test_modules_found():
    assert {"core.py", "cli.py", "experiments.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_data_error_is_the_only_exception_class(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    classes = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(base).endswith(("Exception", "Error")) for base in node.bases)
    ]
    assert classes == (["DataError"] if path.name == "core.py" else [])


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_raise_is_a_value_or_data_error(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    stray = [
        f"{path.name}:{node.lineno} raises {name or 'bare'}"
        for where, name, node in _raises(tree)
        if name not in ("ValueError", "DataError") and not _protocol(path.name, where, name)
    ]
    assert stray == []
