"""Every top-level definition in ``src/focksolve`` has a caller outside the tests.

The roots are the names that each module's statements other than
definitions use (the imports of ``__init__`` among them), the ``cmd_*``
functions that ``cli.run`` looks up by name, and the console script's
``main``.  From them the check follows every name and attribute that a
reached definition mentions.  A definition it cannot reach serves only the
tests and belongs in ``tests/oracles.py``.

Names are matched across the package without scopes, so a local variable
that shares a function's name counts as a use of it: a function ``lower``
would be masked by ``lower, upper = coef.tolist()`` in
``numerics.synthesize``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "focksolve"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _mentions(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def unreached_definitions(package: Path) -> list:
    """The top-level definitions of ``package`` that no root reaches, as 'module.name'."""
    definitions, pending = {}, []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, DEFINITIONS):
                pending.extend(_mentions(node))
                continue
            definitions.setdefault(node.name, []).append((path.stem, node))
            if node.name == "main" or node.name.startswith("cmd_"):
                pending.append(node.name)
    reached = set()
    while pending:
        name = pending.pop()
        if name in definitions and name not in reached:
            reached.add(name)
            for _, node in definitions[name]:
                pending.extend(_mentions(node))
    return sorted(
        f"{module}.{name}"
        for name, found in definitions.items()
        if name not in reached
        for module, _ in found
    )


def test_every_library_definition_has_a_library_caller():
    assert unreached_definitions(SRC) == []


def test_a_definition_that_only_tests_call_is_flagged(tmp_path):
    (tmp_path / "__init__.py").write_text("from .core import run\n")
    (tmp_path / "core.py").write_text(
        "def run(x):\n    return _step(x)\n\n\n"
        "def _step(x):\n    return x\n\n\n"
        "def oracle(x):\n    return _step(x)\n\n\n"
        "def cmd_go(args):\n    return 0\n"
    )
    assert unreached_definitions(tmp_path) == ["core.oracle"]
