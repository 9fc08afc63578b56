"""The package's runtime imports: the standard library, numpy and scipy,
nothing else (the test tools, sympy among them, stay in the tests)."""

import ast
import pathlib
import sys

import fsifem

RUNTIME_PACKAGES = {"numpy", "scipy"}


def _absolute_imports(path):
    """(line, top-level package) of each absolute import in `path`."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_runtime_imports_are_stdlib_numpy_or_scipy():
    modules = sorted(pathlib.Path(fsifem.__file__).parent.rglob("*.py"))
    assert len(modules) > 1
    allowed = sys.stdlib_module_names | RUNTIME_PACKAGES
    foreign = [f"{path.name}:{line}: {name}" for path in modules
               for line, name in _absolute_imports(path) if name not in allowed]
    assert not foreign, foreign
