"""The package's runtime imports: the standard library, numpy and scipy,
nothing else (the test tools, sympy among them, stay in the tests); no
public name that only the tests call; and no attribute that only the
tests read."""

import ast
import collections
import importlib
import pathlib
import sys

import fsifem

RUNTIME_PACKAGES = {"numpy", "scipy"}
PACKAGE = pathlib.Path(fsifem.__file__).parent
# the benchmark wraps package names by attribute, so its calls count
BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
# the dense oracle of the inf-sup constant, which the acceptance tests
# compare the package's Lanczos estimate against
TEST_ORACLES = {"pressure_schur_complement"}


def _absolute_imports(path):
    """(line, top-level package) of each absolute import in `path`."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_runtime_imports_are_stdlib_numpy_or_scipy():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 1
    allowed = sys.stdlib_module_names | RUNTIME_PACKAGES
    foreign = [f"{path.name}:{line}: {name}" for path in modules
               for line, name in _absolute_imports(path) if name not in allowed]
    assert not foreign, foreign


def _public_definitions(tree):
    """Each public module-level def or class of `tree`, and each public
    method of its public classes, with its qualified name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{node.name}.{item.name}", item


def _used_names(node):
    """Every `ast.Name` id and `ast.Attribute` attribute under `node`."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = sorted(PACKAGE.glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in modules + sorted(BENCHMARK.glob("*.py"))}
    uses = collections.Counter(name for tree in trees.values()
                               for name in _used_names(tree))
    uncalled = [f"{path.stem}.{qualified}" for path in modules
                for qualified, node in _public_definitions(trees[path])
                if node.name not in TEST_ORACLES
                and uses[node.name] == collections.Counter(_used_names(node))[node.name]]
    assert not uncalled, uncalled


def _self_attributes(cls):
    """Each attribute a method of class `cls` sets on `self`."""
    for sub in ast.walk(cls):
        if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
            yield sub.attr


def _read_attributes(tree):
    """Every attribute read under `tree`."""
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def test_every_attribute_set_on_self_is_read():
    # an exception's payload (`report`, `value`, `vector`) is the fault's
    # data, for whoever catches it
    modules = sorted(PACKAGE.glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in modules + sorted(BENCHMARK.glob("*.py"))}
    read = {name for tree in trees.values() for name in _read_attributes(tree)}
    unread = []
    for path in modules:
        module = importlib.import_module(f"fsifem.{path.stem}")
        for node in trees[path].body:
            if (isinstance(node, ast.ClassDef)
                    and not issubclass(getattr(module, node.name), BaseException)):
                unread += [f"{path.stem}.{node.name}.{attr}"
                           for attr in sorted(set(_self_attributes(node)))
                           if attr not in read]
    assert not unread, unread
