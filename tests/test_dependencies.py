"""The package's runtime imports: the standard library, numpy and scipy,
nothing else (the test tools, sympy among them, stay in the tests); no
public name that only the tests call; no public name but the known ones
that only the benchmark's trace layer keeps; no attribute that only the
tests read; no caller of a solve's unchecked half but the few that run
its check before any result leaves them; one assembly site of the
velocity mass; and one module that starts threads."""

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
# the names that nothing but the trace layer, perfbench/shims.py, names:
# a retired function it wraps and a factor property it reads; a trace
# inside the package would let both go (ROADMAP 1(d))
BENCHMARK_ONLY = {"inverse_iteration", "pivot_growth"}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _absolute_imports(tree):
    """(line, top-level package) of each absolute import in `tree`."""
    for node in ast.walk(tree):
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
               for line, name in _absolute_imports(_parse(path)) if name not in allowed]
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


def _package_and_benchmark_trees():
    """(the package's modules, {path: parsed tree} of those modules and of
    the benchmark's)."""
    modules = sorted(PACKAGE.glob("*.py"))
    return modules, {path: ast.parse(path.read_text(), filename=str(path))
                     for path in modules + sorted(BENCHMARK.glob("*.py"))}


def _unused_outside(modules, trees):
    """Each public definition of `modules`, as (module.qualified name,
    node), that nothing in `trees` names outside the definition itself."""
    uses = collections.Counter(name for tree in trees.values()
                               for name in _used_names(tree))
    return [(f"{path.stem}.{qualified}", node) for path in modules
            for qualified, node in _public_definitions(trees[path])
            if uses[node.name] == collections.Counter(_used_names(node))[node.name]]


def test_every_public_name_has_a_caller_outside_the_tests():
    modules, trees = _package_and_benchmark_trees()
    uncalled = [name for name, _ in _unused_outside(modules, trees)]
    assert not uncalled, uncalled


def test_only_the_known_names_live_by_the_trace_layer_alone():
    # a name that the package stops using while the trace layer still
    # wraps or reads it would stay alive through the trace layer alone
    modules, trees = _package_and_benchmark_trees()
    in_shims = set(_used_names(trees.pop(BENCHMARK / "shims.py")))
    only_shims = {node.name for _, node in _unused_outside(modules, trees)
                  if node.name in in_shims}
    assert only_shims == BENCHMARK_ONLY


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
    modules, trees = _package_and_benchmark_trees()
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


# The halves of a solve that hand the residual check to their caller
# (`sparse.Factorization.deferred_solve`, `solver.ResolventOperator.
# deferred_solve`), and the functions that may call them.  The operator's
# half composes the factor's; each `solve` runs the check before its result
# leaves it, and a step's solve half hands the check to `Stepper.certify`,
# which runs it before the row, and so before `evolve` returns the state.
DEFERRED = "deferred_solve"
DEFERRED_CALLERS = {"Factorization.solve", "ResolventOperator.solve",
                    "ResolventOperator.deferred_solve", "Stepper.deferred_step"}


def _members(tree):
    """(qualified name, node) of each top-level function or method of
    `tree`, with "<module>" or "<Class>" for a statement outside any
    function."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                yield (f"{node.name}.{item.name}" if isinstance(item, ast.FunctionDef)
                       else f"<{node.name}>"), item
        else:
            yield "<module>", node


def _deferred_callers(tree):
    """The qualified name of each member of `tree` (`_members`) that names
    `DEFERRED`."""
    for name, member in _members(tree):
        if DEFERRED in _used_names(member):
            yield name


def test_deferred_solve_halves_have_only_checking_callers():
    # the tests wrap the halves to count solves and checks, so only the
    # package and the benchmark are scanned
    _, trees = _package_and_benchmark_trees()
    callers = collections.Counter(name for tree in trees.values()
                                  for name in _deferred_callers(tree))
    assert set(callers) == DEFERRED_CALLERS, set(callers) ^ DEFERRED_CALLERS


def test_deferred_solve_guard_flags_a_new_caller():
    tree = ast.parse("def report(op, data):\n    return op.deferred_solve(data)[0]\n"
                     "class Study:\n    def run(self):\n        self.op.deferred_solve(0)\n"
                     "half = Factorization.deferred_solve\n")
    assert list(_deferred_callers(tree)) == ["report", "Study.run", "<module>"]


# The velocity mass has one assembly site, its own cache entry
# `fem.fluid_mass`.  It is kept out of the `fluid_ops` bundle because the
# inf-sup eigensolve never reads it; a second site would assemble it
# again beside the cached one, or put it back where every fluid reader
# pays for it.
MASS_FORM = "fluid_mass"


def _assembles_mass(call):
    """Whether the call `call` is `assemble(space, "fluid_mass", ...)`, as a
    bare name or an attribute, with the form positional or by keyword."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    forms = call.args[1:2] + [k.value for k in call.keywords if k.arg == "form"]
    return name == "assemble" and any(
        isinstance(form, ast.Constant) and form.value == MASS_FORM for form in forms)


def _mass_assemblers(tree):
    """The qualified name of each member of `tree` (`_members`) that
    assembles the velocity mass."""
    for name, member in _members(tree):
        if any(isinstance(sub, ast.Call) and _assembles_mass(sub)
               for sub in ast.walk(member)):
            yield name


def test_velocity_mass_is_assembled_only_by_its_cache_entry():
    sites = [f"{path.stem}.{name}" for path in sorted(PACKAGE.rglob("*.py"))
             for name in _mass_assemblers(_parse(path))]
    assert sites == ["fem.fluid_mass"], sites


def test_mass_assembly_guard_flags_a_new_caller():
    tree = ast.parse('def gram(space):\n    return fem.assemble(space, "fluid_mass")\n'
                     'class Norms:\n    def build(self, space):\n'
                     '        assemble(space, form="fluid_mass")\n'
                     'MASS = (lambda space: assemble(space, "fluid_mass"))(SPACE)\n'
                     'def strain(space):\n    return fem.assemble(space, "fluid_strain")\n')
    assert list(_mass_assemblers(tree)) == ["gram", "Norms.build", "<module>"]


# The package's one way onto a second thread is `helper.thread`: no other
# module imports a threading module, so every job in the package is
# submitted, joined and taken back the same way.
THREADING = {"threading", "_thread", "concurrent"}


def _thread_imports(tree):
    """The line of each import of a threading module in `tree`."""
    return sorted(line for line, name in _absolute_imports(tree) if name in THREADING)


def test_only_the_helper_module_imports_threading():
    importers = {path.name for path in PACKAGE.rglob("*.py")
                 if _thread_imports(_parse(path))}
    assert importers == {"helper.py"}, importers


def test_thread_import_guard_flags_a_new_importer():
    tree = ast.parse("import threading\n"
                     "from concurrent.futures import ThreadPoolExecutor\n"
                     "import numpy, concurrent.futures as cf\n"
                     "def start():\n    import _thread\n"
                     "from . import helper\nimport queue\n")
    assert _thread_imports(tree) == [1, 2, 3, 5]
