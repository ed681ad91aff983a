"""Only production code in ``src/``: every name defined there has a caller.

Each top-level def, class and constant of ``src/specgrad/*.py``, and each
method and property of a class there other than a dunder, must be referenced
from production code: another module of the package, its own module outside
its own definition, or the benchmark scripts ``perfbench/*.py``.
``__init__.py`` only re-exports, so it neither defines nor references
anything here.  A reference is a name or an attribute equal to the defined
name, or, in ``perfbench/*.py`` only, a string equal to it, as the tracer
names what it patches; a string in ``src/``, such as an error message, is
none, and an import alone is none.  References made inside a definition
count only while that definition is itself referenced, so the check iterates
to a fixpoint: a helper used only by another unused helper is caught too.
Code that only the tests use belongs in ``tests/reference.py``.

Stored values need a production reader too: every field a class of
``src/specgrad`` declares (a dataclass's fields) or sets on ``self`` must
be read, as an attribute, by ``src/`` or ``perfbench/*.py``.  Reads are
keyed by class (``module.Class.field``), as far as annotations tell a
receiver's class, so one class's read of ``alpha`` does not keep another
class's ``alpha`` alive; a value only the tests read is dropped, since a
test can recompute it.

A returned value needs a production use too: a function or method of
``src/specgrad`` that returns a value, and that production code (``src/``
or ``perfbench/*.py``) calls by name, must have at least one such call that
is not a bare expression statement; a value every production call drops is
only there for the tests.

The other way round, no test may use a private (underscore) name of
``specgrad``: tests, and the reference forms in ``tests/reference.py`` above
all, reach production code only through its public names, so a reference
cannot quietly share the code it is checked against.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef, ast.Assign, ast.AnnAssign)


def references(node: ast.AST, skip=()) -> set[str]:
    """Names and attributes under ``node``, outside the subtrees in ``skip``."""
    refs, todo = set(), [node]
    while todo:
        sub = todo.pop()
        if any(sub is s for s in skip):
            continue
        if isinstance(sub, ast.Name):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        todo.extend(ast.iter_child_nodes(sub))
    return refs


def members(stmt: ast.stmt) -> list[ast.stmt]:
    """The methods and properties of a class statement, dunders left out."""
    if not isinstance(stmt, ast.ClassDef):
        return []
    return [m for m in stmt.body if isinstance(m, FUNCTIONS) and not is_dunder(m.name)]


def defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unreferenced(package: Path, callers: list[Path]) -> set[str]:
    """``module.name`` of every top-level definition, and ``module.Class.name``
    of every class member, of ``package`` that no live definition, no other
    top-level code and no caller file references, a caller's strings included."""
    bodies: dict[tuple[str, str], set[str]] = {}
    roots: set[str] = set()
    for path in callers:
        tree = ast.parse(path.read_text())
        roots |= references(tree) | strings(tree)
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            names = defined_names(stmt) if isinstance(stmt, DEFINITIONS) else []
            if not names:
                roots |= references(stmt)
            for name in names:
                bodies[(path.stem, name)] = references(stmt, skip=members(stmt)) - {name}
            for member in members(stmt):
                key = (path.stem, f"{stmt.name}.{member.name}")
                bodies[key] = references(member) - {member.name}
    live = set(bodies)
    while True:
        used = roots.union(*(bodies[key] for key in live))
        still = {key for key in live if key[1].rpartition(".")[2] in used}
        if still == live:
            return {f"{module}.{name}" for module, name in set(bodies) - live}
        live = still


def annotated(node: ast.AST | None, classes) -> set[str]:
    """The names of ``classes`` an annotation mentions at any depth: ``C``,
    ``C | None``, ``list[C]`` and ``tuple[Vector, C]`` all give ``{"C"}``."""
    if node is None:
        return set()
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name) and sub.id in classes}


def scopes(node: ast.AST, owner: str | None = None) -> list[tuple]:
    """``(scope, owner, nodes)`` for ``node`` and each function under it: the
    nodes that belong to that scope and to no function nested in it, and the
    class a method belongs to (``None`` for any other scope)."""
    own, inner = [], []
    todo = [(child, None) for child in ast.iter_child_nodes(node)]
    while todo:
        sub, cls = todo.pop()
        if isinstance(sub, FUNCTIONS):
            inner += scopes(sub, cls)
            continue
        own.append(sub)
        name = sub.name if isinstance(sub, ast.ClassDef) else None
        todo += [(child, name) for child in ast.iter_child_nodes(sub)]
    return [(node, owner, own), *inner]


def receiver_classes(scope, owner, nodes, attrs, returns):
    """A function ``expr -> set of class names`` for the expressions of one
    scope: the classes a parameter's annotation names (``self`` is the
    method's own class), a constructor call's class, the classes a called
    function's return annotation names, those a field of a known class
    names in its annotation, an element or slice of a known container,
    and, through assignments and ``for`` targets, names bound to any of these."""
    env: dict[str, set[str]] = {}
    if isinstance(scope, FUNCTIONS):
        params = [*scope.args.posonlyargs, *scope.args.args, *scope.args.kwonlyargs]
        env = {p.arg: annotated(p.annotation, attrs) for p in params}
        if owner in attrs and params:
            env[params[0].arg] = {owner}

    def kind(expr) -> set[str]:
        if isinstance(expr, ast.Name):
            return env.get(expr.id, set())
        if isinstance(expr, ast.Attribute):
            return set().union(*(attrs[c].get(expr.attr, set()) for c in kind(expr.value)))
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and (func.id in attrs or func.id in returns):
                return {func.id} & attrs.keys() or returns[func.id]
            return set().union(*map(kind, expr.args))  # enumerate, sorted, zip, ...
        if isinstance(expr, ast.Subscript):
            return kind(expr.value)
        return set()

    bindings = [(t, node.value) for node in nodes if isinstance(node, ast.Assign) for t in node.targets]
    bindings += [(n.target, n.iter) for n in nodes if isinstance(n, (ast.For, ast.comprehension))]
    changed = True
    while changed:  # a binding may read a name bound later in the walk
        changed = False
        for target, value in bindings:
            found = kind(value)
            for name in (n.id for n in ast.walk(target) if isinstance(n, ast.Name)):
                if not found <= env.get(name, set()):
                    env[name] = env.get(name, set()) | found
                    changed = True
    return kind


def unread_fields(package: Path, callers: list[Path]) -> set[str]:
    """``module.Class.field`` of every field a class of ``package`` declares
    (an annotated name in its body: a dataclass's fields) or sets on ``self``
    in a method, that no attribute load in ``package`` or in a caller file
    reads.  Setting a field, ``+=`` included, reads nothing.  A read counts
    for the classes its receiver can be (:func:`receiver_classes`); when none
    of those declares the field, it counts for every class that does, as an
    unannotated receiver could be any of them."""
    modules = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    trees = {path: ast.parse(path.read_text()) for path in [*modules, *callers]}
    home = {
        stmt.name: path.stem
        for path in modules
        for stmt in trees[path].body
        if isinstance(stmt, ast.ClassDef)
    }
    attrs: dict[str, dict[str, set[str]]] = {cls: {} for cls in home}  # field -> classes it holds
    returns: dict[str, set[str]] = {}
    fields = set()
    for path, tree in trees.items():
        for scope, owner, nodes in scopes(tree):
            if isinstance(scope, FUNCTIONS) and owner is None:
                kinds = annotated(scope.returns, home)
                returns[scope.name] = returns.get(scope.name, set()) | kinds
            if path not in modules:
                continue
            me = scope.args.args[0].arg if owner in attrs and scope.args.args else None
            for node in nodes:
                if isinstance(node, ast.ClassDef) and node.name in attrs:
                    for stmt in node.body:
                        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                            attrs[node.name][stmt.target.id] = annotated(stmt.annotation, home)
                            fields.add((node.name, stmt.target.id))
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    if isinstance(node.value, ast.Name) and node.value.id == me:
                        fields.add((owner, node.attr))
    read = set()
    for tree in trees.values():
        for scope, owner, nodes in scopes(tree):
            kind = receiver_classes(scope, owner, nodes, attrs, returns)
            for node in nodes:
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    holders = {cls for cls, name in fields if name == node.attr}
                    read |= {(cls, node.attr) for cls in (kind(node.value) & holders or holders)}
    return {f"{home[cls]}.{cls}.{name}" for cls, name in fields - read}


# Problem.objective's one reader outside the tests is
# perfbench/tests/test_perfbench.py:212, a test of the benchmark, which changes
# only together with the benchmark itself (ROADMAP item 8).
ALLOWED = {"problems.Problem.objective"}


def test_every_top_level_name_in_src_has_a_production_caller():
    callers = sorted((ROOT / "perfbench").glob("*.py"))
    assert callers, "perfbench/*.py not found"
    dead = unreferenced(ROOT / "src" / "specgrad", callers)
    assert dead >= ALLOWED, f"an allowance outlived its reason: {sorted(ALLOWED - dead)}"
    dead -= ALLOWED
    assert not dead, f"no production caller (move to tests/reference.py): {sorted(dead)}"


def test_a_helper_used_only_by_another_unused_helper_is_caught(tmp_path):
    package, caller = tmp_path / "pkg", tmp_path / "caller.py"
    package.mkdir()
    (package / "__init__.py").write_text("from .mod import dead, live\n")
    (package / "mod.py").write_text(
        "import math\n"
        "LIMIT = 3\n"
        "def helper():\n    return math.pi\n"
        "def dead():\n    return helper() + dead()\n"
        "def live():\n    return LIMIT, 'named'\n"
        "def named():\n    pass\n"
        "def patched():\n    pass\n"
        "class Used:\n    pass\n"
        "if __name__ == '__main__':\n    Used()\n"
    )
    caller.write_text("import pkg.mod\nfrom pkg.mod import helper\npkg.mod.live()\nx = 'patched'\n")
    # A caller's string keeps 'patched' alive; the package's own string, 'named', does not.
    assert unreferenced(package, [caller]) == {"mod.dead", "mod.helper", "mod.named"}


def test_an_unused_method_or_property_is_caught(tmp_path):
    package, caller = tmp_path / "pkg", tmp_path / "caller.py"
    package.mkdir()
    (package / "__init__.py").write_text("from .mod import Box\n")
    (package / "mod.py").write_text(
        "class Box:\n"
        "    size = 2\n"
        "    def __init__(self):\n        self.v = self.size\n"
        "    def used(self):\n        return self.helper()\n"
        "    def helper(self):\n        return self.v\n"
        "    def dead(self):\n        return self.chained() + self.dead()\n"
        "    def chained(self):\n        return 1\n"
        "    @property\n    def shown(self):\n        return self.v\n"
        "    @property\n    def hidden(self):\n        return self.dead()\n"
        "    @staticmethod\n    def patched():\n        pass\n"
    )
    caller.write_text("from pkg.mod import Box\nBox().used()\nBox().shown\nx = 'patched'\n")
    assert unreferenced(package, [caller]) == {"mod.Box.dead", "mod.Box.chained", "mod.Box.hidden"}


def test_every_field_in_src_has_a_production_reader():
    callers = sorted((ROOT / "perfbench").glob("*.py"))
    assert callers, "perfbench/*.py not found"
    unread = unread_fields(ROOT / "src" / "specgrad", callers)
    assert not unread, f"stored but never read in production (drop it): {sorted(unread)}"


def test_an_unread_field_is_caught_per_class(tmp_path):
    package, caller = tmp_path / "pkg", tmp_path / "caller.py"
    package.mkdir()
    (package / "__init__.py").write_text("from .mod import Box, Row, Step\n")
    (package / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\nclass Step:\n    alpha: float\n    n: int\n    unread: int = 0\n"
        "@dataclass\nclass Row:\n    alpha: float\n    n: int\n"
        "class Box:\n"
        "    def __init__(self, size):\n"
        "        self.size, self.cache, self.shown, self.hits = size, {}, 1, 0\n"
        "    def area(self):\n        self.hits += 1\n        return self.size * self.size\n"
        "def half(step: Step) -> float:\n    return step.alpha / 2\n"
        "def count(item):\n    return item.n\n"
    )
    caller.write_text("from pkg.mod import Box\nbox = Box(2)\nprint(box.area(), box.shown)\n")
    # Row.alpha shares its name with a read of a Step; count's receiver has no
    # known class, so it reads both n fields; an update (+=) reads nothing.
    assert unread_fields(package, [caller]) == {
        "mod.Step.unread", "mod.Row.alpha", "mod.Box.cache", "mod.Box.hits"
    }


def returns_value(func: ast.AST) -> bool:
    """Whether ``func`` itself, not a function nested in it, has a ``return``
    with a value other than a literal ``None``."""
    own = scopes(func)[0][2]
    return any(
        isinstance(node, ast.Return) and node.value is not None
        and not (isinstance(node.value, ast.Constant) and node.value.value is None)
        for node in own
    )


def dropped_returns(package: Path, callers: list[Path]) -> set[str]:
    """``module.name`` of every top-level function, and ``module.Class.name``
    of every method, of ``package`` that returns a value and that ``package``
    or a caller file calls by name (``f(...)`` or ``obj.f(...)``), where
    every such call is a bare expression statement that drops the value."""
    modules = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    trees = {path: ast.parse(path.read_text()) for path in [*modules, *callers]}
    used, dropped = set(), set()
    for tree in trees.values():
        bare = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                (dropped if id(node) in bare else used).add(name)
    found = set()
    for path in modules:
        for stmt in trees[path].body:
            funcs = [(stmt.name, stmt)] if isinstance(stmt, FUNCTIONS) else []
            funcs += [(f"{stmt.name}.{m.name}", m) for m in members(stmt)]
            for key, func in funcs:
                if func.name in dropped - used and returns_value(func):
                    found.add(f"{path.stem}.{key}")
    return found


def test_every_returned_value_in_src_has_a_production_use():
    callers = sorted((ROOT / "perfbench").glob("*.py"))
    assert callers, "perfbench/*.py not found"
    dropped = dropped_returns(ROOT / "src" / "specgrad", callers)
    assert not dropped, f"every production call drops the value (return nothing): {sorted(dropped)}"


def test_a_value_every_production_call_drops_is_caught(tmp_path):
    package, caller = tmp_path / "pkg", tmp_path / "caller.py"
    package.mkdir()
    (package / "__init__.py").write_text("from .mod import Box, dropped, kept, unnamed\n")
    (package / "mod.py").write_text(
        "def dropped():\n    return 1\n"
        "def kept():\n    return 2\n"
        "def unnamed():\n    return 3\n"
        "def nothing():\n    return None\n"
        "def nested():\n    def inner():\n        return 4\n    inner()\n"
        "class Box:\n"
        "    def push(self):\n        return self\n"
        "    def size(self):\n        return 0\n"
        "def run(box):\n    box.push()\n    nothing()\n    nested()\n    return kept() + box.size()\n"
    )
    caller.write_text(
        "from pkg.mod import Box, dropped, kept, run, unnamed\n"
        "dropped()\nkept()\nprint(run(Box()))\nfn = unnamed\n"
    )
    # kept's value is used by one call of two; unnamed is never called by name;
    # nothing and nested return no value, and inner is not a top-level name.
    assert dropped_returns(package, [caller]) == {"mod.dropped", "mod.Box.push"}


def strings(node: ast.AST) -> set[str]:
    """The string constants under ``node``."""
    constants = (sub for sub in ast.walk(node) if isinstance(sub, ast.Constant))
    return {sub.value for sub in constants if isinstance(sub.value, str)}


def unused_imports(package: Path, callers: list[Path]) -> list[str]:
    """``module.name`` of each name a module of ``package`` imports that neither
    that module's code references nor a caller file names in a string, as the
    tracer names what it patches: a caller's own ``math`` keeps no import
    alive.  ``from __future__`` imports are directives, not names;
    ``__init__.py`` only re-exports."""
    outside = set().union(*(strings(ast.parse(path.read_text())) for path in callers))
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = references(tree) | outside
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                found += [f"{path.stem}.{name}" for name in bound if name not in used]
    return found


def test_src_imports_nothing_it_does_not_use():
    callers = sorted((ROOT / "perfbench").glob("*.py"))
    assert callers, "perfbench/*.py not found"
    unused = unused_imports(ROOT / "src" / "specgrad", callers)
    assert not unused, f"imported but never used: {unused}"


def test_an_unused_import_is_caught(tmp_path):
    package, caller = tmp_path / "pkg", tmp_path / "caller.py"
    package.mkdir()
    (package / "__init__.py").write_text("from .mod import run, unused_name\n")
    (package / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import json\n"
        "import numpy as np\n"
        "import os.path\n"
        "from math import inf, pi as PI, tau\n"
        "from .other import patched, LIMIT\n"
        "def run(x: np.ndarray) -> float:\n    return os.path.join(PI)\n"
    )
    caller.write_text(
        "import json\nimport pkg.mod\n"
        "for attr in ('patched',):\n    setattr(pkg.mod, attr, json.loads('0'))\n"
    )
    assert unused_imports(package, [caller]) == ["mod.json", "mod.inf", "mod.tau", "mod.LIMIT"]


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def is_private(name: str) -> bool:
    return name.startswith("_") and not is_dunder(name)


def root_name(node: ast.AST) -> str | None:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def private_uses(path: Path) -> list[str]:
    """Each private name of ``specgrad`` that ``path`` imports (``from
    specgrad.x import _y``) or reads as an attribute of a name bound to the
    package or imported from it (``specgrad.x._y``, ``x._y``)."""
    tree = ast.parse(path.read_text())
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "specgrad":
                    bound.add(alias.asname or "specgrad")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "specgrad":
            for alias in node.names:
                bound.add(alias.asname or alias.name)
                if is_private(alias.name):
                    found.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and is_private(node.attr):
            if root_name(node.value) in bound:
                found.append(f"{ast.unparse(node.value)}.{node.attr}")
    return found


def test_no_test_uses_a_private_name_of_specgrad():
    files = sorted((ROOT / "tests").rglob("*.py"))
    assert ROOT / "tests" / "reference.py" in files
    used = [f"{path.relative_to(ROOT)}: {name}" for path in files for name in private_uses(path)]
    assert not used, f"tests use private production names: {used}"


def test_private_imports_and_attribute_reads_are_caught(tmp_path):
    path = tmp_path / "test_uses.py"
    path.write_text(
        "import specgrad.directions\n"
        "import specgrad.solver as sv\n"
        "from specgrad import bench\n"
        "from specgrad.directions import DirectionParams, _beta_m\n"
        "specgrad.directions._DEGENERATE_REL\n"
        "sv._initial_alpha(0)\n"
        "bench._FIELD_TYPES\n"
        "specgrad.__all__, DirectionParams.parse, sv.minimize, other._private\n"
    )
    assert sorted(private_uses(path)) == [
        "bench._FIELD_TYPES",
        "specgrad.directions._DEGENERATE_REL",
        "specgrad.directions._beta_m",
        "sv._initial_alpha",
    ]


# The run defaults (epsilon, max_iter), the trial-step cap, theta's lower
# bound 1/4 + ETA and machine epsilon, each a decision that must live in one
# place: SolverConfig's fields, linesearch.ALPHA_MAX, directions.theta_bar and
# secant.EPS.
WRITTEN_ONCE = (1e-8, 10000, 1e6, 0.25, 2.220446049250313e-16)


def numeric_literals(source: str) -> list[float]:
    """Every int or float constant of ``source``'s code; docstrings, comments
    and other strings are not numbers, so they never count."""
    return [
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and type(node.value) in (int, float)
    ]


def test_each_run_default_and_the_step_cap_is_written_once():
    found = []
    for path in sorted((ROOT / "src" / "specgrad").glob("*.py")):
        found += numeric_literals(path.read_text())
    counts = {value: sum(v == value for v in found) for value in WRITTEN_ONCE}
    assert counts == {value: 1 for value in WRITTEN_ONCE}


def test_numeric_literals_skip_docstrings_and_comments():
    source = '"""Tolerance 1e-8."""\nEPS = 1e-8  # not 10000\nN = 10_000\nflag = True\n'
    assert numeric_literals(source) == [1e-8, 10000]
