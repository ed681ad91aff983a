"""Only production code in ``src/``: every name defined there has a caller.

Each top-level def, class and constant of ``src/specgrad/*.py``, and each
method and property of a class there other than a dunder, must be referenced
from production code: another module of the package, its own module outside
its own definition, or the benchmark scripts ``perfbench/*.py``.
``__init__.py`` only re-exports, so it neither defines nor references
anything here.  A reference is a name, an attribute or a string equal to the
defined name; an import alone is none.  References made inside a definition
count only while that definition is itself referenced, so the check iterates
to a fixpoint: a helper used only by another unused helper is caught too.
Code that only the tests use belongs in ``tests/reference.py``.

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
    """Names, attributes and strings under ``node``, outside the subtrees in ``skip``."""
    refs, todo = set(), [node]
    while todo:
        sub = todo.pop()
        if any(sub is s for s in skip):
            continue
        if isinstance(sub, ast.Name):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            refs.add(sub.value)
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
    top-level code and no caller file references."""
    bodies: dict[tuple[str, str], set[str]] = {}
    roots: set[str] = set()
    for path in callers:
        roots |= references(ast.parse(path.read_text()))
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


def test_every_top_level_name_in_src_has_a_production_caller():
    callers = sorted((ROOT / "perfbench").glob("*.py"))
    assert callers, "perfbench/*.py not found"
    dead = unreferenced(ROOT / "src" / "specgrad", callers)
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
        "def live():\n    return LIMIT\n"
        "def patched():\n    pass\n"
        "class Used:\n    pass\n"
        "if __name__ == '__main__':\n    Used()\n"
    )
    caller.write_text("import pkg.mod\nfrom pkg.mod import helper\npkg.mod.live()\nx = 'patched'\n")
    assert unreferenced(package, [caller]) == {"mod.dead", "mod.helper"}


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
