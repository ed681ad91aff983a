"""Only production code in ``src/``: every top-level name there has a caller.

Each top-level def, class and constant of ``src/specgrad/*.py`` must be
referenced from production code: another module of the package, its own
module outside its own definition, or the benchmark scripts
``perfbench/*.py``.  ``__init__.py`` only re-exports, so it neither defines
nor references anything here.  A reference is a name, an attribute or a
string equal to the defined name; an import alone is none.  References made
inside a definition count only while that definition is itself referenced,
so the check iterates to a fixpoint: a helper used only by another unused
helper is caught too.  Code that only the tests use belongs in
``tests/reference.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign)


def references(node: ast.AST) -> set[str]:
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            refs.add(sub.value)
    return refs


def defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unreferenced(package: Path, callers: list[Path]) -> set[str]:
    """``module.name`` of every top-level definition of ``package`` that no
    live definition, no other top-level code and no caller file references."""
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
                bodies[(path.stem, name)] = references(stmt) - {name}
    live = set(bodies)
    while True:
        used = roots.union(*(bodies[key] for key in live))
        still = {key for key in live if key[1] in used}
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
