"""The package exports only what it, the README's library tour or the benchmark uses, and its modules
import only what they read."""

import ast
import re
from pathlib import Path
from typing import Optional

import blackwell_audit
from blackwell_audit import auditor, cli, decision, distortions, experiments, geometry

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blackwell_audit"

#: Names deleted because no audit, verification, reproduction or benchmark used them.
REMOVED = [
    "fully_informative", "uninformative", "point_mass", "is_mpc",
    "evaluate", "pushforward", "ErrorClass", "classify_error", "is_trivial_on_interior",
    "ValueResult", "value_function", "select_action", "welfare",
    "ConvexityViolation", "MIX_WEIGHTS", "convexity_violations",
    "StubbornSpec", "vertex_belief", "_segment_residual", "_REDECIDE", "binary_symmetric",
    "_images", "in_convex_hull", "_in_hull_barycentric", "_in_hull_lp", "_LP_SLACK",
    "solve_lp", "_min_sup_residual", "_optimize", "hull_gap", "_point_sets",
]
REMOVED_METHODS = [(geometry.Belief, "allclose"), (geometry.Belief, "face"), (geometry.Hyperplane, "value"),
                   (geometry.Belief, "is_interior"), (distortions.CoarseRule, "apply_scalar")]


def exports() -> list:
    """The names ``__init__.py`` imports from the package's modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]


def references(source: str) -> set:
    """Names and attributes the code reads, each outside its own top-level definition; a name
    it only imports is not read."""
    found = set()
    for node in ast.parse(source).body:
        names = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
        names.discard(getattr(node, "name", None))  # a definition that reads its own name is no use of it
        found |= names
    return found


def library_tour() -> str:
    """The Python block of README's library tour."""
    section = (ROOT / "README.md").read_text().split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


class TestDeadApi:
    def test_every_export_is_used(self):
        used = references(library_tour())
        for path in sorted((ROOT / "perfbench").glob("*.py")):
            used |= references(path.read_text())
        for path in sorted(PACKAGE.glob("*.py")):
            if path.name != "__init__.py":
                used |= references(path.read_text())
        unused = [name for name in exports() if name not in used]
        assert not unused, f"exported, but used by no module, no benchmark file and not the library tour: {unused}"

    def test_removed_names_are_gone(self):
        for module in (blackwell_audit, auditor, cli, decision, distortions, experiments, geometry):
            assert not [name for name in REMOVED if hasattr(module, name)], module.__name__
        assert not [name for owner, name in REMOVED_METHODS if hasattr(owner, name)]


def unread_imports(source: str) -> list:
    """The names the code imports (``__future__`` features aside) and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
    return sorted(imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


class TestUnusedImports:
    def test_every_module_reads_what_it_imports(self):
        # __init__.py imports to export; every other module imports only what it reads.
        unread = {path.name: unread_imports(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
        unread = {name: names for name, names in unread.items() if names and name != "__init__.py"}
        assert not unread, f"imported but never read: {unread}"

    def test_a_leftover_import_is_caught(self):
        source = (PACKAGE / "auditor.py").read_text()
        assert unread_imports(source) == []
        leftover = source.replace("from .distortions import (\n", "from .distortions import (\n    vertex_image_ok,\n", 1)
        assert unread_imports(leftover) == ["vertex_image_ok"]
        assert unread_imports("import numpy.linalg\nfrom math import pi as tau\n") == ["numpy", "tau"]


def callers(name: str, sources: Optional[dict] = None) -> set:
    """(file, top-level definition, line) of every call to a function or method named ``name``
    in ``sources`` (file name to source; by default every file of ``src/``)."""
    if sources is None:
        sources = {path.name: path.read_text() for path in sorted((ROOT / "src").rglob("*.py"))}
    found = set()
    for file, source in sources.items():
        for node in ast.parse(source).body:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and name in (getattr(sub.func, "attr", None), getattr(sub.func, "id", None)):
                    found.add((file, getattr(node, "name", None), sub.lineno))
    return found


class TestGateBoundary:
    def test_only_the_two_gates_call_apply_batch(self):
        # evaluate_batch and classify_batch check the prior, hand the rule a read-only X and check its images.
        found = callers("apply_batch")
        assert {(file, name) for file, name, _ in found} == {
            ("distortions.py", "evaluate_batch"),
            ("distortions.py", "classify_batch"),
        }, sorted(found)


def lp_imports(sources: Optional[dict] = None) -> set:
    """(file, line) of every import of ``linprog`` or of ``scipy.optimize._highspy`` in ``sources``
    (file name to source; by default every file of ``src/``)."""
    if sources is None:
        sources = {path.name: path.read_text() for path in sorted((ROOT / "src").rglob("*.py"))}
    found = set()
    for file, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
                if any(name == "linprog" or "_highspy" in name for name in names):
                    found.add((file, node.lineno))
    return found


class TestSolverBoundary:
    """No LP, and two least-squares witnesses: a new route to a solver shows up here."""

    def test_no_module_imports_an_lp_solver(self):
        assert not lp_imports()
        for path in sorted((ROOT / "src").rglob("*.py")):
            assert "_highspy" not in path.read_text(), path.name

    def test_only_the_two_witnesses_call_nnls(self):
        found = callers("nnls")
        assert {(file, name) for file, name, _ in found} == {
            ("geometry.py", "separating_hyperplane_sets"),
            ("experiments.py", "blackwell_dominates"),
        }, sorted(found)

    def test_a_new_route_is_caught(self):
        source = (PACKAGE / "geometry.py").read_text() + "\n\ndef probe():\n    return geometry.nnls(0, 0)\n"
        found = callers("nnls", {"geometry.py": source})
        assert {name for _, name, _ in found} == {"separating_hyperplane_sets", "probe"}
        for line in ("from scipy.optimize import linprog", "from scipy.optimize._highspy import _core",
                     "import scipy.optimize._highspy"):
            source = (PACKAGE / "geometry.py").read_text() + f"\n\ndef probe():\n    {line}\n"
            assert [file for file, _ in lp_imports({"geometry.py": source})] == ["geometry.py"], line
