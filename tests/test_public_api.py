"""The package exports only what it, the README's library tour or the benchmark uses."""

import ast
import re
from pathlib import Path

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
    "StubbornSpec", "vertex_belief", "_segment_residual", "_REDECIDE",
]
REMOVED_METHODS = [(geometry.Belief, "allclose"), (geometry.Belief, "face"), (geometry.Hyperplane, "value")]


def exports() -> list:
    """The names ``__init__.py`` imports from the package's modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]


def references(source: str, imports: bool = False) -> set:
    """Names and attributes the code reads, each outside its own top-level definition;
    with ``imports``, the names it imports too."""
    found = set()
    for node in ast.parse(source).body:
        names = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif imports and isinstance(sub, ast.ImportFrom):
                names.update(alias.name for alias in sub.names)
        names.discard(getattr(node, "name", None))  # a definition that reads its own name is no use of it
        found |= names
    return found


def library_tour() -> str:
    """The Python block of README's library tour."""
    section = (ROOT / "README.md").read_text().split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


class TestDeadApi:
    def test_every_export_is_used(self):
        used = references(library_tour(), imports=True)
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


class TestGateBoundary:
    def test_only_the_two_gates_call_apply_batch(self):
        # evaluate_batch and classify_batch check the prior, hand the rule a read-only X and check its images.
        callers = set()
        for path in sorted((ROOT / "src").rglob("*.py")):
            for node in ast.parse(path.read_text()).body:
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute) and sub.func.attr == "apply_batch":
                        callers.add((path.name, getattr(node, "name", None), sub.lineno))
        assert {(file, name) for file, name, _ in callers} == {
            ("distortions.py", "evaluate_batch"),
            ("distortions.py", "classify_batch"),
        }, sorted(callers)
