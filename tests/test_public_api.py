"""Every public name of nsstab is used by the program, not only by the tests,
every private module-level name is used inside the package, every error
class is named by a test, every third-party module the tests import is a
declared dependency, and every cross-reference in a docstring of nsstab
names something that exists."""

import ast
import importlib
import re
import sys
import tomllib
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import nsstab

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "nsstab").glob("*.py"))


def public_definitions(path: Path) -> list[str]:
    """The module's functions and classes, and its classes' methods and
    properties, whose names do not start with an underscore."""
    names = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body if isinstance(item, ast.FunctionDef)]
    return [name for name in names if not name.startswith("_")]


def test_every_public_name_is_used_outside_the_tests():
    """A public name appears, as a whole word, somewhere in src/nsstab, the
    demos or pyproject.toml besides its own definitions."""
    corpus = "\n".join(path.read_text() for path in
                       [*SOURCES, *sorted((ROOT / "demos").rglob("*.py")), ROOT / "pyproject.toml"])
    unused = sorted({
        name for path in SOURCES for name in public_definitions(path)
        if len(re.findall(rf"\b{name}\b", corpus)) <= len(re.findall(rf"\b(?:def|class)\s+{name}\b", corpus))
    })
    assert unused == [], f"public names that only tests use: {unused}"


def private_definitions(path: Path) -> list[str]:
    """The module's top-level functions, classes and assigned names that
    start with an underscore but are not dunders."""
    names = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_module_name_is_used_in_the_package():
    """A private module-level function, class or constant appears, as a whole
    word, somewhere in src/nsstab besides its own definitions, so a refactor
    cannot leave an orphaned helper behind."""
    corpus = "\n".join(path.read_text() for path in SOURCES)
    definitions = Counter(name for path in SOURCES for name in private_definitions(path))
    unused = sorted(name for name, count in definitions.items()
                    if len(re.findall(rf"\b{name}\b", corpus)) <= count)
    assert unused == [], f"private names that nothing in src/nsstab uses: {unused}"


REPORTS = ("RapidStabReport", "NullControlReport", "StabilityProbe")


def test_every_report_field_is_read_by_the_program():
    """Each field of the experiment reports appears as `.field` or `"field"`
    somewhere in src/nsstab or the demos outside its own class, so a report
    carries nothing that only the tests read."""
    path = ROOT / "src" / "nsstab" / "experiments.py"
    source = path.read_text()
    lines = source.splitlines()
    others = "\n".join(p.read_text() for p in [*SOURCES, *sorted((ROOT / "demos").rglob("*.py"))] if p != path)
    unread = []
    for node in ast.parse(source, filename=str(path)).body:
        if isinstance(node, ast.ClassDef) and node.name in REPORTS:
            corpus = "\n".join([others, *lines[: node.lineno - 1], *lines[node.end_lineno:]])
            fields = [item.target.id for item in node.body if isinstance(item, ast.AnnAssign)]
            unread += [f"{node.name}.{name}" for name in fields if not re.search(rf'\.{name}\b|"{name}"', corpus)]
    assert unread == [], f"report fields that nothing in src/nsstab or the demos reads: {unread}"


def test_every_error_class_is_named_by_a_test():
    """Each exception class of nsstab/errors.py appears, as a whole word, in
    some file under tests/, so that no error type is left that no test
    raises or expects."""
    errors = ROOT / "src" / "nsstab" / "errors.py"
    classes = [node.name for node in ast.parse(errors.read_text(), filename=str(errors)).body
               if isinstance(node, ast.ClassDef)]
    corpus = "\n".join(path.read_text() for path in sorted((ROOT / "tests").rglob("*.py")))
    unnamed = [name for name in classes if not re.search(rf"\b{name}\b", corpus)]
    assert unnamed == [], f"exception classes that no test names: {unnamed}"


def test_every_third_party_module_the_tests_import_is_declared():
    """A module imported anywhere under tests/ is in the standard library,
    local (nsstab, oracle, conftest), or named by a requirement of
    pyproject.toml's dependencies or its test extra, so that an install
    with the test extra collects every test module."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", requirement).group().lower().replace("-", "_")
                for requirement in [*project["dependencies"], *project["optional-dependencies"]["test"]]}
    imported = set()
    for path in sorted((ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    undeclared = sorted(imported - set(sys.stdlib_module_names) - {"nsstab", "oracle", "conftest"} - declared)
    assert undeclared == [], f"modules the tests import that pyproject.toml does not declare: {undeclared}"


def _resolves(target: str, scopes) -> bool:
    """Whether the dotted target is an attribute path of one of the scopes."""
    missing = object()
    for scope in scopes:
        obj = scope
        for part in target.split("."):
            obj = getattr(obj, part, missing)
            if obj is missing:
                break
        else:
            return True
    return False


def test_every_docstring_cross_reference_resolves():
    """Each :func:, :class:, :meth: and :attr: reference in a docstring of
    src/nsstab names something that exists: found from the docstring's
    module, from the nsstab package (a target may start with nsstab.), or,
    for an undotted name, on the class that encloses the docstring."""
    package = SimpleNamespace(nsstab=nsstab)
    unresolved = []
    for path in SOURCES:
        module = importlib.import_module(f"nsstab.{path.stem}")

        def visit(node, cls):
            if isinstance(node, ast.ClassDef) and cls is None:
                cls = getattr(module, node.name, None)
            doc = ast.get_docstring(node, clean=False) if isinstance(
                node, (ast.Module, ast.ClassDef, ast.FunctionDef)) else None
            for target in re.findall(r":(?:func|class|meth|attr):`~?([^`]+)`", doc or ""):
                scopes = [module, nsstab, package] + ([cls] if cls is not None and "." not in target else [])
                if not _resolves(target, scopes):
                    unresolved.append(f"{path.name}:{getattr(node, 'lineno', 1)} {target}")
            for child in ast.iter_child_nodes(node):
                visit(child, cls)

        visit(ast.parse(path.read_text(), filename=str(path)), None)
    assert unresolved == [], f"docstring references that name nothing: {unresolved}"
