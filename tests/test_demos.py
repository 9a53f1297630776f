"""The demos import only the public surface of the package."""

import ast
from pathlib import Path

import nsstab

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demo_imports_from_nsstab_are_exported():
    assert DEMOS
    for demo in DEMOS:
        tree = ast.parse(demo.read_text(), filename=str(demo))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "nsstab":
                for alias in node.names:
                    assert alias.name in nsstab.__all__, f"{demo.name} imports {alias.name}"
                    assert hasattr(nsstab, alias.name), f"{demo.name} imports {alias.name}"
