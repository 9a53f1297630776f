"""The demos run to the end, and import only the public surface of the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(tmp_path, demo):
    # TMPDIR keeps any temporary directory a demo makes inside tmp_path
    src = str(Path(nsstab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path, timeout=300,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.glob("nsstab_demo_*")), "the demo left its temporary directory behind"
