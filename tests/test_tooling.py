"""Checks on the repository's own tooling and source, not on the mathematics."""

import ast
import subprocess
import sys
from pathlib import Path

import pdescent

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    # the benchmark reaches library names (functions it wraps, methods it
    # patches, metrics it reads); renaming one must fail here, not only there
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--self-test"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_library_has_no_assert_statements():
    # python -O strips assert, so a check written as one would vanish
    paths = sorted(Path(pdescent.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []
