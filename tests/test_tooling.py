"""Checks on the repository's own tooling and source, not on the mathematics."""

import ast
import contextlib
import io
import re
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


def library_modules():
    """(file name, syntax tree) of each module of the package."""
    paths = sorted(Path(pdescent.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    for path in paths:
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_library_has_no_assert_statements():
    # python -O strips assert, so a check written as one would vanish
    found = []
    for name, tree in library_modules():
        found += [f"{name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []


def test_library_imports_are_all_used():
    # a deletion that leaves its imports behind leaves dead names: every
    # module-level import must be read by the module or listed in __all__
    found = []
    for name, tree in library_modules():
        names = (n for n in ast.walk(tree) if isinstance(n, ast.Name))
        used = {n.id for n in names if isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= set(ast.literal_eval(node.value))
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    found.append(f"{name}:{node.lineno} {bound}")
    assert found == []


def test_readme_library_example_prints_what_it_says():
    # each print in README's python block ends with a comment giving its output line
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    expected = [line.rsplit("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert len(expected) == 3
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
