"""Import guard for the code tier-1 never runs: examples and benchmarks.

``examples/*.py`` and ``benchmarks/test_*.py`` run minutes to hours, so
the default suite never executes them; removing or renaming a public
name would otherwise break them silently.  Importing each example (its
``main()`` is not called) and collecting the benchmarks catches a
dangling import in a few seconds.
"""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_benchmarks_collect_without_errors():
    src = REPO_ROOT / "src"
    pythonpath = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", "benchmarks"],
        cwd=REPO_ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": pythonpath})
    assert out.returncode == 0, out.stdout + out.stderr
