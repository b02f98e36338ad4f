"""The demos and the benchmark's self-test run to completion."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(path: Path, cwd: Path) -> None:
    # temporary files, such as demo 05's checkpoint, land in cwd too
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(cwd))
    out = subprocess.run([sys.executable, str(path)], cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]


@pytest.mark.parametrize("demo", sorted(path.name for path in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo, tmp_path):
    run_script(ROOT / "demos" / demo, tmp_path)
    # a demo cleans up after itself: nothing is left in its TMPDIR
    assert list(tmp_path.iterdir()) == []


def test_bench_selftest_passes(tmp_path):
    # the only check of what the benchmark reads from ucf: the report's
    # order key and the verifier names its timing shims wrap
    run_script(ROOT / "bench" / "selftest.py", tmp_path)


@pytest.mark.parametrize("tree", ["src", "tests", "demos", "bench"])
def test_sources_parse_as_python_3_10(tree):
    # the oldest Python the package supports: no newer syntax slips in
    for path in sorted((ROOT / tree).rglob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
