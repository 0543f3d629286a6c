"""Smoke tests keeping the examples runnable.

Every example runs end to end in a subprocess (each takes seconds), so
an API change that breaks one fails here, not only a compile check.
"""

import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

SCRIPTS = sorted(path.name for path in EXAMPLES.glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS)
def test_fast_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_compiles(script):
    py_compile.compile(str(EXAMPLES / script), doraise=True)


def test_quickstart_shows_an_overclock_cycle():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        capture_output=True, text=True, timeout=300)
    assert "overclocked" in result.stdout
    assert "turbo" in result.stdout
