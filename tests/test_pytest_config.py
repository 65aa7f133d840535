"""The repository's pytest settings on a failing Hypothesis test: with
warnings as errors, the run still reports the falsifying example and
exits 1, not with an internal error."""

import subprocess
import sys
from pathlib import Path

INI = Path(__file__).parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
'''


def test_a_failing_hypothesis_test_shows_its_example(tmp_path):
    "A falsified property fails as a test, with its example in the report."
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(INI), "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
