"""The test set-up itself: a failing Hypothesis test fails alone."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

from conftest import cli_env

HERE = Path(__file__).resolve().parent

FAILING = '''
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None)
def test_fails(x):
    assert x < 5
'''


def test_failing_given_test_leaves_the_rest_of_the_run_going(tmp_path):
    # the run's files: this suite's conftest and pytest settings, one failing
    # @given test, then the histogram tests, which must still run and pass
    shutil.copy(HERE / "conftest.py", tmp_path / "conftest.py")
    shutil.copy(HERE.parent / "pyproject.toml", tmp_path / "pyproject.toml")
    (tmp_path / "test_a_fails.py").write_text(FAILING, encoding="utf-8")
    shutil.copy(HERE / "test_histogram.py", tmp_path / "test_histogram.py")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_a_fails.py",
         "test_histogram.py"],
        capture_output=True, text=True, cwd=tmp_path, env=cli_env())
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout
    assert proc.returncode == 1, proc.stdout
    assert re.search(r"^1 failed, [1-9][0-9]* passed", proc.stdout, re.M), proc.stdout
