"""The repository's pytest configuration itself."""

import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 5
'''


def test_failing_property_test_is_reported_not_internal_error(tmp_path):
    # With warnings as errors, a failing @given test must fail like any
    # other test: Hypothesis's failure report imports libcst, whose
    # deprecation warning once stopped pytest with INTERNALERROR (exit 3)
    # and left the tests after it unrun.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(REPO_ROOT / "pyproject.toml"), "--rootdir",
         str(tmp_path), str(tmp_path / "test_property.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert proc.returncode == 1, out
    assert "1 failed" in out, out
