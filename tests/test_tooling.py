import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SUITE = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_hypothesis_fails(x):
    assert x < 0


def test_passes():
    pass


def test_plain_fails():
    assert False
"""


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    """Hypothesis' failure report imports libcst, whose DeprecationWarning the config must not turn into an INTERNALERROR."""
    (tmp_path / "test_suite.py").write_text(SUITE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "-q", "test_suite.py"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    output = done.stdout + done.stderr
    assert "2 failed, 1 passed" in output, output
    assert "INTERNALERROR" not in output
