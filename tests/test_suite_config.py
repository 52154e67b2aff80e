"""The suite's own pytest settings hold on the failure path too: one failing
test reports as a failure and the run goes on to the next test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert False


def test_passes():
    pass
'''


def test_a_failing_property_test_does_not_stop_the_run(tmp_path):
    # A failing @given test makes the Hypothesis plugin import libcst for its
    # patch hint; under filterwarnings "error" a DeprecationWarning raised by
    # that import became an INTERNALERROR that ended the run.
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY)
    out = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
                          "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
                          "-p", "no:benchmark", "-q", "test_probe.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout, out.stdout + out.stderr
