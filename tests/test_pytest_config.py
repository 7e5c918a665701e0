"""The test configuration in pyproject.toml: every failure is reported, and
warnings raised by hdpaired stay errors."""

import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from hdpaired import matrixio

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_pytest(tmp_path, source):
    (tmp_path / "test_probe.py").write_text(source)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # Reporting a hypothesis failure must not raise inside pytest's hooks
    # (INTERNALERROR, exit code 3), and the tests after it must run.
    proc = run_pytest(tmp_path, (
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n\n"
        "def test_passes():\n"
        "    pass\n"))
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), proc.stdout
    assert proc.returncode == 1


def test_deprecation_warning_from_hdpaired_is_an_error():
    with pytest.raises(DeprecationWarning, match="mypy_extensions.TypedDict is used"):
        warnings.warn_explicit("mypy_extensions.TypedDict is used here", DeprecationWarning,
                               matrixio.__file__, 1, module=matrixio.__name__)
