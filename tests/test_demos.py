"""Smoke test: every script under demos/ runs to completion against the
package under test."""

import os
import subprocess
import sys

import pytest

from test_acceptance import _child_env

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("script", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs(script, tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, script)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_child_env(),
        timeout=600,
    )
    assert proc.returncode == 0, (
        f"{script} exited {proc.returncode}\n--- stdout ---\n{proc.stdout}"
        f"\n--- stderr ---\n{proc.stderr}"
    )
