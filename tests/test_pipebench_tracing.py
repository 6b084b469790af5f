"""The traced pipeline benchmark's wrappers find every name they wrap.

``pipebench/tracing.py`` replaces functions and methods of the library
from outside, by attribute name, in each process it traces.  A library
name it wraps that is deleted or renamed would otherwise only break the
traced benchmark run.  Each role installs here in a fresh interpreter,
because the wrappers patch the library's modules and classes in place.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path.insert(0, sys.argv[1])
import tracing
tracing.install(tracing.Tracer(), sys.argv[2])
"""


@pytest.mark.parametrize("role", ("client", "server", "fleet"))
def test_tracing_installs_for_every_role(role):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, "-c", INSTALL, str(REPO_ROOT / "pipebench"), role],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, (
        f"tracing.install(..., {role!r}) failed:\n{completed.stderr[-2000:]}"
    )
