"""Smoke tests: every demo script runs to completion, and every name the
package exports exists."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fdikit

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    # the RuntimeWarning rule of pyproject.toml, which pytest does not pass on
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                          capture_output=True, text=True, env=env, timeout=60, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_export_list_names_each_attribute_once():
    # a name dropped from a module but left in __all__ breaks `from fdikit import *`
    assert [name for name in fdikit.__all__ if not hasattr(fdikit, name)] == []
    assert len(set(fdikit.__all__)) == len(fdikit.__all__)
