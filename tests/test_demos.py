"""Smoke tests: every demo script runs to completion, and every name the
package exports exists."""

from pathlib import Path

import pytest

import fdikit
from conftest import run_python

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    # the RuntimeWarning rule of pyproject.toml, which pytest does not pass on
    proc = run_python("-W", "error::RuntimeWarning", str(demo), cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_export_list_names_each_attribute_once():
    # a name dropped from a module but left in __all__ breaks `from fdikit import *`
    assert [name for name in fdikit.__all__ if not hasattr(fdikit, name)] == []
    assert len(set(fdikit.__all__)) == len(fdikit.__all__)
