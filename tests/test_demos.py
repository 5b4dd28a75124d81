"""Smoke tests: every demo script runs to completion, and every name the
package exports exists, is declared by the layer that defines it and is used."""

import re
from pathlib import Path

import pytest

import fdikit
from conftest import run_python
from fdikit import fdi_sim, fuzzy_num, interval_linalg, metrics, stability

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
LAYERS = [fuzzy_num, metrics, interval_linalg, stability, fdi_sim]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    # the warning rules of pyproject.toml, which pytest does not pass on; a -W
    # module field is matched literally, so these leave it empty
    flags = [f"-Werror::{w}" for w in ("RuntimeWarning", "DeprecationWarning",
                                        "PendingDeprecationWarning", "FutureWarning")]
    proc = run_python(*flags, str(demo), cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_export_list_names_each_attribute_once():
    # a name dropped from a module but left in __all__ breaks `from fdikit import *`
    assert [name for name in fdikit.__all__ if not hasattr(fdikit, name)] == []
    assert len(set(fdikit.__all__)) == len(fdikit.__all__)


def test_each_layer_exports_its_own_names_and_each_is_used():
    # a public name is declared once, in the __all__ of the module that defines it
    names = [name for layer in LAYERS for name in layer.__all__]
    assert [(layer.__name__, name) for layer in LAYERS for name in layer.__all__
            if getattr(vars(layer).get(name), "__module__", None) != layer.__name__] == []
    assert len(set(names)) == len(names) and fdikit.__all__ == sorted(names)
    # and the CLI, a demo or a test other than this one uses it
    users = [ROOT / "src" / "fdikit" / "cli.py", *DEMOS, *(ROOT / "tests").glob("*.py")]
    text = "\n".join(p.read_text() for p in users if p != Path(__file__).resolve())
    assert [name for name in names if not re.search(rf"\b{name}\b", text)] == []
