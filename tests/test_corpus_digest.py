"""Smoke test of tools/corpus_digest.py, the op-by-op comparison of two trees."""

import json
import re
from pathlib import Path

from conftest import run_python

ROOT = Path(__file__).resolve().parent.parent


def test_digest_prints_one_line_per_warmup_op(tmp_path):
    argv = [str(ROOT / "tools" / "corpus_digest.py"), str(tmp_path),
            "--workload", "envelope-levels", "--seed", "0", "--warmup-only"]
    runs = [run_python(*argv, cwd=tmp_path, timeout=120) for _ in range(2)]
    for proc in runs:
        assert (proc.returncode, proc.stderr) == (0, "")
    manifest = json.loads((tmp_path / "envelope-levels" / "0" / "manifest.json").read_text())
    lines = [line.split(" ") for line in runs[0].stdout.splitlines()]
    # a cli op is followed by its argv read by argparse, a distance op by its
    # run through the command line
    follow = {"cli": ["/argparse"], "distance": ["/cli"]}
    ids = [op["id"] + suffix for op in manifest["warmup"]
           for suffix in [""] + follow.get(op["kind"], [])]
    assert [line[:3] for line in lines] == [["envelope-levels", "0", i] for i in ids]
    assert [i for i in ids if "/" in i] == [
        "warm-an-nonneg/argparse", "warm-an-unstable/argparse", "warm-sim/argparse",
        "warm-or/argparse", "warm-dist-m/cli", "warm-dist-l/cli"]
    assert all(re.fullmatch("[0-9a-f]{64}", line[3]) for line in lines)
    # both readers read each command line alike
    digests = {line[2]: line[3] for line in lines}
    assert all(digests[i] == digests[i.removesuffix("/argparse")]
               for i in ids if i.endswith("/argparse"))
    # the same directory gives the same digests; every CSV was read and deleted
    assert runs[1].stdout == runs[0].stdout
    assert list(tmp_path.rglob("*.csv")) == []
