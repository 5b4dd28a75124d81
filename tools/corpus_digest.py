"""Digest every benchmark corpus op's outcome, to compare two trees op by op.

    python3 tools/corpus_digest.py OUT_DIR [--workload W]... [--seed S]... [--warmup-only]

For each workload (default: all of ``bench/corpus.py``'s) and seed
(default: 0 to 3), writes the corpus under OUT_DIR/WORKLOAD/SEED and runs
its warm-up ops, then its ops, in this process through ``bench/worker.py``'s
``Runner.execute``, with fdikit imported from this checkout's ``src`` and
one BLAS thread, as the benchmark worker runs them.  Prints one line per op:

    WORKLOAD SEED OP-ID SHA256

A ``cli`` op hashes its exit code, stdout, stderr and the bytes of the
CSV it wrote, which is then deleted; any other op hashes the arrays or
values it returned; an op that raised hashes its exception's type and
message.  Each ``cli`` op is followed by a line for its id suffixed
``/argparse``: the outcome of the same argv with every option written
``--name=value``, a form that fdikit's plain reader leaves to argparse, so
the two lines of an op are equal when both readers read it alike.  Each
``distance`` op is followed by a line for its id suffixed ``/cli``: the
outcome of ``fdikit distance`` on the op's two attainable steps, written
under OUT_DIR as JSON ``{"levels"}`` vectors (floats exact by ``repr``).
``simulate`` and ``oracle`` print their CSV's path, so two trees
print equal lines only when both write into the same OUT_DIR: run this
tool from one checkout, then from the other with the same OUT_DIR, and
``diff`` the two outputs.  Nothing is written into the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True  # no __pycache__ in the checkout
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy loads, as bench/run.py sets it for its worker

import numpy as np  # noqa: E402

import corpus  # noqa: E402
import worker  # noqa: E402


def sha256(parts) -> str:
    """SHA-256 of byte strings, each framed by its length."""
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def equals_form(argv: list[str]) -> list[str]:
    """argv with each option and its value joined into one ``--name=value``;
    an option already joined stays as it is."""
    joined, tokens = [], iter(argv)
    for token in tokens:
        apart = token.startswith("--") and "=" not in token
        joined.append(f"{token}={next(tokens)}" if apart else token)
    return joined


def outcome(runner: worker.Runner, op) -> list[bytes]:
    """The byte strings that stand for one op's outcome."""
    try:
        out = runner.execute(op, runner.system(op["system"]))
    except Exception as exc:  # an op that raises has that as its outcome
        return [f"{type(exc).__name__}: {exc}".encode()]
    if op["kind"] == "cli":
        parts = [str(out["code"]).encode(), out["stdout"].encode(), out["stderr"].encode()]
        options = dict(t.split("=", 1) for t in equals_form(op["argv"]) if t.startswith("--"))
        if "--out" in options:
            with contextlib.suppress(FileNotFoundError):
                csv = Path(options["--out"])
                parts.append(csv.read_bytes())
                csv.unlink()
        return parts
    value = out["value"]
    if op["kind"] == "assemble":
        runner.attainable[op["id"]] = value  # the input of its distance ops
        arrays = (value.alphas, value.lo, value.hi)
    else:
        arrays = (np.asarray(value),)
    return [f"{a.dtype.str}{a.shape}".encode() + a.tobytes() for a in arrays]


def cli_distance(runner: worker.Runner, op, out_dir: Path) -> list[bytes]:
    """The outcome of ``fdikit distance`` on the two steps of a distance op,
    each written to ``out_dir`` as a list of ``{"levels"}`` components."""
    att = runner.attainable.get(op["source"])
    if att is None:
        return [f"input op {op['source']} did not succeed".encode()]
    files = []
    for side, step in zip("ab", op["steps"]):
        v = att.steps[step]
        doc = [{"levels": np.column_stack([v.alphas, lo, hi]).tolist()}
               for lo, hi in zip(v.lo.T, v.hi.T)]
        files.append(out_dir / f"{op['id']}-{side}.json")
        files[-1].write_text(json.dumps(doc))
    argv = ["distance", *map(str, files), "--metric", op["metric"]]
    return outcome(runner, {"kind": "cli", "system": op["system"], "argv": argv})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", type=Path,
                        help="corpus directory; give both trees the same one, as the "
                             "simulate and oracle ops print their CSV paths")
    parser.add_argument("--workload", action="append", choices=corpus.WORKLOADS,
                        help="a workload to run (repeatable; default: all)")
    parser.add_argument("--seed", action="append", type=int,
                        help="a corpus seed (repeatable; default: 0 1 2 3)")
    parser.add_argument("--warmup-only", action="store_true",
                        help="run only each corpus's warm-up ops")
    args = parser.parse_args(argv)
    for workload in args.workload or corpus.WORKLOADS:
        for seed in args.seed or range(4):
            out_dir = args.out_dir / workload / str(seed)
            manifest = corpus.generate(workload, seed, out_dir)
            runner = worker.Runner(tracer=None)
            ops = manifest["warmup"] + ([] if args.warmup_only else manifest["ops"])
            for op in ops:
                print(workload, seed, op["id"], sha256(outcome(runner, op)), flush=True)
                if op["kind"] == "cli":
                    argparse_op = dict(op, argv=equals_form(op["argv"]))
                    print(workload, seed, f"{op['id']}/argparse",
                          sha256(outcome(runner, argparse_op)), flush=True)
                if op["kind"] == "distance":
                    print(workload, seed, f"{op['id']}/cli",
                          sha256(cli_distance(runner, op, out_dir)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
