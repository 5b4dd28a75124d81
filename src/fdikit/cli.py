"""Command-line front end: JSON system files in, verdict JSON and CSV out.

Subcommands: analyze, simulate, oracle, distance.  Exit codes: 0 stable
verdicts / success, 1 input error (a malformed file or a bad argument),
2 falsified, 3 inconclusive, 4 sign-precondition violation, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .fdi_sim import (
    DEFAULT_ALPHAS,
    FuzzySystem,
    SignPreconditionError,
    envelope_endpoints,
    level_matrix,
    mc_trajectories,
)
from .fuzzy_num import FuzzyVector
from .metrics import d_fuzzy_vec
from .stability import StabilityStatus, analyze, member_radius_scan

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FALSIFIED = 2
EXIT_INCONCLUSIVE = 3
EXIT_PRECONDITION = 4
EXIT_IO = 5

#: Vertex budget of the oracle's spectral-radius report.
ORACLE_VERTEX_BUDGET = 1024


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _write_csv(path: str, header: str, keys, n: int, blocks) -> bool:
    """Write ``header``, then per ``(label, values)`` of ``blocks`` rows ``label,key,i,v...``
    (keys outer, i = 1..n inner, values in C order as ``%.12g``); False on I/O failure."""
    fields = ",%.12g" * (header.count(",") - 2)
    body = "\n".join(f"{key},{i}{fields}" for key in keys for i in range(1, n + 1))
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(header)
            for label, values in blocks:
                template = f"{label}," + body.replace("\n", f"\n{label},") + "\n"
                fh.write(template % tuple(values.ravel().tolist()))
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"{path}: cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc


def parse_system_obj(obj) -> tuple[FuzzySystem, np.ndarray | None]:
    """Build a FuzzySystem (and optional transform) from a parsed document.

    A malformed document raises ValueError naming the offending JSON path.
    """
    if not isinstance(obj, dict):
        raise ValueError("top level: expected a JSON object")
    if "n" not in obj:
        raise ValueError('top level: missing "n"')
    n = obj["n"]
    # JSON true is a Python int and 2.5 truncates under int(); reject both.
    if isinstance(n, bool) or not (isinstance(n, int) or isinstance(n, float) and n.is_integer()):
        raise ValueError('"n": must be an integer')
    n = int(n)
    if n <= 0:
        raise ValueError('"n": must be positive')

    h_rows = obj.get("H")
    if not isinstance(h_rows, list) or len(h_rows) != n:
        raise ValueError(f'"H": expected {n} rows')
    for i, row in enumerate(h_rows):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f'"H"[{i}]: expected {n} entries')
    x0_rows = obj.get("x0")
    if not isinstance(x0_rows, list) or len(x0_rows) != n:
        raise ValueError(f'"x0": expected {n} entries')

    alphas = obj.get("alphas", DEFAULT_ALPHAS.tolist())
    if not isinstance(alphas, list) or not all(isinstance(a, (int, float)) for a in alphas):
        raise ValueError('"alphas": must be a list of numbers')
    system = FuzzySystem(h=h_rows, x0=x0_rows, alphas=alphas)

    transform = None
    if "T" in obj:
        t_rows = obj["T"]
        if (not isinstance(t_rows, list) or len(t_rows) != n
                or any(not isinstance(r, list) or len(r) != n for r in t_rows)):
            raise ValueError(f'"T": expected an {n}x{n} matrix')
        try:
            transform = np.asarray(t_rows, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f'"T": {exc}') from None
    return system, transform


def load_system(path: str) -> tuple[FuzzySystem, np.ndarray | None]:
    return parse_system_obj(_load_json(path))


# -- subcommands ----------------------------------------------------------------

def cmd_analyze(args) -> int:
    system, transform = load_system(args.file)
    verdict = analyze(level_matrix(system, 0.0), t=transform,
                      n_samples=args.n, seed=args.seed)
    print(json.dumps(verdict.to_json_obj()))
    if verdict.is_stable:
        return EXIT_OK
    if verdict.status is StabilityStatus.FALSIFIED:
        return EXIT_FALSIFIED
    return EXIT_INCONCLUSIVE


def cmd_simulate(args) -> int:
    doc = _load_json(args.file)
    if args.alphas and isinstance(doc, dict):
        try:
            doc["alphas"] = [float(v) for v in args.alphas.split(",")]
        except ValueError:
            raise ValueError(f"--alphas: cannot parse {args.alphas!r}") from None
    system, _ = parse_system_obj(doc)
    lo, hi = envelope_endpoints(system, system.alphas, args.k)
    steps = ((k, np.stack((lo[k], hi[k]), axis=-1)) for k in range(args.k + 1))
    if not _write_csv(args.out, "k,alpha,i,lo,hi\n", map(_fmt, system.alphas), system.n, steps):
        return EXIT_IO
    summary = {
        "k": args.k,
        "out": args.out,
        "final_widths": [{"alpha": a, "width": w}
                         for a, w in zip(system.alphas.tolist(), (hi[-1] - lo[-1]).tolist())],
    }
    print(json.dumps(summary))
    return EXIT_OK


def cmd_oracle(args) -> int:
    system, _ = load_system(args.file)
    runs = mc_trajectories(system, alpha=0.0, horizon=args.k, n=args.n,
                           seed=args.seed, mode=args.mode)
    if not _write_csv(args.out, "run,k,i,value\n", range(args.k + 1), system.n,
                      enumerate(runs, 1)):
        return EXIT_IO

    report = {"n_trajectories": args.n, "k": args.k, "mode": args.mode,
              "out": args.out}
    try:
        lo, hi = envelope_endpoints(system, 0.0, args.k)
    except SignPreconditionError as exc:
        report["containment"] = None
        report["containment_skipped"] = str(exc)
    else:
        violation = lo - runs
        np.maximum(violation, runs - hi, out=violation)
        np.maximum(violation, 0.0, out=violation)
        # A NaN violation (an overflowed envelope) counts as outside.
        outside = int(np.count_nonzero(~(violation.max(axis=2) <= 1e-12)))
        report["containment"] = {
            "points_checked": int(runs.shape[0] * runs.shape[1]),
            "inside": int(runs.shape[0] * runs.shape[1]) - outside,
            "outside": outside,
            "max_violation": float(violation.max()),
        }

    scan = member_radius_scan(level_matrix(system, 0.0), args.n, args.seed,
                              ORACLE_VERTEX_BUDGET)
    report["spectral_radius"] = {
        "max": scan.max_radius,
        "count_exceeding_one": scan.n_above_one,
        "n_checked": scan.n_checked,
    }
    print(json.dumps(report))
    return EXIT_OK


def _load_fuzzy_vector(path: str) -> FuzzyVector:
    obj = _load_json(path)
    try:
        return FuzzyVector(obj if isinstance(obj, list) else [obj])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def cmd_distance(args) -> int:
    x = _load_fuzzy_vector(args.file_a)
    y = _load_fuzzy_vector(args.file_b)
    if x.n != y.n:
        print(f"dimension mismatch: {x.n} vs {y.n}", file=sys.stderr)
        return EXIT_INPUT
    print(_fmt(d_fuzzy_vec(x, y, which=args.metric)))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="fdikit",
        description="Stability analysis and level-wise simulation of linear "
                    "stationary fuzzy systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the stability criteria on a system file")
    p.add_argument("file")
    p.add_argument("--n", type=int, default=1000, help="falsifier sample count")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="write per-level envelope boxes as CSV")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=10, help="horizon (number of steps)")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--alphas", default=None,
                   help="comma-separated grid override, e.g. 0,0.5,1")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", help="sample member trajectories and check them")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=10, help="horizon (number of steps)")
    p.add_argument("--n", type=int, default=1000, help="trajectory count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("constant", "timevarying"), default="constant")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("distance", help="distance between two fuzzy numbers/vectors")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--metric", choices=("membership", "levelwise"),
                   default="membership")
    p.set_defaults(func=cmd_distance)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SignPreconditionError as exc:
        print(f"precondition violated ({exc.condition}): {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:
        # fdikit raises ValueError for every malformed input and bad argument
        # value, such as --k -1 or --n 0 with no member left to check.
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
