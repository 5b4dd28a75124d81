"""Command-line front end: JSON system files in, verdict JSON and CSV out.

Subcommands: analyze, simulate, oracle, distance.  Exit codes: 0 stable
verdicts / success, 1 input error, 2 falsified, 3 inconclusive,
4 sign-precondition violation, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .fdi_sim import (
    FuzzySystem,
    SignPreconditionError,
    envelope_propagate,
    level_matrix,
    mc_trajectories,
)
from .fuzzy_num import FuzzyVector, fuzzy_from_json, fuzzy_to_json
from .stability import StabilityStatus, analyze, member_radius_scan

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FALSIFIED = 2
EXIT_INCONCLUSIVE = 3
EXIT_PRECONDITION = 4
EXIT_IO = 5

#: Vertex budget of the oracle's spectral-radius report.
ORACLE_VERTEX_BUDGET = 1024


class SystemFileError(ValueError):
    """Malformed system file; the message names the offending JSON path."""


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SystemFileError(f"{path}: cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SystemFileError(f"{path}: not valid JSON: {exc}") from exc


def parse_system_obj(obj) -> tuple[FuzzySystem, np.ndarray | None]:
    """Build a FuzzySystem (and optional transform) from a parsed document."""
    if not isinstance(obj, dict):
        raise SystemFileError("top level: expected a JSON object")
    try:
        n = int(obj["n"])
    except KeyError:
        raise SystemFileError('top level: missing "n"') from None
    except (TypeError, ValueError):
        raise SystemFileError('"n": must be an integer') from None
    if n <= 0:
        raise SystemFileError('"n": must be positive')

    h_rows = obj.get("H")
    if not isinstance(h_rows, list) or len(h_rows) != n:
        raise SystemFileError(f'"H": expected {n} rows')
    h = []
    for i, row in enumerate(h_rows):
        if not isinstance(row, list) or len(row) != n:
            raise SystemFileError(f'"H"[{i}]: expected {n} entries')
        entries = []
        for j, cell in enumerate(row):
            try:
                entries.append(fuzzy_from_json(cell))
            except ValueError as exc:
                raise SystemFileError(f'"H"[{i}][{j}]: {exc}') from exc
        h.append(entries)

    x0_rows = obj.get("x0")
    if not isinstance(x0_rows, list) or len(x0_rows) != n:
        raise SystemFileError(f'"x0": expected {n} entries')
    x0 = []
    for i, cell in enumerate(x0_rows):
        try:
            x0.append(fuzzy_from_json(cell))
        except ValueError as exc:
            raise SystemFileError(f'"x0"[{i}]: {exc}') from exc

    kwargs = {}
    if "alphas" in obj:
        grid = obj["alphas"]
        if not isinstance(grid, list) or not all(isinstance(a, (int, float)) for a in grid):
            raise SystemFileError('"alphas": must be a list of numbers')
        kwargs["alphas"] = np.asarray(grid, dtype=float)

    try:
        system = FuzzySystem(h=h, x0=FuzzyVector(x0), **kwargs)
    except ValueError as exc:
        raise SystemFileError(str(exc)) from exc

    transform = None
    if "T" in obj:
        t_rows = obj["T"]
        if (not isinstance(t_rows, list) or len(t_rows) != n
                or any(not isinstance(r, list) or len(r) != n for r in t_rows)):
            raise SystemFileError(f'"T": expected an {n}x{n} matrix')
        transform = np.asarray(t_rows, dtype=float)
    return system, transform


def dump_system_obj(system: FuzzySystem, transform=None) -> dict:
    """Canonical JSON document for a system (round-trips through parse)."""
    out = {
        "n": system.n,
        "H": [[fuzzy_to_json(e) for e in row] for row in system.h],
        "x0": [fuzzy_to_json(c) for c in system.x0],
        "alphas": [float(a) for a in system.alphas],
    }
    if transform is not None:
        out["T"] = np.asarray(transform, dtype=float).tolist()
    return out


def load_system(path: str) -> tuple[FuzzySystem, np.ndarray | None]:
    return parse_system_obj(_load_json(path))


def _parse_alpha_list(text: str) -> np.ndarray:
    try:
        return np.asarray([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise SystemFileError(f"--alphas: cannot parse {text!r}") from None


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
    system, _ = load_system(args.file)
    if args.alphas:
        system = FuzzySystem(h=system.h, x0=system.x0,
                             alphas=_parse_alpha_list(args.alphas))
    try:
        trajectories = [envelope_propagate(system, a, args.k) for a in system.alphas]
    except SignPreconditionError as exc:
        print(f"precondition violated ({exc.condition}): {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("k,alpha,i,lo,hi\n")
            for k in range(args.k + 1):
                for tr in trajectories:
                    box = tr.steps[k]
                    for i in range(box.n):
                        fh.write(f"{k},{_fmt(tr.alpha)},{i + 1},"
                                 f"{_fmt(box.lo[i])},{_fmt(box.hi[i])}\n")
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    summary = {
        "k": args.k,
        "out": args.out,
        "final_widths": [
            {"alpha": float(tr.alpha), "width": tr.steps[-1].width.tolist()}
            for tr in trajectories
        ],
    }
    print(json.dumps(summary))
    return EXIT_OK


def cmd_oracle(args) -> int:
    system, _ = load_system(args.file)
    runs = mc_trajectories(system, alpha=0.0, horizon=args.k, n=args.n,
                           seed=args.seed, mode=args.mode)
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("run,k,i,value\n")
            for r in range(runs.shape[0]):
                for k in range(runs.shape[1]):
                    for i in range(runs.shape[2]):
                        fh.write(f"{r + 1},{k},{i + 1},{_fmt(runs[r, k, i])}\n")
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO

    report = {"n_trajectories": args.n, "k": args.k, "mode": args.mode,
              "out": args.out}
    try:
        envelope = envelope_propagate(system, 0.0, args.k)
    except SignPreconditionError as exc:
        report["containment"] = None
        report["containment_skipped"] = str(exc)
    else:
        lo = envelope.lo_array()[np.newaxis]
        hi = envelope.hi_array()[np.newaxis]
        below = np.maximum(lo - runs, 0.0)
        above = np.maximum(runs - hi, 0.0)
        violation = np.maximum(below, above)
        outside = int(np.count_nonzero(violation.max(axis=2) > 1e-12))
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
    if isinstance(obj, dict):
        return FuzzyVector([fuzzy_from_json(obj)])
    if isinstance(obj, list):
        try:
            return FuzzyVector([fuzzy_from_json(cell) for cell in obj])
        except ValueError as exc:
            raise SystemFileError(f"{path}: {exc}") from exc
    raise SystemFileError(f"{path}: expected a fuzzy number or a list of them")


def cmd_distance(args) -> int:
    from .metrics import d_fuzzy_vec

    x = _load_fuzzy_vector(args.file_a)
    y = _load_fuzzy_vector(args.file_b)
    if x.n != y.n:
        print(f"dimension mismatch: {x.n} vs {y.n}", file=sys.stderr)
        return EXIT_INPUT
    print(_fmt(d_fuzzy_vec(x, y, which=args.metric)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
    except SystemFileError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SignPreconditionError as exc:
        print(f"precondition violated ({exc.condition}): {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
