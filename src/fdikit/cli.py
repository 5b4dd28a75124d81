"""Command-line front end: JSON system files in, verdict JSON and CSV out.

Subcommands: analyze, simulate, oracle, distance.  Exit codes: 0 stable
verdicts / success, 1 input error (a malformed file, a usage error, a bad
argument or an array too large to allocate), 2 falsified, 3 inconclusive,
4 sign-precondition violation, 5 I/O failure.  Subcommands return 0, 2 or 3;
:func:`main` alone turns a failure into exit code 1, 4 or 5 and one line on
stderr.
"""

from __future__ import annotations

import functools
import json
import sys
from types import SimpleNamespace

import numpy as np

from .fdi_sim import (
    DEFAULT_ALPHAS,
    FuzzySystem,
    SignPreconditionError,
    envelope_endpoints,
    level_matrix,
    mc_trajectories,
)
from .fuzzy_num import FuzzyVector, _floats
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


# -- CSV output ------------------------------------------------------------------
#
# A value prints into a NUL-padded field of five 8-byte words whose NULs are
# deleted before writing.  Byte 2 holds the sign and bytes 3-7 a "0.000"
# prefix; words 1-3 hold the 12 significant digits at the even bytes, each
# with a slot for a dot after it; word 4 holds an "e+XX" suffix, and its last
# byte the CSV separator.

#: Rows per chunk of the CSV writer.  With two value columns a chunk holds about
#: 0.3 KB per row at its peak, so 2,048 rows take about 0.6 MB, plus one label block.
CSV_CHUNK_ROWS = 2048
_FIELD = 40  # bytes; no '%.12g' string is longer than 19
_E_MIN, _E_MAX = -280, 280  # decimal exponents of the fast path (1e-280 <= |x| <= 1e280)


def _words(chunks, width: int = 8) -> np.ndarray:
    # byte strings, each NUL-padded to ``width``, as uint64 words
    return np.frombuffer(b"".join(c.ljust(width, b"\0") for c in chunks), np.uint64)


@functools.cache
def _g12_tables():
    """Tables of :func:`_g12_fields`, built on first use; each is indexed by
    e - _E_MIN for a decimal exponent e, or by a 4-digit group q.

    ``scale`` is 10^(11 - e) correctly rounded; ``suffix`` the exponent
    suffix (none when e prints in fixed notation); ``layout`` the first
    template row of e's layout class (e + 4 for fixed notation, 16 for
    exponent notation); ``quads`` the 4 ASCII digits of q, each followed by
    0xFF; ``zeros`` the trailing zeros of those digits.  Row ``(neg * 17 +
    class) * 12 + m - 1`` of ``template`` is the field of m significant
    digits, sign ``neg``, in that class: its literals, 0xFF at each digit
    slot kept and 0 at each digit slot dropped.
    """
    exps = range(_E_MIN, _E_MAX + 1)
    classes = [e + 4 if -4 <= e < 12 else 16 for e in exps]  # '%g' prints fixed for these e
    scale = np.array([float(f"1e{11 - e}") for e in exps])
    suffix = _words(b"" if c < 16 else f"e{e:+03d}".encode() for e, c in zip(exps, classes))
    layout = 12 * np.array(classes)
    q = np.arange(10000, dtype=np.uint16)
    quads = np.full((q.size, 8), 0xFF, np.uint8)
    zeros = np.zeros(q.size, np.uint8)
    for j, unit in enumerate((1000, 100, 10, 1)):
        quads[:, 2 * j] = q // unit % 10 + ord("0")
        zeros += q % (10 * unit) == 0
    quads = quads.view(np.uint64).ravel()
    fields = []
    for sign in (b"\0", b"-"):
        for cls in range(17):
            e = cls - 4
            prefix = b"0." + b"0" * (-e - 1) if e < 0 else b""
            kept = 0 if e < 0 or cls == 16 else e + 1  # integer digits, zeros included
            point = 0 if cls == 16 else e  # the digit a dot follows
            for m in range(1, 13):
                body = b"".join((b"\xff" if j < max(m, kept) else b"\0")
                                + (b"." if j == point < m - 1 else b"\0") for j in range(12))
                fields.append(b"\0\0" + sign + prefix.ljust(5, b"\0") + body)
    template = _words(fields, _FIELD).reshape(len(fields), -1)
    return scale, suffix, layout, quads, zeros, template


def _g12_fields(x: np.ndarray) -> np.ndarray:
    """``'%.12g' % v`` of each value of the 1-D float array x, as the rows of
    an (x.size, _FIELD) uint8 array padded with NULs (the last byte a NUL).

    s = |x| * 10^(11 - e), e = floor(log10 |x|), takes two roundings, so it is
    within 2^-52 * s < 2.3e-4 of |x| / 10^(e - 11).  Where s lies in
    [10^11, 10^12 - 1) and |s - rint(s)| <= 1/2 - 2^-10 (at least 2^-10 from
    a half-integer; s - rint(s) is exact, as s < 2^40), rint(s) is therefore
    the correctly rounded digit string at exponent e.  Every other value
    (zero, inf, NaN, |x| outside [1e-280, 1e280], near-ties and power-of-ten
    edges where e is off by one) is formatted by '%' itself.
    """
    scale, suffix, layout, quads, zeros, template = _g12_tables()
    s = np.abs(x)
    fast = (s >= 1e-280) & (s <= 1e280)  # false for 0, inf and NaN
    s[~fast] = 1.0
    e = np.floor(np.log10(s)).astype(np.intp)
    e -= _E_MIN  # out of range only where s is then out of range too
    s *= scale.take(e, mode="clip")
    digits = np.rint(s)
    fast &= (s >= 1e11) & (s < 1e12 - 1) & (np.abs(s - digits) <= 0.5 - 2.0 ** -10)
    slow = None if fast.all() else np.flatnonzero(~fast)
    if slow is not None:
        digits[slow] = 1e11  # in-range digits for the rows that '%' overwrites
    digits = digits.astype(np.int64)
    high = digits // 10 ** 4  # the 4-digit groups q0, q1, q2, high to low
    q2 = digits - high * 10 ** 4
    q0 = high // 10 ** 4
    q1 = high - q0 * 10 ** 4
    del s, digits, high  # not needed below, where a chunk's memory peaks
    z0, z1, z2 = zeros.take(q0), zeros.take(q1), zeros.take(q2)
    # a group of 0000 adds the zeros of the group above it
    key = layout.take(e, mode="clip") + 11 - (z2 + (z2 == 4) * (z1 + (z1 == 4) * z0))
    key += np.signbit(x) * (17 * 12)
    out = template.take(key, axis=0)
    for j, q in enumerate((q0, q1, q2), 1):
        out[:, j] &= quads.take(q)
    out[:, 4] = suffix.take(e, mode="clip")
    out = out.view(np.uint8)
    if slow is not None:
        text = ["%.12g" % v for v in x[slow].tolist()]
        out[slow] = np.array(text, f"S{_FIELD}").view(np.uint8).reshape(-1, _FIELD)
    return out


def _ascii_rows(items) -> np.ndarray:
    # "item," for each item, as the NUL-padded rows of a uint8 array
    text = np.array([f"{item}," for item in items], dtype=np.bytes_)
    return text.view(np.uint8).reshape(text.size, -1)


def _write_csv(path: str, header: str, labels, keys, columns) -> None:
    """Write ``header``, then a row ``label,key,i,v...`` per entry of the
    (len(labels), len(keys), n) arrays ``columns`` (labels outer, i = 1..n
    inner, one value of each column as ``%.12g``), CSV_CHUNK_ROWS rows at a
    time.  An I/O failure raises OSError("cannot write <path>: <error>").

    The ``key,i,`` prefixes of one label's B = len(keys) * n rows, its block,
    are the same for every label and are built once; row r takes label
    r // B and block row r % B."""
    n = columns[0].shape[-1]
    flat = [np.ravel(c) for c in columns]
    outer, middle, inner = (_ascii_rows(items) for items in (labels, keys, range(1, n + 1)))
    block = np.empty((len(middle), n, middle.shape[1] + inner.shape[1]), np.uint8)
    block[..., :middle.shape[1]] = middle[:, None]
    block[..., middle.shape[1]:] = inner
    block = block.reshape(len(middle) * n, -1)
    width = outer.shape[1] + block.shape[1]
    seps = np.array([ord(",")] * (len(flat) - 1) + [ord("\n")], np.uint8)
    try:
        with open(path, "wb") as fh:
            fh.write(header.encode())
            for start in range(0, flat[0].size, CSV_CHUNK_ROWS):
                stop = min(start + CSV_CHUNK_ROWS, flat[0].size)
                chunk = np.empty((stop - start, width + len(flat) * _FIELD), np.uint8)
                label, row = np.divmod(np.arange(start, stop), len(block))
                chunk[:, :outer.shape[1]] = outer.take(label, axis=0)
                chunk[:, outer.shape[1]:width] = block.take(row, axis=0)
                del label, row  # the chunk's memory peaks below
                values = chunk[:, width:].reshape(stop - start, len(flat), _FIELD)
                values[:] = _g12_fields(np.stack([f[start:stop] for f in flat], axis=1).ravel()
                                        ).reshape(values.shape)
                values[:, :, -1] = seps
                fh.write(chunk.tobytes().translate(None, b"\0"))
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from None


#: ``json.dumps(obj, allow_nan=False)`` as one encoder, built once.
_STRICT = json.JSONEncoder(allow_nan=False)


def _print_json(obj: dict) -> None:
    """Print obj as strict JSON: a NaN or infinite number prints as null,
    and a last top-level field "non_finite" counts them.  Only an object
    that fails strict encoding is encoded with NaN allowed and decoded again,
    each NaN or Infinity constant read as None."""
    try:
        text = _STRICT.encode(obj)
    except ValueError:
        nulls = []
        obj = json.loads(json.dumps(obj), parse_constant=nulls.append)
        obj["non_finite"] = len(nulls)
        text = _STRICT.encode(obj)
    print(text)


def _load_json(path: str):
    """The JSON document in the file ``path``, read as text mode reads it:
    UTF-8, with CRLF and a lone CR read as LF.  A byte that is
    not UTF-8 raises UnicodeDecodeError; a file that cannot be read, is not
    JSON or nests too deep for the decoder raises ValueError naming ``path``."""
    try:
        with open(path, "rb", buffering=0) as fh:  # no buffer: one read of the whole file
            text = fh.readall().decode("utf-8")
    except OSError as exc:
        raise ValueError(f"{path}: cannot read file: {exc}") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError:
        raise ValueError(f"{path}: nesting too deep to read") from None


def parse_system_obj(obj) -> tuple[FuzzySystem, np.ndarray | None]:
    """Build a FuzzySystem (and optional transform) from a parsed document.

    A malformed document raises ValueError naming the offending JSON path;
    :class:`FuzzySystem` checks the rows of "H", "x0" and the alpha grid.
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
    alphas = obj.get("alphas", DEFAULT_ALPHAS.tolist())
    if not isinstance(alphas, list) or not all(
            isinstance(a, (int, float)) and not isinstance(a, bool) for a in alphas):
        raise ValueError('"alphas": must be a list of numbers')
    system = FuzzySystem(h=h_rows, x0=obj.get("x0"), alphas=alphas)

    transform = None
    if "T" in obj:
        t_rows = obj["T"]
        if (not isinstance(t_rows, list) or len(t_rows) != n
                or any(not isinstance(r, list) or len(r) != n for r in t_rows)):
            raise ValueError(f'"T": expected {n} rows of {n} numbers')
        transform = _floats(t_rows, '"T": ')
        if not np.isfinite(transform).all():  # JSON null reads as NaN
            raise ValueError('"T": entries must be finite numbers')
    return system, transform


def load_system(path: str, alphas: str | None = None) -> tuple[FuzzySystem, np.ndarray | None]:
    """Decode and parse a system file; ``alphas``, the text of ``--alphas``
    (comma-separated levels), replaces the file's grid when it is given."""
    doc = _load_json(path)
    if alphas is not None and isinstance(doc, dict):
        try:
            doc["alphas"] = [float(v) for v in alphas.split(",")]
        except ValueError:
            raise ValueError(f"--alphas: cannot parse {alphas!r}") from None
    return parse_system_obj(doc)


# -- subcommands ----------------------------------------------------------------

def cmd_analyze(args) -> int:
    system, transform = load_system(args.file)
    verdict = analyze(level_matrix(system, 0.0), t=transform,
                      n_samples=args.n, seed=args.seed)
    _print_json(verdict.to_json_obj())
    if verdict.is_stable:
        return EXIT_OK
    if verdict.status is StabilityStatus.FALSIFIED:
        return EXIT_FALSIFIED
    return EXIT_INCONCLUSIVE


def cmd_simulate(args) -> int:
    system, _ = load_system(args.file, args.alphas)
    lo, hi = envelope_endpoints(system, system.alphas, args.k)
    _write_csv(args.out, "k,alpha,i,lo,hi\n", range(args.k + 1),
               [_fmt(a) for a in system.alphas], (lo, hi))
    with np.errstate(invalid="ignore"):  # inf - inf prints as null
        widths = hi[-1] - lo[-1]
    summary = {
        "k": args.k,
        "out": args.out,
        "final_widths": [{"alpha": a, "width": w}
                         for a, w in zip(system.alphas.tolist(), widths.tolist())],
    }
    _print_json(summary)
    return EXIT_OK


def cmd_oracle(args) -> int:
    system, _ = load_system(args.file)
    runs = mc_trajectories(system, alpha=0.0, horizon=args.k, n=args.n,
                           seed=args.seed, mode=args.mode)
    _write_csv(args.out, "run,k,i,value\n", range(1, args.n + 1),
               range(args.k + 1), (runs,))

    report = {"n_trajectories": args.n, "k": args.k, "mode": args.mode,
              "out": args.out}
    try:
        lo, hi = envelope_endpoints(system, 0.0, args.k)
    except SignPreconditionError as exc:
        report["containment"] = None
        report["containment_skipped"] = str(exc)
    else:
        with np.errstate(invalid="ignore"):  # inf - inf is a NaN violation
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
    _print_json(report)
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
    print(_fmt(d_fuzzy_vec(x, y, which=args.metric)))
    return EXIT_OK


# -- command line ---------------------------------------------------------------

#: Each subcommand's help, function and arguments (argparse's keywords), for both parsers.
_GRAMMAR = {
    "analyze": ("run the stability criteria on a system file", cmd_analyze, {
        "file": {}, "--n": dict(type=int, default=1000, help="falsifier sample count"),
        "--seed": dict(type=int, default=0)}),
    "simulate": ("write per-level envelope boxes as CSV", cmd_simulate, {
        "file": {}, "--k": dict(type=int, default=10, help="horizon (number of steps)"),
        "--out": dict(required=True, help="CSV output path"),
        "--alphas": dict(default=None, help="comma-separated grid override, e.g. 0,0.5,1")}),
    "oracle": ("sample member trajectories and check them", cmd_oracle, {
        "file": {}, "--k": dict(type=int, default=10, help="horizon (number of steps)"),
        "--n": dict(type=int, default=1000, help="trajectory count"),
        "--seed": dict(type=int, default=0),
        "--mode": dict(choices=("constant", "timevarying"), default="constant"),
        "--out": dict(required=True, help="CSV output path")}),
    "distance": ("distance between two fuzzy numbers/vectors", cmd_distance, {
        "file_a": {}, "file_b": {},
        "--metric": dict(choices=("membership", "levelwise"), default="membership")}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of _GRAMMAR, built once per process (parsing leaves it unchanged)."""
    import argparse  # here alone: only an argv that _plain_args declines builds the parser

    class _Parser(argparse.ArgumentParser):
        # A usage error raises ValueError, so that main reports it as an input
        # error (exit 1) and not with argparse's exit 2, the Falsified code.
        def error(self, message):
            raise ValueError(f"{self.prog}: {message}")

        def _get_values(self, action, strings):  # Python 3.11's argparse reads "--name=--" as []
            if strings == ["--"] and action.option_strings:
                self.error(f"argument {action.option_strings[0]}: expected one argument")
            return super()._get_values(action, strings)

    parser = _Parser(prog="fdikit", description="Stability analysis and level-wise "
                     "simulation of linear stationary fuzzy systems.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, func, grammar) in _GRAMMAR.items():
        p = sub.add_parser(command, help=text)
        for name, keywords in grammar.items():
            p.add_argument(name, **keywords)
        p.set_defaults(func=func)
    return parser


def _plain_args(argv):
    """argparse's namespace of a plain ``argv``, else None: a subcommand, then exactly
    its positionals and its options by full name, each with a value of its type and
    choices, every required one given, and no value or positional starting with "-"."""
    if not argv or argv[0] not in _GRAMMAR:
        return None
    _, func, grammar = _GRAMMAR[argv[0]]
    names = [name for name in grammar if not name.startswith("-")]  # the positionals
    values = {name[2:]: kw.get("default") for name, kw in grammar.items() if name not in names}
    given, tokens = [], iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            given.append(token)
            continue
        kw, value = grammar.get(token), next(tokens, "-")
        if kw is None or value.startswith("-") or value not in kw.get("choices", (value,)):
            return None  # (an option with choices reads strings: no type to apply first)
        try:
            values[token[2:]] = kw.get("type", str)(value)
        except ValueError:
            return None
    if len(given) != len(names) or any(
            kw.get("required") and values[name[2:]] is None for name, kw in grammar.items()):
        return None
    return SimpleNamespace(command=argv[0], func=func, **dict(zip(names, given)), **values)


def main(argv=None) -> int:
    try:
        args = (_plain_args(sys.argv[1:] if argv is None else argv)
                or build_parser().parse_args(argv))
        return args.func(args)
    except SignPreconditionError as exc:
        print(f"precondition violated ({exc.condition}): {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ValueError, MemoryError) as exc:
        # fdikit raises ValueError for every malformed input, usage error and
        # bad argument value, such as --k -1 or --n 0 with no member left to
        # check; numpy raises MemoryError for an array too large to allocate.
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:  # _write_csv names the path of a failed write
        print(exc, file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
