"""End-to-end tests of the command-line interface and file formats."""

import copy
import hashlib
import json
import logging
import math
import random
import time
import tracemalloc
import warnings
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fdikit import (FuzzyNumber, FuzzySystem, FuzzyVector, StackingViolation, Tfn, cli,
                    fuzzy_num)
from fdikit.cli import (
    EXIT_FALSIFIED,
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_IO,
    EXIT_OK,
    EXIT_PRECONDITION,
    load_system,
    main,
    parse_system_obj,
)
from fdikit.fdi_sim import envelope_endpoints, level_matrix, mc_trajectories

from conftest import OVERFLOWING, ref_level_groups, run_python, stack_outcome

SCALAR_STABLE = {
    "n": 1,
    "H": [[{"tfn": [0.4, 0.5, 0.6]}]],
    "x0": [{"tfn": [0.8, 1.0, 1.2]}],
    "alphas": [0.0, 0.5, 1.0],
}

SCALAR_UNSTABLE = {
    "n": 1,
    "H": [[{"tfn": [1.1, 1.2, 1.3]}]],
    "x0": [{"tfn": [0.8, 1.0, 1.2]}],
}

MIXED_SIGN = {
    "n": 1,
    "H": [[{"tfn": [-0.5, 0.0, 0.5]}]],
    "x0": [{"tfn": [0.8, 1.0, 1.2]}],
}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def strict_loads(text):
    """json.loads that rejects NaN and Infinity, which are not JSON."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def nulled(obj):
    """(obj with each non-finite float replaced by None, how many were replaced)."""
    if isinstance(obj, dict):
        pairs = [(k, nulled(v)) for k, v in obj.items()]
        return {k: v for k, (v, _) in pairs}, sum(c for _, (_, c) in pairs)
    if isinstance(obj, list):
        pairs = [nulled(v) for v in obj]
        return [v for v, _ in pairs], sum(c for _, c in pairs)
    if isinstance(obj, float) and not np.isfinite(obj):
        return None, 1
    return obj, 0


# -- analyze ------------------------------------------------------------------------

def test_analyze_stable_scalar(tmp_path, capsys):
    rc = main(["analyze", write(tmp_path, "s.json", SCALAR_STABLE)])
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert out["status"] == "AsymptoticallyStable"
    assert out["criterion"] == "gershgorin_nonneg"


def test_analyze_unstable_scalar(tmp_path, capsys):
    rc = main(["analyze", write(tmp_path, "s.json", SCALAR_UNSTABLE)])
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_FALSIFIED
    assert out["status"] == "Falsified"
    assert out["witness"]["spectral_radius"] > 1.0


def test_analyze_inconclusive(tmp_path, capsys):
    doc = {"n": 1, "H": [[{"tfn": [-1.0, 0.0, 1.0]}]], "x0": [{"tfn": [0, 1, 2]}]}
    rc = main(["analyze", write(tmp_path, "s.json", doc), "--n", "50"])
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_INCONCLUSIVE
    assert out["status"] == "Inconclusive"


def test_analyze_uses_transform(tmp_path, capsys):
    doc = {
        "n": 2,
        "H": [[{"tfn": [0.5, 0.5, 0.5]}, {"tfn": [0.6, 0.6, 0.6]}],
              [{"tfn": [0.0, 0.0, 0.0]}, {"tfn": [1.0, 1.0, 1.0]}]],
        "x0": [{"tfn": [0, 1, 2]}, {"tfn": [0, 1, 2]}],
        "T": [[1.0, 0.0], [0.0, 1.0]],
    }
    rc = main(["analyze", write(tmp_path, "s.json", doc), "--n", "0"])
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert out["status"] == "Stable"
    assert out["criterion"] == "marginal_transform"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: marginal_test accepts within SHAPE_TOL")
def test_analyze_does_not_call_a_member_above_one_stable(tmp_path, capsys):
    doc = {"n": 1, "H": [[1.0000000005]], "x0": [1.0], "T": [[1.0]]}
    main(["analyze", write(tmp_path, "s.json", doc)])
    assert json.loads(capsys.readouterr().out)["status"] != "Stable"


def test_analyze_falsifies_a_family_whose_endpoint_transforms_fit(tmp_path, capsys):
    # Both endpoints are T J T^-1 with J block-triangular and a unit corner;
    # a vertex that mixes them does not keep that shape.
    doc = {"n": 2,
           "H": [[{"levels": [[0, 3.75, 4.25], [1, 3.75, 4.25]]}, -1.75],
                 [{"levels": [[0, 5.5, 6.5], [1, 5.5, 6.5]]}, -2.5]],
           "x0": [1, 1], "T": [[1, 1], [2, 1]]}
    rc = main(["analyze", write(tmp_path, "s.json", doc)])
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_FALSIFIED
    assert out["witness"]["matrix"] == [[4.25, -1.75], [5.5, -2.5]]
    # det(I - W) < 0: the characteristic polynomial has a real root above 1
    (a, b), (c, d) = (map(Fraction, row) for row in out["witness"]["matrix"])
    assert (1 - a) * (1 - d) - b * c < 0


def test_analyze_midpoint_of_huge_entries_stays_finite(tmp_path, capsys):
    # (lo + hi) / 2, the row sums and (C + C') / 2 overflow at these entries:
    # an infinite center made LAPACK fail, and the others warned on stderr
    doc = {"n": 2, "H": [[{"tfn": [1e308, 1e308, 1e308]}] * 2] * 2,
           "x0": [{"tfn": [1, 1, 1]}] * 2}
    rc = main(["analyze", write(tmp_path, "s.json", doc)])
    captured = capsys.readouterr()
    assert (rc, captured.err) == (EXIT_FALSIFIED, "")
    assert strict_loads(captured.out) == {
        "status": "Falsified", "criterion": "sampled_falsifier",
        "witness": {"matrix": [[1e308, 1e308], [1e308, 1e308]], "spectral_radius": None},
        "non_finite": 1}


@pytest.mark.parametrize("argv", [["analyze"], ["simulate", "--k", "2"],
                                  ["oracle", "--k", "2", "--n", "3"]],
                         ids=["analyze", "simulate", "oracle"])
def test_reversed_level_is_an_input_error(tmp_path, capsys, argv):
    # lo exceeds hi by 5e-14 at level 0; nestedness tolerates that, ordering does not
    doc = {"n": 1, "H": [[{"levels": [[0, 0.5, 0.49999999999995],
                                      [1, 0.49999999999995, 0.49999999999995]]}]],
           "x0": [1]}
    if argv[0] != "analyze":
        argv = argv + ["--out", str(tmp_path / "out.csv")]
    rc = main([argv[0], write(tmp_path, "s.json", doc)] + argv[1:])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (EXIT_INPUT, "")
    assert captured.err == 'input error: "H"[0][0]: every level must satisfy lo <= hi\n'


def test_analyze_malformed_nonsquare(tmp_path, capsys):
    doc = {"n": 2, "H": [[{"tfn": [0, 0, 1]}]], "x0": [{"tfn": [0, 0, 1]}] * 2}
    rc = main(["analyze", write(tmp_path, "s.json", doc)])
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT
    assert '"H"' in err


def test_analyze_malformed_fuzzy_names_path(tmp_path, capsys):
    doc = {"n": 1, "H": [[{"tfn": [1, 2]}]], "x0": [{"tfn": [0, 0, 1]}]}
    rc = main(["analyze", write(tmp_path, "s.json", doc)])
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT
    assert '"H"[0][0]' in err


@pytest.mark.parametrize("cells, expected", [
    # a nesting fault before a malformed "tfn"
    ({(0, 1): {"levels": [[0.0, 0.0, 1.0], [1.0, -1.0, 2.0]]}, (1, 0): {"tfn": [1, 2]}},
     '"H"[0][1]: alpha-cuts must be nested (nonincreasing in alpha)'),
    # an unordered triple before a nesting fault
    ({(0, 1): {"tfn": [3, 2, 1]}, (1, 1): {"levels": [[0.0, 0.0, 1.0], [1.0, -1.0, 2.0]]}},
     '"H"[0][1]: triple must satisfy l <= c <= r, got (3.0, 2.0, 1.0)'),
    # a fault in the "tfn" cells, checked after another breakpoint grid
    ({(0, 1): {"levels": [[0.0, 0.0, 1.0], [0.5, 0.6, 0.4], [1.0, 0.5, 0.5]]},
      (1, 0): {"tfn": [0.0, 0.0, float("inf")]}},
     '"H"[0][1]: every level must satisfy lo <= hi'),
    ({(1, 1): {"tfn": [0.0, 0.0, float("inf")]},
      (0, 1): {"levels": [[0.0, 0.0, 1.0], [0.6, 0.6, 0.4], [1.0, 0.5, 0.5]]}},
     '"H"[0][1]: every level must satisfy lo <= hi'),
    # cells that no single float array of ordered, finite triples holds
    ({(0, 1): {"tfn": [None, 0, 1]}},
     '"H"[0][1]: float() argument must be a string or a real number, not \'NoneType\''),
    ({(0, 1): {"tfn": [float("nan"), 0, 1]}},
     '"H"[0][1]: triple must satisfy l <= c <= r, got (nan, 0.0, 1.0)'),
    ({(0, 1): {"tfn": [True, True, True]}, (1, 0): {"tfn": [1, 2]}},  # bools are numbers
     '"H"[1][0]: "tfn" must be a list [l, c, r]'),
    ({(0, 1): {"tfn": [[0], 0, 1]}},
     '"H"[0][1]: float() argument must be a string or a real number, not \'list\''),
    ({(0, 1): {"tfn": [0, 1]}}, '"H"[0][1]: "tfn" must be a list [l, c, r]'),
    ({(0, 1): {"tfn": [0, 0, 1, 2]}}, '"H"[0][1]: "tfn" must be a list [l, c, r]'),
    ({(0, 1): {"tfn": [0, 0, float("1e400")]}},
     '"H"[0][1]: support must be bounded (finite endpoints)'),
    ({(0, 1): {"tfn": [-1.7e308, 0, 1.7e308]}}, '"H"[0][1]: cut width hi - lo overflows'),
    # "tfn" wins over "levels"
    ({(0, 1): {"tfn": [0, 0, 1], "levels": "x"}, (1, 0): {"tfn": [3, 2, 1]}},
     '"H"[1][0]: triple must satisfy l <= c <= r, got (3.0, 2.0, 1.0)'),
    ({(0, 1): {"tfn": ["0.1", "0.2", "0.3"]}, (1, 1): {"tfn": ["a", "b", "c"]}},
     '"H"[1][1]: could not convert string to float: \'a\''),
    # the one unordered triple of a file of "tfn" cells
    ({(0, 1): {"tfn": [2, 1, 3]}}, '"H"[0][1]: triple must satisfy l <= c <= r, got (2.0, 1.0, 3.0)'),
])
def test_analyze_names_first_malformed_cell(tmp_path, capsys, cells, expected):
    h = [[{"tfn": [0.1, 0.2, 0.3]} for _ in range(2)] for _ in range(2)]
    for (i, j), cell in cells.items():
        h[i][j] = cell
    doc = {"n": 2, "H": h, "x0": [{"tfn": [0.5, 1.0, 1.5]}] * 2}
    rc = main(["analyze", write(tmp_path, "s.json", doc)])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err == f"input error: {expected}\n"


HUGE_INT = 10 ** 400  # a JSON integer that no double can hold


@pytest.mark.parametrize("doc, expected", [
    ({"H": [[{"tfn": [0, 0, HUGE_INT]}]]}, '"H"[0][0]'),
    ({"x0": [{"tfn": [0, 1, HUGE_INT]}]}, '"x0"[0]'),
    ({"H": [[{"levels": [[0, 0, HUGE_INT], [1, 0, 0]]}]]}, '"H"[0][0]'),
    ({"alphas": [0, HUGE_INT]}, '"alphas"'),
    ({"T": [[HUGE_INT]]}, '"T"'),
])
def test_huge_integer_is_input_error(tmp_path, capsys, doc, expected):
    rc = main(["analyze", write(tmp_path, "s.json", dict(SCALAR_STABLE, **doc))])
    captured = capsys.readouterr()
    assert rc == EXIT_INPUT
    assert captured.out == ""
    assert captured.err == f"input error: {expected}: int too large to convert to float\n"


def test_transform_entry_that_is_not_a_number_is_input_error(tmp_path, capsys):
    rc = main(["analyze", write(tmp_path, "s.json", dict(SCALAR_STABLE, T=[[{}]]))])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err == (
        'input error: "T": float() argument must be a string or a real number, not \'dict\'\n')


@pytest.mark.parametrize("entry, message", [
    ("a", "could not convert string to float: 'a'"),
    (None, "entries must be finite numbers"),
    (float("nan"), "entries must be finite numbers"),
    (float("inf"), "entries must be finite numbers"),
    (float("-inf"), "entries must be finite numbers"),
])
def test_transform_entry_is_named_in_the_input_error(tmp_path, capsys, entry, message):
    # json.dumps writes NaN and Infinity, which json.load reads back
    doc = dict(SCALAR_STABLE, n=2, T=[[1.0, 0.0], [entry, 1.0]])
    doc["H"] = [[SCALAR_STABLE["H"][0][0]] * 2] * 2
    doc["x0"] = SCALAR_STABLE["x0"] * 2
    rc = main(["analyze", write(tmp_path, "s.json", doc)])
    captured = capsys.readouterr()
    assert rc == EXIT_INPUT
    assert captured.out == ""
    assert captured.err == f'input error: "T": {message}\n'


@pytest.mark.parametrize("n", [2.5, "2", True, None, [2], float("inf")])
def test_non_integer_n_is_input_error(tmp_path, capsys, n):
    h = [[{"tfn": [0.1, 0.2, 0.3]}] * 2] * 2
    doc = {"n": n, "H": h, "x0": [{"tfn": [0.5, 1.0, 1.5]}] * 2}
    rc = main(["analyze", write(tmp_path, "s.json", doc)])
    captured = capsys.readouterr()
    assert rc == EXIT_INPUT
    assert captured.out == ""
    assert captured.err == 'input error: "n": must be an integer\n'


@pytest.mark.parametrize("alphas", [[False, True], [0, 0.5, True], [0, "1"], [0, None, 1], "0,1"],
                         ids=["booleans", "one-boolean", "string", "null", "not-a-list"])
def test_non_number_alphas_is_input_error(tmp_path, capsys, alphas):
    # JSON true is a Python int; "alphas" refuses it as "n" does, while the
    # values of a cell read it as 1.0 (TFN_CELL_CASES["bools"])
    rc = main(["analyze", write(tmp_path, "s.json", dict(SCALAR_STABLE, alphas=alphas))])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (EXIT_INPUT, "")
    assert captured.err == 'input error: "alphas": must be a list of numbers\n'


def test_main_repeats_in_one_process_like_fresh_processes(tmp_path, capsys):
    # main reuses one argument parser; no call may leak state into the next.
    # The installed fdikit script makes the same call, sys.exit(main()), as
    # python -m fdikit.cli, so each exit code is also the command's.
    files = {name: write(tmp_path, f"{name}.json", doc) for name, doc in (
        ("stable", {"n": 1, "H": [[0.5]], "x0": [1]}),
        ("unstable", {"n": 1, "H": [[1.5]], "x0": [1]}),
        ("wide", {"n": 1, "H": [[{"tfn": [-1, 0, 1]}]], "x0": [1]}))}
    out = tmp_path / "out.csv"
    files.update(out=str(out), missing=str(tmp_path / "missing" / "out.csv"))

    def take_csv():  # the CSV's bytes (None if none was written), removed for the next call
        if not out.exists():
            return None
        data = out.read_bytes()
        out.unlink()
        return data

    runs = [(["analyze", "{wide}", "--n", "20", "--seed", "7"], EXIT_INCONCLUSIVE),
            (["analyze", "{stable}"], EXIT_OK),
            (["analyze", "{unstable}"], EXIT_FALSIFIED),
            (["analyze", "{wide}", "--n", "-1"], EXIT_INPUT),
            (["simulate", "{stable}", "--out", "{out}"], EXIT_OK),
            (["simulate", "{wide}", "--out", "{out}"], EXIT_PRECONDITION),
            (["simulate", "{stable}", "--out", "{missing}"], EXIT_IO),
            (["simulate", "{wide}"], EXIT_INPUT),  # no --out: a usage error
            (["analyze", "{wide}", "--n", "20"], EXIT_INCONCLUSIVE)]
    for argv, want in runs:
        argv = [a.format(**files) for a in argv]
        fresh = run_python("-m", "fdikit.cli", *argv)
        fresh_csv = take_csv()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err, take_csv()) == (
            fresh.returncode, fresh.stdout, fresh.stderr, fresh_csv), argv
        assert code == want, argv


def test_certified_analyze_and_nonneg_simulate_import_no_logging(tmp_path):
    # logging is imported only where a fallback is recorded, and neither run has one
    path = write(tmp_path, "s.json", {"n": 2, "H": [[{"tfn": [0.1, 0.2, 0.3]}, 0.1],
                                                    [0.2, {"tfn": [0.0, 0.1, 0.3]}]],
                                      "x0": [1, {"tfn": [0, 1, 2]}]})
    code = ("import sys\n"
            "from fdikit.cli import main\n"
            "codes = [main(['analyze', sys.argv[1]]),\n"
            "         main(['simulate', sys.argv[1], '--out', sys.argv[2]])]\n"
            "print(codes, 'logging' in sys.modules)")
    proc = run_python("-c", code, path, str(tmp_path / "out.csv"))
    assert proc.stderr == ""
    assert '"criterion": "gershgorin_nonneg"' in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[0, 0] False"


def test_fallback_runs_import_no_logging(tmp_path, capsys, caplog):
    # each run records a fallback, which needs no logging until a program loads it
    fuzzy = {"tfn": [0.3, 0.35, 0.4]}
    files = {name: write(tmp_path, f"{name}.json", doc) for name, doc in (
        ("budget", {"n": 5, "H": [[fuzzy] * 5] * 5, "x0": [1] * 5}),
        ("oracle", {"n": 4, "H": [[fuzzy] * 4] * 4, "x0": [1] * 4}),
        ("refused", {"n": 1, "H": [[0.5]], "x0": [{"tfn": [-1, 0, 1]}]}))}
    out = tmp_path / "out.csv"
    runs = [["analyze", files["budget"]],
            ["oracle", files["oracle"], "--k", "3", "--n", "20", "--out", str(out)],
            ["simulate", files["refused"], "--out", str(out)]]
    code = ("import contextlib, io, json, os, sys\n"
            "from fdikit.cli import main\n"
            "results = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    stdout, stderr = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):\n"
            "        code = main(argv)\n"
            "    csv = None\n"
            "    if os.path.exists(sys.argv[2]):\n"
            "        with open(sys.argv[2]) as f:\n"
            "            csv = f.read()\n"
            "        os.remove(sys.argv[2])\n"
            "    results.append([code, stdout.getvalue(), stderr.getvalue(), csv])\n"
            "print(json.dumps(results))\n"
            "print('logging' in sys.modules)")
    proc = run_python("-c", code, json.dumps(runs), str(out))
    assert proc.stderr == ""
    fresh, loaded = proc.stdout.splitlines()
    assert loaded == "False"

    caplog.set_level(logging.DEBUG, logger="fdikit")
    here = []
    for argv in runs:
        rc = main(argv)
        captured = capsys.readouterr()
        here.append([rc, captured.out, captured.err, out.read_text() if out.exists() else None])
        out.unlink(missing_ok=True)
    assert json.loads(fresh) == here
    assert [r[0] for r in here] == [EXIT_FALSIFIED, EXIT_OK, EXIT_PRECONDITION]
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("fdikit.stability", logging.DEBUG,
         "vertex budget exceeded, sampling only: 33554432 vertices > 65536"),
        ("fdikit.stability", logging.DEBUG,
         "vertex budget exceeded, sampling only: 65536 vertices > 1024"),
        ("fdikit.fdi_sim", logging.DEBUG, "exact envelope refused (state_nonneg) at alpha=0")]


def test_analyze_missing_file(capsys):
    rc = main(["analyze", "/nonexistent/system.json"])
    assert rc == EXIT_INPUT


@pytest.mark.parametrize("argv", [["analyze"], ["simulate", "--out", "{out}"],
                                  ["oracle", "--out", "{out}"], ["distance", "{file}"]],
                         ids=["analyze", "simulate", "oracle", "distance"])
def test_too_deep_nesting_is_one_input_error(tmp_path, capsys, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    argv = [a.format(out=tmp_path / "out.csv", file=path) for a in argv]
    rc = main([argv[0], str(path)] + argv[1:])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (EXIT_INPUT, "")
    assert captured.err == f"input error: {path}: nesting too deep to read\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv, usage", [(["--help"], "usage: fdikit [-h]"),
                                         (["simulate", "--help"], "usage: fdikit simulate")],
                         ids=["fdikit", "simulate"])
def test_help_prints_usage_to_stdout_and_exits_0(capsys, argv, usage):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.err) == (0, "")
    assert captured.out.startswith(usage)


def test_distance_beside_a_subnormal_step_prints_no_warning(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"tfn": [0, 5e-324, 1]})
    b = write(tmp_path, "b.json", {"tfn": [2, 3, 4]})
    rc = main(["distance", a, b])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (EXIT_OK, "1\n", "")


def test_levelwise_distance_beyond_the_largest_double_prints_inf(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"tfn": [-1e308, -1e308, -1e308]})
    b = write(tmp_path, "b.json", {"tfn": [1e308, 1e308, 1e308]})
    rc = main(["distance", a, b, "--metric", "levelwise"])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (EXIT_OK, "inf\n", "")


def test_simulate_off_the_grid_beside_a_tiny_alpha_step(tmp_path, capsys):
    # a slope beside the subnormal step overflows; the on-grid cut at 0 is the
    # stored one, so the envelope is exact and nothing warns
    out = tmp_path / "g.csv"
    system = write(tmp_path, "g.json", {"n": 1, "H": [[TINY_STEP]], "x0": [1]})
    rc = main(["simulate", system, "--k", "1", "--alphas", "0,0.5,1", "--out", str(out)])
    assert (rc, capsys.readouterr().err) == (EXIT_OK, "")
    assert out.read_text() == ("k,alpha,i,lo,hi\n0,0,1,1,1\n0,0.5,1,1,1\n0,1,1,1,1\n"
                               "1,0,1,0.1,0.5\n1,0.5,1,0.25,0.35\n1,1,1,0.3,0.3\n")


def test_simulate_cut_overflowing_beside_a_tiny_alpha_step_is_an_input_error(tmp_path, capsys):
    # the exact cut at 5e-309 is [5, 15]; the interpolated one overflows, as
    # np.interp's does, so no envelope is written
    out = tmp_path / "g3.csv"
    system = write(tmp_path, "g3.json", {"n": 1, "H": [[TINY_STEP_WIDE]], "x0": [1]})
    rc = main(["simulate", system, "--k", "1", "--alphas", "0,5e-309,1", "--out", str(out)])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (EXIT_INPUT, "")
    assert captured.err == ("input error: cut at alpha=5e-309 overflows beside a tiny "
                            "alpha step\n")
    assert not out.exists()


# -- the exit-code contract under mutated files -----------------------------------

#: Stands for brackets nested deeper than the JSON decoder reads.
DEEP = "<deep>"
#: Cells with a tiny first alpha step, whose slopes there overflow: cut off
#: the grid, the first has finite cuts and the second an overflowing one.
TINY_STEP = {"levels": [[0.0, 0.1, 0.5], [5e-324, 0.2, 0.4], [1.0, 0.3, 0.3]]}
TINY_STEP_WIDE = {"levels": [[0.0, 0, 20], [1e-308, 10, 10], [1.0, 10, 10]]}
#: An --alphas override off every cell's grid, beside both tiny steps too.
OFF_GRID = "0,5e-309,0.5,1"
#: JSON values that a mutation puts in place of a part of a valid system file.
ATOMS = [1e308, -1e308, 10 ** 400, True, False, "x", "", [], {}, None, DEEP,
         {"tfn": []}, {"tfn": [1, 0]}, {"tfn": [0, "1", 2]}, {"tfn": "0,1,2"},
         {"tfn": [0, True, 1e308]}, {"tfn": [-1e308, 0, 1e308]}, {"tfn": [0, 10 ** 400, 1]},
         {"levels": []}, {"levels": "x"}, {"levels": [[0, 1]]}, {"levels": [[0, 2, 1], [1, 1, 1]]},
         {"levels": [[0, 0, 1], [0.5, 0.5, 0.5]]}, {"levels": [[1, 0, 1], [0, 0, 1]]},
         {"levels": [[0, 0, 2], [0.5, -1, 3], [1, 1, 1]]},
         TINY_STEP, TINY_STEP_WIDE,
         [0.5, 1], [0, 0.5, 0.5, 1], [1, 0], [0, 10 ** 400, 1], [0, "0.5", 1], [[0]],
         [[0, 0], [0, 0]], [[1e308, 1], [1, 1e308]], [[1, 0], [0]]]
#: Seconds one in-process command may take on a system of at most 3 states.
CALL_BOUND_S = 2.0


def json_paths(doc, path=()):
    """Every path into ``doc``, the root's () first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from json_paths(value, path + (key,))


@st.composite
def mutated_systems(draw):
    """A valid system document of 1 to 3 states, maybe with a grid and a
    transform, then up to three mutations: a part replaced by an atom, a
    top-level field set to one, or a top-level field removed."""
    n = draw(st.integers(1, 3))
    cell = st.floats(-0.5, 1.5) | st.lists(st.floats(-0.5, 1.5), min_size=3, max_size=3).map(
        lambda t: {"tfn": sorted(t)})
    doc = {"n": n, "H": draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                                      min_size=n, max_size=n)),
           "x0": draw(st.lists(cell, min_size=n, max_size=n))}
    if draw(st.booleans()):
        doc["alphas"] = draw(st.sampled_from([[0, 1], [0, 0.5, 1], [0.0, 0.25, 0.75, 1.0]]))
    if draw(st.booleans()):
        doc["T"] = np.eye(n).tolist()
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["part", "field", "drop"]))
        atom = copy.deepcopy(draw(st.sampled_from(ATOMS)))  # later mutations may reach into it
        if kind == "part":
            path = draw(st.sampled_from(list(json_paths(doc))))
            if not path:
                doc = atom
                continue
            target = doc
            for part in path[:-1]:
                target = target[part]
            target[path[-1]] = atom
        elif isinstance(doc, dict):
            field = draw(st.sampled_from(["n", "H", "x0", "alphas", "T"]))
            if kind == "field":
                doc[field] = atom
            else:
                doc.pop(field, None)
    return doc


def json_text(doc) -> str:
    """``doc`` as JSON, each DEEP nested 10,000 deep."""
    return json.dumps(doc).replace(json.dumps(DEEP), "[" * 10_000 + "]" * 10_000)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_systems())
@example({"n": 1, "H": [[DEEP]], "x0": [1]})  # drawn in about 2% of files
@example({"n": 1, "H": [[{"tfn": [1e308] * 3}]], "x0": [{"tfn": [-1e308] * 3}]})
@example({"n": 1, "H": [[TINY_STEP]], "x0": [1]})
@example({"n": 1, "H": [[TINY_STEP_WIDE]], "x0": [1]})
def test_mutated_system_files_exit_with_a_named_code(tmp_path, capsys, doc):
    # distance compares "x0" with the first row of "H" (or the whole document
    # where that part is missing), two vector files from the same draw
    path, out = tmp_path / "s.json", str(tmp_path / "out.csv")
    path.write_text(json_text(doc))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    h = doc.get("H", doc) if isinstance(doc, dict) else doc
    a.write_text(json_text(doc.get("x0", doc) if isinstance(doc, dict) else doc))
    b.write_text(json_text(h[0] if isinstance(h, list) and h else h))
    for argv in (["analyze", str(path), "--n", "20"],
                 ["simulate", str(path), "--k", "3", "--out", out],
                 ["simulate", str(path), "--k", "3", "--alphas", OFF_GRID, "--out", out],
                 ["oracle", str(path), "--k", "3", "--n", "5", "--out", out],
                 ["distance", str(a), str(b)],
                 ["distance", str(a), str(b), "--metric", "levelwise"]):
        start = time.perf_counter()
        rc = main(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert rc in range(6), argv
        if rc in (EXIT_INPUT, EXIT_PRECONDITION, EXIT_IO):
            assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), argv
        else:
            assert captured.err == "", argv
        assert "Traceback" not in captured.err
        assert elapsed < CALL_BOUND_S, argv


# -- the plain command-line reader and the exit-code contract under mutated argv --

#: Every full option name of the grammar, and each shorter prefix of one.
OPTIONS = sorted({name for _, _, grammar in cli._GRAMMAR.values() for name in grammar
                  if name.startswith("-")})
PREFIXES = sorted({name[:i] for name in OPTIONS for i in range(1, len(name))})
#: Numbers that int reads, " 7 ", "+5" and "1_000" among them; none is above 10^3.
NUMBERS = ["0", "3", "20", " 7 ", "+5", "1_000"]
#: Values and stray tokens: numbers, ones int does not read, negative numbers,
#: choices and a bad one, subcommands, flags and junk.
WORDS = NUMBERS + ["F", "", "1.5", "x", "-1", "-0.5", "0,0.5,1", "constant", "timevarying",
                   "membership", "levelwise", "bogus", "analyze", "distance", "--", "-",
                   "-h", "--help", "a=b"]
#: The usual values of each positional and string option.
PLAIN_VALUES = {"file": ["F", "a b"], "file_a": ["A"], "file_b": ["B"], "--out": ["O"],
                "--alphas": ["0,0.5,1", ""]}


def command_line(choice, usual) -> list[str]:
    """An argv from the grammar's vocabulary, each pick made by ``choice(seq)``.
    Mostly a subcommand, its positionals and options by full name, each with a
    usual value apart: from ``usual``, NUMBERS for an integer, a choice for an
    option with choices.  Else a stray word, another option name or a prefix, a
    value joined by "=", missing or left out, or a stray word (never a usual
    positional).  Then words inserted, a piece repeated and the order shuffled."""
    def mostly(common, other):  # five picks in six
        return choice([common] * 5 + [other])

    words = WORDS + [v for name, values in usual.items() if name[0] == "-" for v in values]
    command = mostly(choice(list(cli._GRAMMAR)), choice(words))
    grammar = cli._GRAMMAR[command][2] if command in cli._GRAMMAR else {}
    pieces = []
    for name, kw in grammar.items():
        own = kw.get("choices") or (NUMBERS if kw.get("type") is int else usual[name])
        value = mostly(choice(own), choice(words))
        if not name.startswith("-"):
            pieces.append([value])
            continue
        flag = mostly(name, choice(OPTIONS + PREFIXES))
        pieces.append(mostly([flag, value], choice([[f"{flag}={value}"], [flag], []])))
    for _ in range(choice([0, 0, 0, 0, 1, 2])):
        pieces.insert(choice(range(len(pieces) + 1)), [choice(words + OPTIONS + PREFIXES)])
    if pieces and choice([False, False, False, True]):
        pieces.append(choice(pieces))
    if choice([False, True]):
        pieces = [pieces.pop(choice(range(len(pieces)))) for _ in range(len(pieces))]
    return [command] + [token for piece in pieces for token in piece]


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_the_plain_reader_reads_as_argparse_does(data):
    argv = command_line(lambda seq: data.draw(st.sampled_from(seq)), PLAIN_VALUES)
    plain = cli._plain_args(argv)
    if plain is not None:  # else argparse reads argv, as before
        assert vars(plain) == vars(cli.build_parser().parse_args(argv)), argv


@pytest.mark.parametrize("argv", [
    ["analyze", "F"],
    ["analyze", "F", "--n", "200", "--seed", "0"],
    ["simulate", "F", "--k", "5", "--out", "O", "--alphas", "0,0.5,1"],
    ["oracle", "F", "--k", "20", "--n", "1000", "--seed", "0", "--mode", "timevarying",
     "--out", "O"],
    ["distance", "A", "B", "--metric", "membership"],
], ids=["analyze", "analyze-n-seed", "simulate", "oracle", "distance"])
def test_canonical_argv_takes_the_plain_reader(argv):
    # the shapes README and the benchmark corpus write do not reach argparse
    plain = cli._plain_args(argv)
    assert plain is not None
    assert vars(plain) == vars(cli.build_parser().parse_args(argv))


def test_mutated_command_lines_exit_with_a_named_code(tmp_path, capsys, monkeypatch):
    # argv drawn by command_line over real files: a stable, an unstable and a
    # sign-indefinite system, a fuzzy number, a file that is not JSON, a missing
    # file and a CSV path in a missing directory.  A stray --out value writes into
    # the working directory, tmp_path.  No --k or --n value exceeds 10^3.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "j.json").write_text("not json")
    systems = [write(tmp_path, f"{name}.json", doc) for name, doc in
               (("s", SCALAR_STABLE), ("u", SCALAR_UNSTABLE), ("m", MIXED_SIGN))]
    vector, bad = write(tmp_path, "v.json", {"tfn": [0, 1, 2]}), str(tmp_path / "j.json")
    usual = {"file": systems * 2 + [vector, bad, str(tmp_path / "missing.json")],
             "file_a": [vector] * 3 + systems[:1] + [bad], "file_b": [vector] * 3 + [bad],
             "--out": [str(tmp_path / "out.csv")] * 3 + [str(tmp_path / "no" / "out.csv")],
             "--alphas": ["0,0.5,1", "0,1", "0.5,1", ""]}
    rng = random.Random(0)
    for _ in range(3000):
        argv = command_line(rng.choice, usual)
        try:
            rc = main(argv)
        except SystemExit as exc:  # help, printed on stdout
            assert exc.code == 0, argv
            rc = None
        captured = capsys.readouterr()
        if rc in (EXIT_INPUT, EXIT_PRECONDITION, EXIT_IO):
            assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), argv
        else:
            assert rc in (EXIT_OK, EXIT_FALSIFIED, EXIT_INCONCLUSIVE, None), argv
            assert captured.err == "", argv
            assert rc is not None or captured.out.startswith("usage: fdikit"), argv


def load_json_text_mode(path: str):
    """The reader that _load_json replaced, in text mode: the reference text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"{path}: cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc


@pytest.mark.parametrize("data", [
    b'{"n": 1,\r\n "H": [[0.5]],\r\n "x0": [1]\r\n "alphas": [0, 1]}',  # CRLF
    b'{"n": 1,\r "H": [[0.5]],\r "x0": [1]\r "alphas": [0, 1]}',  # lone CR
    '{"n": 1, "H": [[0.5]], "x0": [1]}'.encode("utf-16"),
    b'{"n": 1, "H": [[0.5]], "x0": ["\xff"]}',  # not UTF-8
    b"",
], ids=["crlf", "cr", "utf-16", "invalid-utf-8", "empty"])
def test_byte_reader_errors_read_as_the_text_mode_reader(tmp_path, capsys, monkeypatch, data):
    path = tmp_path / "s.json"
    path.write_bytes(data)
    errors = []
    for reader in (cli._load_json, load_json_text_mode):
        monkeypatch.setattr(cli, "_load_json", reader)
        assert main(["analyze", str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error: ")
        errors.append(captured.err)
    assert errors[0] == errors[1]


# -- simulate -----------------------------------------------------------------------

def test_simulate_spec_row(tmp_path, capsys):
    out_csv = tmp_path / "env.csv"
    rc = main(["simulate", write(tmp_path, "s.json", SCALAR_STABLE),
               "--k", "2", "--out", str(out_csv)])
    assert rc == EXIT_OK
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "k,alpha,i,lo,hi"
    assert "2,0,1,0.128,0.432" in lines
    summary = json.loads(capsys.readouterr().out)
    assert summary["k"] == 2


def test_simulate_k0_reproduces_initial_cuts(tmp_path, capsys):
    out_csv = tmp_path / "env.csv"
    rc = main(["simulate", write(tmp_path, "s.json", SCALAR_STABLE),
               "--k", "0", "--out", str(out_csv)])
    assert rc == EXIT_OK
    rows = [l.split(",") for l in out_csv.read_text().splitlines()[1:]]
    by_alpha = {float(a): (float(lo), float(hi)) for _, a, _, lo, hi in rows}
    assert by_alpha[0.0] == (0.8, 1.2)
    assert by_alpha[0.5] == (0.9, 1.1)
    assert by_alpha[1.0] == (1.0, 1.0)


def test_simulate_rows_nested_across_alpha(tmp_path, capsys):
    doc = {
        "n": 2,
        "H": [[{"tfn": [0.2, 0.3, 0.4]}, {"tfn": [0.0, 0.1, 0.2]}],
              [{"tfn": [0.1, 0.15, 0.2]}, {"tfn": [0.3, 0.4, 0.5]}]],
        "x0": [{"tfn": [0.5, 1.0, 1.5]}, {"tfn": [0.25, 0.5, 0.75]}],
    }
    out_csv = tmp_path / "env.csv"
    rc = main(["simulate", write(tmp_path, "s.json", doc), "--k", "6",
               "--out", str(out_csv)])
    assert rc == EXIT_OK
    rows = [l.split(",") for l in out_csv.read_text().splitlines()[1:]]
    table = {}
    for k, a, i, lo, hi in rows:
        table.setdefault((int(k), int(i)), []).append((float(a), float(lo), float(hi)))
    for (k, i), levels in table.items():
        levels.sort()
        los = [lo for _, lo, _ in levels]
        his = [hi for _, _, hi in levels]
        assert np.all(np.diff(los) >= -1e-9), (k, i)
        assert np.all(np.diff(his) <= 1e-9), (k, i)


def test_simulate_alpha_override(tmp_path, capsys):
    out_csv = tmp_path / "env.csv"
    rc = main(["simulate", write(tmp_path, "s.json", SCALAR_UNSTABLE),
               "--k", "1", "--out", str(out_csv), "--alphas", "0,1"])
    assert rc == EXIT_OK
    alphas = {row.split(",")[1] for row in out_csv.read_text().splitlines()[1:]}
    assert alphas == {"0", "1"}


def test_simulate_sign_precondition_exit4(tmp_path, capsys):
    out_csv = tmp_path / "env.csv"
    rc = main(["simulate", write(tmp_path, "s.json", MIXED_SIGN),
               "--k", "3", "--out", str(out_csv)])
    err = capsys.readouterr().err
    assert rc == EXIT_PRECONDITION
    assert "matrix_nonneg" in err


def test_sign_indefinite_system_is_pointed_to_monte_carlo(tmp_path, capsys):
    path = write(tmp_path, "s.json", MIXED_SIGN)
    message = "dynamic-matrix lower bound has a negative entry at alpha=0; use mc_trajectories"
    rc = main(["simulate", path, "--k", "3", "--out", str(tmp_path / "env.csv")])
    assert rc == EXIT_PRECONDITION
    assert capsys.readouterr().err == f"precondition violated (matrix_nonneg): {message}\n"
    rc = main(["oracle", path, "--k", "4", "--n", "50", "--out", str(tmp_path / "runs.csv")])
    assert rc == EXIT_OK
    assert json.loads(capsys.readouterr().out)["containment_skipped"] == message


def test_simulate_io_failure_exit5(tmp_path, capsys):
    out = tmp_path / "missing" / "env.csv"
    rc = main(["simulate", write(tmp_path, "s.json", SCALAR_STABLE),
               "--k", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == EXIT_IO
    assert captured.out == ""
    assert captured.err.startswith(f"cannot write {out}: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_allocation_failure_is_one_input_error_line(tmp_path, capsys, monkeypatch):
    message = ("Unable to allocate 16.4 GiB for an array with shape "
               "(100000001, 11, 2) and data type float64")

    def too_large(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "envelope_endpoints", too_large)
    rc = main(["simulate", write(tmp_path, "s.json", SCALAR_STABLE),
               "--k", "100000000", "--out", str(tmp_path / "env.csv")])
    captured = capsys.readouterr()
    assert rc == EXIT_INPUT
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


def test_simulate_writer_streams(tmp_path, capsys, monkeypatch):
    # n = 64, 51 levels, k = 40: 133,824 rows.  Building the whole file as
    # one string would take more memory than the text itself.
    doc = random_nonneg_doc(np.random.default_rng(8), 64, 51)
    sys_file, out_csv = write(tmp_path, "s.json", doc), tmp_path / "env.csv"
    before_writer = []

    def endpoints_then_reset_peak(*args):
        out = envelope_endpoints(*args)
        before_writer.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(cli, "envelope_endpoints", endpoints_then_reset_peak)
    # The formatter tables are built once per process, on first use (about
    # 120 KB); build them here so that the writer's peak is the same whether
    # or not an earlier test has written a CSV.
    cli._g12_tables()
    tracemalloc.start()
    try:
        rc = main(["simulate", sys_file, "--k", "40", "--out", str(out_csv)])
        writer_peak = tracemalloc.get_traced_memory()[1] - before_writer[0]
    finally:
        tracemalloc.stop()
    assert rc == EXIT_OK
    size = out_csv.stat().st_size
    assert size > 5_000_000
    assert writer_peak < size / 10, (writer_peak, size)


def test_parse_peak_memory_stays_near_what_it_keeps():
    # n = 64 with 51 levels.  The parse keeps the triples (0.17 MB) and cuts
    # nothing; it peaked at 5.3 MB while it built a 3.4 MB level stack.  The
    # envelope arrays of k = 40 are 2.1 MB, its cuts at 51 levels 3.4 MB.
    doc = random_nonneg_doc(np.random.default_rng(8), 64, 51)
    parse_system_obj(doc)
    tracemalloc.start()
    try:
        system, _ = parse_system_obj(doc)
        parse_peak = tracemalloc.get_traced_memory()[1]
        envelope_endpoints(system, system.alphas, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert system.n == 64
    assert parse_peak < 1_000_000, parse_peak
    assert peak < 8_000_000, peak


def per_entry_levels_doc(rng, n: int) -> dict:
    # every entry a 3-level "levels" cell with its own interior level
    def cell():
        lo, hi = np.sort(rng.uniform(0.0, 1.0 / n, 2))
        mid = (lo + hi) / 2.0
        return {"levels": [[0.0, lo, hi], [rng.uniform(0.01, 0.99), (lo + mid) / 2.0,
                                             (mid + hi) / 2.0], [1.0, mid, mid]]}

    return {"n": n, "H": [[cell() for _ in range(n)] for _ in range(n)],
            "x0": [cell() for _ in range(n)]}


def test_entries_with_their_own_levels_parse_in_linear_memory():
    # n = 32: 1,056 entries with 1,056 distinct breakpoint grids.  A level
    # stack on the union of those grids takes 17.9 MB; the entries themselves
    # take 51 KB of endpoints.
    doc = per_entry_levels_doc(np.random.default_rng(9), 32)
    tracemalloc.start()
    try:
        system, _ = parse_system_obj(doc)
        m = level_matrix(system, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(system.groups) == 32 * 32 + 32
    assert m.lo.tolist() == [[cell["levels"][0][1] for cell in row] for row in doc["H"]]
    assert peak < 2_000_000, peak


# -- oracle --------------------------------------------------------------------------

def test_oracle_containment_clean(tmp_path, capsys):
    out_csv = tmp_path / "runs.csv"
    rc = main(["oracle", write(tmp_path, "s.json", SCALAR_STABLE),
               "--k", "8", "--n", "300", "--seed", "5", "--out", str(out_csv)])
    report = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert report["containment"]["outside"] == 0
    assert report["containment"]["max_violation"] <= 1e-12
    assert report["spectral_radius"]["count_exceeding_one"] == 0
    header = out_csv.read_text().splitlines()[0]
    assert header == "run,k,i,value"


def test_oracle_reports_unstable_samples(tmp_path, capsys):
    out_csv = tmp_path / "runs.csv"
    rc = main(["oracle", write(tmp_path, "s.json", SCALAR_UNSTABLE),
               "--k", "4", "--n", "100", "--out", str(out_csv)])
    report = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert report["spectral_radius"]["count_exceeding_one"] >= 1
    assert report["spectral_radius"]["max"] > 1.0


def test_oracle_deterministic_bytes(tmp_path, capsys):
    sys_file = write(tmp_path, "s.json", SCALAR_STABLE)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        rc = main(["oracle", sys_file, "--k", "6", "--n", "50",
                   "--seed", "11", "--mode", "timevarying", "--out", str(out)])
        assert rc == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_oracle_io_failure_exit5(tmp_path, capsys):
    out = tmp_path / "missing" / "runs.csv"
    rc = main(["oracle", write(tmp_path, "s.json", SCALAR_STABLE), "--k", "2",
               "--n", "5", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == EXIT_IO
    assert captured.out == ""
    assert captured.err.startswith("cannot write ")
    assert captured.err.startswith(f"cannot write {out}: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_oracle_skips_containment_when_sign_indefinite(tmp_path, capsys):
    out_csv = tmp_path / "runs.csv"
    rc = main(["oracle", write(tmp_path, "s.json", MIXED_SIGN),
               "--k", "4", "--n", "50", "--out", str(out_csv)])
    report = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert report["containment"] is None
    assert "containment_skipped" in report


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: containment has an absolute 1e-12 rule")
def test_oracle_counts_a_crisp_systems_runs_inside(tmp_path, capsys):
    # every run is the one member's trajectory, at magnitudes near 1e8
    for seed in range(5):
        rng = np.random.default_rng(seed)
        doc = {"n": 5, "H": rng.uniform(0.05, 0.19, (5, 5)).tolist(),
               "x0": rng.uniform(1.1e8, 1.3e8, 5).tolist()}
        main(["oracle", write(tmp_path, "s.json", doc), "--k", "20", "--n", "50",
              "--out", str(tmp_path / "runs.csv")])
        assert json.loads(capsys.readouterr().out)["containment"]["outside"] == 0, seed


# -- output digests and argument errors -------------------------------------------------

def levels(l, c, r):
    """The triangular number (l, c, r) as a {"levels"} cell."""
    return {"levels": [[0, l, r], [1, c, c]]}


# one 3x3 system with its crisp entries as plain numbers (ints and floats)
# and as {"tfn": [x, x, x]}; every value and row sum is exact in binary
CRISP_CELLS = {"n": 3,
               "H": [[{"tfn": [0.125, 0.25, 0.375]}, 0, 0.25],
                     [0.5, {"tfn": [0, 0.125, 0.25]}, 0.0],
                     [0, 0.25, {"tfn": [0.125, 0.25, 0.5]}]],
               "x0": [1, {"tfn": [0.5, 1, 1.5]}, 2.0]}
CRISP_AS_TFN = {"n": 3,
                "H": [[{"tfn": [0.125, 0.25, 0.375]}, {"tfn": [0, 0, 0]}, {"tfn": [0.25] * 3}],
                      [{"tfn": [0.5] * 3}, {"tfn": [0, 0.125, 0.25]}, {"tfn": [0.0] * 3}],
                      [{"tfn": [0, 0, 0]}, {"tfn": [0.25] * 3}, {"tfn": [0.125, 0.25, 0.5]}]],
                "x0": [{"tfn": [1, 1, 1]}, {"tfn": [0.5, 1, 1.5]}, {"tfn": [2.0] * 3}]}

TFN_DIGESTS = ("214772d723e95ffa10dddd61937268b17f95e1b0e808d1b3304bae98a7381297",
               "2d70491e190ea8ddcb2cc621c6944ac65c8f5a4af117605e0f088771a3ec2d18")
CRISP_DIGESTS = ("40c6008026f2fd07c1d04bbb86c4ab54d006ce9c50e85199ccbac169487fd1cb",
                 "1fa8f64d0d9b0b163215b7d0ab5996ca29e3aaaa2818e6ea590473f46b828b8a")

# simulate and oracle CSVs; the "tfn" and "mixed-grid" digests were taken
# before the system became a level stack.  The CSVs print 12 significant
# digits, so last-ulp BLAS differences between hosts do not reach them.
GOLDEN = {
    "tfn": ({
        "n": 2,
        "H": [[{"tfn": [0.2, 0.3, 0.4]}, {"tfn": [0.0, 0.1, 0.2]}],
              [{"tfn": [0.1, 0.15, 0.2]}, {"tfn": [0.3, 0.4, 0.5]}]],
        "x0": [{"tfn": [0.5, 1.0, 1.5]}, {"tfn": [0.25, 0.5, 0.75]}],
    }, [], *TFN_DIGESTS),
    # the same numbers as {"levels"} cells, read cell by cell, and as a mix
    # of both kinds, read by one reader: the same bytes as one flat pass
    "tfn-as-levels": ({
        "n": 2,
        "H": [[levels(0.2, 0.3, 0.4), levels(0.0, 0.1, 0.2)],
              [levels(0.1, 0.15, 0.2), levels(0.3, 0.4, 0.5)]],
        "x0": [levels(0.5, 1.0, 1.5), levels(0.25, 0.5, 0.75)],
    }, [], *TFN_DIGESTS),
    "tfn-and-levels": ({
        "n": 2,
        "H": [[{"tfn": [0.2, 0.3, 0.4]}, levels(0.0, 0.1, 0.2)],
              [{"tfn": [0.1, 0.15, 0.2]}, levels(0.3, 0.4, 0.5)]],
        "x0": [levels(0.5, 1.0, 1.5), {"tfn": [0.25, 0.5, 0.75]}],
    }, [], *TFN_DIGESTS),
    "crisp-cells": (CRISP_CELLS, [], *CRISP_DIGESTS),
    "crisp-as-tfn": (CRISP_AS_TFN, [], *CRISP_DIGESTS),
    # one cell with a breakpoint (alpha 0.3) off the --alphas grid
    "mixed-grid": ({
        "n": 2,
        "H": [[{"tfn": [0.2, 0.3, 0.4]},
               {"levels": [[0.0, 0.0, 0.25], [0.3, 0.05, 0.15], [1.0, 0.1, 0.1]]}],
              [{"tfn": [0.1, 0.15, 0.2]}, {"tfn": [0.3, 0.4, 0.5]}]],
        "x0": [{"tfn": [0.5, 1.0, 1.5]}, {"tfn": [0.25, 0.5, 0.75]}],
    }, ["--alphas", "0,0.25,0.5,0.75,1"],
        "5730a8cd866343511f753e1cc6b7c46ec02238c947d7235613a4d1bed1908756",
        "0739277afdd76b07aa0584e38c1fb48d92aeed5ad33f4b63c333014fd81ce5b9"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_golden_digests(tmp_path, capsys, name):
    doc, alphas, env_digest, runs_digest = GOLDEN[name]
    sys_file = write(tmp_path, "s.json", doc)
    env, runs = tmp_path / "env.csv", tmp_path / "runs.csv"
    assert main(["simulate", sys_file, "--k", "12", "--out", str(env)] + alphas) == EXIT_OK
    assert main(["oracle", sys_file, "--k", "12", "--n", "200", "--seed", "99",
                 "--mode", "timevarying", "--out", str(runs)]) == EXIT_OK
    assert sha256(env) == env_digest
    assert sha256(runs) == runs_digest


# -- CSV writers against the row-at-a-time reference -------------------------------------

def fmt_ref(x) -> str:
    return format(float(x), ".12g")


def simulate_csv_ref(doc, k: int) -> str:
    """The simulate CSV as the row-at-a-time writer printed it."""
    system, _ = parse_system_obj(doc)
    lo, hi = envelope_endpoints(system, system.alphas, k)
    labels = [fmt_ref(a) for a in system.alphas.tolist()]
    rows = ["k,alpha,i,lo,hi\n"]
    for step in range(k + 1):
        for a, lo_a, hi_a in zip(labels, lo[step].tolist(), hi[step].tolist()):
            for i, (l, h) in enumerate(zip(lo_a, hi_a), 1):
                rows.append(f"{step},{a},{i},{fmt_ref(l)},{fmt_ref(h)}\n")
    return "".join(rows)


def oracle_ref(doc, k: int, n_runs: int, seed: int, mode: str):
    """The oracle CSV and containment report as the row-at-a-time code made them."""
    system, _ = parse_system_obj(doc)
    runs = mc_trajectories(system, alpha=0.0, horizon=k, n=n_runs, seed=seed, mode=mode)
    rows = ["run,k,i,value\n"]
    for r in range(runs.shape[0]):
        for step in range(runs.shape[1]):
            for i in range(runs.shape[2]):
                rows.append(f"{r + 1},{step},{i + 1},{fmt_ref(runs[r, step, i])}\n")
    lo, hi = envelope_endpoints(system, 0.0, k)
    with np.errstate(invalid="ignore"):
        below = np.maximum(lo - runs, 0.0)
        above = np.maximum(runs - hi, 0.0)
        violation = np.maximum(below, above)
    outside = int(np.count_nonzero(~(violation.max(axis=2) <= 1e-12)))
    points = int(runs.shape[0] * runs.shape[1])
    containment = {"points_checked": points, "inside": points - outside,
                   "outside": outside, "max_violation": float(violation.max())}
    return "".join(rows), containment


def random_nonneg_doc(rng, n: int, levels: int) -> dict:
    def tfn():
        c = rng.uniform(0.0, 1.0 / n)
        return {"tfn": [c * rng.uniform(), c, c + rng.uniform(0.0, 0.5 / n)]}

    inner = np.sort(rng.uniform(0.0, 1.0, size=levels - 2)).tolist()
    return {"n": n, "H": [[tfn() for _ in range(n)] for _ in range(n)],
            "x0": [tfn() for _ in range(n)], "alphas": [0.0] + inner + [1.0]}


# signed zeros and subnormals in H, x0 and the level grid
TINY = {"n": 2,
        "H": [[{"tfn": [-0.0, 5e-324, 1e-310]}, {"tfn": [0.0, 0.0, 0.0]}],
              [{"tfn": [-0.0, -0.0, -0.0]}, {"tfn": [1e-320, 0.5, 1.0]}]],
        "x0": [{"tfn": [-0.0, -0.0, 5e-324]}, {"tfn": [1e-308, 2e-308, 3e-308]}],
        "alphas": [0.0, 5e-324, 1e-310, 0.5, 1.0]}


@pytest.mark.parametrize("case", range(16))
def test_simulate_csv_matches_row_reference(tmp_path, capsys, monkeypatch, case):
    # Chunks of 1 and 7 rows split steps, levels and components anywhere.
    # A step's rows (levels * n, the writer's label block) as one chunk, and
    # one row more, which starts each chunk one row further into the block.
    rng = np.random.default_rng(100 + case)
    n, levels = int(rng.integers(1, 17)), int(rng.integers(2, 102))
    chunks = (1, 7, cli.CSV_CHUNK_ROWS) if case < 12 else (levels * n, levels * n + 1)
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunks[case % 3 if case < 12 else case // 2 % 2])
    doc = random_nonneg_doc(rng, n, levels)
    k = int(rng.integers(0, 6))
    argv = ["simulate", write(tmp_path, "s.json", doc), "--k", str(k),
            "--out", str(tmp_path / "env.csv")]
    if case % 2:
        # the override grid replaces the document's own
        doc["alphas"] = [0.0] + np.sort(rng.uniform(size=levels - 2)).tolist() + [1.0]
        argv += ["--alphas", ",".join(repr(a) for a in doc["alphas"])]
    assert main(argv) == EXIT_OK
    assert (tmp_path / "env.csv").read_text() == simulate_csv_ref(doc, k)


@pytest.mark.parametrize("doc", [OVERFLOWING, TINY], ids=["overflow", "tiny"])
def test_simulate_csv_special_values_match_row_reference(tmp_path, capsys, doc):
    out_csv = tmp_path / "env.csv"
    assert main(["simulate", write(tmp_path, "s.json", doc), "--k", "4",
                 "--out", str(out_csv)]) == EXIT_OK
    with np.errstate(over="ignore", invalid="ignore"):
        expected = simulate_csv_ref(doc, 4)
        system, _ = parse_system_obj(doc)
        lo, hi = envelope_endpoints(system, system.alphas, 4)
        widths = (hi[-1] - lo[-1]).tolist()
    text = out_csv.read_text()
    assert text == expected
    special = ("inf", "nan") if doc is OVERFLOWING else ("-0", "4.94065645841e-324")
    assert all(s in text for s in special)
    # stdout stays JSON: each NaN width prints as null, and "non_finite" counts them
    captured = capsys.readouterr()
    assert captured.err == ""
    summary = strict_loads(captured.out)
    expected_widths, count = nulled(widths)
    assert [w["width"] for w in summary["final_widths"]] == expected_widths
    assert summary.get("non_finite", 0) == count
    assert (count > 0) == (doc is OVERFLOWING)


@pytest.mark.parametrize("mode", ["constant", "timevarying"])
@pytest.mark.parametrize("case", ["random", "overflow", "tiny"])
def test_oracle_csv_and_report_match_row_reference(tmp_path, capsys, monkeypatch, mode, case):
    if mode == "timevarying":  # chunks that split runs and steps
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 13)
    doc = {"random": random_nonneg_doc(np.random.default_rng(7), 5, 3),
           "overflow": OVERFLOWING, "tiny": TINY}[case]
    out_csv = tmp_path / "runs.csv"
    rc = main(["oracle", write(tmp_path, "s.json", doc), "--k", "6", "--n", "40",
               "--seed", "4", "--mode", mode, "--out", str(out_csv)])
    with np.errstate(over="ignore", invalid="ignore"):
        csv_ref, containment_ref = oracle_ref(doc, 6, 40, 4, mode)
    report = strict_loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert out_csv.read_text() == csv_ref
    containment_ref, count = nulled(containment_ref)
    assert json.dumps(report["containment"]) == json.dumps(containment_ref)
    assert report.get("non_finite", 0) == count
    if case == "overflow":  # NaN violations count as outside and print as null
        assert report["containment"]["outside"] > 0
        assert report["containment"]["max_violation"] is None and count == 1


@pytest.mark.parametrize("chunk_rows", [7, 2048])
def test_oracle_csv_with_one_row_per_run_matches_row_reference(tmp_path, capsys, monkeypatch,
                                                               chunk_rows):
    # n = 1 and k = 0: each run's block is one row, so every row is its own
    # label; 3,000 runs fill chunks of 7 rows, and a full and a partial chunk
    # of 2,048
    monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
    doc = random_nonneg_doc(np.random.default_rng(11), 1, 3)
    out_csv = tmp_path / "runs.csv"
    assert main(["oracle", write(tmp_path, "s.json", doc), "--k", "0", "--n", "3000",
                 "--seed", "5", "--out", str(out_csv)]) == EXIT_OK
    assert out_csv.read_text() == oracle_ref(doc, 0, 3000, 5, "constant")[0]


def test_endpoints_overflowing_to_inf_print_null_without_warnings(tmp_path, capsys):
    # both endpoints reach inf, so widths and violations are inf - inf
    path = write(tmp_path, "s.json", {"n": 1, "H": [[1e200]], "x0": [1e200]})
    assert main(["simulate", path, "--k", "2", "--out", str(tmp_path / "s.csv")]) == EXIT_OK
    summary = strict_loads(capsys.readouterr().out)
    assert all(w["width"] == [None] for w in summary["final_widths"])
    assert main(["oracle", path, "--k", "2", "--n", "3", "--out", str(tmp_path / "o.csv")]) == EXIT_OK
    captured = capsys.readouterr()
    assert strict_loads(captured.out)["containment"]["max_violation"] is None
    assert captured.err == ""


FULLY_FUZZY_5 = {"n": 5, "H": [[{"tfn": [-1.0, 0.0, 1.0]}] * 5] * 5,
                 "x0": [{"tfn": [0.0, 1.0, 2.0]}] * 5}

# 16 vertices, none certified by a criterion before the falsifier
NONNEG_2 = {"n": 2, "H": [[{"tfn": [0.1, 0.2, 0.3]}, {"tfn": [0.0, 0.1, 0.2]}],
                          [{"tfn": [0.5, 0.6, 0.7]}, {"tfn": [0.4, 0.5, 0.6]}]],
            "x0": [1, 1]}


BAD_INPUTS = [
    # 2^25 vertices over budget, no samples
    (["analyze", "{wide}", "--n", "0"], "33554432 vertices exceed the budget of 65536 "
                                        "and no samples were requested: no member to check"),
    (["oracle", "{scalar}", "--n", "0", "--out", "{out}"],
     "need n > 0 trajectories and a non-negative horizon"),
    (["oracle", "{scalar}", "--k", "-1", "--out", "{out}"],
     "need n > 0 trajectories and a non-negative horizon"),
    (["simulate", "{scalar}", "--k", "-1", "--out", "{out}"], "horizon must be non-negative"),
    (["simulate", "{scalar}", "--alphas", "0.5,1", "--out", "{out}"],
     "alpha grid must run from 0 to 1"),
    (["simulate", "{scalar}", "--alphas", "", "--out", "{out}"], "--alphas: cannot parse ''"),
    (["analyze", "{wide}", "--n", "-3"], "sample count must be non-negative, got -3"),
    # within the vertex budget, with a proven Perron top: no member scan runs
    (["analyze", "{nonneg}", "--n", "-1"], "sample count must be non-negative, got -1"),
    # files refused before a system is built
    (["analyze", "{not_json}"], "{not_json}: not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    (["analyze", "{list}"], "top level: expected a JSON object"),
    (["analyze", "{no_n}"], 'top level: missing "n"'),
    (["analyze", "{n_zero}"], '"n": must be positive'),
    (["analyze", "{short_t}"], '"T": expected 2 rows of 2 numbers'),
    (["distance", "{empty}", "{empty}"], "{empty}: fuzzy vector needs at least one component"),
    # usage errors: argparse's own exit code, 2, is the Falsified code
    (["analyze", "{scalar}", "--n", "x"], "fdikit analyze: argument --n: invalid int value: 'x'"),
    (["analyze", "{scalar}", "--bogus"], "fdikit: unrecognized arguments: --bogus"),
    (["simulate", "{scalar}"], "fdikit simulate: the following arguments are required: --out"),
    ([], "fdikit: the following arguments are required: command"),
]


@pytest.mark.parametrize("argv, message", BAD_INPUTS, ids=[f"argv{i}" for i in range(8)] + [
    "not-json", "top-level-list", "no-n", "n-zero", "T-shape", "empty-vector",
    "usage-bad-int", "usage-unknown-flag", "usage-missing-out", "usage-no-subcommand"])
def test_bad_argument_is_input_error(tmp_path, capsys, argv, message):
    not_json = tmp_path / "j.json"
    not_json.write_text("not json")
    files = {"wide": write(tmp_path, "w.json", FULLY_FUZZY_5),
             "nonneg": write(tmp_path, "p.json", NONNEG_2),
             "scalar": write(tmp_path, "s.json", SCALAR_STABLE),
             "out": str(tmp_path / "out.csv"),
             "list": write(tmp_path, "l.json", [SCALAR_STABLE]),
             "no_n": write(tmp_path, "m.json", {"H": [[0.5]], "x0": [1]}),
             "n_zero": write(tmp_path, "z.json", {"n": 0, "H": [], "x0": []}),
             "short_t": write(tmp_path, "t.json", dict(NONNEG_2, T=[[1, 0], [0]])),
             "empty": write(tmp_path, "e.json", []),
             "not_json": str(not_json)}
    rc = main([a.format(**files) for a in argv])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (
        EXIT_INPUT, "", f"input error: {message.format(**files)}\n")


@pytest.mark.parametrize("cell", ["H", "x0"])
@pytest.mark.parametrize("command", ["analyze", "simulate", "oracle"])
def test_overflowing_cut_width_is_input_error(tmp_path, capsys, command, cell):
    wide = {"tfn": [-1.7e308, 0.0, 1.7e308]}  # finite endpoints, width overflows
    doc = dict(SCALAR_STABLE, **{cell: [[wide]] if cell == "H" else [wide]})
    argv = [command, write(tmp_path, "s.json", doc)]
    if command != "analyze":
        argv += ["--out", str(tmp_path / "out.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    captured = capsys.readouterr()
    assert rc == EXIT_INPUT
    assert captured.out == ""
    label = '"H"[0][0]' if cell == "H" else '"x0"[0]'
    assert captured.err == f"input error: {label}: cut width hi - lo overflows\n"


# -- distance ------------------------------------------------------------------------

def test_distance_disjoint_core(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"tfn": [2, 3, 4]})
    b = write(tmp_path, "b.json", {"tfn": [3.5, 4.5, 6.5]})
    rc = main(["distance", a, b, "--metric", "membership"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.strip() == "1"


def test_distance_overlapping(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"tfn": [2, 3, 4]})
    b = write(tmp_path, "b.json", {"tfn": [0, 3, 8]})
    rc = main(["distance", a, b])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.strip() == "0.8"


def test_distance_identical_files(tmp_path, capsys):
    for doc in ({"tfn": [2, 3, 4]}, [{"tfn": [2, 3, 4]}, {"tfn": [1, 2, 3]}]):
        a = write(tmp_path, "a.json", doc)
        for metric in ("membership", "levelwise"):
            rc = main(["distance", a, a, "--metric", metric])
            assert rc == EXIT_OK
            assert capsys.readouterr().out == "0\n"


def test_distance_levelwise_vectors(tmp_path, capsys):
    a = write(tmp_path, "a.json", [{"tfn": [2, 3, 4]}, {"tfn": [0, 0, 0]}])
    b = write(tmp_path, "b.json", [{"tfn": [3.5, 4.5, 6.5]}, {"tfn": [1, 1, 1]}])
    rc = main(["distance", a, b, "--metric", "levelwise"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.strip() == "3.5"


def test_distance_huge_integer_is_input_error(tmp_path, capsys):
    a = write(tmp_path, "a.json", [{"tfn": [2, 3, 4]}, {"tfn": [0, 1, HUGE_INT]}])
    rc = main(["distance", a, a])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"input error: {a}: component 1: int too large to convert to float\n")


def test_distance_dimension_mismatch_exit1(tmp_path, capsys):
    a = write(tmp_path, "a.json", [{"tfn": [2, 3, 4]}])
    b = write(tmp_path, "b.json", [{"tfn": [2, 3, 4]}, {"tfn": [2, 3, 4]}])
    rc = main(["distance", a, b])
    assert rc == EXIT_INPUT
    rc = main(["distance", b, a])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err == (
        "input error: dimension mismatch: 1 vs 2\n"
        "input error: dimension mismatch: 2 vs 1\n")


# -- file format ---------------------------------------------------------------------

def test_load_system_rejects_bad_alphas(tmp_path):
    doc = dict(SCALAR_STABLE, alphas=[0.2, 1.0])
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_system(str(path))


def test_load_system_applies_the_alphas_override(tmp_path):
    path = write(tmp_path, "s.json", SCALAR_STABLE)
    system, _ = load_system(path, "0,0.25,1")
    assert system.alphas.tolist() == [0.0, 0.25, 1.0]
    assert load_system(path, None)[0].alphas.tolist() == [0.0, 0.5, 1.0]
    with pytest.raises(ValueError, match=r"^--alphas: cannot parse '0,x,1'$"):
        load_system(path, "0,x,1")
    with pytest.raises(ValueError, match=r"^--alphas: cannot parse ''$"):
        load_system(path, "")  # an empty override is refused, not ignored


@pytest.mark.parametrize("grid, message", [
    ([], "alpha grid must run from 0 to 1"),  # an empty level list
    ([0.0], "alpha grid must run from 0 to 1"),  # too short
    ([0.5, 1.0], "alpha grid must run from 0 to 1"),  # not from 0
    ([0.0, 0.5], "alpha grid must run from 0 to 1"),  # not to 1
    ([0.0, 0.5, 0.5, 1.0], "alpha grid must be strictly increasing"),
], ids=["empty", "too-short", "not-from-0", "not-to-1", "not-increasing"])
def test_every_grid_fault_reads_one_text_at_every_entry_point(tmp_path, capsys, grid, message):
    # one grid shared by two components: no component is named
    size = len(grid)
    lo, hi = np.tile([0.0, 1.0], (size, 1)), np.tile([1.0, 2.0], (size, 1))
    api = {"FuzzyNumber": lambda: FuzzyNumber(grid, [0.0] * size, [1.0] * size),
           "FuzzyVector.from_stack": lambda: FuzzyVector.from_stack(grid, lo, hi),
           "FuzzySystem": lambda: FuzzySystem([[0.5]], [1.0], alphas=grid)}
    got = {}
    for name, build in api.items():
        with pytest.raises(ValueError) as err:
            build()
        got[name] = str(err.value)
    cell = {"levels": [[a, 0.25, 0.75] for a in grid]}
    runs = {'"alphas"': (dict(SCALAR_STABLE, alphas=grid), []),
            "--alphas": (SCALAR_STABLE, ["--alphas", ",".join(map(repr, grid))]),
            '{"levels"} cell': (dict(SCALAR_STABLE, H=[[cell]]), [])}
    if not grid:  # an empty --alphas is a parse error (test_bad_argument_is_input_error)
        del runs["--alphas"]
    for name, (doc, extra) in runs.items():
        path = write(tmp_path, "s.json", doc)
        rc = main(["simulate", path, "--out", str(tmp_path / "out.csv")] + extra)
        captured = capsys.readouterr()
        assert (rc, captured.out) == (EXIT_INPUT, "")
        got[name] = captured.err.removeprefix("input error: ").removesuffix("\n")
    want = dict.fromkeys([*api, *runs], message)
    want['{"levels"} cell'] = f'"H"[0][0]: {message}'
    assert got == want


def test_every_nestedness_fault_reads_one_text_at_every_entry_point(tmp_path, capsys):
    # a lower endpoint that falls from alpha 0 to alpha 1, as component 1 of
    # two where a component is named
    message = "alpha-cuts must be nested (nonincreasing in alpha)"
    rows = [[0.0, 0.25, 0.75], [1.0, 0.0, 1.0]]
    grid, lo, hi = zip(*rows)
    builds = {"FuzzyNumber": lambda: FuzzyNumber(grid, lo, hi),
              "FuzzyVector.from_stack": lambda: FuzzyVector.from_stack(
                  grid, np.column_stack([[0.0, 0.5], lo]), np.column_stack([[1.0, 0.5], hi])),
              'FuzzyVector of a {"levels"} cell': lambda: FuzzyVector(
                  [Tfn(0.0, 0.5, 1.0), {"levels": rows}])}
    got = {}
    for name, build in builds.items():
        with pytest.raises(StackingViolation) as err:
            build()
        got[name] = str(err.value)
    path = write(tmp_path, "s.json", dict(SCALAR_STABLE, H=[[{"levels": rows}]]))
    rc = main(["simulate", path, "--out", str(tmp_path / "out.csv")])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (EXIT_INPUT, "")
    got["simulate"] = captured.err.removeprefix("input error: ").removesuffix("\n")
    assert got == {"FuzzyNumber": message,
                   "FuzzyVector.from_stack": f"component 1: {message}",
                   'FuzzyVector of a {"levels"} cell': f"component 1: {message}",
                   "simulate": f'"H"[0][0]: {message}'}


# -- strict JSON on stdout -----------------------------------------------------------------

# Row sums of 2.4e308 overflow: the analyze row test, every simulate width
# and the oracle's containment check meet infinities.
NON_FINITE = {"n": 4,
              "H": [[{"tfn": [8e307] * 3} if j > i else {"tfn": [0, 0, 0]} for j in range(4)]
                    for i in range(4)],
              "x0": [{"tfn": [1, 1, 1]}] * 4}


@pytest.mark.parametrize("argv, code, nulls", [
    (["analyze", "--n", "20"], EXIT_INCONCLUSIVE,
     [("witness", "sub_reports", 0, "witness", "offdiag_sum")]),
    (["simulate", "--k", "2", "--alphas", "0,1"], EXIT_OK,
     [("final_widths", a, "width", i) for a in range(2) for i in range(4)]),
    (["oracle", "--k", "2", "--n", "3"], EXIT_OK, [("containment", "max_violation")]),
], ids=["analyze", "simulate", "oracle"])
def test_non_finite_values_print_as_null_and_are_counted(tmp_path, capsys, argv, code, nulls):
    path = write(tmp_path, "s.json", NON_FINITE)
    if argv[0] != "analyze":
        argv = argv + ["--out", str(tmp_path / "out.csv")]
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main([argv[0], path] + argv[1:])
    out = capsys.readouterr().out
    report = strict_loads(out)
    assert rc == code
    assert report["non_finite"] == len(nulls)
    assert out.endswith(f', "non_finite": {len(nulls)}}}\n')
    for where in nulls:
        value = report
        for key in where:
            value = value[key]
        assert value is None
    assert nulled(report)[1] == 0


def print_json_ref(obj: dict) -> None:
    """The recursive walker that _print_json replaced: the reference bytes."""
    try:
        text = json.dumps(obj, allow_nan=False)
    except ValueError:
        count = 0

        def strict(v):
            nonlocal count
            if isinstance(v, dict):
                return {k: strict(x) for k, x in v.items()}
            if isinstance(v, (list, tuple)):
                return [strict(x) for x in v]
            if isinstance(v, float) and not math.isfinite(v):
                count += 1
                return None
            return v

        obj = strict(obj)
        obj["non_finite"] = count
        text = json.dumps(obj, allow_nan=False)
    print(text)


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("obj, nulls", [
    ({"a": NAN, "b": INF, "c": -INF}, 3),
    ({"rows": [[1.0, NAN], [-INF, [INF, 2]]], "d": {"e": {"f": NAN}, "g": [{"h": -INF}]}}, 5),
    ({"t": (1.0, (NAN, -0.0)), "z": -0.0, "big": 1e16, "i": 2 ** 53 + 1, "j": -(2 ** 64) - 3,
      "x": INF, "s": "NaN", "b": True, "n": None}, 2),
    ({"t": (1.0, (2.5, -0.0)), "z": -0.0, "big": 1e16, "i": 2 ** 53 + 1, "j": -(2 ** 64) - 3,
      "s": "Infinity", "nested": [{"k": [0.1, 1e-300]}], "b": False, "n": None}, None),
], ids=["top-level", "nested", "mixed", "all-finite"])
def test_print_json_matches_the_recursive_walker(capsys, monkeypatch, obj, nulls):
    print_json_ref(obj)
    expected = capsys.readouterr().out
    assert strict_loads(expected).get("non_finite") == nulls
    if nulls is None:  # an all-finite object is encoded once and never decoded
        monkeypatch.setattr(cli.json, "loads", None)
    cli._print_json(obj)
    assert capsys.readouterr().out == expected


# -- "tfn" cells: the flat pass against the cell-by-cell reference -------------------------------

class TfnMapping(dict):
    """A dict subclass: not a plain JSON object, so the per-cell path reads it."""


TFN_CELL_CASES = {
    "bools": [{"tfn": [False, 0.5, True]}, {"tfn": [True, True, True]},
              {"tfn": [False, False, False]}],
    "numeric-strings": [{"tfn": ["0.1", "0.2", "0.3"]}, {"tfn": ["1_000", " 2e3 ", 3000]}],
    "non-numeric-string": [{"tfn": ["abc", 1, 2]}],
    "string-triple": [{"tfn": "123"}],
    "none": [{"tfn": [None, 0, 1]}],
    "none-center": [{"tfn": [0, None, 1]}],
    "nested-list": [{"tfn": [[0], 1, 2]}],
    "nested-triple": [{"tfn": [[0, 1, 2]]}],
    "dict-entry": [{"tfn": [0, {"v": 1}, 2]}],
    "complex-entry": [{"tfn": [0, 1j, 2]}],
    "tuples": [{"tfn": (0.0, 0.5, 1.0)}, {"tfn": (1, 2, 3)}],
    "two-elements": [{"tfn": [0, 1]}],
    "four-elements": [{"tfn": [0, 1, 2, 3]}],
    "two-and-four": [{"tfn": [0, 1]}, {"tfn": [0, 1, 2, 3]}],
    "two-then-four": [{"tfn": [0, 0.5]}, {"tfn": [1, 2, 3, 4]}],  # chained, ordered triples
    "huge-integer": [{"tfn": [-10 ** 400, 0, 1]}],
    "huge-right": [{"tfn": [0, 1, 2 ** 1024]}],
    "big-integers": [{"tfn": [-2 ** 63, 2 ** 53 + 1, 2 ** 64 + 1]}, {"tfn": [2 ** 1023] * 3}],
    "nan": [{"tfn": [float("nan"), 0, 1]}],
    "nan-center": [{"tfn": [0, float("nan"), 1]}],
    "inf-right": [{"tfn": [0, 1, float("inf")]}],
    "inf-left": [{"tfn": [float("-inf"), 0, 1]}],
    "inf-all": [{"tfn": [float("inf")] * 3}],
    "minus-inf-all": [{"tfn": [float("-inf")] * 3}],
    "width-overflow": [{"tfn": [-1.7e308, 0, 1.7e308]}],
    "unordered-left": [{"tfn": [1, 0, 2]}],
    "unordered-right": [{"tfn": [0, 2, 1]}],
    "numpy-array-triple": [{"tfn": np.array([0.0, 0.5, 1.0])}],
    "numpy-scalars": [{"tfn": [np.float32(0.25), np.int64(1), np.float64(2.5)]}],
    "number-cell": [0.5, -2],
    "list-cell": [[0, 1, 2]],
    "string-cell": ["0.5"],
    "none-cell": [None],
    "tfn-object": [Tfn(0.0, 0.5, 1.0)],
    "fuzzy-number": [FuzzyNumber([0.0, 1.0], [0.0, 0.5], [1.0, 0.5])],
    "mapping-cell": [MappingProxyType({"tfn": [0, 1, 2]})],
    "dict-subclass": [TfnMapping(tfn=[0, 1, 2])],
    "levels-cell": [{"levels": [[0.0, 0.0, 1.0], [1.0, 0.5, 0.5]]}],
    "no-tfn-key": [{"tnf": [0, 1, 2]}],
    # mixes of the four kinds read in one flat pass, and kinds among them that are not
    "dicts-and-numbers": [{"tfn": [0, 1, 2]}, 0.5, -3, {"tfn": [0.5, 0.5, 0.5]}, 0.0, 2],
    "dicts-and-objects": [Tfn(0.0, 0.5, 1.0), {"tfn": [0, 1, 2]}, 0.25,
                          FuzzyNumber([0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]), Tfn(1, 2, 3), 7],
    "ints": [0, 1, -2, 2 ** 53 + 1, 2 ** 64],
    "dicts-and-huge-int": [{"tfn": [0, 1, 2]}, 10 ** 400],
    "dicts-and-unordered-tfn": [{"tfn": [0, 1, 2]}, Tfn(0.0, 0.5, 1.0), {"tfn": [2, 1, 0]}],
    "dicts-and-trapezoid": [{"tfn": [0, 1, 2]}, FuzzyNumber([0.0, 1.0], [0.0, 0.5], [1.0, 0.75])],
    "dicts-and-signed-zero-core": [{"tfn": [0, 1, 2]},
                                   FuzzyNumber([0.0, 1.0], [-1.0, -0.0], [1.0, 0.0])],
    "dicts-and-true": [{"tfn": [0, 1, 2]}, True, 0.5],
    "dicts-and-numpy-float": [{"tfn": [0, 1, 2]}, np.float64(0.5), 1.5],
    "dicts-and-no-tfn-key": [{"tfn": [0, 1, 2]}, 0.5, {"tnf": [0, 1, 2]}],
    "dicts-and-levels": [0.5, {"tfn": [0, 1, 2]}, {"levels": [[0.0, 0.0, 1.0], [1.0, 0.5, 0.5]]}],
}


@pytest.mark.parametrize("case", sorted(TFN_CELL_CASES))
def test_tfn_cells_parse_like_the_per_cell_path(case):
    cells = TFN_CELL_CASES[case]
    filler = {"tfn": [0.0, 0.25, 0.5]}
    h = [[filler] * 3 for _ in range(3)]
    for p, cell in enumerate(cells):
        h[p // 3][p % 3] = cell
    doc = {"n": 3, "H": h, "x0": [{"tfn": [1, 2, 3]}, filler, cells[-1]]}

    def label(p):
        return f'"H"[{p // 3}][{p % 3}]' if p < 9 else f'"x0"[{p - 9}]'

    # the groups of the parsed system and their cuts, or the error, as the reference reads them
    flat = [cell for row in h for cell in row] + doc["x0"]
    assert stack_outcome(lambda _: parse_system_obj(doc)[0].groups, flat) == stack_outcome(
        lambda c: ref_level_groups(c, label), flat)


def test_a_file_with_a_crisp_x0_is_gathered_in_one_stack(monkeypatch):
    h = [[{"tfn": [0.1, 0.2, 0.3]}, 0.0], [0, {"tfn": [0.0, 0.25, 0.5]}]]
    doc = {"n": 2, "H": h, "x0": [1.0, 2]}
    cells = [cell for row in h for cell in row] + doc["x0"]
    want = stack_outcome(ref_level_groups, cells)
    [(grid, index, lo, hi)] = fuzzy_num._unit_stack(cells)
    assert grid.tolist() == [0.0, 1.0] and index.tolist() == list(range(6))
    monkeypatch.setattr(fuzzy_num, "breakpoints", None)  # no cell is read on its own
    assert stack_outcome(lambda _: parse_system_obj(doc)[0].groups, cells) == want


# -- golden verdict bytes ------------------------------------------------------------------
#
# Each witness shape printed by analyze, recorded before the verdict print
# stopped walking witness lists.  Every value is exact in binary or a single
# correctly rounded operation, so BLAS differences between hosts do not reach it.

# an entry whose members reach +-8e307, so sums and products of two overflow
HUGE_WIDE = {"tfn": [-8e307, 0, 8e307]}

CRISP_VERDICT = ('{"status": "AsymptoticallyStable", "criterion": "gershgorin_nonneg", '
                 '"witness": {"row_margins": [0.375, 0.25, 0.25]}}\n')

GOLDEN_VERDICTS = {
    # crisp entries as plain numbers and as {"tfn": [x, x, x]}: the same bytes
    "crisp-cells": (CRISP_CELLS, [], EXIT_OK, CRISP_VERDICT),
    "crisp-as-tfn": (CRISP_AS_TFN, [], EXIT_OK, CRISP_VERDICT),
    # an upper-triangular family: vertex radii are diagonal entries, exactly
    "falsified-matrix": ({
        "n": 3,
        "H": [[{"tfn": [0.25, 0.5, 1.25]}, {"tfn": [-0.5, 0.0, 0.5]}, {"tfn": [0.125, 0.25, 0.375]}],
              [{"tfn": [0, 0, 0]}, {"tfn": [-0.75, -0.5, -0.25]}, {"tfn": [-1.0, 0.5, 2.0]}],
              [{"tfn": [0, 0, 0]}, {"tfn": [0, 0, 0]}, {"tfn": [0.0, 0.5, 0.75]}]],
        "x0": [{"tfn": [0.5, 1.0, 1.5]}] * 3}, ["--n", "40", "--seed", "3"], EXIT_FALSIFIED,
        '{"status": "Falsified", "criterion": "sampled_falsifier", "witness": {"matrix": '
        '[[1.25, -0.5, 0.125], [0.0, -0.75, -1.0], [0.0, 0.0, 0.0]], "spectral_radius": 1.25}}\n'),
    # hi is block-triangular with a unit corner under the identity transform
    "marginal-reduced": ({
        "n": 3,
        "H": [[{"tfn": [0.0, 0.125, 0.25]}, {"tfn": [0.0, 0.0625, 0.125]}, {"tfn": [0, 0, 0]}],
              [{"tfn": [0.0, 0.25, 0.375]}, {"tfn": [0.0, 0.25, 0.5]}, {"tfn": [0, 0, 0]}],
              [{"tfn": [0.0, 0.25, 0.5]}, {"tfn": [0.0, 0.125, 0.25]}, {"tfn": [0.5, 0.75, 1.0]}]],
        "x0": [{"tfn": [0.5, 1.0, 1.5]}] * 3,
        "T": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}, [], EXIT_OK,
        '{"status": "Stable", "criterion": "marginal_transform", "witness": {"case": "nonneg", '
        '"reduced": [[0.25, 0.125], [0.375, 0.5]]}}\n'),
    # a crisp sign-indefinite system that T^-1 H T makes block-triangular
    "marginal-reduced-box": ({
        "n": 3,
        "H": [[-1.0, -0.75, 1.0], [0.0, 0.25, 0.0], [-1.0, -0.75, 1.5]],
        "x0": [{"tfn": [0.5, 1.0, 1.5]}] * 3,
        "T": [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 1.0, 2.0]]}, [], EXIT_OK,
        '{"status": "Stable", "criterion": "marginal_transform", "witness": {"case": "general", '
        '"reduced_box": {"r_lo": -0.5, "r_hi": 0.25, "i_lo": -0.0, "i_hi": 0.0}}}\n'),
    # a sign-indefinite diagonal family inside the unit disc
    "eigen-box": ({
        "n": 2,
        "H": [[{"tfn": [-0.375, -0.25, -0.125]}, {"tfn": [0, 0, 0]}],
              [{"tfn": [0, 0, 0]}, {"tfn": [0.375, 0.5, 0.625]}]],
        "x0": [{"tfn": [0.5, 1.0, 1.5]}] * 2}, [], EXIT_OK,
        '{"status": "AsymptoticallyStable", "criterion": "eigen_box", "witness": {"eigen_box": '
        '{"r_lo": -0.375, "r_hi": 0.625, "i_lo": -0.125, "i_hi": 0.125}, "corner_moduli": '
        '[0.39528470752104744, 0.39528470752104744, 0.6373774391990981, 0.6373774391990981]}}\n'),
    # members reach the unit circle but not beyond it
    "inconclusive-sub-reports": ({
        "n": 2,
        "H": [[{"tfn": [-1.0, 0.0, 1.0]}, {"tfn": [0, 0, 0]}],
              [{"tfn": [0, 0, 0]}, {"tfn": [-0.5, 0.0, 0.5]}]],
        "x0": [{"tfn": [0.5, 1.0, 1.5]}] * 2}, ["--n", "30", "--seed", "5"], EXIT_INCONCLUSIVE,
        '{"status": "Inconclusive", "criterion": "none", "witness": {"sub_reports": ['
        '{"status": "Inconclusive", "criterion": "gershgorin_nonneg", "witness": {"reason": '
        '"lower bound matrix has a negative entry", "entry": [0, 0], "value": -1.0}}, '
        '{"status": "Inconclusive", "criterion": "gershgorin_nonpos", "witness": {"reason": '
        '"upper bound matrix has a positive entry", "entry": [0, 0], "value": 1.0}}, '
        '{"status": "Inconclusive", "criterion": "eigen_box", "witness": {"eigen_box": '
        '{"r_lo": -1.0, "r_hi": 1.0, "i_lo": -1.0, "i_hi": 1.0}, "corner_moduli": '
        '[1.4142135623730951, 1.4142135623730951, 1.4142135623730951, 1.4142135623730951]}}, '
        '{"status": "Inconclusive", "criterion": "sampled_falsifier", "witness": '
        '{"max_sampled_radius": 1.0, "n_checked": 34}}]}}\n'),
    # the same family with a transform that leaves no unit corner
    "inconclusive-marginal-sub-report": ({
        "n": 2,
        "H": [[{"tfn": [-1.0, 0.0, 1.0]}, {"tfn": [0, 0, 0]}],
              [{"tfn": [0, 0, 0]}, {"tfn": [-0.5, 0.0, 0.5]}]],
        "x0": [{"tfn": [0.5, 1.0, 1.5]}] * 2,
        "T": [[1.0, 0.0], [0.0, 1.0]]}, ["--n", "30", "--seed", "5"], EXIT_INCONCLUSIVE,
        '{"status": "Inconclusive", "criterion": "none", "witness": {"sub_reports": ['
        '{"status": "Inconclusive", "criterion": "gershgorin_nonneg", "witness": {"reason": '
        '"lower bound matrix has a negative entry", "entry": [0, 0], "value": -1.0}}, '
        '{"status": "Inconclusive", "criterion": "gershgorin_nonpos", "witness": {"reason": '
        '"upper bound matrix has a positive entry", "entry": [0, 0], "value": 1.0}}, '
        '{"status": "Inconclusive", "criterion": "eigen_box", "witness": {"eigen_box": '
        '{"r_lo": -1.0, "r_hi": 1.0, "i_lo": -1.0, "i_hi": 1.0}, "corner_moduli": '
        '[1.4142135623730951, 1.4142135623730951, 1.4142135623730951, 1.4142135623730951]}}, '
        '{"status": "Inconclusive", "criterion": "marginal_transform", "witness": '
        '{"reasons": ["general case: corner entry is 0 +- 0.5, not 1"]}}, '
        '{"status": "Inconclusive", "criterion": "sampled_falsifier", "witness": '
        '{"max_sampled_radius": 1.0, "n_checked": 34}}]}}\n'),
    # eigenvalues 0.5 and 5; the transform's corner is inf * 0 = NaN, which
    # certified Stable while a non-finite transform passed the shape tests
    "marginal-nan-corner": ({
        "n": 2, "H": [[0.5, 0], [1e308, 5]], "x0": [1, 1],
        "T": [[1, 0], [0, 1e-10]]}, [], EXIT_FALSIFIED,
        '{"status": "Falsified", "criterion": "sampled_falsifier", "witness": {"matrix": '
        '[[0.5, 0.0], [1e+308, 5.0]], "spectral_radius": 5.000000000000001}}\n'),
    # an overflowing transform of a valid file was an input error
    "marginal-overflowing-transform": ({
        "n": 3, "H": [[HUGE_WIDE, HUGE_WIDE, 0], [HUGE_WIDE, HUGE_WIDE, 0], [0, 0, 1]],
        "x0": [1, 1, 1], "T": [[2, 1, 0], [1, 2, 0], [0, 0, 1]]}, [], EXIT_FALSIFIED,
        '{"status": "Falsified", "criterion": "sampled_falsifier", "witness": {"matrix": '
        '[[8e+307, -8e+307, 0.0], [-8e+307, 8e+307, 0.0], [0.0, 0.0, 1.0]], '
        '"spectral_radius": 1.6e+308}}\n'),
    # eigen-box corner moduli overflow to inf, with no warning
    "eigen-box-overflowing-moduli": ({
        "n": 2, "H": [[HUGE_WIDE, HUGE_WIDE], [HUGE_WIDE, 1]], "x0": [1, 1]}, [], EXIT_FALSIFIED,
        '{"status": "Falsified", "criterion": "sampled_falsifier", "witness": {"matrix": '
        '[[-8e+307, -8e+307], [-8e+307, 1.0]], "spectral_radius": 1.2944271909999159e+308}}\n'),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_VERDICTS))
def test_verdict_bytes_match_recorded_output(tmp_path, capsys, name):
    doc, extra, code, expected = GOLDEN_VERDICTS[name]
    rc = main(["analyze", write(tmp_path, "s.json", doc)] + extra)
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (code, expected, "")
