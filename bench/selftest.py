"""Self-tests of the benchmark's generator and output checks.

Run from the repository root:  python3 bench/selftest.py

* The same seed gives a byte-identical corpus; another seed does not.
* Every check accepts a genuine fdikit output and rejects a deliberately
  corrupted one: a perturbed CSV value, a flipped verdict, a witness
  outside the family, and the like.

Prints one PASS or FAIL line per case and exits 1 if any case fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import corpus  # noqa: E402

WORK = BENCH / "_work" / "selftest"
RESULTS = []


def case(name: str, ok: bool, detail: str = "") -> None:
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))


def accepts(name, why):
    case(f"accepts genuine {name}", why is None, why or "")


def rejects(name, why):
    case(f"rejects {name}", why is not None, why or "check passed a corrupted output")


def digest(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def test_corpus():
    out = WORK / "corpus"
    for workload in corpus.WORKLOADS:
        shutil.rmtree(out, ignore_errors=True)
        corpus.generate(workload, 7, out)
        first = digest(out)
        shutil.rmtree(out)
        corpus.generate(workload, 7, out)
        second = digest(out)
        case(f"{workload}: seed 7 twice gives a byte-identical corpus "
             f"({len(first)} files)", first == second)
        shutil.rmtree(out)
        corpus.generate(workload, 8, out)
        third = digest(out)
        changed = sum(first[k] != third.get(k) for k in first)
        case(f"{workload}: seed 8 changes the corpus", changed > 0, f"{changed} files differ")
    shutil.rmtree(out, ignore_errors=True)


def cli(argv):
    import fdikit.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = fdikit.cli.main(argv)
    return code, buf.getvalue()


def write_system(name, doc) -> str:
    path = WORK / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_analyze():
    rng = np.random.default_rng(11)
    for family in ("nonneg", "unstable", "marginal"):
        path = write_system(f"an-{family}", corpus._family(family, 2, rng))
        status, criterion, code_ok = corpus.ANALYZE_FAMILIES[family]
        expect = {"family": family, "status": status, "criterion": criterion,
                  "exit": code_ok}
        system = checks.TfnSystem(path)
        code, out = cli(["analyze", path])
        accepts(f"{family} verdict", checks.check_analyze(expect, code, out, system, rng))
        verdict = json.loads(out)
        flipped = dict(verdict, status="Falsified" if status != "Falsified"
                       else "AsymptoticallyStable")
        rejects(f"flipped {family} verdict",
                checks.check_analyze(expect, code, json.dumps(flipped), system, rng))
        rejects(f"wrong exit code on {family}",
                checks.check_analyze(expect, 3, out, system, rng))
        if family == "unstable":
            outside = json.loads(out)
            outside["witness"]["matrix"][0][0] = float(system.hr[0, 0]) + 0.1
            rejects("witness outside the family",
                    checks.check_analyze(expect, code, json.dumps(outside), system, rng))
            misreported = json.loads(out)
            misreported["witness"]["spectral_radius"] *= 1.01
            rejects("witness with a misreported radius",
                    checks.check_analyze(expect, code, json.dumps(misreported), system, rng))
    # A family that is not certifiable must not pass as certified.
    unstable = checks.TfnSystem(WORK / "an-unstable.json")
    fake = {"status": "AsymptoticallyStable", "criterion": "gershgorin_nonneg"}
    rejects("certificate of an unstable family (sound-member check)",
            checks.check_analyze({"family": "x", "status": fake["status"],
                                  "criterion": fake["criterion"], "exit": 0},
                                 0, json.dumps(fake), unstable, rng))


def test_rayleigh():
    import fdikit

    path = write_system("ray", corpus._family("eigbox", 3, np.random.default_rng(3)))
    system = checks.TfnSystem(path)
    box = fdikit.eigen_box_rayleigh(fdikit.IntervalMatrix(system.hl, system.hr),
                                    n_starts=2, seed=1)
    value = (box.r_lo, box.r_hi, box.i_lo, box.i_hi)
    accepts("Rayleigh box", checks.check_rayleigh(value, system))
    rejects("Rayleigh box outside the closed form",
            checks.check_rayleigh((value[0], value[1] + 1.0, value[2], value[3]), system))


def perturb_csv(path, row, col, factor):
    lines = Path(path).read_text().splitlines(keepends=True)
    fields = lines[row].rstrip("\n").split(",")
    fields[col] = repr(float(fields[col]) * factor)
    lines[row] = ",".join(fields) + "\n"
    Path(path).write_text("".join(lines))


def test_envelopes():
    import fdikit

    rng = np.random.default_rng(5)
    path = write_system("env", corpus._nonneg_system(rng, 3, (0.9, 0.99), levels=5))
    system = checks.TfnSystem(path)
    csv = str(WORK / "env.csv")
    op = {"k": 10, "argv": ["simulate", path, "--k", "10", "--out", csv]}
    code, out = cli(op["argv"])
    accepts("simulate CSV", checks.check_simulate(op, code, out, system, csv))
    perturb_csv(csv, 40, 3, 1 + 1e-6)
    rejects("perturbed simulate CSV value", checks.check_simulate(op, code, out, system, csv))
    cli(op["argv"])
    lines = Path(csv).read_text().splitlines(keepends=True)
    Path(csv).write_text("".join(lines[:-1]))
    rejects("simulate CSV with a missing row",
            checks.check_simulate(op, code, out, system, csv))

    att = fdikit.assemble_fuzzy_attainable(fdikit.cli.load_system(path)[0], 10)
    lo, hi = checks.attainable_arrays(att)
    accepts("attainable boxes", checks.check_assemble(att.alphas, lo, hi, system, 10))
    bad = hi.copy()
    bad[5, 2, 1] *= 1 + 1e-6
    rejects("perturbed attainable box", checks.check_assemble(att.alphas, lo, bad, system, 10))
    swapped = lo.copy()
    swapped[3, [0, -1]] = lo[3, [-1, 0]]
    rejects("attainable boxes not nested across alpha",
            checks._nesting_error(swapped, hi, axis=1))

    for metric in ("membership", "levelwise"):
        value = fdikit.d_fuzzy_vec(att.steps[5], att.steps[10], which=metric)
        accepts(f"{metric} distance", checks.check_distance(metric, value, system, 10, (5, 10)))
    value = fdikit.d_fuzzy_vec(att.steps[5], att.steps[10], which="levelwise")
    rejects("wrong level-wise distance",
            checks.check_distance("levelwise", value * (1 + 1e-6), system, 10, (5, 10)))
    rejects("membership distance above n",
            checks.check_distance("membership", system.n + 0.5, system, 10, (5, 10)))


def test_oracle():
    import fdikit

    rng = np.random.default_rng(9)
    path = write_system("mc", corpus._nonneg_system(rng, 3, (0.8, 0.95)))
    system = checks.TfnSystem(path)
    csv = str(WORK / "mc.csv")
    op = {"k": 6, "N": 40, "mode": "timevarying",
          "argv": ["oracle", path, "--k", "6", "--n", "40", "--mode", "timevarying",
                   "--out", csv]}
    code, out = cli(op["argv"])
    accepts("oracle CSV and report", checks.check_oracle(op, code, out, system, csv))
    perturb_csv(csv, 100, 3, 1.5)
    rejects("perturbed oracle CSV value", checks.check_oracle(op, code, out, system, csv))
    cli(op["argv"])
    report = json.loads(out)
    report["containment"]["outside"] = 1
    report["containment"]["inside"] -= 1
    rejects("oracle report claiming points outside",
            checks.check_oracle(op, code, json.dumps(report), system, csv))
    report = json.loads(out)
    report["spectral_radius"]["n_checked"] += 1
    rejects("oracle report with a wrong member count",
            checks.check_oracle(op, code, json.dumps(report), system, csv))

    mc_op = {"k": 6, "N": 40}
    runs = fdikit.mc_trajectories(fdikit.cli.load_system(path)[0], 0.0, 6, 40, seed=1,
                                  mode="constant")
    accepts("mc trajectories", checks.check_mc(runs, mc_op, system))
    bad = runs.copy()
    bad[3, 4, 1] *= 1.5
    rejects("perturbed mc trajectory", checks.check_mc(bad, mc_op, system))


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    test_corpus()
    test_analyze()
    test_rayleigh()
    test_envelopes()
    test_oracle()
    shutil.rmtree(WORK, ignore_errors=True)
    failed = RESULTS.count(False)
    print(f"{len(RESULTS) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
