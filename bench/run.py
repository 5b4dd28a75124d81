"""fdikit benchmark: seeded, closed-loop workloads with checked outputs.

Run from the repository root:

    python3 bench/run.py --workload analyze-sweep --seed 1 --seconds 50 --trace 0

One client in one worker process runs the workload's op sequence in a
fixed order (a closed loop: the next op starts when the previous one has
finished), in whole passes.  The number of passes fills ``--seconds`` at
the reference speed recorded in the corpus, so it is the same in every
run.  Every output is checked by ``checks.py``.  An
op fails when it times out, raises, exits with the wrong code or fails its
check; the run carries on.  End-to-end times are scaled to the reference
host speed by a probe timed before every op (``hostspeed.py``); the
report prints the raw times next to them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
the workload untraced for half the time, then traced for the other half,
and reports the per-layer metrics of the traced part plus the tracing
overhead.  The last line of stdout is the result object; a copy with the
environment record and every op outcome goes to
``bench/_work/BENCH_<workload>_s<seed>_t<trace>.json``.

Exit codes: 0 with a result, 2 for bad arguments, 3 when fdikit cannot be
imported from ``src`` (nothing is printed on stdout then).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402

#: Fresh interpreters timed for setup_s (after one untimed run that
#: leaves the bytecode cache warm).
SETUP_REPEATS = 11
#: Each one runs the host-speed probe (without numpy, which fdikit imports)
#: just before and just after the import.
SETUP_CODE = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import hostspeed; "
              "before = hostspeed.probe(numpy=False); t = hostspeed.perf_counter(); "
              "import fdikit, fdikit.cli; elapsed = hostspeed.perf_counter() - t; "
              "print(elapsed, before, hostspeed.probe(numpy=False), fdikit.__file__)")
#: Extra seconds the parent waits past an op's limit before it kills a
#: worker that did not answer (the worker's own alarm normally fires).
KILL_GRACE_S = 10.0
START_TIMEOUT_S = 120.0
#: Ops needed beyond the tail percentile.
TAIL_BEYOND = 10

THROUGHPUT_NAME = {"analyze-sweep": "verdicts_per_s", "envelope-levels": "boxes_per_s",
                   "mc-oracle": "member_steps_per_s"}


class SetupError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # One client, one BLAS thread (<= nproc): no oversubscription, steadier timings.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env) -> tuple[list[float], list[float]]:
    """Import times of fdikit and fdikit.cli in fresh interpreters, raw and
    scaled to the reference host speed by the probes around each import."""
    times, scaled_times = [], []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise SetupError(f"cannot import fdikit from {ROOT / 'src'}: "
                             f"{proc.stderr.strip().splitlines()[-1:]}")
        elapsed, before, after, origin = proc.stdout.split(maxsplit=3)
        if not Path(origin.strip()).resolve().is_relative_to(ROOT / "src"):
            raise SetupError(f"fdikit was imported from {origin.strip()}, not from "
                             f"{ROOT / 'src'}")
        if i:
            times.append(float(elapsed))
            scaled_times.append(scaled(float(elapsed), float(before), float(after)))
    return times, scaled_times


def scaled(latency, before, after) -> float:
    """``latency`` at the reference host speed, from the host's slowness
    just before and just after it."""
    return latency * 2.0 / (before + after)


def scale_records(phase):
    """Give every op record a ``scaled`` latency, from its own probe and the
    next op's probe (the last op uses its own twice).  A record without a
    probe (the worker was killed) keeps its raw latency."""
    records = [r for r in phase["warmup"] + [r for p in phase["passes"] for r in p]
               if not r.get("carried")]
    for rec, nxt in zip(records, records[1:] + [{}]):
        before = rec.get("slowness")
        after = nxt.get("slowness", before)
        rec["scaled"] = (rec["latency"] if before is None
                         else scaled(rec["latency"], before, after))


# -- worker process --------------------------------------------------------------

class Worker:
    """One worker process; restarted after a hard kill."""

    def __init__(self, manifest_path, traced, work: Path, env):
        self.args = [sys.executable, str(BENCH / "worker.py"), str(manifest_path),
                     "1" if traced else "0"]
        self.work, self.env = work, env
        self.proc = None
        self.starts = 0
        self.hello = None
        self.peak_kb = 0

    def start(self, warmup):
        self.starts += 1
        spans = self.work / f"spans-{self.args[-1]}-{self.starts}.jsonl"
        err = open(self.work / f"worker-{self.args[-1]}-{self.starts}.err", "w")
        try:
            self.proc = subprocess.Popen(self.args + [str(spans)], cwd=ROOT, env=self.env,
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         stderr=err)
        finally:
            err.close()
        self.buf = b""
        self.hello = self._read(START_TIMEOUT_S)
        if self.hello is None or "hello" not in self.hello:
            self.stop(kill=True)
            raise SetupError("benchmark worker did not start")
        self.hello = self.hello["hello"]
        return [self.request(op) for op in warmup]

    def _read(self, timeout):
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def request(self, op):
        """Run one op; on no answer, kill and count it at its limit."""
        limit = op.get("limit_s", 60.0)
        try:
            self.proc.stdin.write((json.dumps({"op": op["id"]}) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass
        reply = self._read(limit + KILL_GRACE_S)
        if reply is None:
            code = self.proc.poll()
            self.stop(kill=True)
            if code is not None:
                return {"op": op["id"], "status": "error", "latency": limit, "units": 0,
                        "reason": f"worker exited with code {code}"}
            return {"op": op["id"], "status": "timeout", "latency": limit, "units": 0,
                    "reason": f"worker gave no answer within {limit + KILL_GRACE_S:g} s "
                              "and was killed"}
        self.peak_kb = max(self.peak_kb, reply.get("rss_kb", 0))
        return reply

    def stop(self, kill=False):
        if self.proc is None:
            return
        if not kill:
            try:
                self.proc.stdin.write(b'{"finish": true}\n')
                self.proc.stdin.flush()
                self._read(120.0)
            except (BrokenPipeError, OSError):
                pass
        self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc = None


def planned_passes(manifest, seconds, repeat=True) -> int:
    """Passes that fill ``seconds`` at the reference speed (ceil, at least 1).

    The count depends only on the corpus and ``seconds``, so every run makes
    the same number of passes, whatever the speed of the program or host.
    """
    per_pass = sum(op["ref_s"] * (op["repeat"] if repeat else 1) for op in manifest["ops"])
    return max(1, math.ceil(seconds / per_pass))


def run_phase(manifest, manifest_path, seconds, traced, work, env, repeat=True):
    """Run the planned number of whole passes over the op sequence.

    With ``repeat``, each op runs its ``repeat`` count per pass (cheap ops
    more than once), otherwise once.  A pass is made of rounds over the op
    sequence; round r runs the ops whose count exceeds r, so the samples of
    an op are spread over the pass instead of falling in one stretch of
    host speed.  An op that hit its limit is not run again in the phase:
    its input is the same, so it counts as failed at its limit again in
    every later pass.
    """
    worker = Worker(manifest_path, traced, work, env)
    warm = worker.start(manifest["warmup"])
    passes, timed_out = [], {}
    rounds = max(op["repeat"] for op in manifest["ops"]) if repeat else 1
    for _ in range(planned_passes(manifest, seconds, repeat)):
        records = []
        for rnd in range(rounds):
            for op in manifest["ops"]:
                if rnd >= (op["repeat"] if repeat else 1):
                    continue
                if op["id"] in timed_out:
                    if rnd == 0:
                        records.append(dict(timed_out[op["id"]], carried=True))
                    continue
                if worker.proc is None:
                    warm += worker.start(manifest["warmup"])
                rec = worker.request(op)
                records.append(rec)
                if rec["status"] == "timeout":
                    rec["latency"] = op["limit_s"]  # counted at the limit
                    timed_out[op["id"]] = {k: v for k, v in rec.items() if k != "layers"}
        passes.append(records)
    worker.stop()
    phase = {"passes": passes, "warmup": warm, "peak_kb": worker.peak_kb,
             "hello": worker.hello, "starts": worker.starts}
    scale_records(phase)
    return phase


# -- metrics -----------------------------------------------------------------------

def by_op(passes, ops):
    """Every record of each op, in manifest order."""
    groups = {op["id"]: [] for op in ops}
    for records in passes:
        for rec in records:
            groups[rec["op"]].append(rec)
    return [groups[op["id"]] for op in ops]


def op_values(groups):
    """Per-op latency: the median of its scaled samples in the run; any
    failure makes it +inf."""
    return [math.inf if any(r["status"] != "ok" for r in recs)
            else statistics.median(r["scaled"] for r in recs) for recs in groups]


def sequence_wall(groups, ops, key="scaled"):
    """One pass with each op at the median of its samples (``key`` picks
    scaled or raw latencies); a timeout counts at its limit, which is not
    scaled since it is not measured."""
    return sum(op["limit_s"] if any(r["status"] == "timeout" for r in recs)
               else statistics.median(r[key] for r in recs) for recs, op in zip(groups, ops))


def tail(values):
    """(latency, percentile) of the highest percentile with TAIL_BEYOND ops beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    idx = max(n - TAIL_BEYOND - 1, 0)
    return ordered[idx], 100.0 * (idx + 1) / n


def end_to_end(phase, manifest, setup):
    """End-to-end metrics; every time is scaled to the reference host speed
    by the probes around each sample (``hostspeed.py``)."""
    ops, passes = manifest["ops"], phase["passes"]
    setup_raw, setup_scaled = setup
    groups = by_op(passes, ops)
    values = op_values(groups)
    finite_max = max((op["limit_s"] for op in ops), default=0.0)
    p50 = statistics.median(values)
    tail_value, tail_pct = tail(values)
    wall = sequence_wall(groups, ops)
    raw_wall = sequence_wall(groups, ops, key="latency")
    units = sum(recs[0]["units"] for recs in groups
                if all(r["status"] == "ok" for r in recs))
    samples = sum(len(recs) for recs in groups)
    peak_kb = max(phase["peak_kb"], resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    n_pass = len(passes)
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s",
                    f"median of {len(setup_scaled)} fresh interpreters, scaled; "
                    f"raw {statistics.median(setup_raw):.6g} s"),
        "wall_s": (wall, "s", f"one pass, each op at its median scaled sample "
                              f"({samples} samples in {n_pass} passes); "
                              f"raw {raw_wall:.6g} s"),
        "op_p50_s": (p50 if math.isfinite(p50) else finite_max, "s",
                     f"median of {len(values)} ops, each at its median scaled sample"),
        "op_tail_s": (tail_value if math.isfinite(tail_value) else finite_max, "s",
                      f"p{tail_pct:.1f} of {len(values)} ops, {TAIL_BEYOND} beyond it"
                      + ("" if math.isfinite(tail_value)
                         else "; a failed op sits there, reported at the largest limit")),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", f"peak RSS of {phase['starts']} worker(s)"),
        "work_per_s": (units / wall, "1/s",
                       f"= {THROUGHPUT_NAME[manifest['workload']]}: {units} correct units "
                       f"per pass / wall_s"),
    }
    return metrics


# per-layer metric -> (unit, kind, keys).  "calls", "self" and "items" sum that
# column over the named spans; "count" reads a boundary count; "ratio" divides
# a boundary count by the calls of a span.
FJ, CUT = "fuzzy_num.fuzzy_from_json", "fuzzy_num.FuzzyNumber.cut"
VERT, SAMPLE = "interval_linalg.vertex_matrices", "interval_linalg.sample_matrix"
BOXES = ("interval_linalg.IntervalMatrix.__init__", "interval_linalg.IntervalVector.__init__")
CRITERIA = ("stability.gershgorin_nonneg_test", "stability.gershgorin_nonpos_test",
            "stability.eigen_box_bounds", "stability.condeig_check", "stability.marginal_test")
FALSIFIER = "stability.sampled_falsifier"

PER_LAYER = {
    "fuzzy_num.from_json_calls": ("count", "calls", (FJ,)),
    "fuzzy_num.from_json_self_s": ("s", "self", (FJ,)),
    "fuzzy_num.cut_calls": ("count", "calls", (CUT,)),
    "fuzzy_num.cut_self_s": ("s", "self", (CUT,)),
    "fuzzy_num.validate_nested_self_s": ("s", "self", ("fuzzy_num.validate_nested",)),
    "fuzzy_num.membership_calls": ("count", "calls", ("fuzzy_num.FuzzyNumber.membership",
                                                      "fuzzy_num.FuzzyNumber.membership_limit")),
    "metrics.d_membership_calls": ("count", "calls", ("metrics.d_membership",)),
    "metrics.d_membership_self_s": ("s", "self", ("metrics.d_membership",)),
    "metrics.d_levelwise_self_s": ("s", "self", ("metrics.d_levelwise",)),
    "interval_linalg.vertices_yielded": ("count", "items", (VERT,)),
    "interval_linalg.vertex_matrices_self_s": ("s", "self", (VERT,)),
    "interval_linalg.sample_matrix_calls": ("count", "calls", (SAMPLE,)),
    "interval_linalg.sample_matrix_self_s": ("s", "self", (SAMPLE,)),
    "interval_linalg.box_constructions": ("count", "calls", BOXES),
    "interval_linalg.box_construction_self_s": ("s", "self", BOXES),
    "stability.analyze_calls": ("count", "calls", ("stability.analyze",)),
    "stability.decisive_ratio": ("ratio", "ratio", ("analyze_decisive", "stability.analyze")),
    "stability.criteria_self_s": ("s", "self", CRITERIA),
    "stability.falsifier_self_s": ("s", "self", (FALSIFIER,)),
    "stability.falsifier_members": ("count", "count", ("falsifier_members",)),
    "stability.falsifier_yield": ("ratio", "ratio", ("falsifier_falsified", FALSIFIER)),
    "stability.spectral_radii_matrices": ("count", "count", ("spectral_radii_matrices",)),
    "stability.spectral_radii_self_s": ("s", "self", ("stability.spectral_radii",)),
    "stability.rayleigh_self_s": ("s", "self", ("stability.eigen_box_rayleigh",)),
    "fdi_sim.system_build_self_s": ("s", "self", ("fdi_sim.FuzzySystem.__init__",)),
    "fdi_sim.level_matrix_calls": ("count", "calls", ("fdi_sim.level_matrix",)),
    "fdi_sim.level_matrix_self_s": ("s", "self", ("fdi_sim.level_matrix",)),
    "fdi_sim.envelope_self_s": ("s", "self", ("fdi_sim.envelope_propagate",)),
    "fdi_sim.envelope_box_steps": ("count", "count", ("envelope_box_steps",)),
    "fdi_sim.assemble_self_s": ("s", "self", ("fdi_sim.assemble_fuzzy_attainable",)),
    "fdi_sim.mc_self_s": ("s", "self", ("fdi_sim.mc_trajectories",)),
    "fdi_sim.mc_member_steps": ("count", "count", ("mc_member_steps",)),
    "fdi_sim.mc_bytes_computed": ("bytes", "count", ("mc_bytes_computed",)),
    "cli.load_system_self_s": ("s", "self", ("cli.load_system", "cli.parse_system_obj")),
    "cli.cmd_simulate_self_s": ("s", "self", ("cli.cmd_simulate",)),
    "cli.cmd_oracle_self_s": ("s", "self", ("cli.cmd_oracle",)),
    "cli.csv_rows": ("count", "count", ("csv_rows",)),
    "cli.csv_bytes": ("bytes", "count", ("csv_bytes",)),
}


def per_layer(traced, untraced, ops):
    """Per-layer totals of the traced worker (its warm-up plus every traced
    pass), divided by the number of traced passes; ratios from the totals."""
    spans = defaultdict(lambda: [0, 0.0, 0])
    counts = defaultdict(float)
    records = traced["warmup"] + [r for p in traced["passes"] for r in p]
    for rec in records:
        layers = rec.get("layers")
        if not layers:
            continue
        for name, (calls, self_s, items) in layers["spans"].items():
            entry = spans[name]
            entry[0] += calls
            entry[1] += self_s
            entry[2] += items
        for key, value in layers["counts"].items():
            counts[key] += value
    n_pass = len(traced["passes"])
    column = {"calls": 0, "self": 1, "items": 2}
    metrics = {}
    for name, (unit, kind, keys) in PER_LAYER.items():
        if kind == "ratio":
            num, den = counts[keys[0]], spans[keys[1]][0]
            value = num / den if den else 0.0
        elif kind == "count":
            value = counts[keys[0]] / n_pass
        else:
            value = sum(spans[k][column[kind]] for k in keys) / n_pass
        metrics[name] = (value, unit, "per traced pass, warm-up included")
    t_wall = sequence_wall(by_op(traced["passes"], ops), ops)
    u_wall = sequence_wall(by_op(untraced["passes"], ops), ops)
    metrics["trace.overhead_s"] = (t_wall - u_wall, "s",
                                   f"traced wall_s {t_wall:.4f} - untraced {u_wall:.4f}")
    return metrics


# -- environment record -----------------------------------------------------------

def environment(seed, seconds, manifest, hello):
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": None, "caches": {},
           "python": hello.get("python"), "numpy": hello.get("numpy"),
           "scipy": hello.get("scipy"), "blas_threads": hello.get("blas_threads"),
           "git_commit": None, "source_sha256": None, "seed": seed,
           "run_seconds": seconds}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        env["cpu_model"] = models[0] if models else None
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            env["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            env["git_commit"] = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    env["source_sha256"] = digest.hexdigest()
    limits = [op["limit_s"] for op in manifest["ops"]]
    env["op_limits_s"] = {"factor": corpus.LIMIT_FACTOR, "floor": corpus.LIMIT_FLOOR_S,
                          "min": min(limits), "max": max(limits), "sum": round(sum(limits), 3)}
    return env


# -- report ------------------------------------------------------------------------

def summarize(phases, manifest):
    attempted = failed = checked_bad = 0
    failures = []
    ops = {op["id"]: op for op in manifest["ops"]}
    for label, phase in phases:
        for n_pass, records in enumerate(phase["passes"], 1):
            for rec in records:
                op = ops[rec["op"]]
                attempted += 1
                if rec["status"] == "ok":
                    continue
                failed += 1
                checked_bad += rec["status"] in ("check", "error")
                note = " (not run again)" if rec.get("carried") else ""
                if "known_defect" in op:
                    note += f" [known defect: {op['known_defect']}]"
                failures.append(f"failure {label} pass {n_pass} {rec['op']}: "
                                f"{rec['status']}: {rec['reason']}{note}")
    warm_bad = [f"warm-up {r['op']}: {r['status']}: {r['reason']}"
                for _, phase in phases for r in phase["warmup"] if r["status"] != "ok"]
    return attempted, failed, checked_bad, failures + warm_bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)

    work = BENCH / "_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = worker_env()
    try:
        setup = measure_setup(env)
        manifest = corpus.generate(args.workload, args.seed,
                                   (work / "corpus").relative_to(ROOT))
        manifest_path = work / "corpus" / "manifest.json"
        if args.trace:
            # one execution per op and pass in both halves, so that the
            # traced and untraced wall_s compare like with like
            untraced = run_phase(manifest, manifest_path, args.seconds / 2, False, work, env,
                                 repeat=False)
            traced = run_phase(manifest, manifest_path, args.seconds / 2, True, work, env,
                               repeat=False)
            phases = [("untraced", untraced), ("traced", traced)]
            metrics = per_layer(traced, untraced, manifest["ops"])
        else:
            phase = run_phase(manifest, manifest_path, args.seconds, False, work, env)
            phases = [("untraced", phase)]
            metrics = end_to_end(phase, manifest, setup)
    except SetupError as exc:
        print(f"benchmark setup failed: {exc}", file=sys.stderr)
        return 3

    attempted, failed, checked_bad, failures = summarize(phases, manifest)
    env_record = environment(args.seed, args.seconds, manifest, phases[-1][1]["hello"])
    print(f"# fdikit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(env_record, sort_keys=True))
    print(f"ops: {len(manifest['ops'])} per pass; passes: "
          + ", ".join(f"{label} {len(p['passes'])}" for label, p in phases)
          + f"; attempted {attempted}, failed {failed}, "
            f"fail_ratio {failed / attempted:.4f}")
    for line in failures:
        print(line)
    print(f"checks: {attempted - failed} outputs passed their independent check, "
          f"{checked_bad} wrong or raised, {failed - checked_bad} timed out")
    for name, (value, unit, note) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} ({note})")
    if not args.trace:
        units_per_s = metrics["work_per_s"][0]
        print(f"metric {THROUGHPUT_NAME[args.workload]} = {units_per_s:.6g} 1/s")
        print(f"metric fail_ratio = {failed / attempted:.6g} ratio")
    result = {"correct": checked_bad == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in metrics.items()}}
    record = {"workload": args.workload, "trace": args.trace, "environment": env_record,
              "result": result, "failures": failures,
              "ops": {label: p["passes"] for label, p in phases}}
    for label, p in phases:
        for records in p["passes"]:
            for rec in records:
                rec.pop("layers", None)
    (BENCH / "_work" / f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
