"""Benchmark worker: runs the ops of one workload in-process, one at a time.

Started by ``run.py`` as ``python3 bench/worker.py MANIFEST TRACE SPANS``
with ``src`` on ``PYTHONPATH``.  It reads one JSON request per line on
stdin (``{"op": id}`` or ``{"finish": true}``) and answers each with one
JSON line on its original stdout; everything fdikit prints is captured.
Before each op it runs the host-speed probe (``hostspeed.py``) and adds
the host's slowness to the answer as ``slowness``.

Each op runs under a SIGALRM time limit.  Input preparation and the
output check run outside the timed region; the check uses only numpy
(``checks.py``).  With TRACE = 1 the tracer wraps fdikit before any op
runs, and each answer carries that op's per-layer totals.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import io
import json
import os
import resource
import signal
import sys
import traceback
import zlib
from time import perf_counter

import numpy as np

import checks
import hostspeed

#: Address-space cap for the worker: a runaway allocation fails the op
#: with MemoryError instead of pressing on the machine.
ADDRESS_SPACE_BYTES = 4 * 2 ** 30


class OpTimeout(BaseException):
    """Raised by the SIGALRM handler when an op exceeds its limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Runner:
    def __init__(self, tracer):
        import fdikit.cli  # noqa: F401  (imports every layer)

        self.tracer = tracer
        self.attainable = {}
        self.systems = {}

    def system(self, path) -> checks.TfnSystem:
        if path not in self.systems:
            self.systems[path] = checks.TfnSystem(path)
        return self.systems[path]

    # -- the timed part ---------------------------------------------------------

    def execute(self, op, sys_):
        import fdikit

        kind = op["kind"]
        if kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = fdikit.cli.main(op["argv"])
                except SystemExit as exc:
                    code = exc.code
            return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
        if kind == "rayleigh":
            m = fdikit.interval_linalg.IntervalMatrix(sys_.hl, sys_.hr)
            box = fdikit.stability.eigen_box_rayleigh(m, n_starts=op["n_starts"],
                                                      seed=op["seed"])
            return {"value": (box.r_lo, box.r_hi, box.i_lo, box.i_hi)}
        if kind == "assemble":
            tfn, fsys = fdikit.fuzzy_num.Tfn, fdikit.fdi_sim.FuzzySystem
            h = [[tfn(*t) for t in zip(l, c, r)]
                 for l, c, r in zip(sys_.hl.tolist(), sys_.hc.tolist(), sys_.hr.tolist())]
            x0 = fdikit.fuzzy_num.FuzzyVector(
                [tfn(*t) for t in zip(sys_.xl.tolist(), sys_.xc.tolist(), sys_.xr.tolist())])
            system = fsys(h=h, x0=x0, alphas=np.array(sys_.alphas))
            return {"value": fdikit.fdi_sim.assemble_fuzzy_attainable(system, op["k"])}
        if kind == "distance":
            att = self.attainable.get(op["source"])
            if att is None:
                raise RuntimeError(f"input op {op['source']} did not succeed")
            a, b = op["steps"]
            return {"value": fdikit.metrics.d_fuzzy_vec(att.steps[a], att.steps[b],
                                                        which=op["metric"])}
        if kind == "mc":
            system, _ = fdikit.cli.load_system(op["system"])
            return {"value": fdikit.fdi_sim.mc_trajectories(
                system, 0.0, op["k"], op["N"], seed=op["seed"], mode=op["mode"])}
        raise ValueError(f"unknown op kind {kind!r}")

    # -- the untimed check ------------------------------------------------------

    def check(self, op, sys_, out):
        kind = op["kind"]
        if kind == "cli":
            verb = op["argv"][0]
            if verb == "analyze":
                rng = np.random.default_rng(zlib.crc32(op["id"].encode()))
                return checks.check_analyze(op["expect"], out["code"], out["stdout"],
                                            sys_, rng), 1
            csv = op["argv"][op["argv"].index("--out") + 1]
            if verb == "simulate":
                argv = op["argv"]
                levels = (len(argv[argv.index("--alphas") + 1].split(","))
                          if "--alphas" in argv else sys_.alphas.size)
                return (checks.check_simulate(op, out["code"], out["stdout"], sys_, csv),
                        levels * (op["k"] + 1))
            return (checks.check_oracle(op, out["code"], out["stdout"], sys_, csv),
                    op["N"] * op["k"])
        if kind == "rayleigh":
            return checks.check_rayleigh(out["value"], sys_), 0
        if kind == "assemble":
            att = out["value"]
            lo, hi = checks.attainable_arrays(att)
            why = checks.check_assemble(att.alphas, lo, hi, sys_, op["k"])
            if why is None:
                self.attainable[op["id"]] = att
            return why, sys_.alphas.size * (op["k"] + 1)
        if kind == "distance":
            horizon = len(self.attainable[op["source"]].steps) - 1
            return checks.check_distance(op["metric"], out["value"], sys_, horizon,
                                         op["steps"]), 0
        return checks.check_mc(out["value"], op, sys_), op["N"] * op["k"]

    def run(self, op) -> dict:
        sys_ = self.system(op["system"])
        if op["kind"] == "assemble":
            self.attainable.pop(op["id"], None)  # re-added if this run passes its check
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(op["id"])
        result = {"op": op["id"], "status": "ok", "reason": None, "units": 0}
        limit = op.get("limit_s", 60.0)
        out = None
        # Each op starts from a collected heap, as a fresh `fdikit` process
        # would, instead of paying for garbage an earlier op left behind.
        gc.collect()
        signal.setitimer(signal.ITIMER_REAL, limit)
        t0 = perf_counter()
        try:
            out = self.execute(op, sys_)
            latency = perf_counter() - t0
        except OpTimeout:
            latency = perf_counter() - t0
            result.update(status="timeout", reason=f"no result within {limit:g} s")
        except Exception as exc:  # an op that raises is a failed op; keep going
            latency = perf_counter() - t0
            where = traceback.extract_tb(exc.__traceback__)[-1]
            result.update(status="error", reason=f"{type(exc).__name__}: {exc} "
                                                  f"({os.path.basename(where.filename)}:"
                                                  f"{where.lineno})")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        result["latency"] = latency
        if tracer is not None:
            result["layers"] = tracer.end_op()
            if op["kind"] == "cli" and "--out" in op["argv"]:
                result["layers"]["counts"].update(_csv_size(op))
        if out is not None:
            why, units = self.check(op, sys_, out)
            if why is not None:
                result.update(status="check", reason=why)
            else:
                result["units"] = units
        if op["kind"] == "cli" and "--out" in op["argv"]:
            # Checked CSVs are removed at once, so their pages are dropped
            # before writeback and disk flushes do not land in later ops.
            with contextlib.suppress(FileNotFoundError):
                os.remove(op["argv"][op["argv"].index("--out") + 1])
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return result


def _csv_size(op) -> dict:
    """CSV rows and bytes written by a simulate or oracle op, from the file."""
    path = op["argv"][op["argv"].index("--out") + 1]
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return {}
    return {"csv_rows": max(data.count(b"\n") - 1, 0), "csv_bytes": len(data)}


def main(argv) -> int:
    manifest_path, traced, spans_path = argv[0], argv[1] == "1", argv[2]
    proto = os.fdopen(os.dup(1), "w", buffering=1, encoding="utf-8")
    os.dup2(2, 1)  # stray prints must not corrupt the protocol stream
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    ops = {op["id"]: op for op in manifest["ops"] + manifest["warmup"]}
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))
    tracer = None
    t0 = perf_counter()
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    runner = Runner(tracer)
    signal.signal(signal.SIGALRM, _on_alarm)
    import scipy

    gc.freeze()  # modules and the manifest stay out of every later collection

    proto.write(json.dumps({"hello": {
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "blas_threads": blas_threads(),
        "pid": os.getpid()}}) + "\n")
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("finish"):
            count = tracer.dump(spans_path, t0) if tracer is not None else 0
            proto.write(json.dumps({"finished": True, "spans": count}) + "\n")
            break
        slowness = hostspeed.probe()  # just before the op, outside its timed region
        proto.write(json.dumps(dict(runner.run(ops[request["op"]]), slowness=slowness))
                    + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
