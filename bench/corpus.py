"""Seeded input corpus for the three benchmark workloads.

``generate(workload, seed, out_dir)`` writes one JSON system file per
system and a ``manifest.json`` holding the op sequence, and returns the
manifest.  The same seed always gives byte-identical files.  Only numpy is
used here; fdikit sees nothing but the files.

Every family is built so that its expected verdict holds by construction
(norm or Perron bounds computed here with numpy); a draw that misses its
margin is redrawn from the same seeded stream.
"""

from __future__ import annotations

import json
import math
import zlib
from pathlib import Path

import numpy as np

WORKLOADS = ("analyze-sweep", "envelope-levels", "mc-oracle")

#: A hang in fdikit when this benchmark was written (ROADMAP item 1): an
#: interval matrix with >= 63 wide entries makes ``vertex_count`` overflow
#: int64 (0 or negative), every vertex budget check passes, and the
#: enumeration of 2^64 vertices never ends.
OVERFLOW = "vertex_count int64 overflow: enumeration of >= 2^63 vertices never ends"

#: Each op's time limit is LIMIT_FACTOR x its reference cost, at least
#: LIMIT_FLOOR_S.  Reference costs were measured on a 2-core Xeon (KVM,
#: numpy 2.4.6, one BLAS thread); for the ops that hang (OVERFLOW) they
#: are the cost measured with the vertex_count overflow fixed, so a fix
#: shows up as a passing op instead of another timeout.
LIMIT_FACTOR = 3.0
LIMIT_FLOOR_S = 0.3

ANALYZE_SIZES = (2, 4, 8, 16, 32, 64)

# family -> (expected status, criterion that must fire, exit code)
ANALYZE_FAMILIES = {
    "nonneg": ("AsymptoticallyStable", "gershgorin_nonneg", 0),
    "nonpos": ("AsymptoticallyStable", "gershgorin_nonpos", 0),
    "eigbox": ("AsymptoticallyStable", "eigen_box", 0),
    "marginal": ("Stable", "marginal_transform", 0),
    "unstable": ("Falsified", "sampled_falsifier", 2),
    "nearbound": ("Inconclusive", "none", 3),
}


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


#: Untraced runs repeat an op (in rounds, see run.py) until about
#: REPEAT_TARGET_S of its reference cost is spent per pass, at most
#: MAX_REPEAT times, so that short ops get enough samples for their median
#: to be steady.
REPEAT_TARGET_S = 0.5
MAX_REPEAT = 5


def _limit(ref_s: float) -> float:
    return round(max(LIMIT_FLOOR_S, LIMIT_FACTOR * ref_s), 3)


def _timing(ref_s: float) -> dict:
    """Reference cost, time limit and repeat count of an op."""
    repeat = max(1, min(MAX_REPEAT, math.ceil(REPEAT_TARGET_S / ref_s)))
    return {"ref_s": ref_s, "limit_s": _limit(ref_s), "repeat": repeat}


def _rho(a: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def _tfn_grid(lo, c, hi) -> list:
    return [[{"tfn": [float(l), float(m), float(r)]} for l, m, r in zip(*row)]
            for row in zip(lo, c, hi)]


def _tfn_vec(lo, c, hi) -> list:
    return [{"tfn": [float(l), float(m), float(r)]} for l, m, r in zip(lo, c, hi)]


def _between(rng, lo, hi):
    """Triangle peaks strictly inside [lo, hi], clipped against rounding."""
    return np.clip(lo + rng.uniform(0.3, 0.7, size=np.shape(lo)) * (hi - lo), lo, hi)


def _state(rng, n):
    lo = rng.uniform(0.5, 1.0, n)
    c = lo + rng.uniform(0.2, 0.5, n)
    hi = c + rng.uniform(0.2, 0.5, n)
    return _tfn_vec(lo, c, hi)


def _system(lo, c, hi, x0, alphas=None, t=None) -> dict:
    doc = {"n": int(np.shape(lo)[0]), "H": _tfn_grid(lo, c, hi), "x0": x0}
    if alphas is not None:
        doc["alphas"] = alphas
    if t is not None:
        doc["T"] = np.asarray(t, dtype=float).tolist()
    return doc


def _grid(levels: int) -> list:
    return [i / (levels - 1) for i in range(levels)]


# -- analyze families ------------------------------------------------------------

def _nonneg_rows(rng, n, row_sums):
    b = rng.uniform(0.2, 1.0, (n, n))
    return b * (np.asarray(row_sums) / b.sum(axis=1))[:, None]


def _family(kind: str, n: int, rng) -> dict:
    x0 = _tfn_vec(np.full(n, 0.5), np.ones(n), np.full(n, 1.5))
    for _ in range(1000):
        if kind in ("nonneg", "nonpos"):
            # Every row of the upper matrix sums to at most 0.9: the strict
            # row test certifies.
            hi = _nonneg_rows(rng, n, rng.uniform(0.6, 0.9, n))
            lo = hi * rng.uniform(0.5, 0.8, (n, n))
            c = _between(rng, lo, hi)
            if kind == "nonneg":
                return _system(lo, c, hi, x0)
            return _system(-hi, -c, -lo, x0)
        if kind == "eigbox":
            # ||C||_2 = 0.4 and ||D||_2 <= n * max(D) <= 0.2 bound every
            # corner of the closed-form eigenvalue box by sqrt(2) * 0.6 < 1.
            center = rng.standard_normal((n, n))
            center *= 0.4 / np.linalg.norm(center, 2)
            rad = rng.uniform(0.5, 1.0, (n, n)) * 0.2 / n
            lo, hi = center - rad, center + rad
            if np.any(lo < 0) and np.any(hi > 0):
                return _system(lo, center, hi, x0)
            continue
        if kind == "marginal":
            # Column-stochastic upper matrix: 1^T H = 1^T, so with
            # T = [[I, 0], [-1^T, 1]] the transformed matrix has last row
            # e_n^T and reduced block H_ij - H_in, whose rows stay below 1.
            v = rng.uniform(0.8, 1.2, (n, n))
            hi = v / v.sum(axis=0)
            lo = hi * rng.uniform(0.5, 0.9, (n, n))
            reduced = hi[:-1, :-1] - hi[:-1, -1:]
            if n > 1 and np.abs(reduced).sum(axis=1).max() >= 0.9:
                continue
            t = np.eye(n)
            t[-1, :-1] = -1.0
            return _system(lo, _between(rng, lo, hi), hi, x0, t=t)
        if kind == "unstable":
            # Non-negative family whose lower matrix already has radius
            # 1.2, so every member is unstable.
            b = rng.uniform(0.2, 1.0, (n, n))
            lo = b * (1.2 / _rho(b))
            hi = lo * rng.uniform(1.1, 1.4, (n, n))
            return _system(lo, _between(rng, lo, hi), hi, x0)
        if kind == "nearbound":
            # Non-negative, radius of the upper matrix 0.97 (so no member
            # is unstable), but made non-normal by a diagonal similarity so
            # that a row sum and the symmetric part both exceed 1: no
            # criterion certifies and the falsifier finds nothing.
            g = 10.0 ** (np.arange(n) / max(n - 1, 1))
            a = rng.uniform(0.05, 1.0, (n, n)) * g[:, None] / g[None, :]
            hi = a * (0.97 / _rho(a))
            lo = hi * rng.uniform(0.85, 0.95, (n, n))
            c = _between(rng, lo, hi)
            sym_max = np.linalg.eigvalsh((c + c.T) / 2.0)[-1]
            if hi.sum(axis=1).max() > 1.02 and sym_max > 1.02:
                return _system(lo, c, hi, x0)
            continue
        raise ValueError(f"unknown family {kind!r}")
    raise RuntimeError(f"no {kind} family with n={n} met its margin")


#: Falsifier samples per analyze op (the CLI default is 1000): keeps the
#: cost of the n = 64 falsifier, once the overflow is fixed, near 0.5 s.
FALSIFIER_SAMPLES = 200

# Reference costs in seconds (see LIMIT_FACTOR).  analyze: n -> family cost.
_ANALYZE_REF = {
    2: {**dict.fromkeys(ANALYZE_FAMILIES, 0.01), "unstable": 0.05, "nearbound": 0.05},
    4: {**dict.fromkeys(ANALYZE_FAMILIES, 0.01), "unstable": 2.6, "nearbound": 2.6},
    8: dict.fromkeys(ANALYZE_FAMILIES, 0.02),
    16: dict.fromkeys(ANALYZE_FAMILIES, 0.05),
    32: {**dict.fromkeys(ANALYZE_FAMILIES, 0.1), "unstable": 0.16, "nearbound": 0.16},
    64: {**dict.fromkeys(ANALYZE_FAMILIES, 0.35), "unstable": 0.5, "nearbound": 0.5},
}
_RAYLEIGH_SIZES = (2, 4, 8)
_RAYLEIGH_STARTS = 2
_RAYLEIGH_REF = 0.4


def _analyze_ops(seed: int, out: Path) -> list:
    ops, rayleigh = [], []
    for n in ANALYZE_SIZES:
        for kind, (status, criterion, code) in ANALYZE_FAMILIES.items():
            name = f"an-{kind}-n{n}"
            path = out / f"{name}.json"
            _write(path, _family(kind, n, _rng(seed, name)))
            ref = _ANALYZE_REF[n][kind]
            op = {"id": name, "kind": "cli", "system": str(path),
                  "argv": ["analyze", str(path), "--n", str(FALSIFIER_SAMPLES),
                           "--seed", str(seed % 1000)],
                  "expect": {"family": kind, "status": status,
                             "criterion": criterion, "exit": code},
                  **_timing(ref)}
            if n >= 8 and kind in ("unstable", "nearbound"):
                op["known_defect"] = OVERFLOW
            ops.append(op)
            if kind == "eigbox" and n in _RAYLEIGH_SIZES:
                rayleigh.append({"id": f"ray-eigbox-n{n}", "kind": "rayleigh",
                                 "system": str(path), "n_starts": _RAYLEIGH_STARTS, "seed": 1,
                                 **_timing(_RAYLEIGH_REF)})
    return ops + rayleigh


# -- envelope-levels -------------------------------------------------------------

def _nonneg_system(rng, n, row_sum_range, levels=None):
    hi = _nonneg_rows(rng, n, rng.uniform(*row_sum_range, n))
    lo = hi * rng.uniform(0.6, 0.9, (n, n))
    alphas = _grid(levels) if levels else None
    return _system(lo, _between(rng, lo, hi), hi, _state(rng, n), alphas=alphas)


# (n, levels, horizon, --alphas override levels or None, reference cost)
_SIMULATE = (
    (2, 21, 100, None, 0.06),
    (2, 101, 50, None, 0.15),
    (4, 21, 100, None, 0.09),
    (4, 51, 150, None, 0.27),
    (8, 21, 100, None, 0.13),
    (16, 21, 50, None, 0.16),
    (16, 11, 100, None, 0.14),
    (32, 11, 50, None, 0.25),
    (2, 51, 200, None, 0.25),
    (4, 101, 100, None, 0.35),
    (4, 11, 50, None, 0.03),
    (8, 51, 200, None, 0.45),
    (8, 11, 100, None, 0.05),
    (16, 51, 150, 26, 0.35),
    (16, 11, 20, None, 0.07),
    (32, 51, 100, None, 1.1),
    (32, 21, 20, None, 0.35),
    (64, 51, 40, None, 2.5),
)
# (n, levels, horizon, reference cost of build + assemble)
_ASSEMBLE = (
    (2, 51, 100, 0.25),
    (4, 101, 100, 0.45),
    (8, 101, 50, 0.3),
    (8, 11, 50, 0.06),
    (16, 51, 50, 0.35),
    (32, 21, 60, 0.45),
)
_DISTANCE_REF = {"membership": 0.3, "levelwise": 0.01}


def _envelope_ops(seed: int, out: Path) -> list:
    ops = []
    for n, levels, k, override, ref in _SIMULATE:
        name = f"sim-n{n}-L{levels}-k{k}" + (f"-A{override}" if override else "")
        path = out / f"{name}.json"
        _write(path, _nonneg_system(_rng(seed, name), n, (0.9, 0.99), levels))
        argv = ["simulate", str(path), "--k", str(k),
                "--out", str(out / f"{name}.csv")]
        if override:
            argv += ["--alphas", ",".join(repr(a) for a in _grid(override))]
        ops.append({"id": name, "kind": "cli", "system": str(path), "argv": argv,
                    "k": k, **_timing(ref)})
    for n, levels, k, ref in _ASSEMBLE:
        name = f"asm-n{n}-L{levels}-k{k}"
        path = out / f"{name}.json"
        _write(path, _nonneg_system(_rng(seed, name), n, (0.9, 0.99), levels))
        ops.append({"id": name, "kind": "assemble", "system": str(path), "k": k,
                    **_timing(ref)})
        for metric, dref in _DISTANCE_REF.items():
            ops.append({"id": f"dist-{metric}-{name[4:]}", "kind": "distance",
                        "source": name, "system": str(path), "metric": metric,
                        "steps": [k // 2, k], **_timing(dref)})
    return ops


# -- mc-oracle -------------------------------------------------------------------

def _leslie(rng, n):
    """Leslie matrix: fuzzy fecundities (row 0) and survival rates (the
    subdiagonal), crisp zeros elsewhere: 2n - 1 fuzzy entries."""
    c = np.zeros((n, n))
    c[0] = rng.uniform(0.05, 0.4, n)
    surv = rng.uniform(0.7, 0.95, n - 1)
    c[np.arange(1, n), np.arange(n - 1)] = surv
    # Scaling fecundities by 1 / R0 (net reproduction) puts the radius of
    # the centre at exactly 1, so trajectories neither explode nor vanish.
    c[0] /= float(c[0] @ np.concatenate([[1.0], np.cumprod(surv)]))
    lo, hi = c.copy(), c.copy()
    lo[0], hi[0] = 0.8 * c[0], 1.2 * c[0]
    idx = (np.arange(1, n), np.arange(n - 1))
    lo[idx], hi[idx] = surv - 0.05, np.minimum(surv + 0.05, 1.0)
    return _system(lo, c, hi, _state(rng, n))


def _sign_indefinite(rng, n):
    center = rng.standard_normal((n, n))
    center *= 0.6 / np.linalg.norm(center, 2)
    rad = rng.uniform(0.5, 1.0, (n, n)) * 0.1 / n
    return _system(center - rad, center, center + rad, _state(rng, n))


_MC_SYSTEMS = {
    "leslie30": lambda rng: _leslie(rng, 30),
    "nonneg4": lambda rng: _nonneg_system(rng, 4, (0.8, 0.95)),
    "sign6": lambda rng: _sign_indefinite(rng, 6),
    "dense2": lambda rng: _nonneg_system(rng, 2, (0.8, 0.95)),
    "dense4": lambda rng: _nonneg_system(rng, 4, (0.6, 0.9)),
    "dense8": lambda rng: _nonneg_system(rng, 8, (0.8, 0.95)),
}
# (system, mode, N, k, reference cost)
_ORACLE = (
    ("leslie30", "constant", 1000, 20, 1.8),
    ("leslie30", "timevarying", 1000, 20, 2.1),
    ("nonneg4", "timevarying", 1000, 50, 0.55),
    ("nonneg4", "constant", 1000, 20, 0.25),
    ("nonneg4", "timevarying", 1000, 20, 0.25),
    ("sign6", "constant", 1000, 30, 0.45),
    ("sign6", "timevarying", 1000, 20, 0.35),
    ("dense2", "constant", 3000, 20, 0.35),
    ("dense2", "timevarying", 1000, 50, 0.3),
    ("dense2", "constant", 1000, 50, 0.3),
    ("dense2", "timevarying", 1000, 20, 0.15),
    ("dense4", "constant", 1000, 40, 0.42),
    ("dense4", "constant", 1000, 20, 0.25),
    ("dense4", "timevarying", 1000, 20, 0.25),
    ("dense8", "constant", 1000, 20, 0.4),
    ("dense8", "timevarying", 1000, 20, 0.4),
)
# library mc_trajectories calls, N = 10^4 as in the acceptance suite
_MC_LIBRARY = (
    ("leslie30", "constant", 10000, 50, 1.3),
    ("nonneg4", "constant", 10000, 50, 0.06),
    ("nonneg4", "timevarying", 10000, 50, 0.3),
    ("sign6", "constant", 10000, 50, 0.08),
    ("sign6", "timevarying", 10000, 20, 0.22),
    ("dense2", "timevarying", 10000, 50, 0.08),
    ("dense8", "constant", 10000, 20, 0.06),
)


def _mc_ops(seed: int, out: Path) -> list:
    paths = {}
    for name, make in _MC_SYSTEMS.items():
        paths[name] = out / f"mc-{name}.json"
        _write(paths[name], make(_rng(seed, name)))
    ops = []
    for i, (name, mode, n_runs, k, ref) in enumerate(_ORACLE):
        op_id = f"or-{name}-{mode}-N{n_runs}-k{k}"
        path = paths[name]
        op = {"id": op_id, "kind": "cli", "system": str(path),
              "argv": ["oracle", str(path), "--k", str(k), "--n", str(n_runs),
                       "--seed", str(seed * 100 + i), "--mode", mode,
                       "--out", str(out / f"{op_id}.csv")],
              "k": k, "N": n_runs, "mode": mode, **_timing(ref)}
        if name == "dense8":
            op["known_defect"] = OVERFLOW
        ops.append(op)
    for i, (name, mode, n_runs, k, ref) in enumerate(_MC_LIBRARY):
        ops.append({"id": f"mc-{name}-{mode}-N{n_runs}-k{k}", "kind": "mc",
                    "system": str(paths[name]), "k": k, "N": n_runs, "mode": mode,
                    "seed": seed * 100 + 50 + i, **_timing(ref)})
    return ops


# -- warm-up ---------------------------------------------------------------------

def warmup_ops(out: Path) -> list:
    """One tiny op of every kind, run untimed when a worker starts so lazy
    imports and caches are settled before timing.  Fixed inputs."""
    rng = _rng(0, "warmup")
    files = {"nonneg": _family("nonneg", 2, rng), "unstable": _family("unstable", 2, rng),
             "eigbox": _family("eigbox", 2, rng),
             "env": _nonneg_system(rng, 2, (0.5, 0.9), levels=3)}
    for name, doc in files.items():
        _write(out / f"warm-{name}.json", doc)
    p = {name: str(out / f"warm-{name}.json") for name in files}
    return [
        {"id": "warm-an-nonneg", "kind": "cli", "system": p["nonneg"],
         "argv": ["analyze", p["nonneg"]],
         "expect": {"family": "nonneg", "status": "AsymptoticallyStable",
                    "criterion": "gershgorin_nonneg", "exit": 0}},
        {"id": "warm-an-unstable", "kind": "cli", "system": p["unstable"],
         "argv": ["analyze", p["unstable"], "--n", "10"],
         "expect": {"family": "unstable", "status": "Falsified",
                    "criterion": "sampled_falsifier", "exit": 2}},
        {"id": "warm-ray", "kind": "rayleigh", "system": p["eigbox"], "n_starts": 1, "seed": 1},
        {"id": "warm-sim", "kind": "cli", "system": p["env"], "k": 3,
         "argv": ["simulate", p["env"], "--k", "3", "--out", str(out / "warm-sim.csv")]},
        {"id": "warm-or", "kind": "cli", "system": p["env"], "k": 3, "N": 10,
         "mode": "timevarying",
         "argv": ["oracle", p["env"], "--k", "3", "--n", "10", "--mode", "timevarying",
                  "--out", str(out / "warm-or.csv")]},
        {"id": "warm-asm", "kind": "assemble", "system": p["env"], "k": 3},
        {"id": "warm-dist-m", "kind": "distance", "source": "warm-asm", "system": p["env"],
         "metric": "membership", "steps": [1, 3]},
        {"id": "warm-dist-l", "kind": "distance", "source": "warm-asm", "system": p["env"],
         "metric": "levelwise", "steps": [1, 3]},
        {"id": "warm-mc", "kind": "mc", "system": p["env"], "k": 3, "N": 10,
         "mode": "constant", "seed": 0},
    ]


# -- entry point -----------------------------------------------------------------

def _write(path: Path, doc) -> None:
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


_BUILDERS = {"analyze-sweep": _analyze_ops, "envelope-levels": _envelope_ops,
             "mc-oracle": _mc_ops}


def generate(workload: str, seed: int, out_dir) -> dict:
    """Write the corpus for ``workload`` under ``out_dir``; return the manifest.

    Paths inside the manifest are as given by ``out_dir`` (relative paths
    stay relative to the directory the benchmark runs from).
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": workload, "seed": seed,
                "ops": _BUILDERS[workload](seed, out),
                "warmup": warmup_ops(out)}
    _write(out / "manifest.json", manifest)
    return manifest
