"""Independent output checks, written against the system files with numpy only.

Nothing here imports fdikit.  Every check returns ``None`` when the output
is right and a one-line reason when it is not.  Tolerances:

* CSV values carry 12 significant digits, so CSV endpoints must match the
  endpoint recursion to a relative 1e-9 (RTOL), and nestedness across
  alpha may be broken by at most a relative 1e-12 (NEST_TOL).
* Library arrays are compared with the same RTOL (the recursion order of
  operations differs from the program's).
* Certificates: an asymptotic verdict needs every checked member's
  spectral radius below 1; a marginal (Stable) verdict allows 1 + 1e-9.
"""

from __future__ import annotations

import json

import numpy as np

RTOL = 1e-9
NEST_TOL = 1e-12
MARGINAL_TOL = 1e-9
FALSIFY_TOL = 1e-9
#: Families with at most this many vertex matrices are checked on all of them.
MAX_CHECK_VERTICES = 2 ** 10
#: Random members drawn per certified family (on top of both endpoint matrices).
N_CHECK_MEMBERS = 64
DEFAULT_ALPHAS = [round(i / 10, 12) for i in range(11)]


class TfnSystem:
    """A system file whose entries are all triangular ``{"tfn": [l, c, r]}``."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        h = np.array([[cell["tfn"] for cell in row] for row in doc["H"]], dtype=float)
        x = np.array([cell["tfn"] for cell in doc["x0"]], dtype=float)
        self.n = int(doc["n"])
        self.hl, self.hc, self.hr = h[..., 0], h[..., 1], h[..., 2]
        self.xl, self.xc, self.xr = x[:, 0], x[:, 1], x[:, 2]
        self.alphas = np.asarray(doc.get("alphas", DEFAULT_ALPHAS), dtype=float)

    def cuts(self, alphas):
        """Alpha-cuts of H and x0 for each level: shapes (L, n, n) and (L, n)."""
        a = np.asarray(alphas, dtype=float)
        s = (1.0 - a)
        m_lo = self.hc - s[:, None, None] * (self.hc - self.hl)
        m_hi = self.hc + s[:, None, None] * (self.hr - self.hc)
        x_lo = self.xc - s[:, None] * (self.xc - self.xl)
        x_hi = self.xc + s[:, None] * (self.xr - self.xc)
        return m_lo, m_hi, x_lo, x_hi

    def envelope(self, alphas, k):
        """Endpoint recursion lo' = M_lo lo, hi' = M_hi hi: (k+1, L, n) each."""
        m_lo, m_hi, lo, hi = self.cuts(alphas)
        los, his = [lo], [hi]
        for _ in range(k):
            lo = np.einsum("aij,aj->ai", m_lo, lo)
            hi = np.einsum("aij,aj->ai", m_hi, hi)
            los.append(lo)
            his.append(hi)
        return np.array(los), np.array(his)

    @property
    def nonneg(self) -> bool:
        return bool(np.all(self.hl >= 0) and np.all(self.xl >= 0))


def spectral_radii(stack) -> np.ndarray:
    return np.max(np.abs(np.linalg.eigvals(np.asarray(stack))), axis=-1)


def _close(got, ref) -> float:
    """Largest relative error of ``got`` against ``ref`` (inf on shape mismatch)."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return np.inf
    scale = np.maximum(np.abs(ref), 1e-300)
    return float(np.max(np.abs(got - ref) / scale)) if got.size else 0.0


def _members(sys: TfnSystem, rng) -> np.ndarray:
    """All vertices when there are few, else both endpoint matrices plus samples."""
    lo, hi = sys.hl, sys.hr
    wide = np.argwhere(hi > lo)
    if 2 ** len(wide) <= MAX_CHECK_VERTICES:
        masks = (np.arange(2 ** len(wide))[:, None] >> np.arange(len(wide))) & 1
        out = np.repeat(lo[None], len(masks), axis=0)
        out[:, wide[:, 0], wide[:, 1]] = np.where(masks == 1, hi[tuple(wide.T)],
                                                  lo[tuple(wide.T)])
        return out
    samples = rng.uniform(lo, hi, size=(N_CHECK_MEMBERS,) + lo.shape)
    return np.concatenate([lo[None], hi[None], samples])


def _last_json(stdout: str):
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


# -- analyze -----------------------------------------------------------------------

def check_analyze(expect: dict, code: int, stdout: str, sys: TfnSystem, rng):
    try:
        verdict = _last_json(stdout)
    except ValueError as exc:
        return f"verdict is not JSON: {exc}"
    status, criterion = verdict.get("status"), verdict.get("criterion")
    if status != expect["status"] or criterion != expect["criterion"]:
        return (f"{expect['family']} family: got {status} via {criterion}, "
                f"expected {expect['status']} via {expect['criterion']}")
    if code != expect["exit"]:
        return f"exit code {code}, expected {expect['exit']} for {status}"
    if status in ("AsymptoticallyStable", "Stable"):
        radii = spectral_radii(_members(sys, rng))
        worst = float(radii.max())
        if status == "AsymptoticallyStable" and worst >= 1.0:
            return f"certified asymptotically stable, but a member has radius {worst:.6g}"
        if status == "Stable" and worst > 1.0 + MARGINAL_TOL:
            return f"certified stable, but a member has radius {worst:.6g}"
    elif status == "Falsified":
        witness = verdict.get("witness") or {}
        try:
            w = np.asarray(witness["matrix"], dtype=float)
            claimed = float(witness["spectral_radius"])
        except (KeyError, TypeError, ValueError):
            return "falsified verdict without a witness matrix and radius"
        if w.shape != sys.hl.shape:
            return f"witness has shape {w.shape}, expected {sys.hl.shape}"
        if np.any(w < sys.hl) or np.any(w > sys.hr):
            return "witness matrix lies outside the alpha = 0 family"
        rho = float(spectral_radii(w))
        if rho <= 1.0 + FALSIFY_TOL:
            return f"witness radius recomputes to {rho:.6g}, not above 1"
        if abs(rho - claimed) > 1e-9 * rho:
            return f"witness radius {claimed:.12g} recomputes to {rho:.12g}"
    return None


def own_eigen_box(lo, hi):
    """Closed-form eigenvalue rectangle (r_lo, r_hi, i_hi) of [lo, hi]."""
    c, d = (lo + hi) / 2.0, (hi - lo) / 2.0
    sym_c = np.linalg.eigvalsh((c + c.T) / 2.0)
    spread = np.linalg.eigvalsh((d + d.T) / 2.0)[-1]
    skew = np.linalg.norm((c - c.T) / 2.0, 2)
    return sym_c[0] - spread, sym_c[-1] + spread, skew + spread


def check_rayleigh(box, sys: TfnSystem):
    r_lo, r_hi, i_lo, i_hi = box
    if not np.all(np.isfinite(box)) or r_lo > r_hi or i_lo > i_hi:
        return f"Rayleigh box {box} is not a finite rectangle"
    b_rlo, b_rhi, b_ihi = own_eigen_box(sys.hl, sys.hr)
    tol = 1e-9
    if r_lo < b_rlo - tol or r_hi > b_rhi + tol or i_lo < -b_ihi - tol or i_hi > b_ihi + tol:
        return "Rayleigh box is not inside the closed-form eigenvalue box"
    return None


# -- envelopes ---------------------------------------------------------------------

def _load_csv(path, header: str, ncols: int):
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
        if first != header:
            raise ValueError(f"header {first!r}, expected {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        data = data.reshape(0, ncols)
    if data.shape[1] != ncols:
        raise ValueError(f"{data.shape[1]} columns, expected {ncols}")
    return data


def _nesting_error(lo, hi, axis):
    """Reason string when boxes along ``axis`` (increasing alpha) are not nested."""
    scale = np.maximum(np.abs(hi), np.abs(lo)).max() or 1.0
    tol = NEST_TOL * scale
    if np.any(hi - lo < -tol):
        return "a box has lo > hi"
    if np.any(np.diff(lo, axis=axis) < -tol) or np.any(np.diff(hi, axis=axis) > tol):
        return "boxes are not nested across alpha"
    return None


def check_simulate(op: dict, code: int, stdout: str, sys: TfnSystem, csv_path):
    if code != 0:
        return f"exit code {code}, expected 0"
    k = op["k"]
    grid = sys.alphas
    if "--alphas" in op["argv"]:
        grid = np.asarray([float(v) for v in op["argv"][op["argv"].index("--alphas") + 1]
                           .split(",")])
    try:
        summary = _last_json(stdout)
        data = _load_csv(csv_path, "k,alpha,i,lo,hi", 5)
    except (OSError, ValueError) as exc:
        return f"unreadable output: {exc}"
    n, levels = sys.n, grid.size
    if data.shape[0] != (k + 1) * levels * n:
        return f"{data.shape[0]} CSV rows, expected {(k + 1) * levels * n}"
    if summary.get("k") != k or len(summary.get("final_widths", [])) != levels:
        return "summary does not describe the run"
    data = data.reshape(k + 1, levels, n, 5)
    if (np.any(data[..., 0] != np.arange(k + 1)[:, None, None])
            or np.any(data[..., 2] != np.arange(1, n + 1))
            or np.any(np.abs(data[..., 1] - grid[:, None]) > 1e-11)):
        return "CSV rows are not ordered by step, level, coordinate"
    ref_lo, ref_hi = sys.envelope(grid, k)
    err = max(_close(data[..., 3], ref_lo), _close(data[..., 4], ref_hi))
    if err > RTOL:
        return f"CSV endpoints differ from the endpoint recursion by {err:.3g} (relative)"
    widths = np.array([w["width"] for w in summary["final_widths"]])
    if _close(widths, ref_hi[-1] - ref_lo[-1]) > 1e-6:
        return "summary final widths differ from the recursion"
    return _nesting_error(data[..., 3], data[..., 4], axis=1)


def attainable_arrays(att):
    """(k+1, L, n) lower and upper endpoint arrays of a fuzzy attainable result."""
    lo = np.array([[comp.lo for comp in step.components] for step in att.steps])
    hi = np.array([[comp.hi for comp in step.components] for step in att.steps])
    return lo.transpose(0, 2, 1), hi.transpose(0, 2, 1)


def check_assemble(att_alphas, lo, hi, sys: TfnSystem, k: int):
    if not np.array_equal(np.asarray(att_alphas), sys.alphas):
        return "attainable sets use another alpha grid"
    ref_lo, ref_hi = sys.envelope(sys.alphas, k)
    err = max(_close(lo, ref_lo), _close(hi, ref_hi))
    if err > RTOL:
        return f"attainable boxes differ from the endpoint recursion by {err:.3g}"
    return _nesting_error(lo, hi, axis=1)


def check_distance(metric: str, value, sys: TfnSystem, k: int, steps):
    if not np.isfinite(value):
        return f"distance {value} is not finite"
    if metric == "membership":
        if not 0.0 <= value <= sys.n + 1e-12:
            return f"membership distance {value} outside [0, {sys.n}]"
        return None
    ref_lo, ref_hi = sys.envelope(sys.alphas, k)
    a, b = steps
    gap = np.maximum(np.abs(ref_lo[a] - ref_lo[b]), np.abs(ref_hi[a] - ref_hi[b]))
    ref = float(gap.max(axis=0).sum())
    if abs(value - ref) > RTOL * max(abs(ref), 1e-300):
        return f"level-wise distance {value!r}, numpy reference {ref!r}"
    return None


# -- Monte Carlo -----------------------------------------------------------------

#: Runs checked at a time, so that the check's temporaries stay far below
#: the program's own arrays in the worker's peak RSS.
CHUNK_RUNS = 256


def _trajectory_errors(runs, sys: TfnSystem, tol: float):
    """Reason when runs (N, k+1, n) are not trajectories of the alpha = 0 family."""
    x0 = runs[:, 0]
    scale = np.abs(x0).max() or 1.0
    if np.any(x0 < sys.xl - tol * scale) or np.any(x0 > sys.xr + tol * scale):
        return "a start point lies outside the initial box"
    # Each step x' = U x with U in [lo, hi]: x'_i lies between the sums of
    # the per-entry minima and maxima of lo_ij x_j and hi_ij x_j, which are
    # lo x+ + hi x- and hi x+ + lo x- for the positive and negative parts.
    bound = np.maximum(np.abs(sys.hl), np.abs(sys.hr)).T
    for start in range(0, runs.shape[0], CHUNK_RUNS):
        chunk = runs[start:start + CHUNK_RUNS]
        if not np.all(np.isfinite(chunk)):
            return "non-finite trajectory values"
        x, nxt = chunk[:, :-1], chunk[:, 1:]
        pos, neg = np.maximum(x, 0.0), np.minimum(x, 0.0)
        slack = tol * (np.abs(x) @ bound) + 1e-300
        if (np.any(nxt < pos @ sys.hl.T + neg @ sys.hr.T - slack)
                or np.any(nxt > pos @ sys.hr.T + neg @ sys.hl.T + slack)):
            return "a step leaves the image of the member family"
    return None


def own_outside(runs, sys: TfnSystem, tol: float) -> int:
    """Trajectory points outside the exact alpha = 0 envelope."""
    lo, hi = sys.envelope([0.0], runs.shape[1] - 1)
    lo, hi = lo[:, 0][None], hi[:, 0][None]
    outside = 0
    for start in range(0, runs.shape[0], CHUNK_RUNS):
        chunk = runs[start:start + CHUNK_RUNS]
        bad = (chunk < lo - tol * np.abs(lo)) | (chunk > hi + tol * np.abs(hi))
        outside += int(np.count_nonzero(bad.any(axis=2)))
    return outside


def check_mc(runs, op: dict, sys: TfnSystem):
    shape = (op["N"], op["k"] + 1, sys.n)
    if np.shape(runs) != shape:
        return f"trajectory array has shape {np.shape(runs)}, expected {shape}"
    why = _trajectory_errors(np.asarray(runs), sys, 1e-12)
    if why:
        return why
    if sys.nonneg and own_outside(runs, sys, 1e-12):
        return "member trajectories leave the exact envelope"
    return None


def check_oracle(op: dict, code: int, stdout: str, sys: TfnSystem, csv_path):
    if code != 0:
        return f"exit code {code}, expected 0"
    n_runs, k, n = op["N"], op["k"], sys.n
    try:
        report = _last_json(stdout)
        data = _load_csv(csv_path, "run,k,i,value", 4)
    except (OSError, ValueError) as exc:
        return f"unreadable output: {exc}"
    if data.shape[0] != n_runs * (k + 1) * n:
        return f"{data.shape[0]} CSV rows, expected {n_runs * (k + 1) * n}"
    if (report.get("n_trajectories"), report.get("k"), report.get("mode")) != (
            n_runs, k, op["mode"]):
        return "report does not describe the run"
    data = data.reshape(n_runs, k + 1, n, 4)
    if (np.any(data[..., 0] != np.arange(1, n_runs + 1)[:, None, None])
            or np.any(data[..., 1] != np.arange(k + 1)[:, None])
            or np.any(data[..., 2] != np.arange(1, n + 1))):
        return "CSV rows are not ordered by run, step, coordinate"
    runs = data[..., 3]
    why = _trajectory_errors(runs, sys, 1e-9)
    if why:
        return why
    contain = report.get("containment")
    if sys.nonneg:
        if not isinstance(contain, dict):
            return "containment skipped on a non-negative system"
        points = n_runs * (k + 1)
        if (contain.get("points_checked"), contain.get("inside")) != (
                points, points - contain.get("outside", -1)):
            return "containment counts do not add up"
        if contain.get("outside") != 0:
            return f"{contain.get('outside')} points reported outside the envelope"
        mine = own_outside(runs, sys, RTOL)
        if mine != contain["outside"]:
            return f"recomputed containment finds {mine} points outside, report says 0"
    elif contain is not None or "containment_skipped" not in report:
        return "containment ran on a sign-indefinite system"
    radius = report.get("spectral_radius") or {}
    wide = int(np.count_nonzero(sys.hr > sys.hl))
    vertices = 2 ** wide if 2 ** wide <= 1024 else 0
    if radius.get("n_checked") != vertices + n_runs:
        return (f"radius report checked {radius.get('n_checked')} members, "
                f"expected {vertices + n_runs}")
    bound = float(spectral_radii(np.maximum(np.abs(sys.hl), np.abs(sys.hr))))
    if not radius.get("max", np.inf) <= bound + 1e-9:
        return f"reported max radius {radius.get('max')} exceeds the bound {bound:.6g}"
    if bound < 1.0 and radius.get("count_exceeding_one") != 0:
        return "members reported above radius 1 in a family bounded below 1"
    return None
