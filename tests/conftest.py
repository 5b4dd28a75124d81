"""Shared random corpora for unit and acceptance tests, exact stability
referees for one matrix and for 2x2 families, a cell-by-cell referee for
level groups, a one-search referee for membership grades and a runner for
fresh interpreters.

All generators take an explicit numpy Generator so every test pins its
own seed; nothing here draws from global state.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from fdikit import (
    FuzzySystem,
    FuzzyVector,
    IntervalMatrix,
    Tfn,
    vertex_stack,
)

from fdikit import fuzzy_num
from fdikit.fuzzy_num import level_cuts, stack_fault


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args, timeout: float = 60, **kwargs) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh interpreter that imports fdikit from
    ``src`` ahead of any other PYTHONPATH entry, with stdout and stderr
    captured as text."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=timeout, **kwargs)


def schur_stable(a) -> bool:
    """Exact Schur stability of one finite real square matrix: every
    eigenvalue lies strictly inside the unit circle.  Decided in
    ``fractions.Fraction``: a reduction to upper Hessenberg form by
    elimination similarities, the characteristic polynomial by the
    Hessenberg recurrence, then the Schur-Cohn recursion on it."""
    h = [[Fraction(x) for x in row] for row in np.asarray(a, dtype=float).tolist()]
    n = len(h)
    for k in range(n - 2):
        pivot = next((i for i in range(k + 1, n) if h[i][k]), None)
        if pivot is None:
            continue
        h[k + 1], h[pivot] = h[pivot], h[k + 1]  # swap rows and columns k + 1 and pivot
        for row in h:
            row[k + 1], row[pivot] = row[pivot], row[k + 1]
        for i in range(k + 2, n):  # row i -= f row k+1, then column k+1 += f column i
            f = h[i][k] / h[k + 1][k]
            if f:
                h[i] = [x - f * y for x, y in zip(h[i], h[k + 1])]
                for row in h:
                    row[k + 1] += f * row[i]
    # p_{k+1} = (x - h_kk) p_k - sum_{i<k} h_ik h_{i+1,i} ... h_{k,k-1} p_i,
    # coefficients lowest degree first
    polys = [[Fraction(1)]]
    for k in range(n):
        p = [Fraction(0)] + polys[k]
        for j, c in enumerate(polys[k]):
            p[j] -= h[k][k] * c
        chain = Fraction(1)
        for i in range(k - 1, -1, -1):
            chain *= h[i + 1][i]
            for j, c in enumerate(polys[i]):
                p[j] -= h[i][k] * chain * c
        polys.append(p)
    # Schur-Cohn: a of degree m is stable iff |a_0| < |a_m| and the degree m - 1
    # polynomial (a_m a(z) - a_0 z^m a(1/z)) / z is; each is scaled to be monic
    a = polys[n]
    while len(a) > 1:
        if not abs(a[0]) < abs(a[-1]):
            return False
        m = len(a) - 1
        a = [a[-1] * a[k] - a[0] * a[m - k] for k in range(1, m + 1)]
        a = [c / a[-1] for c in a]
    return True


def schur_stable_2x2(a) -> bool:
    """Exact Schur stability of one finite real 2x2 matrix: both eigenvalues
    lie strictly inside the unit circle exactly when det < 1, 1 + det - tr > 0
    and 1 + det + tr > 0 (Jury), here decided in ``fractions.Fraction``."""
    (p, q), (r, s) = ((Fraction(x) for x in row) for row in np.asarray(a).tolist())
    tr, det = p + s, p * s - q * r
    return det < 1 and 1 + det - tr > 0 and 1 + det + tr > 0


def family_2x2_stable(m: IntervalMatrix) -> bool:
    """Exact verdict on a whole 2x2 interval family: every member is Schur
    stable exactly when every vertex is.  Each of the three conditions of
    :func:`schur_stable_2x2` is affine in each entry on its own, so its
    extreme over the box sits at a vertex."""
    return all(schur_stable_2x2(v) for v in vertex_stack(m))


# -- level groups, read cell by cell -------------------------------------------

def ref_level_groups(cells, label=str):
    """level_groups read cell by cell: the breakpoints of each cell as floats,
    one stack per grid in order of first appearance, the lowest-index fault."""
    groups, faults = {}, []
    for p, cell in enumerate(cells):
        try:
            alphas, lo, hi = (tuple(map(float, v)) for v in fuzzy_num.breakpoints(cell))
        except (TypeError, ValueError, OverflowError) as exc:
            faults.append((p, ValueError(exc)))
            break
        groups.setdefault(alphas, []).append((p, lo, hi))
    stacks = [tuple(np.array(v) for v in (alphas, *zip(*members)))
              for alphas, members in groups.items()]
    for a, index, lo, hi in stacks:
        fault = stack_fault(a, lo, hi)
        if fault is not None:
            faults.append((index[fault[0]], fault[1]))
    if faults:
        p, exc = min(faults, key=lambda fault: fault[0])
        raise type(exc)(f"{label(p)}: {exc}")
    return [(a, index, lo.T, hi.T) for a, index, lo, hi in stacks]


def ref_membership_limits(alphas, lo, hi, p) -> np.ndarray:
    """fuzzy_num.membership_limits by one search over every column at once:
    complex keys (column, value), which numpy orders by column first, run
    column by column, and a NaN value sorts after every other key."""
    def keys(columns, values):  # set part by part: 1j * inf has a NaN real part
        out = np.empty(np.shape(values), complex)
        out.real, out.imag = columns, values
        return out

    lo, hi = lo.reshape(alphas.size, -1), hi.reshape(alphas.size, -1)
    p = np.reshape(p, (-1, lo.shape[1]))
    vals, p = np.concatenate([lo, -hi], axis=1), np.concatenate([p, -p], axis=1)
    size, cols = vals.shape
    base = np.arange(cols) * size
    flat = vals.T.ravel()
    sorted_keys = keys(np.repeat(np.arange(cols), size), flat)
    sups = []
    for side in ("right", "left"):
        j = np.searchsorted(sorted_keys, keys(np.arange(cols), p), side=side) - base
        k = np.minimum(np.maximum(j, 1), size - 1)
        below, above = flat[base + k - 1], flat[base + k]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t = (p - below) / (above - below)
        a = alphas[k - 1] + t * (alphas[k] - alphas[k - 1])
        sup = np.where(j == 0, 0.0, np.where(j == size, 1.0, a))
        sups.append((sup[:, :cols // 2], sup[:, cols // 2:]))
    (left, right), (left_strict, right_strict) = sups
    return np.array([np.minimum(left, right), np.minimum(left_strict, right),
                     np.minimum(left, right_strict)])


def stack_outcome(read, cells):
    """The groups ``read`` makes of ``cells`` and their cuts at some levels,
    as shapes, dtypes and bytes, or the ValueError raised."""
    try:
        groups = read(cells)
        cuts = level_cuts(groups, len(cells), [0.0, 0.25, 0.5, 0.7, 1.0])
    except ValueError as exc:
        return type(exc), str(exc)
    return [(a.shape, a.dtype, a.tobytes()) for g in [*groups, cuts] for a in g]


# H entries of 1e200 overflow the envelope to inf by step 2; the zero lower
# bound of H[0][0] then meets an infinite state (0 * inf = nan).
OVERFLOWING = {"n": 2,
               "H": [[{"tfn": [0.0, 1e200, 2e200]}, {"tfn": [1e200, 1e200, 1e200]}],
                     [{"tfn": [1e200, 1e200, 1e200]}, {"tfn": [0.0, 0.0, 1e200]}]],
               "x0": [{"tfn": [1e200, 1e200, 1e200]}, {"tfn": [0.0, 1.0, 1e300]}]}


def rand_tfn_nonneg(rng: np.random.Generator, center_scale: float = 1.0) -> Tfn:
    """Triangular number with non-negative support."""
    c = rng.uniform(0.0, center_scale)
    return Tfn(c * rng.uniform(0.0, 1.0), c, c + rng.uniform(0.0, 0.5 * center_scale))


def rand_fuzzy_levels(rng: np.random.Generator, span: float = 4.0):
    """Random nested level stack (alpha, lo, hi) with 2..5 levels."""
    m = int(rng.integers(2, 6))
    interior = np.sort(rng.uniform(0.0, 1.0, size=m - 2))
    alphas = np.concatenate([[0.0], interior, [1.0]])
    alphas = np.unique(alphas)
    lo = rng.uniform(-span, span)
    hi = lo + rng.uniform(0.0, span)
    rows = [(float(alphas[0]), lo, hi)]
    for a in alphas[1:]:
        width = hi - lo
        lo = lo + rng.uniform(0.0, 0.5) * width
        hi = hi - rng.uniform(0.0, 0.5) * (hi - lo)
        rows.append((float(a), lo, hi))
    return rows


def make_nonneg_system(rng: np.random.Generator, n_max: int = 4,
                       row_sum_range: tuple[float, float] = (0.2, 1.4),
                       n_levels: int = 11) -> FuzzySystem:
    """Random non-negative system; support row sums of the upper matrix are
    scaled into ``row_sum_range`` (systems may be stable or unstable)."""
    n = int(rng.integers(1, n_max + 1))
    h = []
    for i in range(n):
        entries = [rand_tfn_nonneg(rng) for _ in range(n)]
        target = rng.uniform(*row_sum_range)
        total = sum(e.r for e in entries)
        scale = target / total if total > 0 else 0.0
        h.append([Tfn(e.l * scale, e.c * scale, e.r * scale) for e in entries])
    x0 = FuzzyVector([
        Tfn(c - rng.uniform(0.0, c), c, c + rng.uniform(0.0, 1.0))
        for c in rng.uniform(0.5, 2.0, size=n)
    ])
    alphas = np.round(np.linspace(0.0, 1.0, n_levels), 12)
    return FuzzySystem(h=h, x0=x0, alphas=alphas)


def make_certified_nonneg_system(rng: np.random.Generator, n_max: int = 4,
                                 row_sum_max: float = 0.9,
                                 n_levels: int = 11) -> FuzzySystem:
    """Non-negative system whose upper support matrix has row sums below
    ``row_sum_max`` < 1, so the non-negative row criterion certifies it."""
    return make_nonneg_system(rng, n_max=n_max,
                              row_sum_range=(0.2, row_sum_max),
                              n_levels=n_levels)


def random_interval_matrix(rng: np.random.Generator, n: int,
                           scale: float = 1.0, width: float = 0.2) -> IntervalMatrix:
    """Unconstrained random interval matrix (any signs)."""
    center = rng.normal(0.0, scale, size=(n, n))
    radius = rng.uniform(0.0, width, size=(n, n))
    return IntervalMatrix(center - radius, center + radius)


def interval_matrix_nonneg_rows(rng: np.random.Generator, n: int,
                                row_sum_max: float = 0.95) -> IntervalMatrix:
    """Non-negative interval matrix whose hi row sums stay below 1."""
    hi = rng.uniform(0.0, 1.0, size=(n, n))
    hi *= (rng.uniform(0.1, row_sum_max, size=(n, 1)) / np.maximum(hi.sum(axis=1, keepdims=True), 1e-12))
    lo = hi * rng.uniform(0.0, 1.0, size=(n, n))
    return IntervalMatrix(lo, hi)


def interval_matrix_nonpos_rows(rng: np.random.Generator, n: int,
                                row_sum_max: float = 0.95) -> IntervalMatrix:
    """Mirror of :func:`interval_matrix_nonneg_rows` with all signs flipped."""
    m = interval_matrix_nonneg_rows(rng, n, row_sum_max)
    return IntervalMatrix(-m.hi, -m.lo)


def interval_matrix_small_norm(rng: np.random.Generator, n: int,
                               target: float = 0.6) -> IntervalMatrix:
    """Mixed-sign interval matrix scaled so the eigenvalue box certifies it."""
    center = rng.normal(0.0, 1.0, size=(n, n))
    center *= target / max(np.linalg.norm(center, 2), 1e-12)
    radius = rng.uniform(0.0, 0.05 / n, size=(n, n))
    return IntervalMatrix(center - radius, center + radius)


def certified_interval_corpus(rng: np.random.Generator, count: int,
                              n_choices=(1, 2, 3)):
    """Interval matrices on which some positive criterion fires.

    Yields (matrix, verdict) pairs drawn from the three generator families
    until ``count`` certified instances have been collected.
    """
    from fdikit import StabilityStatus, analyze

    out = []
    families = (interval_matrix_nonneg_rows, interval_matrix_nonpos_rows,
                interval_matrix_small_norm)
    while len(out) < count:
        fam = families[int(rng.integers(len(families)))]
        n = int(rng.choice(n_choices))
        m = fam(rng, n)
        verdict = analyze(m, n_samples=0)
        if verdict.status is StabilityStatus.ASYMPTOTICALLY_STABLE:
            out.append((m, verdict))
    return out
