"""Sufficient stability tests for interval dynamic matrices.

All tests decide stability of the whole family {U : lo <= U <= hi} in the
discrete-time sense.  Positive verdicts come from strict sufficient
conditions (sign-definite Gershgorin rows, an eigenvalue box with corner
moduli below one, or a similarity transform isolating a simple marginal
mode); sampling can only falsify, never certify, so the fallback verdict
is Inconclusive.  Strict inequalities are evaluated with no epsilon slack
for positive verdicts; falsification requires slack FALSIFY_TOL.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .fuzzy_num import _floats
from .interval_linalg import (
    DEFAULT_VERTEX_BUDGET,
    IntervalMatrix,
    VertexBudgetError,
    halfsum,
    log_fallback,
    member_chunks,
    mid_rad,
    vertex_count,
)

__all__ = ["EigenBox", "StabilityStatus", "StabilityVerdict", "analyze", "condeig_check",
           "eigen_box_bounds", "eigen_box_rayleigh", "gershgorin_nonneg_test",
           "gershgorin_nonpos_test", "marginal_test", "member_radius_scan", "sampled_falsifier",
           "spectral_radii", "spectral_radius"]

#: Slack required before a sampled member counts as a falsification witness.
FALSIFY_TOL = 1e-9

#: Relative margin by which the top vertex of a sign-definite family must
#: out-radius each of its neighbours before the rest of the vertices are skipped.
PERRON_GAP = 1e-9

#: Tolerance on the block-triangular shape produced by a marginal transform.
SHAPE_TOL = 1e-9

#: Condition-number cap above which a transform matrix is rejected.
COND_CAP = 1e12

#: Sign patterns an eigenvalue-box cross-check scan tries before it takes the closed form.
SIGN_BUDGET = 2 ** 12

#: Power-iteration steps that bracket the members of a sign-definite scan.
BRACKET_STEPS = 64

#: Smallest normal double, and a bound that keeps power steps and their ratios finite.
_TINY, _HUGE = 2.0 ** -1022, 2.0 ** 1023

class StabilityStatus(Enum):
    ASYMPTOTICALLY_STABLE = "AsymptoticallyStable"
    STABLE = "Stable"
    INCONCLUSIVE = "Inconclusive"
    FALSIFIED = "Falsified"


@dataclass
class StabilityVerdict:
    """Outcome of a stability test: status, the rule that fired, witness JSON values."""

    status: StabilityStatus
    criterion: str
    witness: Optional[dict] = field(default=None)

    @property
    def is_stable(self) -> bool:
        return self.status in (StabilityStatus.ASYMPTOTICALLY_STABLE,
                               StabilityStatus.STABLE)

    def to_json_obj(self) -> dict:
        """The verdict as a dict for ``json.dumps``.  Every criterion stores
        its witness as JSON values, which pass through as they are."""
        out = {"status": self.status.value, "criterion": self.criterion}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class EigenBox:
    """Axis-aligned rectangle containing every member eigenvalue."""

    r_lo: float
    r_hi: float
    i_lo: float
    i_hi: float

    def __post_init__(self):
        if self.r_lo > self.r_hi or self.i_lo > self.i_hi:
            raise ValueError("eigenvalue box needs lo <= hi on both axes")

    def corner_moduli(self) -> np.ndarray:
        # a modulus that overflows to inf fails every "< 1" test it meets
        with np.errstate(over="ignore"):
            return np.hypot(
                np.array([self.r_lo, self.r_lo, self.r_hi, self.r_hi]),
                np.array([self.i_lo, self.i_hi, self.i_lo, self.i_hi]),
            )

    def contains_box(self, other: "EigenBox", tol: float = 0.0) -> bool:
        return (self.r_lo - tol <= other.r_lo and other.r_hi <= self.r_hi + tol
                and self.i_lo - tol <= other.i_lo and other.i_hi <= self.i_hi + tol)


def spectral_radius(m) -> float:
    """Spectral radius of a crisp matrix: :func:`spectral_radii` of one matrix."""
    return float(spectral_radii(_floats(m)))


def spectral_radii(stack: np.ndarray) -> np.ndarray:
    """Spectral radii of a batch of matrices, shape (..., n, n) -> (...)."""
    return np.max(np.abs(np.linalg.eigvals(stack)), axis=-1)


# -- Gershgorin tests for sign-definite families ------------------------------

def _sign(m: IntervalMatrix) -> int:
    """1 when every member is non-negative, -1 when every member is
    non-positive, else 0."""
    return 1 if (m.lo >= 0).all() else -1 if (m.hi <= 0).all() else 0


def _first_row_not_below_one(rows: np.ndarray, slack: np.ndarray) -> Optional[int]:
    """The strict row rule on the non-negative ``rows``, whose float row
    slacks 1 - sum are ``slack``: None when every exact row sum is below 1,
    else the row to report.  The float screen fails at the row of least
    slack.  Rows it passes are summed by ``math.fsum``, which rounds
    correctly, so a sum below 1 proves the exact sum below 1; the first row
    whose sum is not is reported.  Passed rows cannot overflow."""
    if not (slack > 0).all():
        return int(np.argmin(slack))
    exact = [math.fsum(row) < 1.0 for row in rows.tolist()]
    return None if all(exact) else exact.index(False)


def _row_test(lo: np.ndarray, hi: np.ndarray, sign: float, criterion: str,
              reason: str) -> StabilityVerdict:
    """Strict row test on the non-negative family [lo, hi], which is the
    tested family times ``sign``; witness values carry the tested signs."""
    if (lo < 0).any():
        i, j = np.argwhere(lo < 0)[0]
        return StabilityVerdict(
            StabilityStatus.INCONCLUSIVE, criterion,
            {"reason": reason, "entry": [int(i), int(j)], "value": sign * float(lo[i, j])})
    with np.errstate(over="ignore"):  # an infinite sum fails the rule
        off = hi.sum(axis=1) - np.diag(hi)
    slack = 1.0 - np.diag(hi) - off
    i = _first_row_not_below_one(hi, slack)
    if i is None:
        return StabilityVerdict(
            StabilityStatus.ASYMPTOTICALLY_STABLE, criterion,
            {"row_margins": slack.tolist()})
    # "+ 0.0" keeps an exactly zero sum unsigned after the sign flip.
    return StabilityVerdict(
        StabilityStatus.INCONCLUSIVE, criterion,
        {"reason": "row condition fails (not strict)", "row": i,
         "offdiag_sum": sign * float(off[i]) + 0.0, "diag": sign * float(hi[i, i])})


def gershgorin_nonneg_test(m: IntervalMatrix) -> StabilityVerdict:
    """Row test for non-negative families: certifies when lo >= 0 and every
    row of hi has off-diagonal sum strictly below 1 minus its diagonal."""
    m.n  # rejects non-square input
    return _row_test(m.lo, m.hi, 1.0, "gershgorin_nonneg",
                     "lower bound matrix has a negative entry")


def gershgorin_nonpos_test(m: IntervalMatrix) -> StabilityVerdict:
    """Mirror row test for non-positive families: the non-negative test on
    the exactly negated family [-hi, -lo], whose members have the same
    spectral radii; the row margins are those of the mirror rule."""
    m.n  # rejects non-square input
    return _row_test(-m.hi, -m.lo, -1.0, "gershgorin_nonpos",
                     "upper bound matrix has a positive entry")


# -- eigenvalue box ------------------------------------------------------------

def _sym(a: np.ndarray) -> np.ndarray:
    return halfsum(a, a.T)


def eigen_box_bounds(m: IntervalMatrix) -> EigenBox:
    """Closed-form rectangle containing all member eigenvalues.

    Split the family into center C and radius D.  Real parts lie between
    the extreme eigenvalues of sym(C) widened by the largest eigenvalue of
    sym(D); imaginary parts are bounded by the largest eigenvalue of the
    symmetric 2Nx2N embedding of the skew part of C, widened the same way.
    The rectangle is symmetric about the real axis (real data).
    """
    n = m.n
    c, d = mid_rad(m)
    sym_c, sym_d = np.linalg.eigvalsh(np.stack([_sym(c), _sym(d)]))
    spread = float(sym_d[-1])
    r_lo, r_hi = float(sym_c[0]) - spread, float(sym_c[-1]) + spread
    emb = np.zeros((2 * n, 2 * n))
    emb[:n, n:] = halfsum(c, -c.T)
    emb[n:, :n] = emb[:n, n:].T
    i_hi = float(np.linalg.eigvalsh(emb)[-1]) + spread
    return EigenBox(r_lo, r_hi, -i_hi, i_hi)


def _sign_vertex_max(value, k: int) -> float:
    """Largest objective over the 2^k sign patterns t in {-1, 1}^k, where
    ``value`` maps a (P, k) stack of patterns to their values."""
    bits = np.arange(2 ** k)[:, None] >> np.arange(k) & 1
    return float(np.max(value(1.0 - 2.0 * bits)))


def eigen_box_rayleigh(m: IntervalMatrix, n_starts=None, seed=None) -> EigenBox:
    """Sign-vertex cross-check of :func:`eigen_box_bounds`, with center C
    and radius D: the real bounds are the extreme lambda_max(+-sym(C) +
    S sym(D) S) over sign matrices S (Hertz 1992; Rohn 1994), the imaginary
    bound the largest ||A_t||_2 over antisymmetric A_t with upper entries
    skew(C)_ij + t_ij sym(D)_ij.  A scan of at most SIGN_BUDGET patterns
    (2^(n-1) real, 2^(n(n-1)/2) imaginary) is exhaustive, a larger one the
    closed-form coordinate, so the box always lies inside the closed-form
    box.  ``n_starts`` and ``seed`` are ignored."""
    n = m.n
    c, d = mid_rad(m)
    i, j = np.triu_indices(n, 1)
    sym_d = _sym(d)
    skew, wide = halfsum(c, -c.T)[i, j], sym_d[i, j]

    def real(sym_c):
        def value(t):  # s and -s give one matrix, so s_0 = 1
            s = np.hstack([np.ones((len(t), 1)), t])
            return np.linalg.eigvalsh(sym_c + s[:, :, None] * sym_d * s[:, None, :])[:, -1]
        return _sign_vertex_max(value, n - 1)

    def imag(t):
        a = np.zeros((len(t), n, n))
        a[:, i, j] = skew + t * wide
        return np.linalg.svd(a - a.transpose(0, 2, 1), compute_uv=False)[:, 0]

    # the imaginary scan has the most patterns, n(n-1)/2 >= n-1
    if 2 ** len(skew) <= SIGN_BUDGET:
        i_hi = _sign_vertex_max(imag, len(skew))
    else:
        closed = eigen_box_bounds(m)
        if 2 ** (n - 1) > SIGN_BUDGET:
            return closed
        i_hi = closed.i_hi
    r_hi, r_lo = real(_sym(c)), -real(-_sym(c))
    return EigenBox(min(r_lo, r_hi), r_hi, -i_hi, i_hi)


def condeig_check(box: EigenBox) -> StabilityVerdict:
    """Certify when the box's four corner moduli all sit strictly inside the
    unit circle; the max modulus over a rectangle is attained at a corner."""
    moduli = box.corner_moduli()
    witness = {"eigen_box": dict(vars(box)), "corner_moduli": moduli.tolist()}
    if float(moduli.max()) < 1.0:
        return StabilityVerdict(StabilityStatus.ASYMPTOTICALLY_STABLE,
                                "eigen_box", witness)
    return StabilityVerdict(StabilityStatus.INCONCLUSIVE, "eigen_box", witness)


# -- marginal stability via a supplied transform -------------------------------

def _transformed_block(c: np.ndarray, r: np.ndarray, t_inv: np.ndarray,
                       t: np.ndarray) -> tuple[Optional[tuple[np.ndarray, np.ndarray]], str]:
    """Center and radius of the reduced block of T^-1 M T over the members M
    of [c - r, c + r], whose transforms lie within T^-1 c T +- |T^-1| r |T|
    (Neumaier 1990); otherwise (None, reason).  Every member must keep a
    unit corner and a zero last row or a zero last column, up to SHAPE_TOL.
    A transform that is not finite passes no shape test."""
    with np.errstate(over="ignore", invalid="ignore"):
        c2, r2 = t_inv @ c @ t, np.abs(t_inv) @ r @ np.abs(t)
    if not (np.isfinite(c2).all() and np.isfinite(r2).all()):
        return None, "transformed matrix is not finite"
    if abs(c2[-1, -1] - 1.0) + r2[-1, -1] > SHAPE_TOL:
        spread = f" +- {float(r2[-1, -1]):g}" if r2[-1, -1] else ""
        return None, f"corner entry is {float(c2[-1, -1]):g}{spread}, not 1"
    row_zero = (np.abs(c2[-1, :-1]) + r2[-1, :-1] <= SHAPE_TOL).all()
    col_zero = (np.abs(c2[:-1, -1]) + r2[:-1, -1] <= SHAPE_TOL).all()
    if not (row_zero or col_zero):
        return None, "transformed matrix is not block-triangular"
    return (c2[:-1, :-1], r2[:-1, :-1]), ""


def marginal_test(m: IntervalMatrix, t) -> StabilityVerdict:
    """Marginal-stability test through a caller-supplied similarity transform.

    T must give every member a block-triangular shape with a 1 in the
    corner; the remaining block then carries the strictly-contracting part,
    checked at hi by a strict Gershgorin row test for a non-negative family
    (Perron-Frobenius), and through the center-radius enclosure by the
    eigenvalue box for any family.  No non-positive family can pass: its lo
    would have both 1 and -1 as eigenvalues.  Success means Stable
    (marginal, not asymptotic), up to SHAPE_TOL.  T is never searched for.
    """
    t = _floats(t)
    n = m.n
    if t.shape != (n, n):
        raise ValueError(f"transform must be {n}x{n}, got {t.shape}")
    cond = np.linalg.cond(t)
    if not np.isfinite(cond) or cond > COND_CAP:
        raise ValueError(f"transform is singular or ill-conditioned (cond={cond:g})")
    t_inv = np.linalg.inv(t)

    reasons = []
    if _sign(m) > 0:
        block, why = _transformed_block(m.hi, np.zeros_like(m.hi), t_inv, t)
        if block is not None:
            # Transforms can flip signs, so the rule applies to |block|.
            rows = np.abs(block[0])
            with np.errstate(over="ignore"):
                sums = rows.sum(axis=1)
            i = _first_row_not_below_one(rows, 1.0 - sums)
            if i is None:
                return StabilityVerdict(
                    StabilityStatus.STABLE, "marginal_transform",
                    {"case": "nonneg", "reduced": block[0].tolist()})
            why = f"reduced row {i} has Gershgorin bound {float(sums[i]):g} >= 1"
        reasons.append(f"non-negative case: {why}")

    block, why = _transformed_block(*mid_rad(m), t_inv, t)
    if block is None:
        reasons.append(f"general case: {why}")
    elif block[0].size == 0:
        return StabilityVerdict(StabilityStatus.STABLE, "marginal_transform",
                                {"case": "general", "reduced": []})
    else:
        c, r = block
        sub = condeig_check(eigen_box_bounds(IntervalMatrix(c - r, c + r)))
        if sub.status is StabilityStatus.ASYMPTOTICALLY_STABLE:
            return StabilityVerdict(
                StabilityStatus.STABLE, "marginal_transform",
                {"case": "general", "reduced_box": sub.witness["eigen_box"]})
        reasons.append("general case: reduced eigenvalue box reaches the unit circle")

    return StabilityVerdict(StabilityStatus.INCONCLUSIVE, "marginal_transform",
                            {"reasons": reasons})


# -- sampling -------------------------------------------------------------------

@dataclass(frozen=True)
class MemberScan:
    """Spectral radii over the vertices (when within budget), then seeded
    random members, of an interval matrix."""

    n_checked: int
    max_radius: float
    worst: np.ndarray  # first member attaining max_radius
    n_above_one: int  # members with spectral radius > 1


def _collatz_wielandt(a: np.ndarray, best: float) -> tuple[np.ndarray, int, int, int]:
    """Members of the non-negative stack ``a`` that need an eigensolve.

    For x > 0, min_i (Ax)_i / x_i <= rho(A) <= max_i (Ax)_i / x_i
    (Collatz 1942; Wielandt 1950).  Batched power steps from x = 1 tighten
    these brackets.  A member is ruled out once its upper bound is below
    (1 - PERRON_GAP) times the larger of ``best`` and the largest lower
    bound, and its bracket clears 1 by PERRON_GAP.  A member that stays
    needed is iterated until its bracket is within PERRON_GAP, or until
    it is the only one needed and holds that largest lower bound.  A step
    whose iterate has a zero or unbounded entry ends a member's iteration
    (a zero row gives no bracket at all), and BRACKET_STEPS ends them all.
    Computed ratios are off by about (n + 2) unit roundoffs.

    Returns the needed mask, the number of members ruled out with a radius
    above 1, and the numbers of needed members whose step failed or that
    were still open at the cap.
    """
    k = len(a)
    low, up, bad = np.zeros(k), np.full(k, np.inf), np.zeros(k, dtype=bool)
    need, idx, x, x_min = np.ones(k, dtype=bool), np.arange(k), np.ones(a.shape[:2]), 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing step fails ok
        for _ in range(BRACKET_STEPS):
            y = np.matmul(a, x[:, :, None])[:, :, 0]
            y_min, y_max = y.min(axis=1), y.max(axis=1)
            # normal entries keep the rounding relative; the second test keeps y / x finite
            ok = (y_min >= _TINY) & (y_max <= x_min * _HUGE)
            if not ok.all():
                bad[idx[~ok]] = True
                a, idx, x, y, y_min, y_max = a[ok], idx[ok], x[ok], y[ok], y_min[ok], y_max[ok]
            ratio = y / x
            lo_k = low[idx] = np.maximum(low[idx], ratio.min(axis=1))
            up_k = up[idx] = np.minimum(up[idx], ratio.max(axis=1))
            top = max(best, float(low.max()))  # a NaN best stays NaN: nothing beats it
            need = ((up >= top * (1.0 - PERRON_GAP))  # could be the new first maximum
                    | ((low <= 1.0 + PERRON_GAP) & (up >= 1.0 - PERRON_GAP)))  # near 1
            go = need[idx] & (up_k > lo_k * (1.0 + PERRON_GAP))
            # a lone needed member that holds the largest lower bound stays needed
            if not go.any() or (top > best and np.count_nonzero(need) == 1):
                idx = idx[:0]
                break
            if not go.all():
                a, idx, y, y_min, y_max = a[go], idx[go], y[go], y_min[go], y_max[go]
            x, x_min = y / y_max[:, None], y_min / y_max  # x_min is exactly x.min(axis=1)
    over = int(np.count_nonzero(~need & (low > 1.0 + PERRON_GAP)))
    return need, over, int(np.count_nonzero(bad & need)), idx.size


def member_radius_scan(m: IntervalMatrix, n_samples: int, seed,
                       max_vertices: int = DEFAULT_VERTEX_BUDGET) -> MemberScan:
    """Spectral radius of every vertex (if there are at most ``max_vertices``;
    else the "vertex budget exceeded" fallback is logged) and of
    ``n_samples`` uniform members drawn from ``seed``.

    Members are built and solved in the chunks of :func:`member_chunks`, so
    memory does not grow with the member count.  Ties keep the first member
    in that order.  No member to check raises VertexBudgetError.  In a
    sign-definite family, only the members that Collatz-Wielandt brackets
    (:func:`_collatz_wielandt`) cannot rule out are solved; the result is
    that of solving every member whenever each computed radius is within
    PERRON_GAP / 2 - (n + 2) unit roundoffs of the exact one.
    """
    if n_samples < 0:
        raise ValueError(f"sample count must be non-negative, got {n_samples}")
    count = vertex_count(m)
    n_vertices = count if count <= max_vertices else 0
    if not n_vertices:
        log_fallback(__name__, "vertex budget exceeded, sampling only: %d vertices > %d",
                     count, max_vertices)
    if n_vertices + n_samples == 0:
        raise VertexBudgetError(f"{count} vertices exceed the budget of {max_vertices} "
                                "and no samples were requested: no member to check")
    sign = _sign(m)
    best, worst, above, n_bad, n_cap = -np.inf, None, 0, 0, 0
    for _, stack in member_chunks(m, n_vertices, n_samples, np.random.default_rng(seed)):
        if sign:
            need, over, bad, cap = _collatz_wielandt(stack if sign > 0 else -stack, best)
            above, n_bad, n_cap = above + over, n_bad + bad, n_cap + cap
            radii = np.full(len(stack), -np.inf)  # ruled out: never the first maximum
            if need.any():
                radii[need] = spectral_radii(stack[need])
        else:
            radii = spectral_radii(stack)
        i = int(np.argmax(radii))
        if worst is None or radii[i] > best:
            best, worst = float(radii[i]), stack[i].copy()
        above += int(np.count_nonzero(radii > 1.0))
    if n_bad or n_cap:
        log_fallback(__name__, "brackets unresolved for %d of %d members: %d stopped by a zero "
                     "or unbounded step, %d open after %d steps", n_bad + n_cap,
                     n_vertices + n_samples, n_bad, n_cap, BRACKET_STEPS)
    return MemberScan(n_vertices + n_samples, best, worst, above)


def sampled_falsifier(m: IntervalMatrix, n_samples: int = 1000,
                      seed: int = 0) -> StabilityVerdict:
    """Search vertices and random members for one with spectral radius > 1.

    Can disprove the all-members-stable hypothesis but never prove it, so
    the non-finding verdict is Inconclusive.  A Falsified verdict carries
    the witness matrix and its spectral radius, recomputable on its own.
    ``n_checked`` counts the samples and the vertices, if there are at most
    ``DEFAULT_VERTEX_BUDGET`` (read at call time).  Within that budget, a
    sign-definite family first solves its top vertex, hi when lo >= 0 and
    lo when hi <= 0 (rho(M) = rho(-M)), and its neighbours, the top with
    one wide entry at its other endpoint.  Every member lies, in absolute
    value, entrywise between 0 and the top, and every other vertex below a
    neighbour, so by Perron-Frobenius monotonicity no member's radius
    exceeds the top's, nor any other vertex's that of its neighbour.  When
    every neighbour's computed radius is below the top's by the relative
    margin PERRON_GAP, kept for eigensolver rounding, the top gives the
    verdict and no other member is built, drawn or solved.  A tie or a NaN
    radius falls back to the full member scan, which solves the top and its
    neighbours again (measured and left: 11 of 974 solves in a 4x4 tie).
    ``n_samples`` must be an integer (``operator.index``).
    """
    n_samples = operator.index(n_samples)  # keeps "n_checked" a JSON int
    if n_samples < 0:
        raise ValueError(f"sample count must be non-negative, got {n_samples}")
    count = vertex_count(m)
    n_vertices = count if count <= DEFAULT_VERTEX_BUDGET else 0
    sign, best = (_sign(m) if n_vertices else 0), None
    if sign:
        # the last vertex (hi at every wide entry) or the first (lo everywhere)
        top = (np.where(m.hi > m.lo, m.hi, m.lo) if sign > 0 else m.lo)[None]
        wide, other = np.flatnonzero(m.hi > m.lo), m.lo if sign > 0 else m.hi
        stack = np.repeat(top, wide.size + 1, axis=0)
        stack.reshape(wide.size + 1, -1)[np.arange(1, wide.size + 1), wide] = other.ravel()[wide]
        radii = spectral_radii(stack)
        if radii[1:].max(initial=-np.inf) < radii[0] * (1.0 - PERRON_GAP):  # False on NaN
            best, worst = float(radii[0]), top[0]
        else:
            log_fallback(__name__, "Perron gap below PERRON_GAP, full vertex scan of %d vertices",
                         count)
    if best is None:
        scan = member_radius_scan(m, n_samples, seed, DEFAULT_VERTEX_BUDGET)
        best, worst = scan.max_radius, scan.worst
    if best > 1.0 + FALSIFY_TOL:
        return StabilityVerdict(
            StabilityStatus.FALSIFIED, "sampled_falsifier",
            {"matrix": worst.tolist(), "spectral_radius": best})
    return StabilityVerdict(
        StabilityStatus.INCONCLUSIVE, "sampled_falsifier",
        {"max_sampled_radius": best, "n_checked": n_vertices + n_samples})


def analyze(m: IntervalMatrix, t=None, n_samples: int = 1000,
            seed: int = 0) -> StabilityVerdict:
    """Run the criteria in order and return the first decisive verdict.

    Order: non-negative rows, non-positive rows, eigenvalue box with
    corner check, marginal transform (only when ``t`` is supplied),
    sampled falsifier.  When nothing fires, the verdict is Inconclusive
    with every sub-report attached.
    """
    criteria = [gershgorin_nonneg_test, gershgorin_nonpos_test,
                lambda m: condeig_check(eigen_box_bounds(m))]
    if t is not None:
        criteria.append(lambda m: marginal_test(m, t))
    criteria.append(lambda m: sampled_falsifier(m, n_samples=n_samples, seed=seed))
    reports = []
    for criterion in criteria:
        v = criterion(m)
        if v.status is not StabilityStatus.INCONCLUSIVE:
            return v
        reports.append(v)
    return StabilityVerdict(
        StabilityStatus.INCONCLUSIVE, "none",
        {"sub_reports": [r.to_json_obj() for r in reports]})
