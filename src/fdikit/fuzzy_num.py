"""Fuzzy numbers stored as nested stacks of alpha-cut intervals.

A fuzzy number here is a finite grid of alpha levels in [0, 1] (always
containing 0 and 1) with one closed interval per level; between grid
levels the endpoints are linear interpolations.  Every alpha-cut is
therefore exact and arithmetic acts directly on the cuts.  Triangular
numbers are the two-level special case.  Membership functions are the
piecewise-linear curves traced by the cut endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: Slack allowed when checking interval ordering / nestedness of levels.
ORDER_TOL = 1e-12


class StackingViolation(ValueError):
    """A family of alpha-level sets is not properly nested."""


@dataclass(frozen=True)
class Tfn:
    """Triangular fuzzy number as an ordered (left, center, right) triple."""

    l: float
    c: float
    r: float

    def __post_init__(self):
        if not (self.l <= self.c <= self.r):
            raise ValueError(
                f"triple must satisfy l <= c <= r, got ({self.l}, {self.c}, {self.r})"
            )

    def to_fuzzy(self) -> "FuzzyNumber":
        """Two-level stack: support [l, r] at alpha 0, point {c} at alpha 1."""
        return FuzzyNumber([0.0, 1.0], [self.l, self.c], [self.r, self.c])


def tfn_alpha_cut(t: Tfn, alpha: float) -> tuple[float, float]:
    """Alpha-cut of a triangular number: linear shrink from support to peak.

    Returns [c - (1-alpha)(c-l), c + (1-alpha)(r-c)].
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return (
        t.c - (1.0 - alpha) * (t.c - t.l),
        t.c + (1.0 - alpha) * (t.r - t.c),
    )


def _sup_alpha_at_most(vals: np.ndarray, alphas: np.ndarray, p: float,
                       strict: bool) -> float | None:
    """sup{alpha : vals(alpha) <= p} for a nondecreasing polyline vals(alpha).

    With ``strict`` the condition is ``vals(alpha) < p``.  Returns None when
    the set is empty and 1.0 when the condition holds on the whole grid.
    """
    if strict:
        if p <= vals[0]:
            return None
        if p > vals[-1]:
            return 1.0
        j = int(np.searchsorted(vals, p, side="left"))  # first vals[j] >= p
    else:
        if p < vals[0]:
            return None
        if p >= vals[-1]:
            return 1.0
        j = int(np.searchsorted(vals, p, side="right"))  # first vals[j] > p
    # vals[j-1] and vals[j] straddle p strictly on one side, so no 0/0.
    t = (p - vals[j - 1]) / (vals[j] - vals[j - 1])
    return float(alphas[j - 1] + t * (alphas[j] - alphas[j - 1]))


def stack_fault(alphas: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """First failed check of fuzzy numbers sharing the grid ``alphas``, whose
    cut endpoints are the rows of ``lo`` and ``hi``: (row, exception) for the
    first malformed row, or None.  A row failing several checks reports the
    first, in the order grid, finiteness, ordering, nestedness.
    """
    if alphas.size < 2 or alphas[0] != 0.0 or alphas[-1] != 1.0:
        return 0, ValueError("alpha grid must run from 0 to 1")
    if not np.all(np.diff(alphas) > 0):
        return 0, ValueError("alpha grid must be strictly increasing")
    checks = (
        (~(np.isfinite(lo) & np.isfinite(hi)).all(axis=1), ValueError,
         "support must be bounded (finite endpoints)"),
        ((hi - lo < -ORDER_TOL).any(axis=1), ValueError, "every level must satisfy lo <= hi"),
        (((np.diff(lo, axis=1) < -ORDER_TOL) | (np.diff(hi, axis=1) > ORDER_TOL)).any(axis=1),
         StackingViolation, "alpha-cuts must be nested (nonincreasing in alpha)"),
    )
    faults = [(int(np.argmax(bad)), kind(message)) for bad, kind, message in checks if bad.any()]
    return min(faults, key=lambda fault: fault[0], default=None)


class FuzzyNumber:
    """Piecewise-linear fuzzy number over a finite grid of alpha levels.

    Invariants: alphas strictly increasing from exactly 0 to exactly 1,
    lo <= hi at every level, cuts nested (raising alpha never widens an
    endpoint), bounded support.  Instances are immutable; operations
    return new numbers.
    """

    __slots__ = ("alphas", "lo", "hi")

    def __init__(self, alphas, lo, hi):
        alphas = np.array(alphas, dtype=float)
        lo = np.array(lo, dtype=float)
        hi = np.array(hi, dtype=float)
        if alphas.ndim != 1 or alphas.shape != lo.shape or alphas.shape != hi.shape:
            raise ValueError("alphas, lo, hi must be one-dimensional and equally long")
        fault = stack_fault(alphas, lo[np.newaxis], hi[np.newaxis])
        if fault is not None:
            raise fault[1]
        for a in (alphas, lo, hi):
            a.setflags(write=False)
        self.alphas = alphas
        self.lo = lo
        self.hi = hi

    @classmethod
    def from_levels(cls, levels: Iterable[tuple[float, float, float]]) -> "FuzzyNumber":
        """Build from an iterable of (alpha, lo, hi) rows."""
        rows = list(levels)
        if not rows:
            raise ValueError("empty level list")
        alphas, lo, hi = zip(*rows)
        return cls(alphas, lo, hi)

    # -- cuts ---------------------------------------------------------------

    def cut(self, alpha: float) -> tuple[float, float]:
        """Exact alpha-cut, interpolating endpoints between grid levels."""
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        return (
            float(np.interp(alpha, self.alphas, self.lo)),
            float(np.interp(alpha, self.alphas, self.hi)),
        )

    def cuts(self, alphas) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`cut` over an array of levels."""
        alphas = np.asarray(alphas, dtype=float)
        if np.any(alphas < 0.0) or np.any(alphas > 1.0):
            raise ValueError("alpha values must lie in [0, 1]")
        return np.interp(alphas, self.alphas, self.lo), np.interp(alphas, self.alphas, self.hi)

    @property
    def support(self) -> tuple[float, float]:
        return float(self.lo[0]), float(self.hi[0])

    # -- membership ---------------------------------------------------------

    def membership(self, p: float) -> float:
        """Grade of membership of the point ``p``: sup{alpha : p in cut(alpha)}."""
        a_left = _sup_alpha_at_most(self.lo, self.alphas, p, strict=False)
        a_right = _sup_alpha_at_most(-self.hi, self.alphas, -p, strict=False)
        if a_left is None or a_right is None:
            return 0.0
        return min(a_left, a_right)

    def membership_limit(self, p: float, side: int) -> float:
        """One-sided limit of the membership function at ``p``.

        ``side`` < 0 gives the limit from the left, > 0 from the right.
        Needed because stacks with repeated endpoints (flat runs, crisp
        points) have jump discontinuities.
        """
        if side < 0:
            a_left = _sup_alpha_at_most(self.lo, self.alphas, p, strict=True)
            a_right = _sup_alpha_at_most(-self.hi, self.alphas, -p, strict=False)
        else:
            a_left = _sup_alpha_at_most(self.lo, self.alphas, p, strict=False)
            a_right = _sup_alpha_at_most(-self.hi, self.alphas, -p, strict=True)
        if a_left is None or a_right is None:
            return 0.0
        return min(a_left, a_right)

    # -- conveniences ---------------------------------------------------------

    def levels(self) -> list[tuple[float, float, float]]:
        return [(float(a), float(l), float(h))
                for a, l, h in zip(self.alphas, self.lo, self.hi)]

    def __add__(self, other):
        if isinstance(other, FuzzyNumber):
            return fn_add(self, other)
        return NotImplemented

    def __rmul__(self, beta):
        if isinstance(beta, (int, float)):
            return fn_scale(float(beta), self)
        return NotImplemented

    __mul__ = __rmul__

    def __eq__(self, other):
        if not isinstance(other, FuzzyNumber):
            return NotImplemented
        return (self.alphas.shape == other.alphas.shape
                and bool(np.all(self.alphas == other.alphas))
                and bool(np.all(self.lo == other.lo))
                and bool(np.all(self.hi == other.hi)))

    def __hash__(self):
        return hash((self.alphas.tobytes(), self.lo.tobytes(), self.hi.tobytes()))

    def __repr__(self):
        if self.alphas.size == 2 and self.lo[1] == self.hi[1]:
            return f"FuzzyNumber(tfn=({self.lo[0]:g}, {self.lo[1]:g}, {self.hi[0]:g}))"
        return f"FuzzyNumber({self.alphas.size} levels, support=[{self.lo[0]:g}, {self.hi[0]:g}])"


def as_fuzzy(x) -> FuzzyNumber:
    """Coerce a Tfn, real number, JSON object or FuzzyNumber to a FuzzyNumber."""
    return x if isinstance(x, FuzzyNumber) else FuzzyNumber(*breakpoints(x))


def _merged(a: FuzzyNumber, b: FuzzyNumber):
    grid = np.union1d(a.alphas, b.alphas)
    alo, ahi = a.cuts(grid)
    blo, bhi = b.cuts(grid)
    return grid, alo, ahi, blo, bhi


def fn_add(a, b) -> FuzzyNumber:
    """Level-wise sum: cut endpoints add.  Grids are merged by interpolation."""
    grid, alo, ahi, blo, bhi = _merged(as_fuzzy(a), as_fuzzy(b))
    return FuzzyNumber(grid, alo + blo, ahi + bhi)


def fn_scale(beta: float, a) -> FuzzyNumber:
    """Level-wise scalar multiple; endpoints swap when ``beta`` is negative."""
    a = as_fuzzy(a)
    p, q = beta * a.lo, beta * a.hi
    return FuzzyNumber(a.alphas, np.minimum(p, q), np.maximum(p, q))


def fn_mul_approx(a: Tfn, b: Tfn) -> Tfn:
    """Triangular product approximation {a_l*b_l, a_c*b_c, a_r*b_r}.

    Only defined for non-negative triples (a_l >= 0 and b_l >= 0): the
    exact level-wise product of two triangular numbers is not triangular,
    and this endpoint shortcut is only ordered correctly on that domain.
    The result matches the exact product at alpha 0 and 1 but flattens its
    curvature in between.
    """
    if a.l < 0 or b.l < 0:
        raise ValueError(
            "triangular product approximation requires non-negative supports "
            f"(got left endpoints {a.l} and {b.l})"
        )
    return Tfn(a.l * b.l, a.c * b.c, a.r * b.r)


class FuzzyVector:
    """Vector of fuzzy numbers; its alpha-cut is the box of component cuts."""

    __slots__ = ("components",)

    def __init__(self, components: Sequence[FuzzyNumber]):
        comps = tuple(as_fuzzy(c) for c in components)
        if not comps:
            raise ValueError("fuzzy vector needs at least one component")
        self.components = comps

    @property
    def n(self) -> int:
        return len(self.components)

    def cut(self, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """Box cut: per-coordinate lower and upper endpoint vectors."""
        pairs = [c.cut(alpha) for c in self.components]
        lo, hi = zip(*pairs)
        return np.array(lo), np.array(hi)

    def __len__(self):
        return len(self.components)

    def __getitem__(self, i) -> FuzzyNumber:
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def __eq__(self, other):
        if not isinstance(other, FuzzyVector):
            return NotImplemented
        return self.components == other.components

    def __repr__(self):
        return f"FuzzyVector(n={self.n})"


def validate_nested(levels) -> FuzzyVector:
    """Stack per-alpha boxes into a FuzzyVector, enforcing containment.

    ``levels`` is an iterable of (alpha, lo, hi) with lo/hi scalars or
    length-N arrays.  Accepts iff alphas are strictly increasing and the
    boxes are nonincreasing; on failure raises StackingViolation naming
    the offending alpha pair.
    """
    rows = [(float(a), np.atleast_1d(np.asarray(lo, dtype=float)),
             np.atleast_1d(np.asarray(hi, dtype=float))) for a, lo, hi in levels]
    if not rows:
        raise ValueError("empty level list")
    n = rows[0][1].size
    if any(lo.size != n or hi.size != n for _, lo, hi in rows):
        raise ValueError("all boxes must share one dimension")
    alphas = np.array([a for a, _, _ in rows])
    if np.any(np.diff(alphas) <= 0):
        raise ValueError("alphas must be strictly increasing")
    for (a1, lo1, hi1), (a2, lo2, hi2) in zip(rows, rows[1:]):
        if np.any(lo2 - lo1 < -ORDER_TOL) or np.any(hi2 - hi1 > ORDER_TOL):
            raise StackingViolation(
                f"box at alpha={a2:g} is not contained in box at alpha={a1:g}"
            )
    los = np.vstack([lo for _, lo, _ in rows])
    his = np.vstack([hi for _, _, hi in rows])
    return FuzzyVector([FuzzyNumber(alphas, los[:, i], his[:, i]) for i in range(n)])


# -- JSON encoding -----------------------------------------------------------
#
# A fuzzy number serialises either as {"tfn": [l, c, r]} or as
# {"levels": [[alpha, lo, hi], ...]}; numbers are plain doubles.

def fuzzy_to_json(x) -> dict:
    """Canonical JSON object for a fuzzy number (triangular form preferred)."""
    x = as_fuzzy(x)
    if x.alphas.size == 2 and x.lo[1] == x.hi[1]:
        return {"tfn": [float(x.lo[0]), float(x.lo[1]), float(x.hi[0])]}
    return {"levels": [[a, l, h] for a, l, h in x.levels()]}


def fuzzy_from_json(obj) -> FuzzyNumber:
    """Parse the JSON encoding produced by :func:`fuzzy_to_json`."""
    return FuzzyNumber(*_json_breakpoints(obj))


def _json_breakpoints(obj):
    if not isinstance(obj, dict):
        raise ValueError(f"fuzzy number must be a JSON object, got {type(obj).__name__}")
    if "tfn" in obj:
        triple = obj["tfn"]
        if not (isinstance(triple, (list, tuple)) and len(triple) == 3):
            raise ValueError('"tfn" must be a list [l, c, r]')
        return breakpoints(Tfn(*(float(v) for v in triple)))
    if "levels" in obj:
        rows = obj["levels"]
        if not isinstance(rows, list) or not all(
            isinstance(r, (list, tuple)) and len(r) == 3 for r in rows
        ):
            raise ValueError('"levels" must be a list of [alpha, lo, hi] rows')
        if not rows:
            raise ValueError("empty level list")
        return tuple(zip(*((float(a), float(l), float(h)) for a, l, h in rows)))
    raise ValueError('fuzzy number object needs a "tfn" or "levels" field')


def breakpoints(x) -> tuple[tuple, tuple, tuple]:
    """(alphas, lo, hi) tuples of a FuzzyNumber, Tfn, real number or JSON object.

    The JSON object is read as :func:`fuzzy_from_json` reads it, but the
    numeric checks of :class:`FuzzyNumber` are left to the caller, so that
    many numbers can be checked at once.
    """
    if isinstance(x, FuzzyNumber):
        return tuple(x.alphas.tolist()), tuple(x.lo.tolist()), tuple(x.hi.tolist())
    if isinstance(x, (int, float)):
        x = Tfn(float(x), float(x), float(x))
    if isinstance(x, Tfn):
        return (0.0, 1.0), (x.l, x.c), (x.r, x.c)
    return _json_breakpoints(x)


def interp_levels(x, xp, fp) -> np.ndarray:
    """``np.interp(x, xp, f)`` for every column ``f`` of ``fp``, bit for bit.

    ``fp`` holds levels on its first axis and ``xp`` is a strictly
    increasing grid of alpha levels; the result has shape ``x.shape +
    fp.shape[1:]``.  Like ``np.interp``, this is the stored value at a
    breakpoint and ``slope * (x - xp[j]) + fp[j]`` between breakpoints.
    """
    x = np.asarray(x, dtype=float)
    if not np.all((xp[0] <= x) & (x <= xp[-1])):
        raise ValueError(f"alpha must lie in [{xp[0]:g}, {xp[-1]:g}], got {x}")
    j = np.searchsorted(xp, x, side="right") - 1
    k = np.minimum(j, xp.size - 2)
    col = x.shape + (1,) * (fp.ndim - 1)
    slope = (fp[k + 1] - fp[k]) / (xp[k + 1] - xp[k]).reshape(col)
    between = slope * (x - xp[k]).reshape(col) + fp[k]
    return np.where((xp[j] == x).reshape(col), fp[j], between)
